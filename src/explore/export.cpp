#include "explore/export.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace hm::explore {

namespace {

/// RFC-4180 quoting: wrap when the value contains a comma, quote or
/// newline; double any embedded quotes.
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Exported arrangement name: the family for cartesian points, the
/// registered label for warm-start points (SweepEngine::add_arrangement).
std::string arrangement_name(const SweepPoint& p) {
  return p.custom ? p.label : core::to_string(p.type);
}

/// Fault columns appear only when some record ran with a fault scenario,
/// so fault-free exports (goldens included) stay byte-identical to the
/// pre-fault format.
bool any_faults(const std::vector<SweepRecord>& records) {
  for (const auto& rec : records) {
    if (rec.point.params.faults.enabled()) return true;
  }
  return false;
}

/// The columns of one sweep record, the fault block only when `faults`.
std::vector<Cell> cells(const SweepRecord& rec, bool faults) {
  const auto& p = rec.point;
  const auto& r = rec.result;
  std::vector<Cell> row = {
      num("index", p.index),
      text("arrangement", arrangement_name(p)),
      text("regularity", core::to_string(r.regularity)),
      num("chiplets", p.chiplet_count),
      num("param_set", p.param_index),
      text("traffic", p.traffic.describe()),
      num("seed", p.params.sim.seed),
      num("diameter", r.diameter),
      num("avg_hop_distance", r.avg_hop_distance),
      num("bisection_links", r.bisection_links),
      num("chiplet_area_mm2", r.chiplet_area_mm2),
      num("link_area_mm2", r.link_area_mm2),
      num("per_link_bandwidth_bps", r.per_link_bandwidth_bps),
      num("full_global_bandwidth_bps", r.full_global_bandwidth_bps),
      num("zero_load_latency_cycles", r.zero_load_latency_cycles),
      flag("latency_run_drained", r.latency_run_drained),
      num("saturation_fraction", r.saturation_fraction),
      num("saturation_throughput_bps", r.saturation_throughput_bps)};
  if (faults) {
    row.insert(row.end(),
               {text("fault_scenario", p.params.faults.describe()),
                num("fault_plans_run", r.fault_plans_run),
                num("fault_degraded_throughput",
                    r.fault_degraded_throughput),
                num("fault_robust_throughput_bps",
                    r.fault_robust_throughput_bps),
                num("fault_recovery_cycles", r.fault_recovery_cycles),
                num("fault_packets_lost", r.fault_packets_lost)});
  }
  row.insert(row.end(), {flag("analytic_only", rec.analytic_only),
                         text("error", rec.error)});
  return row;
}

void write_records(std::ostream& os, const std::vector<SweepRecord>& records,
                   bool json) {
  const bool faults = any_faults(records);
  write_rows(os, records, json,
             [faults](const SweepRecord& rec) { return cells(rec, faults); });
}

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("export_file: cannot open " + path);
  }
  return os;
}

}  // namespace

Cell flag(const char* name, bool v) {
  return {name, v ? "1" : "0", v ? "true" : "false"};
}

Cell text(const char* name, const std::string& v) {
  return {name, csv_escape(v), '"' + json_escape(v) + '"'};
}

bool is_json_path(const std::string& path) { return path.ends_with(".json"); }

void write_csv(std::ostream& os, const std::vector<SweepRecord>& records) {
  write_records(os, records, false);
}

std::string to_csv(const std::vector<SweepRecord>& records) {
  std::ostringstream os;
  write_csv(os, records);
  return os.str();
}

void write_json(std::ostream& os, const std::vector<SweepRecord>& records) {
  write_records(os, records, true);
}

std::string to_json(const std::vector<SweepRecord>& records) {
  std::ostringstream os;
  write_json(os, records);
  return os.str();
}

void write_json_with_telemetry(std::ostream& os,
                               const std::vector<SweepRecord>& records) {
  os << "{\n\"records\": ";
  write_json(os, records);
  os << ",\n\"telemetry\": ";
  telemetry::write_snapshot_json(os);
  os << "\n}\n";
}

void write_csv_file(const std::string& path,
                    const std::vector<SweepRecord>& records) {
  auto os = open_or_throw(path);
  write_csv(os, records);
}

void write_json_file(const std::string& path,
                     const std::vector<SweepRecord>& records) {
  auto os = open_or_throw(path);
  write_json(os, records);
}

void export_file(const std::string& path,
                 const std::vector<SweepRecord>& records) {
  auto os = open_or_throw(path);
  write_records(os, records, is_json_path(path));
}

}  // namespace hm::explore
