// CSV / JSON serialization of sweep results, and the row writer every
// deterministic export (sweep records, search and tempering traces) shares.
//
// Writers emit only deterministic fields (design identity, derived seed,
// analytic proxies, simulation measurements) — never wall-clock times or
// cache-hit flags — so the export of an N-thread sweep is byte-identical
// to the 1-thread export of the same spec. Numbers are printed with
// std::to_chars: shortest round-trip form for doubles, which is exact and
// locale-independent, and for integers the digits `ostream <<` prints in
// the classic locale.
#pragma once

#include <charconv>
#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "explore/sweep.hpp"

namespace hm::explore {

/// One column of one exported row: its name and its CSV and JSON spellings.
struct Cell {
  const char* name;
  std::string csv;
  std::string json;
};

/// A number, spelled the same in both formats.
template <typename T>
Cell num(const char* name, T v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  std::string s(buf, ptr);
  return {name, s, s};
}

/// 1/0 in CSV, true/false in JSON.
Cell flag(const char* name, bool v);

/// RFC 4180 quoting in CSV (only when the value holds a comma, quote or
/// newline); a quoted, escaped string in JSON.
Cell text(const char* name, const std::string& v);

/// CSV: a header line, then one line per row. JSON: an array with one
/// object per row, one row per line. `cells_of(row)` lists a row's cells;
/// the header takes its names from `cells_of(Row{})`, so an empty table
/// still has one.
template <typename Row, typename CellsOf>
void write_rows(std::ostream& os, const std::vector<Row>& rows, bool json,
                const CellsOf& cells_of) {
  if (json) {
    os << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const char* sep = "  {";
      for (const Cell& c : cells_of(rows[i])) {
        os << sep << '"' << c.name << "\": " << c.json;
        sep = ", ";
      }
      os << (i + 1 < rows.size() ? "},\n" : "}\n");
    }
    os << "]\n";
    return;
  }
  const char* sep = "";
  for (const Cell& c : cells_of(Row{})) {
    os << sep << c.name;
    sep = ",";
  }
  os << '\n';
  for (const Row& r : rows) {
    sep = "";
    for (const Cell& c : cells_of(r)) {
      os << sep << c.csv;
      sep = ",";
    }
    os << '\n';
  }
}

/// True when `path` ends in ".json": the file exports write JSON there and
/// CSV everywhere else.
[[nodiscard]] bool is_json_path(const std::string& path);

/// Header + one row per record, in record order.
void write_csv(std::ostream& os, const std::vector<SweepRecord>& records);
[[nodiscard]] std::string to_csv(const std::vector<SweepRecord>& records);

/// A JSON array of objects, one per record, in record order.
void write_json(std::ostream& os, const std::vector<SweepRecord>& records);
[[nodiscard]] std::string to_json(const std::vector<SweepRecord>& records);

/// Opt-in variant wrapping the record array together with the current
/// telemetry::snapshot(): {"records": [...], "telemetry": {...}}. A
/// separate entry point — never the default — so the plain exports (and
/// the committed goldens built from them) stay byte-identical whether or
/// not telemetry is enabled. The telemetry block is timing-dependent under
/// concurrency; don't diff it across runs.
void write_json_with_telemetry(std::ostream& os,
                               const std::vector<SweepRecord>& records);

/// Explicit-format file writers. Throw std::runtime_error when the file
/// cannot be opened.
void write_csv_file(const std::string& path,
                    const std::vector<SweepRecord>& records);
void write_json_file(const std::string& path,
                     const std::vector<SweepRecord>& records);

/// Writes records to `path`: JSON when is_json_path(path), else CSV.
/// Throws std::runtime_error when the file cannot be opened.
void export_file(const std::string& path,
                 const std::vector<SweepRecord>& records);

}  // namespace hm::explore
