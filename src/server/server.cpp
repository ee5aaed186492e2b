#include "server/server.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <utility>

#ifndef _WIN32
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "explore/cached_eval.hpp"
#include "explore/export.hpp"
#include "explore/sweep.hpp"
#include "search/search.hpp"
#include "store/record.hpp"
#include "store/result_store.hpp"
#include "telemetry/telemetry.hpp"
#include "util/byte_io.hpp"

namespace hm::server {

namespace {

/// Largest fan-out batch the dispatcher collects per round.
constexpr std::size_t kMaxBatch = 16;
/// Request size caps, protecting the pool from absurd work items.
constexpr std::uint64_t kMaxChiplets = 100000;
constexpr std::uint64_t kMaxSearchSteps = 100000;
constexpr std::size_t kMaxSweepPoints = 4096;

telemetry::Counter& requests_counter() {
  static telemetry::Counter c("server.requests");
  return c;
}

telemetry::Counter& rejects_counter() {
  static telemetry::Counter c("server.rejects");
  return c;
}

std::vector<std::uint8_t> message_body(const std::string& text) {
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      pool_(options_.threads),
      queue_(options_.max_pending, options_.max_pending_per_client) {
  if (!options_.cache_dir.empty()) {
    cache_.attach_store(store::ResultStore::open(options_.cache_dir));
  }
}

Server::~Server() { stop(); }

void Server::start() {
  started_at_ = std::chrono::steady_clock::now();

  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("Server: unix socket path too long");
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_fd_ < 0) throw std::runtime_error("Server: socket() failed");
    // A stale path from a crashed predecessor would fail the bind; remove
    // it first (a live server would still hold the listening socket, so
    // this only ever reaps corpses).
    ::unlink(options_.unix_path.c_str());
    if (::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(unix_fd_, 16) != 0) {
      close_fd(unix_fd_);
      throw std::runtime_error("Server: cannot bind unix socket " +
                               options_.unix_path);
    }
  }

  if (options_.tcp_port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd_ < 0) {
      close_fd(unix_fd_);
      throw std::runtime_error("Server: socket() failed");
    }
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // never public
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(tcp_fd_, 16) != 0) {
      close_fd(tcp_fd_);
      close_fd(unix_fd_);
      throw std::runtime_error("Server: cannot bind 127.0.0.1:" +
                               std::to_string(options_.tcp_port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      bound_tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
    }
  }

  if (unix_fd_ < 0 && tcp_fd_ < 0) {
    throw std::runtime_error(
        "Server: no listener configured (need unix_path and/or tcp_port)");
  }

  accept_thread_ = std::thread([this] { accept_loop(); });
  dispatch_thread_ = std::thread([this] { dispatch_loop(); });
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(lifecycle_mu_);
  lifecycle_cv_.wait(lock, [&] { return shutdown_requested_ || stopped_; });
}

void Server::request_shutdown() {
  {
    const std::lock_guard<std::mutex> lock(lifecycle_mu_);
    shutdown_requested_ = true;
  }
  lifecycle_cv_.notify_all();
}

void Server::stop() {
  {
    const std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  stopping_.store(true);

  // Unblock the accept loop and refuse new connections.
  if (unix_fd_ >= 0) ::shutdown(unix_fd_, SHUT_RDWR);
  if (tcp_fd_ >= 0) ::shutdown(tcp_fd_, SHUT_RDWR);

  // Unblock every reader parked in recv().
  {
    const std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& weak : conns_) {
      if (const auto conn = weak.lock()) {
        conn->alive.store(false);
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }

  queue_.close();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  for (auto& t : conn_threads_) {
    if (t.joinable()) t.join();
  }
  conn_threads_.clear();

  close_fd(unix_fd_);
  close_fd(tcp_fd_);
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());

  // Shutdown flush: everything the warm cache learned becomes durable.
  try {
    cache_.flush_to_store();
  } catch (...) {
  }
  lifecycle_cv_.notify_all();
}

Server::StatsSnapshot Server::stats_snapshot() const {
  StatsSnapshot s;
  s.requests = requests_.load();
  s.rejects = rejects_.load();
  s.batches = batches_.load();
  s.pending = queue_.pending();
  s.uptime_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - started_at_)
                   .count();
  return s;
}

std::string Server::stats_json() const {
  static telemetry::Gauge uptime_gauge("server.uptime_s");
  const StatsSnapshot s = stats_snapshot();
  // Max-gauge + monotone uptime = current uptime in whole seconds.
  uptime_gauge.set_max(static_cast<std::uint64_t>(s.uptime_s));

  std::ostringstream os;
  os << "{\"uptime_s\":" << s.uptime_s << ",\"requests\":" << s.requests
     << ",\"rejects\":" << s.rejects << ",\"batches\":" << s.batches
     << ",\"pending\":" << s.pending << ",\"threads\":"
     << pool_.thread_count() << ",\"cache_entries\":" << cache_.size();
  if (!options_.cache_dir.empty()) {
    const auto st = store::ResultStore::open(options_.cache_dir)->stats();
    os << ",\"store\":{\"entries\":" << st.entries
       << ",\"segments\":" << st.segments
       << ",\"disk_bytes\":" << st.disk_bytes
       << ",\"pending\":" << st.pending << "}";
  }
  os << "}";
  return os.str();
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    pollfd fds[2];
    nfds_t nfds = 0;
    if (unix_fd_ >= 0) fds[nfds++] = {unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) fds[nfds++] = {tcp_fd_, POLLIN, 0};
    const int rc = ::poll(fds, nfds, 200);
    if (stopping_.load()) break;
    if (rc <= 0) continue;
    for (nfds_t i = 0; i < nfds; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int client = ::accept(fds[i].fd, nullptr, nullptr);
      if (client < 0) continue;
      auto conn = std::make_shared<Connection>();
      conn->fd = client;
      conn->id = next_client_id_.fetch_add(1);
      {
        const std::lock_guard<std::mutex> lock(conns_mu_);
        // Reap dead weak_ptrs so a long-lived server doesn't grow the list.
        std::erase_if(conns_,
                      [](const auto& weak) { return weak.expired(); });
        conns_.push_back(conn);
        conn_threads_.emplace_back(
            [this, conn] { connection_loop(conn); });
      }
    }
  }
}

void Server::send_reply(Connection& conn, Command command, Status status,
                        const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> payload;
  payload.reserve(2 + body.size());
  encode_reply_payload(status, body, payload);
  const std::lock_guard<std::mutex> lock(conn.write_mu);
  if (!conn.alive.load() || conn.fd < 0) return;
  if (!write_frame(conn.fd, kReplyMagic, command, payload)) {
    conn.alive.store(false);
  }
}

void Server::connection_loop(std::shared_ptr<Connection> conn) {
  while (!stopping_.load() && conn->alive.load()) {
    FrameHeader header;
    std::vector<std::uint8_t> payload;
    const ReadResult rr =
        read_frame(conn->fd, kRequestMagic, &header, &payload);
    if (rr == ReadResult::kEof || rr == ReadResult::kTruncated) break;
    if (rr == ReadResult::kBadHeader) {
      // The header parsed structurally, so a reply can still be framed;
      // then drop the connection (its byte stream can't be trusted).
      send_reply(*conn, static_cast<Command>(header.command),
                 Status::kBadRequest, message_body("malformed frame"));
      break;
    }

    requests_.fetch_add(1);
    requests_counter().add();
    if (header.command > static_cast<std::uint16_t>(Command::kShutdown)) {
      send_reply(*conn, static_cast<Command>(header.command),
                 Status::kBadRequest, message_body("unknown command"));
      continue;
    }
    const Command cmd = static_cast<Command>(header.command);

    // Ping/stats/shutdown are control traffic: answered inline so they
    // stay responsive while the pool is busy.
    if (cmd == Command::kPing) {
      send_reply(*conn, cmd, Status::kOk, {});
      continue;
    }
    if (cmd == Command::kStats) {
      send_reply(*conn, cmd, Status::kOk, message_body(stats_json()));
      continue;
    }
    if (cmd == Command::kShutdown) {
      send_reply(*conn, cmd, Status::kOk, {});
      request_shutdown();
      break;
    }

    if (stopping_.load()) {
      send_reply(*conn, cmd, Status::kShuttingDown,
                 message_body("server is shutting down"));
      break;
    }
    PendingRequest pending;
    pending.conn = conn;
    pending.command = cmd;
    pending.payload = std::move(payload);
    if (!queue_.push(conn->id, std::move(pending))) {
      rejects_.fetch_add(1);
      rejects_counter().add();
      send_reply(*conn, cmd, Status::kRejected,
                 message_body("admission control: queue full"));
      continue;
    }
  }
  conn->alive.store(false);
  // Close under both locks: conns_mu_ serializes against stop()'s
  // shutdown() sweep, write_mu against a dispatcher mid-reply — so the fd
  // can never be closed (and its number reused) under a concurrent user.
  const std::lock_guard<std::mutex> conns_lock(conns_mu_);
  const std::lock_guard<std::mutex> write_lock(conn->write_mu);
  if (conn->fd >= 0) {
    ::shutdown(conn->fd, SHUT_RDWR);
    ::close(conn->fd);
    conn->fd = -1;
  }
}

void Server::dispatch_loop() {
  while (true) {
    auto batch = queue_.pop_batch(kMaxBatch);
    if (batch.empty()) break;  // queue closed and drained
    batches_.fetch_add(1);

    std::vector<Status> statuses(batch.size(), Status::kOk);
    std::vector<std::vector<std::uint8_t>> bodies(batch.size());

    // Evaluate requests fan out as one parallel batch over the shared
    // pool; every job reads/writes the same warm cache and store.
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].command != Command::kEvaluate) continue;
      jobs.push_back([this, &batch, &statuses, &bodies, i] {
        handle_evaluate(batch[i], &statuses[i], &bodies[i]);
      });
    }
    if (!jobs.empty()) pool_.run_batch(jobs);

    // Sweep/search parallelize internally; run them one at a time.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].command == Command::kSweep) {
        handle_sweep(batch[i], &statuses[i], &bodies[i]);
      } else if (batch[i].command == Command::kSearch) {
        handle_search(batch[i], &statuses[i], &bodies[i]);
      }
    }

    // Replies go out in batch order — FIFO per client by construction of
    // pop_batch, so pipelined clients read replies in send order.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      send_reply(*batch[i].conn, batch[i].command, statuses[i], bodies[i]);
    }
  }
}

void Server::handle_evaluate(const PendingRequest& req, Status* status,
                             std::vector<std::uint8_t>* body) {
  const auto parsed =
      decode_evaluate_request(req.payload.data(), req.payload.size());
  if (!parsed || parsed->chiplet_count > kMaxChiplets) {
    *status = Status::kBadRequest;
    *body = message_body("bad evaluate request");
    return;
  }
  try {
    const core::Arrangement arr = core::make_arrangement(
        parsed->type, static_cast<std::size_t>(parsed->chiplet_count));
    core::EvaluationParams params = options_.params;
    params.measure_latency = parsed->measure_latency;
    params.measure_saturation = parsed->measure_saturation;
    params.sim.seed = parsed->seed;
    const core::EvaluationResult result = explore::cached_evaluate(
        arr, params, options_.traffic, &cache_);
    store::encode_result(result, *body);
  } catch (const std::exception& e) {
    body->clear();
    *status = Status::kError;
    *body = message_body(e.what());
  }
}

void Server::handle_sweep(const PendingRequest& req, Status* status,
                          std::vector<std::uint8_t>* body) {
  const auto parsed =
      decode_sweep_request(req.payload.data(), req.payload.size());
  if (!parsed) {
    *status = Status::kBadRequest;
    *body = message_body("bad sweep request");
    return;
  }
  for (const auto n : parsed->chiplet_counts) {
    if (n > kMaxChiplets) {
      *status = Status::kBadRequest;
      *body = message_body("sweep chiplet count over limit");
      return;
    }
  }
  if (parsed->types.size() * parsed->chiplet_counts.size() >
      kMaxSweepPoints) {
    *status = Status::kBadRequest;
    *body = message_body("sweep too large");
    return;
  }
  try {
    explore::SweepSpec spec;
    spec.types = parsed->types;
    spec.chiplet_counts.assign(parsed->chiplet_counts.begin(),
                               parsed->chiplet_counts.end());
    spec.param_grid = {options_.params};
    spec.simulate = parsed->simulate;
    spec.base_seed = parsed->base_seed;

    // A per-request engine, but warm state is shared anyway: the store is
    // interned per directory and topology contexts are process-wide.
    explore::SweepEngine::Options opt;
    opt.threads = options_.threads;
    opt.cache_dir = options_.cache_dir;
    explore::SweepEngine engine(opt);
    const auto records = engine.run(spec);
    const std::string csv = explore::to_csv(records);
    *body = message_body(csv);
  } catch (const std::exception& e) {
    *status = Status::kError;
    *body = message_body(e.what());
  }
}

void Server::handle_search(const PendingRequest& req, Status* status,
                           std::vector<std::uint8_t>* body) {
  const auto parsed =
      decode_search_request(req.payload.data(), req.payload.size());
  if (!parsed || parsed->chiplet_count > kMaxChiplets ||
      parsed->steps > kMaxSearchSteps) {
    *status = Status::kBadRequest;
    *body = message_body("bad search request");
    return;
  }
  try {
    search::SearchOptions opt;
    opt.steps = static_cast<std::size_t>(parsed->steps);
    opt.seed = parsed->seed;
    opt.threads = options_.threads;
    opt.cache_dir = options_.cache_dir;
    opt.params = options_.params;
    opt.traffic = options_.traffic;
    search::SearchEngine engine(opt);
    const auto res = engine.run(core::make_arrangement(
        parsed->type, static_cast<std::size_t>(parsed->chiplet_count)));

    util::ByteWriter w(*body);
    w.f64(res.best_score)
        .f64(res.baseline_score)
        .u64(res.evaluations);
    store::encode_result(res.best_result, *body);
  } catch (const std::exception& e) {
    body->clear();
    *status = Status::kError;
    *body = message_body(e.what());
  }
}

}  // namespace hm::server
