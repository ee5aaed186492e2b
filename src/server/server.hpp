// hm_server: exploration as a service.
//
// A long-lived process that keeps the expensive state warm — the interned
// TopologyContext cache, the sharded ResultCache and (with a cache_dir)
// the persistent ResultStore — and serves evaluate/sweep/search requests
// over the framed binary protocol of server/protocol.hpp, on a Unix-domain
// socket and/or a 127.0.0.1 TCP port.
//
// Request flow: one reader thread per connection parses frames and pushes
// evaluate/sweep/search requests into a RequestQueue (server/queue.hpp)
// that enforces per-client and global admission caps and serves clients
// round-robin. A single dispatcher thread pops fair batches, fans the
// batch's evaluate requests out across the shared ThreadPool (each through
// explore::cached_evaluate against the warm cache/store), runs sweep and
// search requests one at a time (they parallelize internally), and writes
// replies back in batch order — which is FIFO per client, so pipelined
// clients read replies in the order they sent requests. Ping, stats and
// shutdown are answered inline on the reader thread.
//
// Shutdown: the kShutdown command (or stop()) closes the listeners, drains
// the queue, flushes the store and joins every thread; the Unix socket
// path is unlinked. Malformed frames (bad magic/version/oversized length)
// are answered with kBadRequest where a reply can still be framed and the
// connection is closed; truncated frames just close the connection — the
// server survives both (CI's badframe probe pins this).
//
// Telemetry: server.{uptime_s,requests,rejects} join the registry
// families; the kStats reply carries a JSON snapshot of the same numbers
// plus store statistics.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "explore/result_cache.hpp"
#include "explore/thread_pool.hpp"
#include "noc/traffic.hpp"
#include "server/protocol.hpp"
#include "server/queue.hpp"

namespace hm::server {

struct ServerOptions {
  /// Unix-domain socket path (empty = no Unix listener).
  std::string unix_path;
  /// TCP port on 127.0.0.1 (-1 = no TCP listener, 0 = ephemeral; the bound
  /// port is available from Server::tcp_port()).
  int tcp_port = -1;
  /// Evaluation worker concurrency (explore::ThreadPool; 0 = hardware).
  unsigned threads = 0;
  /// Persistent result store directory (empty = memory-only cache).
  std::string cache_dir;
  /// Admission control (see server/queue.hpp).
  std::size_t max_pending = 64;
  std::size_t max_pending_per_client = 8;
  /// Base evaluation pipeline configuration; evaluate requests override
  /// the seed and the measurement-selection flags per request.
  core::EvaluationParams params;
  noc::TrafficSpec traffic;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners and spawns the accept + dispatcher threads.
  /// Throws std::runtime_error when no listener could be bound.
  void start();

  /// Blocks until a kShutdown command arrives or stop() is called.
  void wait();

  /// Stops accepting, drains in-flight work, joins every thread, flushes
  /// the store and unlinks the Unix socket. Idempotent.
  void stop();

  /// The bound TCP port (after start(); -1 without a TCP listener).
  [[nodiscard]] int tcp_port() const noexcept { return bound_tcp_port_; }

  struct StatsSnapshot {
    std::uint64_t requests = 0;
    std::uint64_t rejects = 0;
    std::uint64_t batches = 0;
    std::size_t pending = 0;
    /// Connection threads held: open connections plus closed ones whose
    /// threads the next accept joins.
    std::size_t connections = 0;
    double uptime_s = 0.0;
  };
  [[nodiscard]] StatsSnapshot stats_snapshot() const;
  /// The kStats reply body (JSON text).
  [[nodiscard]] std::string stats_json() const;

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::mutex write_mu;
    std::atomic<bool> alive{true};
    /// Set as connection_loop's last act: its thread is about to return,
    /// so joining it cannot block.
    std::atomic<bool> finished{false};
  };

  /// One accepted connection and the thread reading it.
  struct ConnectionThread {
    std::shared_ptr<Connection> conn;
    std::thread thread;
  };

  struct PendingRequest {
    std::shared_ptr<Connection> conn;
    Command command = Command::kPing;
    std::vector<std::uint8_t> payload;
  };

  void accept_loop();
  void connection_loop(std::shared_ptr<Connection> conn);
  void dispatch_loop();
  void send_reply(Connection& conn, Command command, Status status,
                  const std::vector<std::uint8_t>& body);

  void handle_evaluate(const PendingRequest& req, Status* status,
                       std::vector<std::uint8_t>* body);
  void handle_sweep(const PendingRequest& req, Status* status,
                    std::vector<std::uint8_t>* body);
  void handle_search(const PendingRequest& req, Status* status,
                     std::vector<std::uint8_t>* body);

  void request_shutdown();

  ServerOptions options_;
  explore::ThreadPool pool_;
  explore::ResultCache cache_;
  RequestQueue<PendingRequest> queue_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int bound_tcp_port_ = -1;

  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rejects_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> next_client_id_{1};
  std::chrono::steady_clock::time_point started_at_;

  std::mutex lifecycle_mu_;
  std::condition_variable lifecycle_cv_;
  bool shutdown_requested_ = false;
  bool stopped_ = false;

  std::thread accept_thread_;
  std::thread dispatch_thread_;
  mutable std::mutex conns_mu_;
  /// Joined and dropped once finished, by accept_loop or stop().
  std::vector<ConnectionThread> conns_;
};

}  // namespace hm::server
