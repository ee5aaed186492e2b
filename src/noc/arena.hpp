// Per-worker simulation arenas.
//
// A saturation search runs ~13 fresh simulator probes per design, and the
// sweep engine multiplies that across its (arrangement x params x traffic)
// grid. Before this layer, every probe constructed a brand-new Network —
// thousands of small vector allocations per probe — so a parallel sweep's
// workers spent their time contending on the global heap instead of
// simulating. A SimulationArena is the fix from the classic cycle-accurate-
// simulator playbook: keep concurrent actors off each other's resources.
// Each ThreadPool worker owns one arena (SimulationArena::local() is
// thread_local, so the caller thread of a sequential run gets one too);
// the arena caches a few fully-wired Networks keyed by (TopologyContext,
// structural SimConfig) and hands them out through RAII leases after a
// cheap in-place reset() — rings rewound, VC/credit state and statistics
// cleared, zero allocator traffic and zero cross-thread sharing.
//
// Correctness contract, pinned by test_arena: a probe on a reset arena
// network is bit-identical to the same probe on a fresh Network. The RNG
// seed is deliberately not part of the reuse key — the Simulator re-seeds
// the leased network's per-router RNG streams via Network::seed_rngs, so
// no seed-dependent state survives a lease — and consecutive sweep jobs
// therefore hit the arena even when their per-job seeds differ.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "noc/config.hpp"
#include "noc/network.hpp"
#include "noc/topology.hpp"

namespace hm::noc {

class SimulationArena {
 public:
  /// Lifetime counters (per arena, i.e. per worker thread).
  ///
  /// Deprecated for observability use: the same events are published,
  /// summed across all arenas, as the `arena.*` counters in
  /// telemetry::snapshot() (telemetry/telemetry.hpp). stats() stays for
  /// the per-arena assertions in test_arena.
  struct Stats {
    std::uint64_t networks_built = 0;   ///< cache misses: full construction
    std::uint64_t networks_reused = 0;  ///< cache hits: reset() only
    /// Leases served with a one-off network because every matching slot was
    /// already checked out (nested probes on one thread) — never cached.
    std::uint64_t oneoff_networks = 0;
  };

  /// RAII handle on an arena network. While a lease is alive its entry is
  /// checked out and cannot be handed to another lease; destruction returns
  /// it. A lease may instead own its network outright (the one-off fallback
  /// and the plain owning constructors of Simulator). A lease must not
  /// outlive the arena that issued it (leases live inside Simulators, which
  /// live inside probe scopes on the arena's own thread).
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept {
      release();
      entry_ = other.entry_;
      net_ = other.net_;
      owned_ = std::move(other.owned_);
      other.entry_ = nullptr;
      other.net_ = nullptr;
      return *this;
    }
    ~Lease() { release(); }

    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    [[nodiscard]] Network& network() const noexcept { return *net_; }
    [[nodiscard]] bool valid() const noexcept { return net_ != nullptr; }
    /// True when the network came from (and returns to) an arena slot.
    [[nodiscard]] bool arena_backed() const noexcept {
      return entry_ != nullptr;
    }

   private:
    friend class SimulationArena;
    struct Entry;
    explicit Lease(Entry* entry);
    explicit Lease(std::unique_ptr<Network> owned)
        : net_(owned.get()), owned_(std::move(owned)) {}

    void release() noexcept;

    Entry* entry_ = nullptr;
    Network* net_ = nullptr;
    std::unique_ptr<Network> owned_;
  };

  /// `capacity` caches that many networks per arena. A sweep worker
  /// alternates between at most a couple of designs at a time (the current
  /// job's graph plus perhaps the previous job's), so a small LRU suffices;
  /// anything beyond it rebuilds on the next lease.
  explicit SimulationArena(std::size_t capacity = 4);
  ~SimulationArena();  // out-of-line: Entry is defined in arena.cpp

  SimulationArena(const SimulationArena&) = delete;
  SimulationArena& operator=(const SimulationArena&) = delete;

  /// Returns a lease on a network for (topo, cfg): a reset() cached network
  /// when one matches, a freshly built (and cached, evicting the least-
  /// recently-used idle slot) one otherwise. When every slot is checked
  /// out, a one-off network owned by the lease itself.
  [[nodiscard]] Lease lease(std::shared_ptr<const TopologyContext> topo,
                            const SimConfig& cfg);

  /// A lease that owns a fresh network outright, bypassing every cache.
  /// This is what the non-arena Simulator constructors use.
  [[nodiscard]] static Lease owned(std::shared_ptr<const TopologyContext> topo,
                                   const SimConfig& cfg);

  /// The calling thread's arena. Each ThreadPool worker (and the caller of
  /// a sequential run) gets its own instance, so arena access never locks.
  /// Lifetime: the instance lives until the thread exits; pool workers
  /// clear() theirs on shutdown, and a long-lived thread that is done
  /// simulating can call local().clear() to release the cached networks
  /// (and the TopologyContexts they pin) early.
  [[nodiscard]] static SimulationArena& local();

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// Number of networks currently cached (checked out or idle).
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  /// Drops every idle cached network; checked-out entries are kept (their
  /// leases still point at them) and become evictable once returned.
  void clear();

 private:
  using Entry = Lease::Entry;

  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  std::vector<std::unique_ptr<Entry>> entries_;  ///< stable Entry addresses
  Stats stats_;
};

}  // namespace hm::noc
