/// \file shard.hpp
/// \brief The cycle driver: one simulation run by a team of workers,
/// byte-identical at any team size. A one-worker run is the serial run.
///
/// Each cycle runs as a sequence of phases over the CSR-packed
/// FlatWiring. Within a phase every worker owns a contiguous cell (or
/// link) range, and the wiring's perfect-matching property —
/// down_stage(s)[x * r + port] IS the downstream port-slot index, and
/// each downstream buffer has exactly one upstream arc — makes every
/// cross-range handoff single-writer: a worker pushes only into buffers
/// reached through its own cells' arcs, so the hot path needs no locks,
/// no atomics and no mailbox copies. Teams of two or more workers
/// separate the phases with barriers. The phase schedule per cycle:
///
///   [credits] deliver     link ranges            barrier
///   eject                 cell ranges            barrier
///   advance s = S-2 .. 0  cell ranges            barrier each
///   serial phase          worker 0 only          barrier
///     (eject-event replay -> workload tick -> inject)
///   [measuring] sample    link ranges            barrier
///   [measuring] reduce    worker 0 only          barrier
///
/// Determinism contract: every order-independent counter accumulates
/// into the worker's ShardWorker::partial and is summed once at the end;
/// every order-SENSITIVE sink (the Welford latency accumulators, the
/// latency histogram, per-SL latency, flow records, workload deliveries,
/// the wormhole eject observer) is deferred into a per-worker event
/// buffer and replayed by worker 0 in ascending-worker order — which is
/// ascending cell order — so results are byte-identical at 1, 2, 8 or
/// any other thread count.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/observer.hpp"
#include "sim/engine.hpp"
#include "sim/fabric.hpp"
#include "sim/flit.hpp"
#include "util/parallel.hpp"
#include "workload/spec.hpp"

namespace mineq::sim {

/// One deferred store-and-forward ejection whose statistics are
/// order-sensitive (Welford / histogram adds): replayed by worker 0.
struct SafEjectEvent {
  double latency = 0.0;
  unsigned sl = 0;  ///< service level (0 outside credit runs)
  /// Flow identity for the observability recorders (the replay reads
  /// them only on runs with an observer).
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
};

/// The order-independent counters one worker's kernels accumulate: the
/// SimResult fields of the same names, which shard_finish sums over the
/// workers. Order-sensitive statistics go through the event buffers.
struct ShardCounters {
  std::uint64_t flits_delivered = 0;
  std::uint64_t hol_blocking_cycles = 0;
  std::uint64_t credit_stall_cycles = 0;
  std::uint64_t credit_violations = 0;
  std::uint64_t packets_dropped_faulted = 0;
  std::uint64_t flits_dropped_faulted = 0;
  std::uint64_t packets_rerouted = 0;
  std::uint64_t packets_misdelivered = 0;
  std::uint64_t path_reroutes = 0;
  std::uint64_t stall_lost_arbitration = 0;
  std::uint64_t stall_downstream_full = 0;
  std::uint64_t stall_no_free_lane = 0;
  std::uint64_t stall_zero_credits = 0;
  std::uint64_t stall_masked_arc = 0;
};

/// Per-worker state, cache-line aligned so neighbouring workers' hot
/// counters never false-share.
struct alignas(64) ShardWorker {
  /// This worker's counters, summed into the core result at the end of
  /// the run.
  ShardCounters partial;
  /// Busy-link cycles (store-and-forward) or flit hops (wormhole): this
  /// worker's share of the link-utilization numerator.
  std::uint64_t link_counter = 0;
  /// Net packets (SAF) or flits (wormhole) this worker has added to the
  /// pool over the run; worker 0's share includes injection. The pool's
  /// occupancy is the sum over the workers.
  std::int64_t pool_delta = 0;
  /// Store-and-forward eject replay buffer (cleared every cycle).
  std::vector<SafEjectEvent> saf_events;
  /// Wormhole eject replay buffer (cleared every cycle): ejected flits in
  /// this worker's range order; latency/SL are recomputed from the flit.
  std::vector<Flit> wh_events;
  /// Workload delivery replay buffer (cleared every cycle). Separate
  /// from the statistics buffers because deliveries span warmup too
  /// (closed-loop windows must drain before measurement starts) and are
  /// buffered only when the run's source wants them.
  std::vector<workload::Delivery> wl_events;
  /// Wormhole per-VL buffered-flit partial (sample phase).
  std::vector<std::uint64_t> vl_flits;
  /// The kernels' request-mask scratch (PolicyBase::request_scratch),
  /// grown on first use and reused for every later cycle of the run.
  std::vector<std::uint64_t> requests;
  /// This worker's observability sink (runs with an observer only): set
  /// by the policy's shard_eject each cycle, so the kernels never need
  /// the worker index threaded through.
  obs::WorkerLog* obs_log = nullptr;
};

/// The contiguous slice of \p total owned by worker \p w of \p n:
/// [total * w / n, total * (w + 1) / n). Empty when total < n for the
/// trailing workers; concatenating the slices in worker order yields
/// [0, total) exactly — the property the replay ordering relies on.
[[nodiscard]] inline std::pair<std::size_t, std::size_t> shard_range(
    std::size_t total, std::size_t w, std::size_t n) noexcept {
  return {total * w / n, total * (w + 1) / n};
}

/// The per-thread team pool behind SimConfig::sim_threads. Thread-local
/// so concurrent sweep workers shard their points over disjoint teams;
/// the team threads are spawned on the first run with two or more
/// workers and reused for every later cycle and run on this thread.
inline util::ThreadPool& sim_team_pool() {
  static thread_local util::ThreadPool pool;
  return pool;
}

/// Run \p policy on \p threads workers. A Policy implements:
///   bool shard_needs_deliver() const;  // a credit harvest phase?
///   void shard_deliver(cycle, w, n);   // when shard_needs_deliver()
///   void shard_eject(cycle, measuring, w, n, ShardWorker&);
///   void shard_advance(s, cycle, measuring, w, n, ShardWorker&);
///   void shard_serial(cycle, measuring, workers);   // worker 0 only:
///       // event replay -> core.workload_tick() -> inject
///   void shard_sample(cycle, w, n, ShardWorker&);   // measured cycles
///   void shard_sample_reduce(cycle, workers);       // worker 0 only
///   void shard_finish(workers);  // sum partials, finalize the result
/// Thread counts above the cell count are clamped (extra ranges would be
/// empty). One worker runs inline on the calling thread, with no barrier
/// and no team.
template <class Policy>
SimResult run_switched(FabricCore& core, Policy& policy, std::size_t threads) {
  threads = std::min<std::size_t>(
      threads, std::max<std::uint32_t>(1, core.cells()));
  std::vector<ShardWorker> workers(threads);
  util::SpinBarrier barrier(threads);
  const std::uint64_t warmup = core.config().warmup_cycles;
  const std::uint64_t total = core.total_cycles();
  const bool deliver = policy.shard_needs_deliver();
  const auto body = [&](std::size_t w, std::size_t n) {
    ShardWorker& wk = workers[w];
    const auto sync = [&] {
      if (n > 1) barrier.arrive_and_wait();
    };
    for (std::uint64_t cycle = 0; cycle < total; ++cycle) {
      const bool measuring = cycle >= warmup;
      if (deliver) {
        policy.shard_deliver(cycle, w, n);
        sync();
      }
      policy.shard_eject(cycle, measuring, w, n, wk);
      sync();
      for (int s = core.stages() - 2; s >= 0; --s) {
        policy.shard_advance(s, cycle, measuring, w, n, wk);
        sync();
      }
      if (w == 0) policy.shard_serial(cycle, measuring, workers);
      sync();
      if (measuring) {
        policy.shard_sample(cycle, w, n, wk);
        sync();
        if (w == 0) policy.shard_sample_reduce(cycle, workers);
        sync();
      }
    }
  };
  if (threads == 1) {
    body(0, 1);
  } else {
    sim_team_pool().run_team(threads, body);
  }
  policy.shard_finish(workers);
  return core.result;
}

}  // namespace mineq::sim
