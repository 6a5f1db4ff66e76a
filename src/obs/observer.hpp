/// \file observer.hpp
/// \brief The per-run observability hub the simulators write into.
///
/// One Observer lives for one simulation run. The hot-path surface is
/// deliberately small: per-worker WorkerLogs absorb order-independent
/// per-stage counters and the worker's trace-event buffer, and worker 0
/// commits probe windows and flow records in its exclusive phases. Nothing in here reads back into the
/// simulation: an Observer is write-only from the policies' point of
/// view, which is what makes obs-on runs produce bit-identical
/// simulation results to obs-off runs.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/flow.hpp"
#include "obs/obs.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"

namespace mineq::obs {

/// Per-worker observability sink. The counter vectors are per-stage and
/// cumulative over the run; worker partitions make every write
/// single-writer, and the probe commit sums across workers — addition is
/// order-independent, so the series stays byte-identical at any thread
/// count. Trace events carry their (cycle, phase) sort key instead.
struct WorkerLog {
  std::vector<std::uint64_t> hol;      ///< HOL-blocked head-cycles per stage
  std::vector<std::uint64_t> credit;   ///< credit-stalled cycles per stage
  std::vector<std::uint64_t> reroute;  ///< off-primary-arc steers per stage
  std::vector<std::uint64_t> hops;     ///< flit-cycles of link use per gap
  std::vector<TraceEvent> events;
};

class Observer {
 public:
  /// \param slots_per_stage total buffer capacity of one stage in the
  /// discipline's occupancy unit (packets for store-and-forward FIFOs,
  /// flits for wormhole lanes) — the occupancy normalizer.
  /// \param latency_buckets 1-cycle latency buckets per flow histogram
  /// (pass the SimResult histogram's bucket count).
  Observer(const ObsConfig& config, int stages, std::uint32_t cells,
           std::size_t ports, std::uint32_t terminals, std::uint64_t warmup,
           std::uint64_t measure, std::size_t workers,
           std::size_t latency_buckets, std::size_t service_levels,
           double slots_per_stage);

  [[nodiscard]] bool probes_on() const noexcept { return probes_on_; }
  [[nodiscard]] bool flows_on() const noexcept { return flows_on_; }
  [[nodiscard]] bool trace_on() const noexcept { return trace_on_; }

  /// The deterministic 1-in-N packet pick (obs.hpp:trace_picked), false
  /// when tracing is off.
  [[nodiscard]] bool traced(std::uint32_t src,
                            std::uint64_t inject_cycle) const noexcept {
    return trace_on_ && trace_picked(config_.trace_sample, src, inject_cycle);
  }

  /// Worker \p w's sink (index < the workers count passed at
  /// construction).
  [[nodiscard]] WorkerLog& log(std::size_t w) noexcept { return logs_[w]; }

  /// True on the measured cycle that closes a probe window (the sample
  /// phase of that cycle must commit_probe()).
  [[nodiscard]] bool want_probe(std::uint64_t cycle) const noexcept {
    return probes_on_ && cycle >= warmup_ &&
           (cycle - warmup_) % config_.probe_stride ==
               config_.probe_stride - 1;
  }

  /// Per-(stage, cell) occupancy scratch, zeroed; the committing policy
  /// fills slot [s * cells + x] with the buffered payload of cell x of
  /// stage s, then calls commit_probe. Worker 0 only.
  [[nodiscard]] std::vector<std::uint32_t>& occupancy_scratch() noexcept {
    return occ_scratch_;
  }

  /// Close the probe window ending at \p cycle: fold the scratch
  /// occupancy and the cross-worker counter deltas into the next ring
  /// slot. Worker 0 only.
  void commit_probe(std::uint64_t cycle);

  /// Record one delivered measured packet. Worker 0 only (the eject
  /// replay path).
  void record_flow(std::uint32_t src, std::uint32_t dst, unsigned sl,
                   double latency) {
    recorder_.record(src, dst, sl, latency);
  }

  /// Finalize the probe series (heatmap means) and surrender it.
  [[nodiscard]] ProbeSeries take_probes();
  [[nodiscard]] FlowSummary flow_summary() const {
    return recorder_.summary();
  }
  /// The recorder itself, for the workload layer's request->reply
  /// service channel; null when flow stats are off.
  [[nodiscard]] FlowRecorder* flow_recorder() noexcept {
    return flows_on_ ? &recorder_ : nullptr;
  }
  /// Concatenate the per-worker trace buffers in worker order and
  /// stable-sort by (cycle, phase) — the one-worker emission order.
  [[nodiscard]] std::vector<TraceEvent> take_trace();

 private:
  ObsConfig config_;
  bool probes_on_ = false;
  bool flows_on_ = false;
  bool trace_on_ = false;
  int stages_ = 0;
  std::size_t ports_ = 0;
  std::uint64_t warmup_ = 0;
  double slots_per_stage_ = 1.0;

  std::vector<WorkerLog> logs_;
  ProbeSeries probes_;
  /// Cross-worker cumulative counters at the previous window close.
  std::vector<std::uint64_t> last_hol_;
  std::vector<std::uint64_t> last_credit_;
  std::vector<std::uint64_t> last_reroute_;
  std::vector<std::uint64_t> last_hops_;
  std::vector<std::uint32_t> occ_scratch_;
  std::vector<double> heat_sum_;  ///< occupancy-fraction sums per (s, x)

  FlowRecorder recorder_;
};

}  // namespace mineq::obs
