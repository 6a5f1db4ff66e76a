/// \file probe.hpp
/// \brief Per-stage time-series probes and the occupancy heatmap.
///
/// A ProbeSeries is a set of preallocated ring buffers, one slot per
/// probe window, written by worker 0 in the exclusive sample-reduce
/// phase, so the series is byte-identical at every sim_threads. Capacity is fixed up front
/// (measure_cycles / probe_stride windows); should a caller ever sample
/// past it, the ring wraps and keeps the newest windows.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mineq::obs {

/// Per-stage time series sampled once per probe window, plus the
/// per-stage x per-cell occupancy heatmap accumulated over all windows.
///
/// The stage axis means "buffer stage" for occupancy (input buffers of
/// stage s) and "link gap" for link_utilization/hops (gap s carries
/// stage s -> s+1 traffic; the last gap is the ejection links). Window
/// counters (hol_stalls, credit_stalls, reroutes) are exact deltas over
/// the window's probe_stride measured cycles.
struct ProbeSeries {
  std::uint64_t stride = 0;  ///< probe window length in measured cycles
  int stages = 0;
  std::uint32_t cells = 0;  ///< switch cells per stage (heatmap rows)
  std::size_t capacity = 0; ///< ring capacity in windows
  std::size_t samples = 0;  ///< windows written (ring wraps past capacity)

  /// Cycle whose sample phase closed the window, per slot.
  std::vector<std::uint64_t> cycle;
  /// Mean buffer occupancy fraction per stage, [slot * stages + s].
  std::vector<double> occupancy;
  /// Link-gap utilization (flit-cycles per link-cycle) per stage.
  std::vector<double> link_utilization;
  /// HOL-blocked head-cycles in the window, per stage.
  std::vector<std::uint64_t> hol_stalls;
  /// Credit-stalled head-cycles in the window, per stage.
  std::vector<std::uint64_t> credit_stalls;
  /// Packets steered off their primary arc in the window, per stage.
  std::vector<std::uint64_t> reroutes;
  /// Mean occupancy fraction per (stage, cell) over all windows,
  /// [s * cells + x].
  std::vector<double> heatmap;

  [[nodiscard]] bool empty() const noexcept { return samples == 0; }
  /// Slots in ring order, oldest first (== write order until the ring
  /// wraps).
  [[nodiscard]] std::size_t filled() const noexcept {
    return samples < capacity ? samples : capacity;
  }

  /// CSV export: cycle,stage,occupancy,link_utilization,hol_stalls,
  /// credit_stalls,reroutes — one row per (window, stage).
  [[nodiscard]] std::string csv() const;
  /// Heatmap CSV export: stage,cell,occupancy — one row per (stage,
  /// cell).
  [[nodiscard]] std::string heatmap_csv() const;
};

}  // namespace mineq::obs
