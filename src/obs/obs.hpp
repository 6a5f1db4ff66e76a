/// \file obs.hpp
/// \brief Observability configuration and the stall-cause taxonomy.
///
/// The obs:: layer is a passive telemetry subsystem threaded through both
/// switching disciplines as one of the run features that select the
/// featured policy instantiation (sim/policy.hpp): a run with every
/// collector disabled, no fault mask and no credits takes the plain
/// instantiation, where every telemetry hook folds away, and any other
/// run tests the observer pointer at run time. When enabled, the
/// collectors are strictly read-only over the simulation state: enabling
/// observability never changes a counter, a latency or an RNG draw
/// (ObsPassivityTest compares obs on against obs off on every feature
/// path).
///
/// Three collectors, each independently switchable (ObsConfig):
///   - probes (probe.hpp): per-stage time series + occupancy heatmap,
///     sampled every probe_stride measured cycles,
///   - per-flow recorders (flow.hpp): exact per-(source, destination) and
///     per-service-level latency histograms with p50/p99/p999,
///   - packet tracing (trace.hpp): sampled packets emit Chrome
///     trace-event JSON loadable in Perfetto / chrome://tracing.
/// Stall attribution (the StallCause split of hol_blocking_cycles) rides
/// with any enabled collector; the per-cause counters land directly in
/// SimResult and always sum exactly to hol_blocking_cycles.

#pragma once

#include <cstddef>
#include <cstdint>

namespace mineq::obs {

/// Why a ready buffer head failed to advance this cycle. Attribution is
/// exclusive: every HOL-blocked cycle is charged to exactly one cause, so
/// the per-cause counters partition hol_blocking_cycles.
enum class StallCause : std::uint8_t {
  /// Another head won the output-port arbitration (the default when no
  /// more specific cause applies).
  kLostArbitration = 0,
  /// The downstream buffer (FIFO or lane) had no space.
  kDownstreamFull = 1,
  /// No idle virtual lane on the downstream port (wormhole heads only).
  kNoFreeLane = 2,
  /// The downstream link's credit ledger was empty (credit runs only).
  kZeroCredits = 3,
  /// The head's routed arc is fault-masked and it is waiting on detour
  /// capacity (faulted runs only).
  kMaskedArc = 4,
};

inline constexpr std::size_t kStallCauseCount = 5;

/// Short snake_case token for CSV columns and trace labels.
[[nodiscard]] const char* stall_cause_name(StallCause cause) noexcept;

/// Per-flow tables are terminals^2; cap the terminal count so enabling
/// flow stats cannot silently allocate gigabytes on a megafabric.
inline constexpr std::uint32_t kMaxFlowTerminals = 256;

/// Which collectors run. The all-defaults config means "observability
/// off": the run builds no observer, and without a fault mask or credits
/// it takes the plain simulator instantiation.
struct ObsConfig {
  /// Probe sampling stride in measured cycles; 0 disables the probes.
  /// Each stride window ends with one sample (the first sample lands at
  /// warmup + probe_stride - 1), so window counters normalize exactly.
  std::uint64_t probe_stride = 0;
  /// Record exact per-(source, destination) and per-SL latency
  /// histograms (SimResult::flows).
  bool flow_stats = false;
  /// Packet-trace sampling: 0 disables tracing, N traces the
  /// deterministic 1-in-N subset of packets picked by trace_picked().
  std::uint64_t trace_sample = 0;

  /// True when any collector is enabled (the obs dispatch predicate).
  [[nodiscard]] bool any() const noexcept {
    return probe_stride > 0 || flow_stats || trace_sample > 0;
  }

  /// \throws std::invalid_argument when flow stats are requested on a
  /// fabric with more than kMaxFlowTerminals terminals.
  void validate(std::uint64_t terminals) const;
};

/// Stateless packet pick for trace sampling. A packet is identified by
/// (source terminal, inject cycle) — a terminal injects at most one
/// packet per cycle, so the pair is unique — and the pick is a pure
/// function of that identity, so every pipeline site (inject, advance,
/// stall, eject, drop) agrees on the sampled subset without carrying
/// per-packet flags, at any thread count.
[[nodiscard]] constexpr bool trace_picked(std::uint64_t trace_sample,
                                          std::uint64_t src,
                                          std::uint64_t inject_cycle) noexcept {
  std::uint64_t z =
      (src + 1) * 0x9E3779B97F4A7C15ULL ^
      (inject_cycle + 0xBF58476D1CE4E5B9ULL) * 0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) % trace_sample == 0;
}

}  // namespace mineq::obs
