/// \file trace.hpp
/// \brief Packet event tracing serialized as Chrome trace-event JSON
/// (loadable in Perfetto and chrome://tracing).
///
/// Each traced packet is one track (tid derived from its unique
/// (source, inject-cycle) identity): a "pkt" duration slice spans inject
/// to final-tail eject, nested "stage N" slices follow the head through
/// the fabric, and instant events mark stalls (with their StallCause),
/// reroutes and drops. Events are appended to per-worker buffers tagged
/// with their (cycle, intra-cycle phase); one stable sort on that key
/// reproduces the one-worker emission order exactly, because within a
/// (cycle, phase) pair the per-worker buffers concatenate in ascending
/// cell order — the megafabric replay invariant.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace mineq::obs {

enum class TraceEventKind : std::uint8_t {
  kPacketBegin = 0,  ///< "B" slice open: packet injected
  kPacketEnd = 1,    ///< "E" slice close: final tail ejected (or dropped)
  kStageBegin = 2,   ///< "B" nested slice: head entered a stage buffer
  kStageEnd = 3,     ///< "E" nested slice: head left the stage
  kStall = 4,        ///< instant: head HOL-blocked, cause attached
  kReroute = 5,      ///< instant: steered off the primary arc
  kDrop = 6,         ///< instant: discarded at a dead switch / masked arc
};

/// One trace event. 32 bytes; buffers are append-only per worker.
struct TraceEvent {
  std::uint64_t cycle = 0;         ///< emission cycle (trace timestamp)
  std::uint64_t inject_cycle = 0;  ///< packet identity, with src
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  TraceEventKind kind = TraceEventKind::kPacketBegin;
  std::uint8_t stage = 0;  ///< stage of stage/stall/reroute/drop events
  std::uint8_t cause = 0;  ///< StallCause payload of kStall events
  /// Intra-cycle phase ordinal, the secondary sort key that makes any
  /// team's emission order equal the one-worker run's. The policies
  /// number the sub-phases of one cycle in execution order: eject moves
  /// = 0, the eject HOL scan = 1 + plane (one ordinal per plane on
  /// multipath fabrics), then per advance stage s (descending) a
  /// dead-switch-drain / moves / HOL-scan triple, and injection last.
  std::uint8_t phase = 0;
};

/// Stable-sort \p events by (cycle, phase): after concatenating the
/// per-worker buffers in worker order this reproduces the one-worker
/// emission order byte for byte.
void sort_trace(std::vector<TraceEvent>& events);

/// Serialize one run's (sorted) events as a Chrome trace-event JSON
/// document. \p pid labels the process track (one per run / sweep
/// point); \p process_name is attached as process metadata.
[[nodiscard]] std::string trace_json(const std::vector<TraceEvent>& events,
                                     std::uint32_t pid,
                                     std::string_view process_name);

/// Serialize several runs (e.g. the traced points of a sweep) into one
/// document, one process track per (name, events) pair, pid = index.
[[nodiscard]] std::string trace_json_multi(
    const std::vector<std::pair<std::string, const std::vector<TraceEvent>*>>&
        processes);

}  // namespace mineq::obs
