/// \file flit.hpp
/// \brief Flow-control units (flits) for the wormhole discipline.
///
/// A packet of length L decomposes into one head flit, L-2 body flits and
/// one tail flit (a single-flit packet is head and tail at once). The head
/// carries the routing decision and reserves a lane at every hop; the tail
/// releases it. All flits of a packet share its id and injection cycle, so
/// delivery-order invariants (tail follows head, one worm per lane) are
/// checkable from the outside.

#pragma once

#include <cstdint>

namespace mineq::sim {

/// One flow-control unit. Plain data; 16 bytes. The service level (sl),
/// source terminal and workload tag ride in bits carved out of the cycle
/// counter: packets carry them from injection to ejection so credit-mode
/// runs can report per-SL latency, worms map onto their virtual lane
/// (see SimConfig::credits), the observability layer can attribute
/// delivered latency to its (source, destination) flow, and the
/// closed-loop workload can tell a delivered request from a reply
/// (workload::kTagRequest / kTagReply). 32 cycle bits hold every cycle
/// of the longest run SimConfig::validate accepts (2^32 cycles); 22
/// source bits bound fabrics at 2^22 terminals, far past anything the
/// simulators accept.
struct Flit {
  std::uint32_t packet_id = 0;     ///< unique per injected packet
  std::uint32_t dest_terminal = 0; ///< copied from the packet
  std::uint64_t inject_cycle : 32; ///< head's injection cycle
  std::uint64_t src : 22;          ///< source (logical) terminal
  std::uint64_t sl : 6;            ///< service level (0 without credits)
  std::uint64_t tag : 2;           ///< workload tag (0 / request / reply)
  std::uint64_t head : 1;          ///< first flit of its packet
  std::uint64_t tail : 1;          ///< last flit of its packet

  constexpr Flit()
      : inject_cycle(0), src(0), sl(0), tag(0), head(0), tail(0) {}

  [[nodiscard]] constexpr bool is_head() const noexcept { return head != 0; }
  [[nodiscard]] constexpr bool is_tail() const noexcept { return tail != 0; }
};

/// The \p index-th flit (0-based) of a packet of \p length flits.
[[nodiscard]] constexpr Flit make_flit(std::uint32_t packet_id,
                                       std::uint32_t dest_terminal,
                                       std::uint32_t src_terminal,
                                       std::uint64_t inject_cycle,
                                       std::size_t index,
                                       std::size_t length,
                                       unsigned sl = 0,
                                       unsigned tag = 0) noexcept {
  Flit flit;
  flit.packet_id = packet_id;
  flit.dest_terminal = dest_terminal;
  flit.inject_cycle = inject_cycle & ((std::uint64_t{1} << 32) - 1);
  flit.src = src_terminal & ((std::uint32_t{1} << 22) - 1);
  flit.sl = sl & 0x3FU;
  flit.tag = tag & 0x3U;
  flit.head = index == 0 ? 1 : 0;
  flit.tail = index + 1 == length ? 1 : 0;
  return flit;
}

}  // namespace mineq::sim
