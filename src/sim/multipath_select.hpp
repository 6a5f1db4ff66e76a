/// \file multipath_select.hpp
/// \brief The shared pieces of the route step both switching policies
/// run at every hop.
///
/// Both disciplines face the same choice at every hop: PolicyBase's
/// path_group names the out-ports that reach the destination (any port
/// at a free Benes connection, the dilation group at a forced one, a
/// single scheduled port on every unipath hop), and the configured
/// PathPolicy picks one member of a wider group. The deterministic
/// plane-hash and the fault-degraded in-group re-selection are pure
/// functions of (destination, injection cycle, stage) and the mask, so
/// they live here once; the occupancy metric of the adaptive policy is
/// discipline-specific (packet FIFOs vs flit lanes) and stays in the
/// policies.

#pragma once

#include <cstdint>

#include "fault/fault_mask.hpp"

namespace mineq::sim {

/// SplitMix64-style finalizer over (dest, inject_cycle, stage): the
/// deterministic spreading function of PathPolicy::kHash. Stateless, so
/// a packet hashes to the same path member at every re-evaluation within
/// a cycle, and runs stay reproducible across thread counts.
[[nodiscard]] inline std::uint64_t path_mix(std::uint64_t dest,
                                            std::uint64_t inject_cycle,
                                            std::uint64_t stage) {
  std::uint64_t x = dest + 0x9e3779b97f4a7c15ULL * (inject_cycle + 1) +
                    0x94d049bb133111ebULL * (stage + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Fault-degraded in-group re-selection: the next surviving member of
/// the equivalent-path group [base, base + count) after \p desired,
/// scanning cyclically, or -1 when the whole group is masked. \p arc_row
/// is the mask bit index of the switch's port-0 out-arc
/// (fault::FaultMask::arc_index layout).
[[nodiscard]] inline int surviving_group_member(const fault::FaultMask& mask,
                                                std::size_t arc_row,
                                                unsigned base, unsigned count,
                                                unsigned desired) {
  unsigned offset = desired - base;
  for (unsigned step = 1; step < count; ++step) {
    ++offset;
    if (offset >= count) offset -= count;
    if (!mask.faulted_index(arc_row + base + offset)) {
      return static_cast<int>(base + offset);
    }
  }
  return -1;
}

}  // namespace mineq::sim
