#include "multipath/diversity.hpp"

#include <limits>
#include <vector>

#include "min/routing.hpp"

namespace mineq::multipath {

namespace {

void saturating_add(std::uint64_t& acc, std::uint64_t value) {
  acc = (acc > std::numeric_limits<std::uint64_t>::max() - value)
            ? std::numeric_limits<std::uint64_t>::max()
            : acc + value;
}

}  // namespace

std::uint64_t min_path_diversity(const min::MultiPathWiring& fabric,
                                 const fault::FaultMask* mask) {
  const min::FlatWiring& w = fabric.wiring();
  const int stages = w.stages();
  const std::uint32_t cells = w.cells_per_stage();
  const auto physical_radix = static_cast<unsigned>(w.radix());
  const auto lr = static_cast<unsigned>(fabric.logical_radix());
  const auto dilation = static_cast<unsigned>(fabric.dilation());
  const std::uint32_t logical_cells = fabric.logical_cells();
  const int planes = fabric.planes();
  const min::DigitSchedule& schedule = fabric.schedule();
  const std::vector<std::uint8_t>& free_stage = fabric.free_stage();

  std::uint64_t overall_min = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> npaths(cells);
  std::vector<std::uint64_t> next(cells);

  // One backward DP per logical destination cell: npaths[x] at stage s
  // is the number of surviving router-usable continuations from physical
  // cell x to the destination.
  for (std::uint32_t dest_cell = 0; dest_cell < logical_cells; ++dest_cell) {
    for (std::uint32_t x = 0; x < cells; ++x) {
      const bool maps_to_dest = (fabric.kind() ==
                                 min::MultiPathKind::kReplicated)
                                    ? (x % logical_cells == dest_cell)
                                    : (x == dest_cell);
      npaths[x] = maps_to_dest ? 1 : 0;
    }
    for (int s = stages - 2; s >= 0; --s) {
      unsigned group_base = 0;
      unsigned group_count = physical_radix;
      if (!free_stage[static_cast<std::size_t>(s)]) {
        const int digit = schedule.digit[static_cast<std::size_t>(s)];
        const unsigned value = (dest_cell / min::digit_scale(lr, digit)) % lr;
        group_base =
            schedule.port_of_value[static_cast<std::size_t>(s)][value] *
            dilation;
        group_count = dilation;
      }
      for (std::uint32_t x = 0; x < cells; ++x) {
        std::uint64_t total = 0;
        for (unsigned k = 0; k < group_count; ++k) {
          const unsigned port = group_base + k;
          if (mask != nullptr && mask->faulted(s, x, port)) continue;
          saturating_add(total, npaths[w.child(s, x, port)]);
        }
        next[x] = total;
      }
      npaths.swap(next);
    }
    // Every source terminal of a logical source cell sees the same
    // continuation count; replicated fabrics may inject into any plane.
    for (std::uint32_t src_cell = 0; src_cell < logical_cells; ++src_cell) {
      std::uint64_t total = 0;
      for (int q = 0; q < planes; ++q) {
        saturating_add(total,
                       npaths[static_cast<std::uint32_t>(q) * logical_cells +
                              src_cell]);
      }
      if (total < overall_min) overall_min = total;
    }
    if (overall_min == 0) return 0;
  }
  return overall_min;
}

}  // namespace mineq::multipath
