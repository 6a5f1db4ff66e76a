/// \file schedule_reference.hpp
/// \brief The tests' oracle for min::find_digit_schedule: an exhaustive
/// per-sink fit that shares no code with the library's backward pass.
///
/// For every sink, one backward reachability sweep gives the port each
/// on-path cell takes toward it (the lowest port that still reaches the
/// sink). That port must not depend on the cell, and at every stage it
/// must be a function of one destination digit (the lowest digit that
/// fits). O(cells^2 * stages * radix). On wirings whose cell count is
/// not radix^(stages-1) it can return value maps that are not bijections;
/// the pass rejects those wirings.

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "min/flat_wiring.hpp"
#include "min/routing.hpp"
#include "perm/permutation.hpp"
#include "util/rng.hpp"

namespace mineq::test {

inline std::optional<min::DigitSchedule> reference_digit_schedule(
    const min::FlatWiring& w) {
  const auto radix = static_cast<unsigned>(w.radix());
  const std::uint32_t cells = w.cells_per_stage();
  const int n = w.stages();
  min::DigitSchedule schedule;
  schedule.radix = w.radix();
  if (n < 2) return schedule;
  const int digits = n - 1;

  // Per (stage, sink): the single out-port every on-path cell takes
  // toward the sink, via one backward reachability sweep per sink.
  std::vector<std::vector<unsigned>> port(
      static_cast<std::size_t>(n - 1), std::vector<unsigned>(cells, 0));
  std::vector<std::vector<char>> reach(
      static_cast<std::size_t>(n), std::vector<char>(cells, 0));
  for (std::uint32_t sink = 0; sink < cells; ++sink) {
    for (auto& row : reach) std::fill(row.begin(), row.end(), 0);
    reach[static_cast<std::size_t>(n - 1)][sink] = 1;
    for (int s = n - 2; s >= 0; --s) {
      const auto& next = reach[static_cast<std::size_t>(s + 1)];
      auto& here = reach[static_cast<std::size_t>(s)];
      for (std::uint32_t x = 0; x < cells; ++x) {
        for (unsigned t = 0; t < radix; ++t) {
          if (next[w.child(s, x, t)] != 0) {
            here[x] = 1;
            break;
          }
        }
      }
    }
    for (std::uint32_t src = 0; src < cells; ++src) {
      if (reach[0][src] == 0) return std::nullopt;  // no full access
    }
    for (int s = 0; s + 1 < n; ++s) {
      const auto& here = reach[static_cast<std::size_t>(s)];
      const auto& next = reach[static_cast<std::size_t>(s + 1)];
      int chosen = -1;
      for (std::uint32_t x = 0; x < cells; ++x) {
        if (here[x] == 0) continue;
        int first = -1;
        for (unsigned t = 0; t < radix; ++t) {
          if (next[w.child(s, x, t)] != 0) {
            first = static_cast<int>(t);
            break;
          }
        }
        if (chosen < 0) {
          chosen = first;
        } else if (chosen != first) {
          return std::nullopt;  // port depends on the current cell
        }
      }
      port[static_cast<std::size_t>(s)][sink] =
          static_cast<unsigned>(chosen);
    }
  }

  // Fit one destination digit (and its value-to-port map) per stage.
  std::vector<std::uint32_t> power(static_cast<std::size_t>(digits), 1);
  for (int i = 1; i < digits; ++i) {
    power[static_cast<std::size_t>(i)] =
        power[static_cast<std::size_t>(i - 1)] * radix;
  }
  for (int s = 0; s + 1 < n; ++s) {
    const auto& stage_port = port[static_cast<std::size_t>(s)];
    bool fitted = false;
    for (int i = 0; i < digits && !fitted; ++i) {
      std::vector<int> map(radix, -1);
      bool ok = true;
      for (std::uint32_t sink = 0; sink < cells && ok; ++sink) {
        const unsigned value =
            (sink / power[static_cast<std::size_t>(i)]) % radix;
        if (map[value] < 0) {
          map[value] = static_cast<int>(stage_port[sink]);
        } else if (map[value] != static_cast<int>(stage_port[sink])) {
          ok = false;
        }
      }
      if (!ok) continue;
      schedule.digit.push_back(i);
      std::vector<unsigned> values(radix, 0);
      for (unsigned v = 0; v < radix; ++v) {
        values[v] = static_cast<unsigned>(map[v]);
      }
      schedule.port_of_value.push_back(std::move(values));
      fitted = true;
    }
    if (!fitted) return std::nullopt;  // not digit-routable
  }
  return schedule;
}

/// The child tables of \p w in FlatWiring::from_stage_children's layout:
/// entry radix * x + port of table s is the child of cell x at stage s.
inline std::vector<std::vector<std::uint32_t>> child_tables(
    const min::FlatWiring& w) {
  const auto radix = static_cast<unsigned>(w.radix());
  std::vector<std::vector<std::uint32_t>> tables;
  for (int s = 0; s + 1 < w.stages(); ++s) {
    std::vector<std::uint32_t> table(w.links_per_stage());
    for (std::uint32_t x = 0; x < w.cells_per_stage(); ++x) {
      for (unsigned t = 0; t < radix; ++t) {
        table[static_cast<std::size_t>(radix) * x + t] = w.child(s, x, t);
      }
    }
    tables.push_back(std::move(table));
  }
  return tables;
}

/// A copy of \p w with the cells of stages 0 .. stages-2 relabelled by
/// independent random permutations and the last stage kept. Routing reads
/// only sink labels, so the copy has a digit schedule iff \p w has one,
/// and it is the same schedule.
inline min::FlatWiring delta_copy(const min::FlatWiring& w,
                                  util::SplitMix64& rng) {
  const int n = w.stages();
  const std::uint32_t cells = w.cells_per_stage();
  const auto radix = static_cast<unsigned>(w.radix());
  std::vector<perm::Permutation> maps;
  for (int s = 0; s + 1 < n; ++s) {
    maps.push_back(perm::Permutation::random(cells, rng));
  }
  maps.emplace_back(cells);
  std::vector<std::vector<std::uint32_t>> children;
  for (int s = 0; s + 1 < n; ++s) {
    const perm::Permutation& here = maps[static_cast<std::size_t>(s)];
    const perm::Permutation& next = maps[static_cast<std::size_t>(s + 1)];
    std::vector<std::uint32_t> table(w.links_per_stage());
    for (std::uint32_t x = 0; x < cells; ++x) {
      for (unsigned t = 0; t < radix; ++t) {
        table[static_cast<std::size_t>(radix) * here(x) + t] =
            next(w.child(s, x, t));
      }
    }
    children.push_back(std::move(table));
  }
  return min::FlatWiring::from_stage_children(n, cells, w.radix(), children);
}

/// A copy of \p w with the port-t children of two random cells of one
/// random stage swapped (in-degrees kept). In a delta network every
/// port-t child of a stage takes the same value of the stage's digit, so
/// the swap survives any check of that digit alone; the copy still routes
/// every pair only when the two children reach the same sinks.
inline min::FlatWiring swapped_copy(const min::FlatWiring& w,
                                    util::SplitMix64& rng) {
  std::vector<std::vector<std::uint32_t>> tables = child_tables(w);
  const std::uint64_t cells = w.cells_per_stage();
  const auto radix = static_cast<std::uint64_t>(w.radix());
  if (tables.empty() || cells < 2) return w;
  std::vector<std::uint32_t>& table = tables[rng.below(tables.size())];
  const std::uint64_t t = rng.below(radix);
  const std::uint64_t x = rng.below(cells);
  const std::uint64_t y = (x + 1 + rng.below(cells - 1)) % cells;
  std::swap(table[radix * x + t], table[radix * y + t]);
  return min::FlatWiring::from_stage_children(w.stages(), w.cells_per_stage(),
                                              w.radix(), tables);
}

}  // namespace mineq::test
