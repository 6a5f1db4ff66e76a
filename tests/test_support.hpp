/// \file test_support.hpp
/// \brief Shared helpers for the mineq test suites.

#pragma once

#include <vector>

#include "min/mi_digraph.hpp"
#include "perm/permutation.hpp"
#include "util/rng.hpp"

namespace mineq::test {

/// A copy of \p g with every stage relabelled by an independent random
/// permutation — isomorphic to \p g by construction, but with arbitrary
/// (generally non-affine) cell labels.
inline min::MIDigraph scrambled_copy(const min::MIDigraph& g,
                                     util::SplitMix64& rng) {
  std::vector<perm::Permutation> maps;
  maps.reserve(static_cast<std::size_t>(g.stages()));
  for (int s = 0; s < g.stages(); ++s) {
    maps.push_back(perm::Permutation::random(g.cells_per_stage(), rng));
  }
  return g.relabelled(maps);
}

/// A copy of \p g with stages 0 .. stages-2 relabelled by independent
/// random permutations and the last stage kept. Routing reads only sink
/// labels, so the copy has a destination-tag schedule iff \p g has one,
/// and it is the same schedule.
inline min::MIDigraph delta_copy(const min::MIDigraph& g,
                                 util::SplitMix64& rng) {
  std::vector<perm::Permutation> maps;
  maps.reserve(static_cast<std::size_t>(g.stages()));
  for (int s = 0; s + 1 < g.stages(); ++s) {
    maps.push_back(perm::Permutation::random(g.cells_per_stage(), rng));
  }
  maps.emplace_back(g.cells_per_stage());
  return g.relabelled(maps);
}

/// A random Banyan network built from independent connections: resample
/// until the Banyan property holds (Theorem 3 instances).
inline min::MIDigraph random_banyan_independent(int stages,
                                                util::SplitMix64& rng);

/// A random Banyan PIPID network (Section 4 instances).
inline min::MIDigraph random_banyan_pipid(int stages, util::SplitMix64& rng);

}  // namespace mineq::test

#include "min/banyan.hpp"
#include "min/networks.hpp"

namespace mineq::test {

inline min::MIDigraph random_banyan_independent(int stages,
                                                util::SplitMix64& rng) {
  for (;;) {
    min::MIDigraph g = min::random_independent_network(stages, rng);
    if (g.is_valid() && min::is_banyan(g)) return g;
  }
}

inline min::MIDigraph random_banyan_pipid(int stages,
                                          util::SplitMix64& rng) {
  for (;;) {
    min::MIDigraph g = min::random_pipid_network(stages, rng);
    if (min::is_banyan(g)) return g;
  }
}

/// A random Banyan independent-connection network whose stage cases follow
/// \p case2_pattern (true = case 2, false = case 1). Used when two
/// networks must share the same per-stage orientation structure, e.g. for
/// the straight-pairing affine isomorphism family.
inline min::MIDigraph random_banyan_independent_cases(
    int stages, const std::vector<bool>& case2_pattern,
    util::SplitMix64& rng) {
  const int w = stages - 1;
  for (;;) {
    std::vector<min::Connection> connections;
    for (int s = 0; s + 1 < stages; ++s) {
      connections.push_back(
          case2_pattern[static_cast<std::size_t>(s)]
              ? min::Connection::random_independent_case2(w, rng)
              : min::Connection::random_independent_case1(w, rng));
    }
    min::MIDigraph g(stages, std::move(connections));
    if (min::is_banyan(g)) return g;
  }
}

}  // namespace mineq::test
