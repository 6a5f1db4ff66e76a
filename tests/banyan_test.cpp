#include "min/banyan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "min/baseline.hpp"
#include "min/buddy.hpp"
#include "min/equivalence.hpp"
#include "min/networks.hpp"
#include "min/pipid.hpp"
#include "perm/standard.hpp"
#include "test_seed.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace mineq::min {
namespace {

TEST(BanyanTest, BaselineIsBanyan) {
  for (int n = 1; n <= 8; ++n) {
    EXPECT_TRUE(is_banyan(baseline_network(n))) << "n=" << n;
  }
}

TEST(BanyanTest, PathCountsFromSource) {
  const MIDigraph g = baseline_network(4);
  for (std::uint32_t u = 0; u < g.cells_per_stage(); ++u) {
    const auto counts = path_counts_from(g, u, 100);
    for (std::uint64_t c : counts) {
      EXPECT_EQ(c, 1U);
    }
  }
  EXPECT_THROW((void)path_counts_from(g, 8, 2), std::invalid_argument);
}

TEST(BanyanTest, DegeneratePipidStageBreaksBanyan) {
  // Fig. 5: a stage whose PIPID has theta^{-1}(0) = 0 produces double
  // links; parallel arcs mean two paths, so the Banyan property fails.
  const int n = 4;
  std::vector<perm::IndexPermutation> seq;
  seq.push_back(perm::perfect_shuffle(n));
  // sigma^{-1} shifted... use a PIPID fixing bit 0: subshuffle of the high
  // bits only, realized as conjugate; simplest: identity wiring.
  seq.push_back(perm::IndexPermutation::identity(n));
  seq.push_back(perm::perfect_shuffle(n));
  const MIDigraph g = network_from_pipids(seq);
  EXPECT_TRUE(g.is_valid());  // degrees are fine (double links)
  EXPECT_FALSE(is_banyan(g));
  const auto failure = banyan_failure(g);
  ASSERT_TRUE(failure.has_value());
  EXPECT_NE(failure->path_count, 1U);
}

TEST(BanyanTest, DisconnectedPairsDetected) {
  // Two parallel identity chains never mix: most pairs unreachable.
  std::vector<perm::IndexPermutation> seq(
      3, perm::IndexPermutation::identity(4));
  const MIDigraph g = network_from_pipids(seq);
  const auto failure = banyan_failure(g);
  ASSERT_TRUE(failure.has_value());
}

TEST(BanyanTest, DoublingAgreesWithCountingOnRandomNetworks) {
  MINEQ_SEEDED_RNG(rng, 61);
  for (int n = 2; n <= 6; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      const MIDigraph g = random_independent_network(n, rng);
      EXPECT_EQ(is_banyan(g), is_banyan_doubling(g))
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(BanyanTest, DoublingAgreesOnClassicalNetworks) {
  for (int n = 2; n <= 7; ++n) {
    for (NetworkKind kind : all_network_kinds()) {
      const MIDigraph g = build_network(kind, n);
      EXPECT_TRUE(is_banyan(g)) << network_name(kind) << " n=" << n;
      EXPECT_TRUE(is_banyan_doubling(g)) << network_name(kind);
    }
  }
}

TEST(BanyanTest, ParallelCheckMatchesSequential) {
  MINEQ_SEEDED_RNG(rng, 67);
  for (int trial = 0; trial < 5; ++trial) {
    const MIDigraph g = test::random_banyan_pipid(7, rng);
    EXPECT_TRUE(is_banyan(g, /*threads=*/2));
    const MIDigraph bad = random_independent_network(7, rng);
    EXPECT_EQ(is_banyan(bad, 1), is_banyan(bad, 2));
  }
}

TEST(BanyanTest, SingleStageIsTriviallyBanyan) {
  EXPECT_TRUE(is_banyan(MIDigraph(1, {})));
}

/// baseline_network(n) with the port-0 out-arc of first-stage cell x and
/// the port-1 out-arc of cell y exchanged. In-degrees stay 2, but x and
/// y each send both arcs into the same half of the baseline, so only
/// their own paths break.
MIDigraph arc_swapped_baseline(int n, std::uint32_t x, std::uint32_t y) {
  std::vector<Connection> connections = baseline_network(n).connections();
  std::vector<std::uint32_t> f = connections[0].f_table();
  std::vector<std::uint32_t> g = connections[0].g_table();
  std::swap(f[x], g[y]);
  connections[0] = Connection(std::move(f), std::move(g), n - 1);
  return MIDigraph(n, std::move(connections));
}

TEST(BanyanTest, BatchedKernelAgreesWithPerSourceReference) {
  // From n = 8 on, the sources span several 64-source batches. The
  // arc-swapped baselines pass the source-0 probe and fail in the first
  // batch only, or in a later batch only. Random Banyan PIPIDs get rare
  // at n = 11, where a scrambled classical network stands in.
  MINEQ_SEEDED_RNG(rng, 71);
  for (int n = 7; n <= 11; ++n) {
    std::vector<MIDigraph> cases;
    cases.push_back(random_independent_network(n, rng));
    cases.push_back(random_independent_network(n, rng));
    const NetworkKind kind = all_network_kinds()[static_cast<std::size_t>(
        rng.below(all_network_kinds().size()))];
    cases.push_back(test::scrambled_copy(build_network(kind, n), rng));
    if (n <= 10) cases.push_back(test::random_banyan_pipid(n, rng));
    const std::uint32_t cells = std::uint32_t{1} << (n - 1);
    for (const auto& [lo, hi] :
         {std::pair<std::uint32_t, std::uint32_t>{1, 64},
          std::pair<std::uint32_t, std::uint32_t>{64, cells}}) {
      if (hi <= lo) continue;
      const auto x = static_cast<std::uint32_t>(lo + rng.below(hi - lo));
      auto y = static_cast<std::uint32_t>(lo + rng.below(hi - lo - 1));
      if (y >= x) ++y;
      const MIDigraph swapped = arc_swapped_baseline(n, x, y);
      const auto failure = banyan_failure(swapped);
      ASSERT_TRUE(failure.has_value()) << "n=" << n;
      EXPECT_EQ(failure->source, std::min(x, y)) << "n=" << n;
      cases.push_back(swapped);
    }
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const MIDigraph& g = cases[i];
      // banyan_failure is the per-source path_counts_from reference.
      const bool expected = !banyan_failure(g).has_value();
      EXPECT_EQ(is_banyan(g, 1), expected) << "n=" << n << " case " << i;
      EXPECT_EQ(is_banyan(g, 4), expected) << "n=" << n << " case " << i;
      EXPECT_EQ(is_banyan(FlatWiring::from_digraph(g)), expected)
          << "n=" << n << " case " << i;
      EXPECT_EQ(is_banyan_doubling(g), expected)
          << "n=" << n << " case " << i;
    }
  }
}

TEST(BanyanTest, InvalidDegreeDigraphCanBeBanyan) {
  // Redirect the port-0 arc of the last first-stage cell to its target's
  // buddy, the stage-1 cell with the same two children: in-degrees
  // become 3 and 1, but the redirected paths reach the same sinks once
  // each. Path counting needs no degree condition, so this is Banyan;
  // the characterization rejects it on degrees.
  for (const int n : {3, 8, 9, 11}) {
    std::vector<Connection> connections = baseline_network(n).connections();
    const std::uint32_t x = connections[0].cells() - 1;
    std::vector<std::uint32_t> f = connections[0].f_table();
    const auto buddy = buddy_partner(connections[1], f[x]);
    ASSERT_TRUE(buddy.has_value()) << "n=" << n;
    f[x] = *buddy;
    connections[0] =
        Connection(std::move(f), connections[0].g_table(), n - 1);
    const MIDigraph g(n, std::move(connections));
    ASSERT_FALSE(g.is_valid()) << "n=" << n;
    EXPECT_FALSE(banyan_failure(g).has_value()) << "n=" << n;
    EXPECT_TRUE(is_banyan(g, 1)) << "n=" << n;
    EXPECT_TRUE(is_banyan(g, 4)) << "n=" << n;
    EXPECT_TRUE(is_banyan_doubling(g)) << "n=" << n;
    const EquivalenceReport report = check_baseline_equivalence(g);
    EXPECT_FALSE(report.equivalent) << "n=" << n;
    EXPECT_EQ(report.failure, "degrees") << "n=" << n;
  }
}

}  // namespace
}  // namespace mineq::min
