#include "min/properties.hpp"

#include <gtest/gtest.h>

#include "min/banyan.hpp"
#include "min/baseline.hpp"
#include "min/kary.hpp"
#include "min/networks.hpp"
#include "min/pipid.hpp"
#include "multipath/multipath_wiring.hpp"
#include "perm/standard.hpp"
#include "test_seed.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace mineq::min {
namespace {

TEST(PropertiesTest, ExpectedComponentsFormula) {
  const MIDigraph g = baseline_network(4);
  // Paper: (G)_{i,j} should have 2^{n-1-(j-i)} components.
  EXPECT_EQ(expected_components(g, 0, 0), 8U);
  EXPECT_EQ(expected_components(g, 0, 1), 4U);
  EXPECT_EQ(expected_components(g, 0, 3), 1U);
  EXPECT_EQ(expected_components(g, 2, 3), 4U);
  EXPECT_THROW((void)expected_components(g, 2, 1), std::invalid_argument);
  EXPECT_THROW((void)expected_components(g, 0, 4), std::invalid_argument);
}

TEST(PropertiesTest, BaselineSatisfiesEverything) {
  for (int n = 1; n <= 8; ++n) {
    const MIDigraph g = baseline_network(n);
    EXPECT_TRUE(satisfies_p1_star(g)) << "n=" << n;
    EXPECT_TRUE(satisfies_p_star_n(g)) << "n=" << n;
    for (int lo = 0; lo < n; ++lo) {
      for (int hi = lo; hi < n; ++hi) {
        EXPECT_TRUE(satisfies_p(g, lo, hi))
            << "n=" << n << " range " << lo << ".." << hi;
      }
    }
  }
}

TEST(PropertiesTest, PrefixProfileMatchesDirectCounts) {
  MINEQ_SEEDED_RNG(rng, 71);
  const MIDigraph g = random_independent_network(6, rng);
  const auto profile = prefix_component_profile(g);
  ASSERT_EQ(profile.size(), 6U);
  for (int j = 0; j < 6; ++j) {
    EXPECT_EQ(profile[static_cast<std::size_t>(j)],
              component_count_range(g, 0, j))
        << "j=" << j;
  }
}

TEST(PropertiesTest, SuffixProfileMatchesDirectCounts) {
  MINEQ_SEEDED_RNG(rng, 73);
  const MIDigraph g = random_independent_network(6, rng);
  const auto profile = suffix_component_profile(g);
  ASSERT_EQ(profile.size(), 6U);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(profile[static_cast<std::size_t>(i)],
              component_count_range(g, i, 5))
        << "i=" << i;
  }
}

TEST(PropertiesTest, SingleStageRangeCountsCells) {
  const MIDigraph g = baseline_network(4);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(component_count_range(g, s, s), 8U);
  }
}

TEST(PropertiesTest, IdentityChainsFailPrefixProperty) {
  // All-identity PIPID wiring: stage pairs stay disconnected columns of
  // double links, so (G)_{0..1} has 8 components instead of 4.
  std::vector<perm::IndexPermutation> seq(
      3, perm::IndexPermutation::identity(4));
  const MIDigraph g = network_from_pipids(seq);
  EXPECT_EQ(component_count_range(g, 0, 1), 8U);
  EXPECT_FALSE(satisfies_p(g, 0, 1));
  EXPECT_FALSE(satisfies_p1_star(g));
  EXPECT_FALSE(satisfies_p_star_n(g));
}

TEST(PropertiesTest, ClassicalNetworksSatisfyBothStars) {
  for (int n = 2; n <= 7; ++n) {
    for (NetworkKind kind : all_network_kinds()) {
      const MIDigraph g = build_network(kind, n);
      EXPECT_TRUE(satisfies_p1_star(g)) << network_name(kind) << " n=" << n;
      EXPECT_TRUE(satisfies_p_star_n(g)) << network_name(kind) << " n=" << n;
    }
  }
}

TEST(PropertiesTest, SuffixStructureLemma2Counts) {
  // Lemma 2: on a Banyan independent-connection network, each component
  // of (G)_{j..n-1} meets each covered stage in the same number of cells.
  MINEQ_SEEDED_RNG(rng, 79);
  const MIDigraph g = test::random_banyan_independent(5, rng);
  for (int from = 0; from < 5; ++from) {
    const SuffixStructure s = suffix_component_structure(g, from);
    EXPECT_EQ(s.component_count, std::size_t{1} << from) << "from=" << from;
    const std::size_t per_stage =
        g.cells_per_stage() >> static_cast<unsigned>(from);
    for (const auto& component : s.intersections) {
      for (std::size_t stage_count : component) {
        EXPECT_EQ(stage_count, per_stage);
      }
    }
  }
}

TEST(PropertiesTest, SuffixStructureCountsNodesExactly) {
  MINEQ_SEEDED_RNG(rng, 83);
  const MIDigraph g = random_independent_network(4, rng);
  const SuffixStructure s = suffix_component_structure(g, 1);
  std::size_t total = 0;
  for (const auto& component : s.intersections) {
    for (std::size_t count : component) total += count;
  }
  EXPECT_EQ(total, static_cast<std::size_t>(3) * g.cells_per_stage());
}

TEST(PropertiesTest, WiringProfilesNeedOneComponentAtTheFullRange) {
  // p disjoint planes of a banyan keep every per-plane count, but the
  // last prefix (and the first suffix) has one component per plane, and
  // the first prefix has p * 2^(n-1) cells: neither P(1,*) nor P(*,n).
  for (const int planes : {2, 4}) {
    const FlatWiring w =
        MultiPathWiring::replicated(NetworkKind::kOmega, 4, 2, planes)
            .wiring();
    EXPECT_EQ(prefix_component_profile(w).back(),
              static_cast<std::size_t>(planes));
    EXPECT_FALSE(satisfies_p1_star(w)) << "planes=" << planes;
    EXPECT_FALSE(satisfies_p_star_n(w)) << "planes=" << planes;
    EXPECT_FALSE(is_banyan(w)) << "planes=" << planes;
  }
  // Benes (7 stages over 8 cells) and dilated (radix 4 over 8 cells)
  // wirings do not have radix^(stages-1) cells either.
  for (const FlatWiring& w :
       {MultiPathWiring::benes(4, 2).wiring(),
        MultiPathWiring::dilated(NetworkKind::kOmega, 4, 2, 2).wiring()}) {
    EXPECT_FALSE(satisfies_p1_star(w)) << "radix " << w.radix();
    EXPECT_FALSE(satisfies_p_star_n(w)) << "radix " << w.radix();
  }
  for (const NetworkKind kind : all_network_kinds()) {
    const FlatWiring w = FlatWiring::from_digraph(build_network(kind, 4));
    EXPECT_TRUE(satisfies_p1_star(w)) << network_name(kind);
    EXPECT_TRUE(satisfies_p_star_n(w)) << network_name(kind);
  }
  for (const NetworkKind kind :
       {NetworkKind::kOmega, NetworkKind::kFlip, NetworkKind::kBaseline}) {
    const FlatWiring w = FlatWiring::from_kary(build_kary_network(kind, 4, 3));
    EXPECT_TRUE(satisfies_p1_star(w)) << network_name(kind) << " radix 3";
    EXPECT_TRUE(satisfies_p_star_n(w)) << network_name(kind) << " radix 3";
  }
}

}  // namespace
}  // namespace mineq::min
