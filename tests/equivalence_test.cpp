#include "min/equivalence.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "min/banyan.hpp"
#include "min/baseline.hpp"
#include "min/kary.hpp"
#include "min/networks.hpp"
#include "min/pipid.hpp"
#include "min/properties.hpp"
#include "multipath/multipath_wiring.hpp"
#include "perm/permutation.hpp"
#include "perm/standard.hpp"
#include "test_seed.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace mineq::min {
namespace {

TEST(EquivalenceTest, BaselinePassesItsOwnCharacterization) {
  for (int n = 1; n <= 8; ++n) {
    const EquivalenceReport report =
        check_baseline_equivalence(baseline_network(n));
    EXPECT_TRUE(report.valid_degrees);
    EXPECT_TRUE(report.banyan);
    EXPECT_TRUE(report.p1_star);
    EXPECT_TRUE(report.p_star_n);
    EXPECT_TRUE(report.equivalent);
    EXPECT_EQ(report.failure, "");
  }
}

TEST(EquivalenceTest, AllClassicalNetworksEquivalent) {
  // The paper's corollary: the six classical networks are all baseline-
  // equivalent at every size.
  for (int n = 2; n <= 8; ++n) {
    for (NetworkKind kind : all_network_kinds()) {
      EXPECT_TRUE(is_baseline_equivalent(build_network(kind, n)))
          << network_name(kind) << " n=" << n;
    }
  }
}

TEST(EquivalenceTest, InvalidDegreesReported) {
  // A stage where some cell has in-degree 3.
  std::vector<Connection> connections;
  connections.emplace_back(std::vector<std::uint32_t>{0, 0},
                           std::vector<std::uint32_t>{0, 1}, 1);
  const MIDigraph g(2, std::move(connections));
  const EquivalenceReport report = check_baseline_equivalence(g);
  EXPECT_FALSE(report.valid_degrees);
  EXPECT_EQ(report.failure, "degrees");
  EXPECT_FALSE(report.equivalent);
}

TEST(EquivalenceTest, NonBanyanReported) {
  // Degenerate double-link stage (Fig. 5).
  std::vector<perm::IndexPermutation> seq = {
      perm::IndexPermutation::identity(3), perm::perfect_shuffle(3)};
  const MIDigraph g = network_from_pipids(seq);
  const EquivalenceReport report = check_baseline_equivalence(g);
  EXPECT_TRUE(report.valid_degrees);
  EXPECT_FALSE(report.banyan);
  EXPECT_EQ(report.failure, "banyan");
}

TEST(EquivalenceTest, ScrambledBaselineStillEquivalent) {
  // Per-stage relabelling destroys the linear structure but not the
  // topology; the characterization sees through it.
  MINEQ_SEEDED_RNG(rng, 127);
  for (int trial = 0; trial < 5; ++trial) {
    const MIDigraph g = test::scrambled_copy(baseline_network(5), rng);
    EXPECT_TRUE(is_baseline_equivalent(g));
  }
}

TEST(EquivalenceTest, IndependenceFastPathAgrees) {
  MINEQ_SEEDED_RNG(rng, 131);
  // Sound on independent-connection networks:
  for (int trial = 0; trial < 10; ++trial) {
    const MIDigraph g = random_independent_network(5, rng);
    if (is_baseline_equivalent_via_independence(g)) {
      EXPECT_TRUE(is_baseline_equivalent(g));
    }
  }
  // Not complete: a scrambled baseline is equivalent but its stages are
  // (generically) not independent.
  const MIDigraph scrambled = test::scrambled_copy(baseline_network(5), rng);
  EXPECT_TRUE(is_baseline_equivalent(scrambled));
  // (No assertion on the fast path here — it may legitimately return
  // false.)
}

TEST(EquivalenceTest, TopologicalEquivalenceViaCharacterization) {
  const MIDigraph omega = build_network(NetworkKind::kOmega, 5);
  const MIDigraph flip = build_network(NetworkKind::kFlip, 5);
  EXPECT_TRUE(are_topologically_equivalent(omega, flip));
}

TEST(EquivalenceTest, EquivalentVsNonEquivalentMixed) {
  const MIDigraph omega = build_network(NetworkKind::kOmega, 4);
  std::vector<perm::IndexPermutation> seq(
      3, perm::IndexPermutation::identity(4));
  const MIDigraph identity_net = network_from_pipids(seq);
  EXPECT_FALSE(are_topologically_equivalent(omega, identity_net));
}

TEST(EquivalenceTest, NonEquivalentPairFallsBackToSearch) {
  // Two scrambled copies of the same non-Banyan network: neither is
  // baseline-equivalent, but they are isomorphic to each other.
  MINEQ_SEEDED_RNG(rng, 137);
  std::vector<perm::IndexPermutation> seq(
      2, perm::IndexPermutation::identity(3));
  const MIDigraph g = network_from_pipids(seq);
  const MIDigraph h = test::scrambled_copy(g, rng);
  EXPECT_FALSE(is_baseline_equivalent(g));
  EXPECT_TRUE(are_topologically_equivalent(g, h));
  // And a genuinely different non-equivalent pair:
  std::vector<perm::IndexPermutation> seq2 = {
      perm::IndexPermutation::identity(3), perm::perfect_shuffle(3)};
  const MIDigraph k = network_from_pipids(seq2);
  EXPECT_FALSE(are_topologically_equivalent(g, k));
}

TEST(EquivalenceTest, DifferentStageCountsNeverEquivalent) {
  EXPECT_FALSE(are_topologically_equivalent(baseline_network(3),
                                            baseline_network(4)));
}

TEST(EquivalenceTest, ReversalPreservesEquivalence) {
  // Baseline-equivalence is closed under digraph reversal (the reverse of
  // Baseline is Reverse Baseline, which is in the class) — a network-level
  // echo of Proposition 1.
  MINEQ_SEEDED_RNG(rng, 141);
  for (NetworkKind kind : all_network_kinds()) {
    const MIDigraph g = build_network(kind, 5);
    EXPECT_TRUE(is_baseline_equivalent(g.reverse())) << network_name(kind);
  }
  for (int trial = 0; trial < 5; ++trial) {
    const MIDigraph g = test::random_banyan_pipid(4, rng);
    EXPECT_EQ(is_baseline_equivalent(g), is_baseline_equivalent(g.reverse()));
  }
  // And non-equivalent networks stay non-equivalent under reversal.
  std::vector<perm::IndexPermutation> seq(
      3, perm::IndexPermutation::identity(4));
  const MIDigraph chains = network_from_pipids(seq);
  EXPECT_FALSE(is_baseline_equivalent(chains.reverse()));
}

TEST(EquivalenceTest, RandomPipidBanyanNetworksAreEquivalent) {
  // Theorem 3 via Section 4, on random instances.
  MINEQ_SEEDED_RNG(rng, 139);
  for (int n = 2; n <= 6; ++n) {
    for (int trial = 0; trial < 5; ++trial) {
      const MIDigraph g = test::random_banyan_pipid(n, rng);
      EXPECT_TRUE(is_baseline_equivalent(g)) << "n=" << n;
      EXPECT_TRUE(is_baseline_equivalent_via_independence(g));
    }
  }
}

/// One line per report, so a mismatch prints both transcripts whole.
std::string describe(const EquivalenceReport& r) {
  std::string out;
  out += r.valid_degrees ? 'D' : 'd';
  out += r.banyan ? 'B' : 'b';
  out += r.p1_star ? 'P' : 'p';
  out += r.p_star_n ? 'S' : 's';
  out += r.equivalent ? 'E' : 'e';
  out += " failure=\"";
  out += r.failure;
  out += '"';
  return out;
}

/// Checks check_baseline_equivalence against a report assembled from the
/// separate checks — Banyan from the path-count kernel, then P(1,*) and
/// P(*,n), fail-fast — and the prefix lemma itself on every network that
/// satisfies P(1,*). Tallies how each Banyan verdict was reached.
struct FusedCrosscheck {
  int networks = 0;
  /// Passed the probe under P(1,*): Banyan came from the parents check.
  int decided_in_sweep = 0;
  /// Banyan outside P(1,*): only the path-count fallback decides these.
  int banyan_outside_p1 = 0;

  /// Returns is_banyan(net).
  template <typename Network>
  bool check(const Network& net, const std::string& what) {
    ++networks;
    EquivalenceReport want;
    want.valid_degrees = true;
    want.banyan = is_banyan(net);
    const bool p1 = satisfies_p1_star(net);
    want.p1_star = want.banyan && p1;
    want.p_star_n = want.p1_star && satisfies_p_star_n(net);
    want.equivalent = want.p_star_n;
    want.failure = !want.banyan     ? "banyan"
                   : !want.p1_star  ? "P(1,*)"
                   : !want.p_star_n ? "P(*,n)"
                                    : "";
    EXPECT_EQ(describe(check_baseline_equivalence(net)), describe(want))
        << what;
    const PrefixSweep prefix = prefix_sweep(net);
    EXPECT_EQ(prefix.p1_star, p1) << what;
    if (p1) {
      EXPECT_EQ(prefix.parents_distinct, want.banyan) << what;
      if (passes_banyan_probe(net)) ++decided_in_sweep;
    } else if (want.banyan) {
      ++banyan_outside_p1;
    }
    return want.banyan;
  }

  /// Both representations, and the suffix form of the lemma through the
  /// reverse digraph (P(*,n) of g is P(1,*) of g^{-1}).
  void check_digraph(const MIDigraph& g, const std::string& what) {
    ASSERT_TRUE(g.is_valid()) << what;
    const bool banyan = check(g, what);
    EXPECT_EQ(check(FlatWiring::from_digraph(g), what + " (wiring)"), banyan)
        << what;
    if (satisfies_p_star_n(g)) {
      const PrefixSweep reversed = prefix_sweep(g.reverse());
      EXPECT_TRUE(reversed.p1_star) << what;
      EXPECT_EQ(reversed.parents_distinct, banyan) << what;
    }
  }
};

MIDigraph random_valid_network(int n, util::SplitMix64& rng) {
  std::vector<Connection> connections;
  for (int s = 0; s + 1 < n; ++s) {
    connections.push_back(Connection::random_valid(n - 1, rng));
  }
  return MIDigraph(n, std::move(connections));
}

/// \p g with \p count distinct random connections replaced by random
/// valid stages.
MIDigraph with_stages_replaced(const MIDigraph& g, int count,
                               util::SplitMix64& rng) {
  std::vector<Connection> connections = g.connections();
  std::vector<bool> replaced(connections.size(), false);
  for (int k = 0; k < count; ++k) {
    std::size_t s = 0;
    do {
      s = static_cast<std::size_t>(rng.below(connections.size()));
    } while (replaced[s]);
    replaced[s] = true;
    connections[s] = Connection::random_valid(g.width(), rng);
  }
  return MIDigraph(g.stages(), std::move(connections));
}

TEST(EquivalenceTest, FusedReportMatchesSeparateChecksRadix2) {
  MINEQ_SEEDED_RNG(rng, 151);
  FusedCrosscheck cross;
  cross.check_digraph(MIDigraph(1, {}), "n=1");
  for (int n = 2; n <= 11; ++n) {
    const std::string at = "n=" + std::to_string(n);
    // Banyan networks outside P(1,*) are common only at n = 3 and 4 (a
    // few percent of the classical networks with one stage replaced at
    // n = 3), so the small sizes get many more trials; from n = 9 on,
    // one trial and one replacement count per kind keep the sanitizer
    // builds within seconds.
    const int trials = n <= 4 ? 60 : n <= 8 ? 12 : 1;
    const int rounds = n == 3 ? 60 : n == 4 ? 10 : 1;
    for (int trial = 0; trial < trials; ++trial) {
      cross.check_digraph(random_valid_network(n, rng), at + " random valid");
      cross.check_digraph(random_pipid_network(n, rng), at + " random PIPID");
      const MIDigraph independent = random_independent_network(n, rng);
      if (independent.is_valid()) {
        cross.check_digraph(independent, at + " random independent");
      }
    }
    for (int round = 0; round < rounds; ++round) {
      for (const NetworkKind kind : all_network_kinds()) {
        const std::string name = at + " " + network_name(kind);
        const MIDigraph g = build_network(kind, n);
        cross.check_digraph(test::scrambled_copy(g, rng),
                            name + " scrambled");
        for (int count = 1; count <= std::min(2, n - 1); ++count) {
          if (n >= 9 && count != 1 + static_cast<int>(kind) % 2) continue;
          cross.check_digraph(with_stages_replaced(g, count, rng),
                              name + " " + std::to_string(count) +
                                  " stage(s) replaced");
        }
      }
    }
  }
  EXPECT_GT(cross.decided_in_sweep, 0);
  EXPECT_GT(cross.banyan_outside_p1, 0);
  RecordProperty("networks", cross.networks);
  RecordProperty("decided_in_sweep", cross.decided_in_sweep);
  RecordProperty("banyan_outside_p1", cross.banyan_outside_p1);
}

/// \p w with every stage's cells relabelled by a random permutation:
/// isomorphic by construction, with arbitrary labels.
FlatWiring scrambled_wiring(const FlatWiring& w, util::SplitMix64& rng) {
  const std::uint32_t cells = w.cells_per_stage();
  const auto radix = static_cast<unsigned>(w.radix());
  std::vector<perm::Permutation> maps;
  for (int s = 0; s < w.stages(); ++s) {
    maps.push_back(perm::Permutation::random(cells, rng));
  }
  std::vector<std::vector<std::uint32_t>> children(
      static_cast<std::size_t>(w.stages() - 1),
      std::vector<std::uint32_t>(w.links_per_stage()));
  for (int s = 0; s + 1 < w.stages(); ++s) {
    const perm::Permutation& from = maps[static_cast<std::size_t>(s)];
    const perm::Permutation& to = maps[static_cast<std::size_t>(s) + 1];
    for (std::uint32_t x = 0; x < cells; ++x) {
      for (unsigned t = 0; t < radix; ++t) {
        children[static_cast<std::size_t>(s)][radix * from(x) + t] =
            to(w.child(s, x, t));
      }
    }
  }
  return FlatWiring::from_stage_children(w.stages(), cells, w.radix(),
                                         children);
}

TEST(EquivalenceTest, FusedReportMatchesSeparateChecksRadix3And4) {
  MINEQ_SEEDED_RNG(rng, 157);
  FusedCrosscheck cross;
  for (const auto& [radix, max_stages] :
       {std::pair<int, int>{3, 6}, std::pair<int, int>{4, 5}}) {
    for (int n = 2; n <= max_stages; ++n) {
      const std::string at =
          "radix=" + std::to_string(radix) + " n=" + std::to_string(n);
      for (const NetworkKind kind :
           {NetworkKind::kOmega, NetworkKind::kFlip, NetworkKind::kBaseline}) {
        const KaryMIDigraph g = build_kary_network(kind, n, radix);
        const FlatWiring w = FlatWiring::from_kary(g);
        cross.check(w, at + " " + network_name(kind));
        cross.check(scrambled_wiring(w, rng),
                    at + " " + network_name(kind) + " scrambled");
        std::vector<KaryConnection> connections;
        for (int s = 0; s + 1 < n; ++s) connections.push_back(g.connection(s));
        connections[static_cast<std::size_t>(rng.below(connections.size()))] =
            KaryConnection::random_valid(radix, n - 1, rng);
        cross.check(FlatWiring::from_kary(
                        KaryMIDigraph(n, radix, std::move(connections))),
                    at + " " + network_name(kind) + " stage replaced");
      }
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<KaryConnection> valid;
        std::vector<KaryConnection> aligned;
        for (int s = 0; s + 1 < n; ++s) {
          valid.push_back(KaryConnection::random_valid(radix, n - 1, rng));
          aligned.push_back(
              KaryConnection::random_independent_aligned(radix, n - 1, rng));
        }
        const KaryMIDigraph independent(n, radix, std::move(aligned));
        cross.check(FlatWiring::from_kary(
                        KaryMIDigraph(n, radix, std::move(valid))),
                    at + " random valid");
        cross.check(FlatWiring::from_kary(independent),
                    at + " aligned independent");
        EXPECT_EQ(check_baseline_equivalence(FlatWiring::from_kary(independent))
                      .equivalent,
                  kary_is_baseline_equivalent(independent))
            << at;
      }
    }
  }
  EXPECT_GT(cross.decided_in_sweep, 0);
  RecordProperty("networks", cross.networks);
  RecordProperty("decided_in_sweep", cross.decided_in_sweep);
  RecordProperty("banyan_outside_p1", cross.banyan_outside_p1);
}

TEST(EquivalenceTest, FusedReportMatchesSeparateChecksMultipath) {
  // None of these is a Banyan MI-digraph: Benes (2n - 1 stages) and
  // dilated (parallel arcs) wirings have several paths per pair, and
  // replicated planes leave most pairs without one.
  FusedCrosscheck cross;
  for (const int radix : {2, 3}) {
    for (int n = 2; n <= (radix == 2 ? 6 : 4); ++n) {
      const std::string at =
          "radix=" + std::to_string(radix) + " n=" + std::to_string(n);
      cross.check(MultiPathWiring::benes(n, radix).wiring(), at + " Benes");
      cross.check(
          MultiPathWiring::dilated(NetworkKind::kOmega, n, radix, 2).wiring(),
          at + " dilated x2");
      for (const int planes : {2, 4}) {
        const FlatWiring w =
            MultiPathWiring::replicated(NetworkKind::kOmega, n, radix, planes)
                .wiring();
        cross.check(w, at + " replicated x" + std::to_string(planes));
        EXPECT_TRUE(prefix_sweep(w).parents_distinct) << at;
      }
    }
  }
  EXPECT_EQ(cross.decided_in_sweep, 0);
}

TEST(EquivalenceTest, BanyanOutsideP1StarTakesTheFallback) {
  // Stage 1 -> 2 is two K_{2,2} blocks, and every first-stage cell sends
  // one arc into each block, so every source reaches every sink once.
  // But the prefix (G)_{0..1} is one 8-cycle, not 2 components: both
  // parents of every sink lie in it, and only the path-count fallback
  // sees that the network is Banyan.
  const MIDigraph g(3, {Connection({2, 1, 3, 0}, {1, 3, 0, 2}, 2),
                        Connection({0, 1, 3, 2}, {1, 0, 2, 3}, 2)});
  ASSERT_TRUE(g.is_valid());
  EXPECT_TRUE(is_banyan(g));
  EXPECT_EQ(prefix_component_profile(g), (std::vector<std::size_t>{4, 1, 1}));
  const PrefixSweep prefix = prefix_sweep(g);
  EXPECT_FALSE(prefix.p1_star);
  EXPECT_FALSE(prefix.parents_distinct);
  const std::string want = "DBpse failure=\"P(1,*)\"";
  EXPECT_EQ(describe(check_baseline_equivalence(g)), want);
  EXPECT_EQ(describe(check_baseline_equivalence(FlatWiring::from_digraph(g))),
            want);
  // The suffix form holds here: P(*,n) is P(1,*) of the reverse, whose
  // parents check agrees with the Banyan property.
  EXPECT_TRUE(satisfies_p_star_n(g));
  const PrefixSweep reversed = prefix_sweep(g.reverse());
  EXPECT_TRUE(reversed.p1_star);
  EXPECT_TRUE(reversed.parents_distinct);
}

}  // namespace
}  // namespace mineq::min
