/// \file digit_schedule_test.cpp
/// \brief min::find_digit_schedule's backward pass against the tests'
/// per-sink reference fit (schedule_reference.hpp) on seeded networks of
/// radix 2, 3 and 4; its rejection of multipath wirings; and exact
/// recovery at sizes where neither the reference nor
/// verify_digit_schedule can follow.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "min/flat_wiring.hpp"
#include "min/kary.hpp"
#include "min/networks.hpp"
#include "min/routing.hpp"
#include "multipath/multipath_wiring.hpp"
#include "schedule_reference.hpp"
#include "test_seed.hpp"
#include "test_support.hpp"

namespace mineq::min {
namespace {

/// Verdicts the cross-check saw, so each test can insist on both.
struct Tally {
  int accepted = 0;
  int rejected = 0;
};

/// The pass and the reference must return the same schedule or both
/// nullopt, and every accepted schedule must route every pair.
void expect_pass_matches(const FlatWiring& w,
                         const std::optional<DigitSchedule>& reference,
                         Tally& tally) {
  const std::optional<DigitSchedule> pass = find_digit_schedule(w);
  EXPECT_EQ(pass, reference);
  if (!pass.has_value()) {
    ++tally.rejected;
    return;
  }
  ++tally.accepted;
  EXPECT_TRUE(verify_digit_schedule(w, *pass));
}

void expect_pass_matches_reference(const FlatWiring& w, Tally& tally) {
  expect_pass_matches(w, test::reference_digit_schedule(w), tally);
}

/// The radix-2 cross-check, plus find_bit_schedule as the pass's r = 2
/// reading: bit = digit, invert = the port of digit value 0.
void expect_bit_schedule_matches_reference(const MIDigraph& g,
                                           Tally& tally) {
  ASSERT_TRUE(g.is_valid());
  const FlatWiring w = FlatWiring::from_digraph(g);
  const std::optional<DigitSchedule> reference =
      test::reference_digit_schedule(w);
  expect_pass_matches(w, reference, tally);
  const std::optional<BitSchedule> bits = find_bit_schedule(g);
  ASSERT_EQ(bits.has_value(), reference.has_value());
  if (!bits.has_value()) return;
  EXPECT_EQ(bits->bit, reference->digit);
  for (std::size_t s = 0; s < bits->invert.size(); ++s) {
    EXPECT_EQ(bits->invert[s], reference->port_of_value[s][0]);
  }
}

/// Radix 2 at n = 2..9: the classical kinds, their scrambled copies
/// (every stage relabelled: usually no schedule), random PIPID and
/// independent-connection networks, delta copies (the last stage kept:
/// the same schedule) of the classical, the PIPID and random Banyan
/// independent ones, and a swapped copy (two children exchanged) of the
/// classical delta copy. The reference is O(cells^2), so the larger
/// sizes draw fewer networks.
TEST(DigitScheduleTest, PassMatchesReferenceAtRadix2) {
  MINEQ_SEEDED_RNG(rng, 211);
  Tally tally;
  for (int n = 2; n <= 9; ++n) {
    const int trials = n <= 6 ? 3 : 1;
    for (int trial = 0; trial < trials; ++trial) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " trial=" + std::to_string(trial));
      const auto& kinds = all_network_kinds();
      const NetworkKind kind =
          kinds[static_cast<std::size_t>(rng.below(kinds.size()))];
      const MIDigraph classical = build_network(kind, n);
      const MIDigraph pipid = random_pipid_network(n, rng);
      const MIDigraph independent = random_independent_network(n, rng);
      const std::vector<MIDigraph> networks = {
          classical,
          test::delta_copy(classical, rng),
          test::scrambled_copy(classical, rng),
          pipid,
          test::delta_copy(pipid, rng),
          independent,
          test::delta_copy(test::random_banyan_independent(n, rng), rng)};
      for (const MIDigraph& g : networks) {
        expect_bit_schedule_matches_reference(g, tally);
      }
      expect_pass_matches_reference(
          test::swapped_copy(FlatWiring::from_digraph(networks[1]), rng),
          tally);
    }
  }
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
}

/// Radix 3 and 4: the closed-form kinds (whose attached schedule the pass
/// must also reproduce) and networks of random valid or random aligned
/// independent stages, each with a delta and a swapped copy.
TEST(DigitScheduleTest, PassMatchesReferenceAtRadix3And4) {
  MINEQ_SEEDED_RNG(rng, 223);
  Tally tally;
  for (const int radix : {3, 4}) {
    for (int n = 2; n <= (radix == 3 ? 5 : 4); ++n) {
      SCOPED_TRACE("r=" + std::to_string(radix) + " n=" + std::to_string(n));
      std::vector<KaryMIDigraph> networks;
      for (const NetworkKind kind : {NetworkKind::kOmega, NetworkKind::kFlip,
                                     NetworkKind::kBaseline}) {
        networks.push_back(build_kary_network(kind, n, radix));
      }
      for (int trial = 0; trial < 2; ++trial) {
        for (const bool aligned : {false, true}) {
          std::vector<KaryConnection> connections;
          for (int s = 0; s + 1 < n; ++s) {
            connections.push_back(
                aligned ? KaryConnection::random_independent_aligned(
                              radix, n - 1, rng)
                        : KaryConnection::random_valid(radix, n - 1, rng));
          }
          networks.emplace_back(n, radix, std::move(connections));
        }
      }
      for (const KaryMIDigraph& g : networks) {
        const FlatWiring w = FlatWiring::from_kary(g);
        expect_pass_matches_reference(w, tally);
        expect_pass_matches_reference(test::delta_copy(w, rng), tally);
        expect_pass_matches_reference(test::swapped_copy(w, rng), tally);
        if (g.schedule().has_value()) {
          EXPECT_EQ(find_digit_schedule(w), g.schedule());
        }
      }
    }
  }
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected, 0);
}

/// A DigitSchedule's value maps are bijections. Benes and dilated
/// wirings have more port sequences than sinks, so no schedule routes
/// them with bijective maps: the pass must return nullopt, where the
/// per-sink fit returns a schedule that routes every pair with maps
/// that are not bijections. Replicated planes have more sinks than port
/// sequences: each plane is an omega, but no source reaches another
/// plane.
TEST(DigitScheduleTest, RejectsMultipathWirings) {
  const std::vector<MultiPathWiring> fabrics = {
      MultiPathWiring::benes(3, 2),
      MultiPathWiring::dilated(NetworkKind::kOmega, 4, 2, 2)};
  for (const MultiPathWiring& fabric : fabrics) {
    SCOPED_TRACE(multipath_kind_name(fabric.kind()));
    const FlatWiring& w = fabric.wiring();
    EXPECT_FALSE(find_digit_schedule(w).has_value());
    const std::optional<DigitSchedule> fitted =
        test::reference_digit_schedule(w);
    ASSERT_TRUE(fitted.has_value());
    EXPECT_TRUE(verify_digit_schedule(w, *fitted));
    bool every_map_bijective = true;
    for (const std::vector<unsigned>& map : fitted->port_of_value) {
      std::vector<bool> seen(map.size(), false);
      for (const unsigned port : map) {
        if (port >= map.size() || seen[port]) every_map_bijective = false;
        if (port < map.size()) seen[port] = true;
      }
    }
    EXPECT_FALSE(every_map_bijective);
  }
  const MultiPathWiring planes =
      MultiPathWiring::replicated(NetworkKind::kOmega, 4, 2, 2);
  EXPECT_FALSE(find_digit_schedule(planes.wiring()).has_value());
  EXPECT_FALSE(test::reference_digit_schedule(planes.wiring()).has_value());
}

/// Past the reference's reach: delta copies of omega at n = 14..16
/// (up to 32768 cells per stage) must recover omega's closed-form
/// schedule exactly, an oracle that needs no O(cells^2) verification.
TEST(DigitScheduleTest, DeltaOmegaRecoversClosedFormAtLargeSizes) {
  MINEQ_SEEDED_RNG(rng, 227);
  for (int n = 14; n <= 16; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const FlatWiring omega =
        FlatWiring::from_kary(build_kary_network(NetworkKind::kOmega, n, 2));
    EXPECT_EQ(find_digit_schedule(test::delta_copy(omega, rng)),
              kary_network_schedule(NetworkKind::kOmega, n, 2));
  }
}

}  // namespace
}  // namespace mineq::min
