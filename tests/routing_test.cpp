#include "min/routing.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "min/banyan.hpp"
#include "min/baseline.hpp"
#include "min/networks.hpp"
#include "min/pipid.hpp"
#include "perm/standard.hpp"
#include "test_seed.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace mineq::min {
namespace {

TEST(RoutingTest, FindRouteFollowsArcs) {
  const MIDigraph g = baseline_network(4);
  for (std::uint32_t src = 0; src < 8; ++src) {
    for (std::uint32_t dst = 0; dst < 8; ++dst) {
      const auto route = find_route(g, src, dst);
      ASSERT_TRUE(route.has_value());
      ASSERT_EQ(route->cells.size(), 4U);
      ASSERT_EQ(route->ports.size(), 3U);
      EXPECT_EQ(route->cells.front(), src);
      EXPECT_EQ(route->cells.back(), dst);
      for (int s = 0; s < 3; ++s) {
        const auto children =
            g.children(s, route->cells[static_cast<std::size_t>(s)]);
        EXPECT_EQ(route->cells[static_cast<std::size_t>(s + 1)],
                  children[route->ports[static_cast<std::size_t>(s)]]);
      }
    }
  }
}

TEST(RoutingTest, FindRouteDetectsUnreachable) {
  // Identity chains: only the same cell index is reachable.
  std::vector<perm::IndexPermutation> seq(
      3, perm::IndexPermutation::identity(4));
  const MIDigraph g = network_from_pipids(seq);
  EXPECT_TRUE(find_route(g, 0, 0).has_value());
  EXPECT_FALSE(find_route(g, 0, 1).has_value());
  EXPECT_THROW((void)find_route(g, 8, 0), std::invalid_argument);
}

TEST(RoutingTest, ClassicalNetworksHaveBitSchedules) {
  // "these permutations are associated to a very simple bit directed
  // routing" — every classical network admits a destination-bit schedule.
  for (int n = 2; n <= 6; ++n) {
    for (NetworkKind kind : all_network_kinds()) {
      const MIDigraph g = build_network(kind, n);
      const auto schedule = find_bit_schedule(g);
      ASSERT_TRUE(schedule.has_value())
          << network_name(kind) << " n=" << n;
      EXPECT_TRUE(verify_bit_schedule(g, *schedule));
    }
  }
}

TEST(RoutingTest, BaselineScheduleConsumesHighBitsFirst) {
  // Baseline's stage-s connection forces destination bit w-s-1; the
  // schedule must read the destination MSB-first with no inversions.
  const MIDigraph g = baseline_network(5);
  const auto schedule = find_bit_schedule(g);
  ASSERT_TRUE(schedule.has_value());
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(schedule->bit[static_cast<std::size_t>(s)], 4 - 1 - s);
    EXPECT_EQ(schedule->invert[static_cast<std::size_t>(s)], 0U);
  }
}

TEST(RoutingTest, ScheduleMatchesUniquePaths) {
  const MIDigraph g = build_network(NetworkKind::kOmega, 5);
  const auto schedule = find_bit_schedule(g);
  ASSERT_TRUE(schedule.has_value());
  for (std::uint32_t src = 0; src < 16; src += 3) {
    for (std::uint32_t dst = 0; dst < 16; dst += 5) {
      const Route scheduled = route_with_schedule(g, *schedule, src, dst);
      const auto unique = find_route(g, src, dst);
      ASSERT_TRUE(unique.has_value());
      EXPECT_EQ(scheduled.cells, unique->cells);
      EXPECT_EQ(scheduled.ports, unique->ports);
    }
  }
}

TEST(RoutingTest, RandomPipidNetworksHaveSchedules) {
  MINEQ_SEEDED_RNG(rng, 149);
  for (int trial = 0; trial < 5; ++trial) {
    const MIDigraph g = test::random_banyan_pipid(5, rng);
    const auto schedule = find_bit_schedule(g);
    ASSERT_TRUE(schedule.has_value()) << "trial=" << trial;
    EXPECT_TRUE(verify_bit_schedule(g, *schedule));
  }
}

TEST(RoutingTest, NonBanyanHasNoSchedule) {
  std::vector<perm::IndexPermutation> seq(
      3, perm::IndexPermutation::identity(4));
  const MIDigraph g = network_from_pipids(seq);
  EXPECT_FALSE(find_bit_schedule(g).has_value());
}

TEST(RoutingTest, InvalidDegreesHaveNoSchedule) {
  // Stage-1 cell 0 has in-degree 3 and cell 2 in-degree 1, yet every
  // pair has one path and bits 1, 0 would route it. FlatWiring cannot
  // hold the graph, so the schedule search returns nullopt, not a throw.
  const MIDigraph g(3, {Connection({0, 0, 0, 2}, {1, 1, 3, 3}, 2),
                        Connection({0, 2, 0, 2}, {1, 3, 1, 3}, 2)});
  ASSERT_FALSE(g.is_valid());
  std::optional<BitSchedule> schedule;
  EXPECT_NO_THROW(schedule = find_bit_schedule(g));
  EXPECT_FALSE(schedule.has_value());
}

TEST(RoutingTest, ScheduleArityValidated) {
  const MIDigraph g = baseline_network(3);
  BitSchedule bad;
  bad.bit = {0};
  bad.invert = {0};
  EXPECT_THROW((void)route_with_schedule(g, bad, 0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace mineq::min
