/// \file lane_pool_test.cpp
/// \brief The wormhole lane pool on its own: every lane transition (claim,
/// follow, body hop, tail release, back to idle), the flits it builds
/// against make_flit at every index, and every logic_error path.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "sim/fabric.hpp"
#include "sim/flit.hpp"

namespace mineq::sim {
namespace {

/// Field-by-field equality (Flit has bit fields and no operator==).
void expect_same(const Flit& got, const Flit& want) {
  EXPECT_EQ(got.packet_id, want.packet_id);
  EXPECT_EQ(got.dest_terminal, want.dest_terminal);
  EXPECT_EQ(got.inject_cycle, want.inject_cycle);
  EXPECT_EQ(got.src, want.src);
  EXPECT_EQ(got.sl, want.sl);
  EXPECT_EQ(got.tag, want.tag);
  EXPECT_EQ(got.head, want.head);
  EXPECT_EQ(got.tail, want.tail);
}

/// Flit \p index of the test packet of \p length flits.
Flit flit(std::size_t index, std::size_t length) {
  return make_flit(7, 5, 3, 11, index, length, 2, 1);
}

TEST(LanePoolTest, FreshLanesAreIdle) {
  const LanePool pool(4, 2, 3);
  EXPECT_EQ(pool.depth(), 2U);
  for (std::size_t l = 0; l < 4; ++l) {
    EXPECT_TRUE(pool.idle(l));
    EXPECT_TRUE(pool.empty(l));
    EXPECT_TRUE(pool.has_space(l));
    EXPECT_EQ(pool.count(l), 0U);
    EXPECT_EQ(pool.downstream(l), -1);
  }
  EXPECT_EQ(pool.find_idle_lane(0, 4), 0);
}

/// One three-flit worm through two lanes: claim, follow, head hop, body
/// and tail hops, ejection, and both lanes back to idle.
TEST(LanePoolTest, WormClaimsFollowsHopsAndReleases) {
  LanePool pool(2, 3, 3);
  pool.accept_head(0, flit(0, 3), 1);
  EXPECT_FALSE(pool.idle(0));
  EXPECT_EQ(pool.count(0), 1U);
  EXPECT_EQ(pool.out_port(0), 1U);
  EXPECT_EQ(pool.downstream(0), -1);
  EXPECT_TRUE(pool.front_is_head(0));
  expect_same(pool.worm(0), flit(0, 3));
  EXPECT_EQ(pool.find_idle_lane(0, 2), 1);

  // The head hops; the lane stays claimed though it is empty for now.
  const Flit head = pool.pop(0);
  expect_same(head, flit(0, 3));
  EXPECT_TRUE(pool.empty(0));
  EXPECT_FALSE(pool.idle(0));
  pool.set_downstream(0, 1);
  pool.accept_head(1, head, 0);
  EXPECT_EQ(pool.downstream(0), 1);
  EXPECT_EQ(pool.find_idle_lane(0, 2), -1);

  // Its source serializes the body and the tail behind it.
  pool.accept_next(0);
  EXPECT_FALSE(pool.front_is_head(0));
  pool.accept_next(0);
  EXPECT_EQ(pool.count(0), 2U);

  // Body hop, then tail hop: the tail releases the upstream lane.
  pool.move(0, 1);
  EXPECT_EQ(pool.count(0), 1U);
  EXPECT_EQ(pool.count(1), 2U);
  EXPECT_FALSE(pool.idle(0));
  pool.move(0, 1);
  EXPECT_TRUE(pool.idle(0));
  EXPECT_EQ(pool.downstream(0), -1);
  EXPECT_EQ(pool.count(1), 3U);
  EXPECT_FALSE(pool.has_space(1));

  // Ejection pops head, body and tail in order; the tail frees the lane.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(pool.idle(1));
    expect_same(pool.pop(1), flit(i, 3));
  }
  EXPECT_TRUE(pool.idle(1));
  EXPECT_EQ(pool.find_idle_lane(0, 2), 0);
}

/// A released lane takes the next worm from a clean state, and reset()
/// returns every lane to idle.
TEST(LanePoolTest, ReleasedAndResetLanesTakeANewWorm) {
  LanePool pool(1, 2, 2);
  pool.accept_head(0, flit(0, 2), 1);
  pool.set_downstream(0, 1);
  pool.accept_next(0);
  (void)pool.pop(0);
  (void)pool.pop(0);
  ASSERT_TRUE(pool.idle(0));
  const Flit next = make_flit(8, 6, 4, 12, 0, 2);
  pool.accept_head(0, next, 0);
  EXPECT_EQ(pool.downstream(0), -1);
  EXPECT_EQ(pool.out_port(0), 0U);
  expect_same(pool.worm(0), next);

  pool.reset(3, 4, 5);
  EXPECT_EQ(pool.depth(), 4U);
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_TRUE(pool.idle(l));
    EXPECT_EQ(pool.downstream(l), -1);
  }
  // Worms are now five flits long: the fifth is the tail.
  pool.accept_head(1, flit(0, 5), 0);
  for (std::size_t i = 1; i < 4; ++i) pool.accept_next(1);
  for (std::size_t i = 0; i < 4; ++i) expect_same(pool.pop(1), flit(i, 5));
  pool.accept_next(1);
  expect_same(pool.pop(1), flit(4, 5));
  EXPECT_TRUE(pool.idle(1));
}

/// The flit a lane builds is make_flit at every index, for single-flit
/// worms (head and tail at once), short worms and a worm longer than
/// 32-bit counters could index.
TEST(LanePoolTest, BuiltFlitsMatchMakeFlitAtEveryIndex) {
  for (const std::size_t length : {std::size_t{1}, std::size_t{2},
                                   std::size_t{5}}) {
    SCOPED_TRACE(length);
    LanePool pool(1, length, length);
    pool.accept_head(0, flit(0, length), 0);
    for (std::size_t i = 1; i < length; ++i) pool.accept_next(0);
    for (std::size_t i = 0; i < length; ++i) {
      EXPECT_EQ(pool.front_is_head(0), i == 0);
      expect_same(pool.pop(0), flit(i, length));
    }
    EXPECT_TRUE(pool.idle(0));
  }
  const std::size_t huge = (std::size_t{1} << 33) + 5;
  LanePool pool(1, 4, huge);
  pool.accept_head(0, flit(0, huge), 0);
  for (std::size_t i = 1; i < 4; ++i) pool.accept_next(0);
  for (std::size_t i = 0; i < 4; ++i) {
    expect_same(pool.pop(0), flit(i, huge));
    EXPECT_FALSE(pool.idle(0));
  }
}

TEST(LanePoolTest, DepthIsCappedAtThe32BitCount) {
  const std::size_t wide = std::size_t{1} << 40;
  const LanePool pool(1, wide, wide);
  EXPECT_EQ(pool.depth(), std::numeric_limits<std::uint32_t>::max());
}

TEST(LanePoolTest, InvalidOperationsThrow) {
  EXPECT_THROW(LanePool(1, 0, 1), std::invalid_argument);
  EXPECT_THROW(LanePool(1, 1, 0), std::invalid_argument);

  LanePool pool(3, 2, 3);
  // Pops and hops from empty lanes.
  EXPECT_THROW((void)pool.pop(0), std::logic_error);
  EXPECT_THROW(pool.move(0, 1), std::logic_error);
  // A follower flit into a lane that holds no worm.
  EXPECT_THROW(pool.accept_next(0), std::logic_error);
  // A non-head flit cannot claim a lane.
  EXPECT_THROW(pool.accept_head(0, flit(1, 3), 0), std::logic_error);

  pool.accept_head(0, flit(0, 3), 0);
  // A head into a busy lane.
  EXPECT_THROW(pool.accept_head(0, flit(0, 3), 0), std::logic_error);
  // A head never hops as a follower; it claims the next lane instead.
  pool.accept_head(1, flit(0, 3), 0);
  EXPECT_THROW(pool.move(0, 1), std::logic_error);
  // A full lane.
  pool.accept_next(0);
  EXPECT_THROW(pool.accept_next(0), std::logic_error);
  // The worm's head leaves; its body may not hop into an idle lane or
  // into a lane whose worm expects another flit.
  (void)pool.pop(0);
  EXPECT_THROW(pool.move(0, 2), std::logic_error);
  pool.accept_next(1);
  EXPECT_THROW(pool.move(0, 1), std::logic_error);
  // The tail is in: nothing follows it, room or not.
  LanePool deep(1, 4, 2);
  deep.accept_head(0, flit(0, 2), 0);
  deep.accept_next(0);
  ASSERT_TRUE(deep.has_space(0));
  EXPECT_THROW(deep.accept_next(0), std::logic_error);
  // A full downstream lane refuses the hop.
  LanePool full(2, 1, 3);
  full.accept_head(0, flit(0, 3), 0);
  const Flit head = full.pop(0);
  full.accept_head(1, head, 0);
  full.accept_next(0);
  EXPECT_THROW(full.move(0, 1), std::logic_error);
}

}  // namespace
}  // namespace mineq::sim
