#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace mineq::util {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::size_t i) { ++hits[i]; }, 4);
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, RespectsRange) {
  std::atomic<std::uint64_t> sum(0);
  parallel_for(10, 20, [&](std::size_t i) { sum += i; }, 3);
  EXPECT_EQ(sum.load(), 145U);  // 10 + 11 + ... + 19
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  std::atomic<int> calls(0);
  parallel_for(5, 5, [&](std::size_t) { ++calls; }, 2);
  parallel_for(7, 3, [&](std::size_t) { ++calls; }, 2);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, SingleThreadMatchesSerial) {
  std::vector<int> order;
  parallel_for(0, 8, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
               1);
  std::vector<int> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, RunTeamRunsEveryIndexOnce) {
  ThreadPool pool;
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{5}, std::size_t{8}}) {
    std::vector<std::atomic<int>> hits(n);
    pool.run_team(n, [&hits](std::size_t index, std::size_t size) {
      ASSERT_EQ(size, hits.size());
      ++hits[index];
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(ThreadPoolTest, RunTeamReusesThreadsAcrossCalls) {
  ThreadPool pool;
  std::atomic<int> total(0);
  // Repeated calls (including shrinking and regrowing the active size)
  // must keep the dedicated team consistent — this is the cycle-loop
  // usage pattern of the sharded simulation driver.
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = static_cast<std::size_t>(1 + round % 4);
    pool.run_team(n, [&total](std::size_t, std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 200 / 4 * (1 + 2 + 3 + 4));
}

TEST(ThreadPoolTest, RunTeamCallerIsWorkerZero) {
  ThreadPool pool;
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.run_team(3, [&](std::size_t index, std::size_t) {
    if (index == 0) seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(SpinBarrierTest, RendezvousOrdersPhases) {
  // Each worker increments its phase counter, waits, then checks every
  // other worker finished the same phase — a reordering or missed
  // release shows up as a torn read.
  constexpr std::size_t kParties = 4;
  constexpr int kPhases = 500;
  SpinBarrier barrier(kParties);
  std::vector<std::atomic<int>> phase(kParties);
  std::atomic<int> failures(0);
  ThreadPool pool;
  pool.run_team(kParties, [&](std::size_t w, std::size_t n) {
    for (int p = 1; p <= kPhases; ++p) {
      phase[w].store(p, std::memory_order_relaxed);
      barrier.arrive_and_wait();
      for (std::size_t other = 0; other < n; ++other) {
        if (phase[other].load(std::memory_order_relaxed) < p) ++failures;
      }
      barrier.arrive_and_wait();
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(SpinBarrierTest, SinglePartyNeverBlocks) {
  SpinBarrier barrier(1);
  for (int i = 0; i < 10; ++i) barrier.arrive_and_wait();
  SUCCEED();
}

}  // namespace
}  // namespace mineq::util
