/// \file wormhole_test.cpp
/// \brief Invariants of the flit-level wormhole discipline: flit
/// conservation, worm ordering (tail follows head), determinism, and the
/// latency crossover against store-and-forward at low load.

#include "sim/wormhole.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "min/baseline.hpp"
#include "min/networks.hpp"
#include "sim/engine.hpp"
#include "sim/flit.hpp"

namespace mineq::sim {
namespace {

SimConfig wormhole_config() {
  SimConfig config;
  config.mode = SwitchingMode::kWormhole;
  config.packet_length = 4;
  config.lanes = 2;
  config.lane_depth = 4;
  config.warmup_cycles = 100;
  config.measure_cycles = 1000;
  config.injection_rate = 0.3;
  config.seed = 42;
  return config;
}

TEST(WormholeTest, ModeNamesRoundTrip) {
  EXPECT_EQ(switching_mode_name(SwitchingMode::kStoreAndForward), "saf");
  EXPECT_EQ(switching_mode_name(SwitchingMode::kWormhole), "wormhole");
  EXPECT_EQ(parse_switching_mode("saf"), SwitchingMode::kStoreAndForward);
  EXPECT_EQ(parse_switching_mode("store-and-forward"),
            SwitchingMode::kStoreAndForward);
  EXPECT_EQ(parse_switching_mode("wormhole"), SwitchingMode::kWormhole);
  EXPECT_THROW((void)parse_switching_mode("cut-through"),
               std::invalid_argument);
}

TEST(WormholeTest, FlitConservation) {
  // With no warmup, every flit is counted: what went in equals what came
  // out plus what is still buffered.
  const Engine engine(min::baseline_network(4));
  for (const double rate : {0.1, 0.5, 1.0}) {
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
      SimConfig config = wormhole_config();
      config.warmup_cycles = 0;
      config.injection_rate = rate;
      config.lanes = lanes;
      const SimResult result = engine.run(Pattern::kUniform, config);
      EXPECT_EQ(result.flits_injected,
                result.flits_delivered + result.flits_in_flight)
          << "rate=" << rate << " lanes=" << lanes;
      // Every delivered packet ejected exactly packet_length flits; a
      // worm delivered up to its tail contributes partially.
      EXPECT_GE(result.flits_delivered,
                result.delivered * config.packet_length);
      EXPECT_LE(result.flits_injected,
                result.injected * config.packet_length);
      EXPECT_GT(result.delivered, 0U);
    }
  }
}

TEST(WormholeTest, TailFollowsHeadOrdering) {
  // Observe every ejected flit: per packet, the head leaves first, the
  // tail last, exactly packet_length flits in strictly increasing cycles.
  const Engine engine(min::baseline_network(4));
  SimConfig config = wormhole_config();
  config.warmup_cycles = 0;
  config.measure_cycles = 600;
  const WormholeSimulator wormhole(engine);

  struct Worm {
    std::vector<std::uint64_t> cycles;
    std::vector<bool> heads;
    std::vector<bool> tails;
  };
  std::map<std::uint32_t, Worm> worms;
  const SimResult result = wormhole.run(
      Pattern::kUniform, config, [&](const Flit& flit, std::uint64_t cycle) {
        Worm& worm = worms[flit.packet_id];
        worm.cycles.push_back(cycle);
        worm.heads.push_back(flit.is_head());
        worm.tails.push_back(flit.is_tail());
      });
  ASSERT_GT(result.delivered, 0U);

  std::uint64_t complete = 0;
  for (const auto& [id, worm] : worms) {
    ASSERT_FALSE(worm.cycles.empty());
    EXPECT_TRUE(worm.heads.front()) << "packet " << id;
    for (std::size_t i = 1; i < worm.cycles.size(); ++i) {
      EXPECT_FALSE(worm.heads[i]) << "packet " << id;
      EXPECT_LT(worm.cycles[i - 1], worm.cycles[i]) << "packet " << id;
      // No flit after the tail.
      EXPECT_FALSE(worm.tails[i - 1]) << "packet " << id;
    }
    if (worm.tails.back()) {
      ++complete;
      EXPECT_EQ(worm.cycles.size(), config.packet_length)
          << "packet " << id;
    } else {
      EXPECT_LT(worm.cycles.size(), config.packet_length);
    }
  }
  EXPECT_EQ(complete, result.delivered);
}

TEST(WormholeTest, SingleFlitPacketsAreHeadAndTail) {
  const Engine engine(min::baseline_network(3));
  SimConfig config = wormhole_config();
  config.packet_length = 1;
  config.warmup_cycles = 0;
  config.measure_cycles = 300;
  const WormholeSimulator wormhole(engine);
  std::uint64_t seen = 0;
  const SimResult result = wormhole.run(
      Pattern::kUniform, config, [&](const Flit& flit, std::uint64_t) {
        ++seen;
        EXPECT_TRUE(flit.is_head());
        EXPECT_TRUE(flit.is_tail());
      });
  EXPECT_EQ(seen, result.flits_delivered);
  EXPECT_EQ(result.flits_delivered, result.delivered);
}

TEST(WormholeTest, LatencyCrossoverAtLowLoad) {
  // At low load a store-and-forward packet pays ~packet_length cycles per
  // hop while a worm pipelines: stages + length - 1. Multi-flit packets
  // must therefore fly faster under wormhole, and single-flit packets
  // identically under both disciplines.
  const Engine engine(min::baseline_network(4));
  SimConfig config = wormhole_config();
  config.injection_rate = 0.03;
  config.packet_length = 6;
  config.lane_depth = 2;

  const SimResult wormhole = engine.run(Pattern::kUniform, config);
  config.mode = SwitchingMode::kStoreAndForward;
  const SimResult saf = engine.run(Pattern::kUniform, config);
  ASSERT_GT(wormhole.latency.count(), 0U);
  ASSERT_GT(saf.latency.count(), 0U);
  EXPECT_LT(wormhole.latency.mean(), saf.latency.mean());

  config.packet_length = 1;
  const SimResult saf1 = engine.run(Pattern::kUniform, config);
  config.mode = SwitchingMode::kWormhole;
  const SimResult wormhole1 = engine.run(Pattern::kUniform, config);
  EXPECT_NEAR(wormhole1.latency.mean(), saf1.latency.mean(), 1.0);
}

TEST(WormholeTest, DeterministicGivenSeed) {
  const Engine engine(min::baseline_network(4));
  const SimConfig config = wormhole_config();
  const SimResult a = engine.run(Pattern::kUniform, config);
  const SimResult b = engine.run(Pattern::kUniform, config);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.hol_blocking_cycles, b.hol_blocking_cycles);
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_DOUBLE_EQ(a.link_utilization, b.link_utilization);
}

TEST(WormholeTest, EngineDispatchMatchesDirectRun) {
  const Engine engine(min::baseline_network(4));
  const SimConfig config = wormhole_config();
  const SimResult via_engine = engine.run(Pattern::kShuffle, config);
  const SimResult direct =
      WormholeSimulator(engine).run(Pattern::kShuffle, config);
  EXPECT_EQ(via_engine.injected, direct.injected);
  EXPECT_EQ(via_engine.delivered, direct.delivered);
  EXPECT_EQ(via_engine.flits_in_flight, direct.flits_in_flight);
  EXPECT_DOUBLE_EQ(via_engine.latency.mean(), direct.latency.mean());
}

TEST(WormholeTest, MoreLanesNeverHurtThroughput) {
  // Virtual channels exist to relieve head-of-line blocking; at
  // saturation, adding lanes must not lose throughput.
  const Engine engine(min::baseline_network(4));
  SimConfig config = wormhole_config();
  config.injection_rate = 1.0;
  config.lanes = 1;
  const SimResult one = engine.run(Pattern::kUniform, config);
  config.lanes = 4;
  const SimResult four = engine.run(Pattern::kUniform, config);
  EXPECT_GE(four.throughput + 0.02, one.throughput);
  EXPECT_GT(four.hol_blocking_cycles, 0U);
}

TEST(WormholeTest, CountersBounded) {
  const Engine engine(min::baseline_network(5));
  SimConfig config = wormhole_config();
  config.injection_rate = 0.9;
  const SimResult result = engine.run(Pattern::kUniform, config);
  EXPECT_GE(result.link_utilization, 0.0);
  EXPECT_LE(result.link_utilization, 1.0);
  EXPECT_GT(result.lane_occupancy.count(), 0U);
  EXPECT_GE(result.lane_occupancy.mean(), 0.0);
  EXPECT_LE(result.lane_occupancy.max(), 1.0);
  EXPECT_EQ(result.latency_histogram.total(), result.latency.count());
  EXPECT_GE(result.latency.min(),
            static_cast<double>(engine.wiring().stages()));
}

TEST(WormholeTest, SafSerializationRaisesLatency) {
  // The refactored store-and-forward path serializes multi-flit packets
  // over every link; longer packets must cost latency even at low load.
  const Engine engine(min::baseline_network(4));
  SimConfig config = wormhole_config();
  config.mode = SwitchingMode::kStoreAndForward;
  config.injection_rate = 0.02;
  config.packet_length = 1;
  const double short_latency =
      engine.run(Pattern::kUniform, config).latency.mean();
  config.packet_length = 5;
  const double long_latency =
      engine.run(Pattern::kUniform, config).latency.mean();
  EXPECT_GT(long_latency, short_latency + 3.0);
}

TEST(WormholeTest, ValidationRejectsBadParameters) {
  const Engine engine(min::baseline_network(3));
  SimConfig config = wormhole_config();
  config.lanes = 0;
  EXPECT_THROW((void)engine.run(Pattern::kUniform, config),
               std::invalid_argument);
  config = wormhole_config();
  config.lane_depth = 0;
  EXPECT_THROW((void)engine.run(Pattern::kUniform, config),
               std::invalid_argument);
  config = wormhole_config();
  config.packet_length = 0;
  EXPECT_THROW((void)engine.run(Pattern::kUniform, config),
               std::invalid_argument);
  config = wormhole_config();
  config.injection_rate = 1.5;
  EXPECT_THROW((void)engine.run(Pattern::kUniform, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace mineq::sim
