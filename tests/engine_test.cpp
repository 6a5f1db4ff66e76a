#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "min/baseline.hpp"
#include "min/networks.hpp"
#include "min/pipid.hpp"
#include "perm/standard.hpp"

namespace mineq::sim {
namespace {

SimConfig quick_config() {
  SimConfig config;
  config.warmup_cycles = 100;
  config.measure_cycles = 1000;
  config.injection_rate = 0.3;
  config.seed = 42;
  return config;
}

TEST(EngineTest, ConstructionDerivesSchedule) {
  EXPECT_NO_THROW(Engine(min::baseline_network(4)));
}

TEST(EngineTest, ConstructionRejectsNonRoutableNetwork) {
  std::vector<perm::IndexPermutation> seq(
      3, perm::IndexPermutation::identity(4));
  EXPECT_THROW((void)Engine(min::network_from_pipids(seq)), std::invalid_argument);
}

TEST(EngineTest, DeterministicGivenSeed) {
  const Engine engine(min::baseline_network(4));
  const SimResult a = engine.run(Pattern::kUniform, quick_config());
  const SimResult b = engine.run(Pattern::kUniform, quick_config());
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
}

TEST(EngineTest, LowLoadDeliversNearlyEverything) {
  const Engine engine(min::baseline_network(4));
  SimConfig config = quick_config();
  config.injection_rate = 0.05;
  const SimResult result = engine.run(Pattern::kUniform, config);
  EXPECT_GT(result.delivered, 0U);
  // At 5% load nothing should be refused at injection.
  EXPECT_DOUBLE_EQ(result.acceptance, 1.0);
  // Delivered within a small slack of injected (packets in flight at the
  // end of the run, plus warmup boundary effects).
  EXPECT_GE(result.delivered + 200, result.injected);
}

TEST(EngineTest, LatencyAtLeastStageCount) {
  // A packet needs >= stages cycles (one hop per cycle, plus ejection).
  const Engine engine(min::baseline_network(4));
  SimConfig config = quick_config();
  config.injection_rate = 0.02;
  const SimResult result = engine.run(Pattern::kUniform, config);
  ASSERT_GT(result.latency.count(), 0U);
  EXPECT_GE(result.latency.min(), 4.0);
}

TEST(EngineTest, ThroughputBounded) {
  const Engine engine(min::baseline_network(4));
  SimConfig config = quick_config();
  config.injection_rate = 1.0;
  const SimResult result = engine.run(Pattern::kUniform, config);
  EXPECT_GT(result.throughput, 0.0);
  EXPECT_LE(result.throughput, 1.0);
  // Uniform traffic at full load saturates below 100% on a Banyan MIN.
  EXPECT_LT(result.throughput, 0.95);
}

TEST(EngineTest, PermutationTrafficAtFullLoadFlows) {
  // Complement traffic is a fixed permutation: once the pipeline fills,
  // packets stream without head-of-line blocking variation per cycle...
  // conflicts depend on the topology; just require substantial throughput.
  const Engine engine(min::baseline_network(4));
  SimConfig config = quick_config();
  config.injection_rate = 1.0;
  const SimResult result = engine.run(Pattern::kComplement, config);
  EXPECT_GT(result.throughput, 0.2);
}

TEST(EngineTest, LatencyHistogramConsistentWithStats) {
  const Engine engine(min::baseline_network(4));
  SimConfig config = quick_config();
  config.injection_rate = 0.4;
  const SimResult result = engine.run(Pattern::kUniform, config);
  EXPECT_EQ(result.latency_histogram.total(), result.latency.count());
  // p99 upper-bounds the mean and lower-bounds the max bucket edge.
  const double p99 = result.latency_histogram.quantile(0.99);
  EXPECT_GE(p99, result.latency.mean());
  EXPECT_GE(result.latency.max() + 1.0, p99);
}

TEST(EngineTest, InvalidRateRejected) {
  const Engine engine(min::baseline_network(3));
  SimConfig config = quick_config();
  config.injection_rate = 1.5;
  EXPECT_THROW((void)engine.run(Pattern::kUniform, config), std::invalid_argument);
}

// warmup_cycles + measure_cycles must fit the 32-bit flit clock: a sum
// that wraps 64 bits used to run 4 cycles and report zeros.
TEST(EngineTest, UnrepresentableRunLengthRejected) {
  const Engine engine(min::baseline_network(3));
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 31;
  const std::pair<std::uint64_t, std::uint64_t> lengths[] = {
      {kMax, 5}, {5, kMax}, {kHalf, kHalf + 1}};
  for (const auto& [warmup, measure] : lengths) {
    SimConfig config = quick_config();
    config.warmup_cycles = warmup;
    config.measure_cycles = measure;
    EXPECT_THROW((void)engine.run(Pattern::kUniform, config),
                 std::invalid_argument);
    try {
      config.validate();
      ADD_FAILURE() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("warmup_cycles"), std::string::npos);
      EXPECT_NE(message.find("measure_cycles"), std::string::npos);
    }
  }
  SimConfig longest = quick_config();
  longest.warmup_cycles = kHalf;
  longest.measure_cycles = kHalf;
  EXPECT_NO_THROW(longest.validate());  // exactly 2^32 cycles
}

TEST(EngineTest, ZeroMeasuredCyclesRejected) {
  // A run with no measured cycles has no throughput, latency or
  // utilization to report: it must fail naming the field.
  const Engine engine(min::baseline_network(3));
  SimConfig config = quick_config();
  config.measure_cycles = 0;
  EXPECT_THROW((void)engine.run(Pattern::kUniform, config),
               std::invalid_argument);
  try {
    config.validate();
    ADD_FAILURE() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("measure_cycles"), std::string::npos);
  }
  config.measure_cycles = 1;
  EXPECT_NO_THROW(config.validate());
}

TEST(EngineTest, IsomorphicNetworksSimilarUniformThroughput) {
  // The six classical networks are isomorphic; under uniform traffic
  // their saturated throughputs should be close (not identical: the
  // label-dependent traffic interacts with different wirings).
  SimConfig config = quick_config();
  config.injection_rate = 1.0;
  double lo = 1.0;
  double hi = 0.0;
  for (min::NetworkKind kind : min::all_network_kinds()) {
    const Engine engine(min::build_network(kind, 4));
    const double throughput =
        engine.run(Pattern::kUniform, config).throughput;
    lo = std::min(lo, throughput);
    hi = std::max(hi, throughput);
  }
  EXPECT_GT(lo, 0.0);
  EXPECT_LT(hi - lo, 0.25);
}

}  // namespace
}  // namespace mineq::sim
