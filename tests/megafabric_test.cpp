/// \file megafabric_test.cpp
/// \brief The sharded single-simulation engine: SimConfig::sim_threads
/// must be byte-identical to the one-worker (serial) run at every thread
/// count, for both switching disciplines and every policy instantiation
/// (pristine, faulted, credit flow control, multipath). Every comparison
/// below is exact — integer counters with EXPECT_EQ and statistics with
/// exact double equality — because the driver's determinism contract is
/// bit-for-bit reproduction of the one-worker iteration order, not
/// "statistically equivalent".

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fault/fault_model.hpp"
#include "min/kary.hpp"
#include "min/networks.hpp"
#include "multipath/multipath_wiring.hpp"
#include "sim/engine.hpp"
#include "sim/wormhole.hpp"

namespace mineq::sim {
namespace {

using fault::FaultKind;
using fault::FaultMask;
using fault::FaultSpec;
using min::MultiPathWiring;
using min::NetworkKind;

// The thread counts every pin runs at (beyond serial). 5 exercises
// uneven ranges (cells % threads != 0) and 8 the ISSUE's target core
// count; both exceed this CI box's single core on purpose — correctness
// must not depend on the host's parallelism.
constexpr std::size_t kThreadCounts[] = {2, 5, 8};

void expect_stats_identical(const RunningStats& a, const RunningStats& b) {
  ASSERT_EQ(a.count(), b.count());
  if (a.count() == 0) return;
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_histogram_identical(const Histogram& a, const Histogram& b) {
  ASSERT_EQ(a.total(), b.total());
  EXPECT_EQ(a.overflow(), b.overflow());
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << "quantile " << q;
  }
}

/// Every field of the result, exactly. Doubles compare with ==: the
/// sharded run must reproduce the serial arithmetic, including the
/// order of every Welford update.
void expect_identical(const SimResult& serial, const SimResult& sharded) {
  EXPECT_EQ(serial.offered, sharded.offered);
  EXPECT_EQ(serial.injected, sharded.injected);
  EXPECT_EQ(serial.delivered, sharded.delivered);
  EXPECT_EQ(serial.flits_injected, sharded.flits_injected);
  EXPECT_EQ(serial.flits_delivered, sharded.flits_delivered);
  EXPECT_EQ(serial.flits_in_flight, sharded.flits_in_flight);
  EXPECT_EQ(serial.hol_blocking_cycles, sharded.hol_blocking_cycles);
  EXPECT_EQ(serial.credit_stall_cycles, sharded.credit_stall_cycles);
  EXPECT_EQ(serial.credit_violations, sharded.credit_violations);
  EXPECT_EQ(serial.packets_dropped_faulted, sharded.packets_dropped_faulted);
  EXPECT_EQ(serial.packets_rerouted, sharded.packets_rerouted);
  EXPECT_EQ(serial.packets_misdelivered, sharded.packets_misdelivered);
  EXPECT_EQ(serial.flits_dropped_faulted, sharded.flits_dropped_faulted);
  EXPECT_EQ(serial.paths_available, sharded.paths_available);
  EXPECT_EQ(serial.path_reroutes, sharded.path_reroutes);
  EXPECT_EQ(serial.throughput, sharded.throughput);
  EXPECT_EQ(serial.acceptance, sharded.acceptance);
  EXPECT_EQ(serial.link_utilization, sharded.link_utilization);
  expect_stats_identical(serial.latency, sharded.latency);
  expect_stats_identical(serial.lane_occupancy, sharded.lane_occupancy);
  expect_histogram_identical(serial.latency_histogram,
                             sharded.latency_histogram);
  ASSERT_EQ(serial.vl_occupancy.size(), sharded.vl_occupancy.size());
  for (std::size_t i = 0; i < serial.vl_occupancy.size(); ++i) {
    expect_stats_identical(serial.vl_occupancy[i], sharded.vl_occupancy[i]);
  }
  ASSERT_EQ(serial.sl_latency.size(), sharded.sl_latency.size());
  for (std::size_t i = 0; i < serial.sl_latency.size(); ++i) {
    expect_stats_identical(serial.sl_latency[i], sharded.sl_latency[i]);
  }
}

/// Run \p config serially, then at each entry of kThreadCounts, and
/// require byte-identical results throughout.
void expect_sharded_identical(const Engine& engine, Pattern pattern,
                              SimConfig config,
                              const FaultMask* mask = nullptr) {
  config.sim_threads = 1;
  const SimResult serial = engine.run(pattern, config, mask);
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << "sim_threads = " << threads);
    config.sim_threads = threads;
    expect_identical(serial, engine.run(pattern, config, mask));
  }
}

[[nodiscard]] SimConfig base_config(SwitchingMode mode) {
  SimConfig config;
  config.mode = mode;
  config.injection_rate = 0.6;
  config.warmup_cycles = 50;
  config.measure_cycles = 250;
  config.seed = 1234;
  return config;
}

// ------------------------------------------------------- store-and-forward

TEST(MegafabricSafTest, PlainUniformMatchesSerial) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  SimConfig config = base_config(SwitchingMode::kStoreAndForward);
  config.packet_length = 3;
  config.queue_capacity = 4;
  expect_sharded_identical(engine, Pattern::kUniform, config);
}

TEST(MegafabricSafTest, AdversarialPermutationCrossRangeStress) {
  // Bit reversal on an Omega funnels conflicting streams through shared
  // mid-stage switches, with capacity 1 so nearly every cycle carries a
  // cross-range handoff under backpressure. This is the pin that would
  // catch a racy or mis-partitioned push into a neighbour's range.
  const Engine engine(min::build_network(NetworkKind::kOmega, 6));
  SimConfig config = base_config(SwitchingMode::kStoreAndForward);
  config.injection_rate = 1.0;
  config.queue_capacity = 1;
  expect_sharded_identical(engine, Pattern::kBitReversal, config);
  expect_sharded_identical(engine, Pattern::kTranspose, config);
}

TEST(MegafabricSafTest, BurstyMultiFlitMatchesSerial) {
  const Engine engine(min::build_network(NetworkKind::kBaseline, 6));
  SimConfig config = base_config(SwitchingMode::kStoreAndForward);
  config.packet_length = 5;
  config.queue_capacity = 2;
  expect_sharded_identical(engine, Pattern::kBursty, config);
}

TEST(MegafabricSafTest, FaultedMatchesSerial) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 6));
  SimConfig config = base_config(SwitchingMode::kStoreAndForward);
  config.queue_capacity = 4;
  // Switch kills produce dead-switch drains; random links produce
  // detours and misdeliveries — both drop paths cross worker ranges.
  for (const FaultKind kind : {FaultKind::kSwitchKills,
                               FaultKind::kRandomLinks}) {
    SCOPED_TRACE(fault::fault_kind_name(kind));
    const FaultMask mask = fault::build_fault_mask(
        engine.wiring(), FaultSpec{kind, 0.08, 7});
    expect_sharded_identical(engine, Pattern::kUniform, config, &mask);
  }
}

TEST(MegafabricSafTest, CreditsWeightedMatchesSerial) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  SimConfig config = base_config(SwitchingMode::kStoreAndForward);
  config.queue_capacity = 4;
  config.credits.enabled = true;
  config.credits.return_latency = 4;
  config.credits.sl_map = {0, 1};
  config.credits.weights = {3, 1};
  config.credits.arbitration = ArbitrationPolicy::kWeighted;
  expect_sharded_identical(engine, Pattern::kUniform, config);
}

TEST(MegafabricSafTest, MultipathMatchesSerial) {
  SimConfig config = base_config(SwitchingMode::kStoreAndForward);
  config.queue_capacity = 2;
  for (const PathPolicy policy : {PathPolicy::kHash, PathPolicy::kAdaptive}) {
    SCOPED_TRACE(static_cast<int>(policy));
    config.path_policy = policy;
    const Engine benes{MultiPathWiring::benes(4, 2)};
    expect_sharded_identical(benes, Pattern::kUniform, config);
    const Engine dilated{
        MultiPathWiring::dilated(NetworkKind::kOmega, 4, 2, 2)};
    expect_sharded_identical(dilated, Pattern::kBitReversal, config);
  }
}

TEST(MegafabricSafTest, MultipathFaultedMatchesSerial) {
  const Engine engine{MultiPathWiring::replicated(NetworkKind::kOmega, 4, 2,
                                                  2)};
  SimConfig config = base_config(SwitchingMode::kStoreAndForward);
  config.queue_capacity = 2;
  config.path_policy = PathPolicy::kHash;
  const FaultMask mask = fault::build_fault_mask(
      engine.wiring(), FaultSpec{FaultKind::kRandomLinks, 0.1, 11});
  expect_sharded_identical(engine, Pattern::kUniform, config, &mask);
}

// ---------------------------------------------------------------- wormhole

TEST(MegafabricWormholeTest, PlainUniformMatchesSerial) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  SimConfig config = base_config(SwitchingMode::kWormhole);
  config.packet_length = 4;
  config.lanes = 2;
  config.lane_depth = 4;
  expect_sharded_identical(engine, Pattern::kUniform, config);
}

TEST(MegafabricWormholeTest, AdversarialPermutationCrossRangeStress) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 6));
  SimConfig config = base_config(SwitchingMode::kWormhole);
  config.injection_rate = 1.0;
  config.packet_length = 3;
  config.lanes = 1;
  config.lane_depth = 2;
  expect_sharded_identical(engine, Pattern::kBitReversal, config);
  expect_sharded_identical(engine, Pattern::kTranspose, config);
}

TEST(MegafabricWormholeTest, FaultedMatchesSerial) {
  const Engine engine(min::build_network(NetworkKind::kBaseline, 6));
  SimConfig config = base_config(SwitchingMode::kWormhole);
  config.packet_length = 4;
  config.lanes = 2;
  config.lane_depth = 2;
  for (const FaultKind kind : {FaultKind::kSwitchKills,
                               FaultKind::kRandomLinks}) {
    SCOPED_TRACE(fault::fault_kind_name(kind));
    const FaultMask mask = fault::build_fault_mask(
        engine.wiring(), FaultSpec{kind, 0.08, 7});
    expect_sharded_identical(engine, Pattern::kUniform, config, &mask);
  }
}

TEST(MegafabricWormholeTest, CreditsMatchesSerial) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  SimConfig config = base_config(SwitchingMode::kWormhole);
  config.packet_length = 4;
  config.lanes = 2;
  config.lane_depth = 4;
  config.credits.enabled = true;
  config.credits.return_latency = 3;
  config.credits.sl_map = {0, 1};
  config.credits.weights = {3, 1};
  config.credits.arbitration = ArbitrationPolicy::kWeighted;
  expect_sharded_identical(engine, Pattern::kUniform, config);
}

TEST(MegafabricWormholeTest, EjectObserverSeesSerialOrder) {
  // The observer is the strictest order-sensitive sink: it must see
  // every ejected flit — warmup included — in the exact serial ejection
  // order, which the sharded driver reproduces by replaying the workers'
  // event buffers in ascending-worker order.
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  const WormholeSimulator simulator(engine);
  SimConfig config = base_config(SwitchingMode::kWormhole);
  config.packet_length = 3;
  config.lanes = 2;
  config.lane_depth = 2;
  const auto trace = [&](std::size_t threads) {
    std::vector<std::uint64_t> events;
    config.sim_threads = threads;
    const EjectObserver observer = [&events](const Flit& flit,
                                             std::uint64_t cycle) {
      events.push_back((cycle << 34) | (std::uint64_t{flit.packet_id} << 2) |
                       (flit.is_head() ? 2U : 0U) |
                       (flit.is_tail() ? 1U : 0U));
    };
    simulator.run(Pattern::kUniform, config, observer);
    return events;
  };
  const std::vector<std::uint64_t> serial = trace(1);
  EXPECT_FALSE(serial.empty());
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << "sim_threads = " << threads);
    EXPECT_EQ(serial, trace(threads));
  }
}

TEST(MegafabricWormholeTest, MultipathMatchesSerial) {
  SimConfig config = base_config(SwitchingMode::kWormhole);
  config.packet_length = 3;
  config.lanes = 2;
  config.lane_depth = 2;
  for (const PathPolicy policy : {PathPolicy::kHash, PathPolicy::kAdaptive}) {
    SCOPED_TRACE(static_cast<int>(policy));
    config.path_policy = policy;
    const Engine benes{MultiPathWiring::benes(4, 2)};
    expect_sharded_identical(benes, Pattern::kUniform, config);
  }
}

// ------------------------------------------------------------ conservation

TEST(MegafabricTest, FlitLedgerClosesExactlyUnderSharding) {
  // With warmup 0 the flit ledger must close exactly — injected ==
  // delivered + in flight (+ dropped when faulted) — at every thread
  // count, for both disciplines.
  const Engine engine(min::build_network(NetworkKind::kOmega, 6));
  const FaultMask mask = fault::build_fault_mask(
      engine.wiring(), FaultSpec{FaultKind::kSwitchKills, 0.1, 3});
  for (const SwitchingMode mode :
       {SwitchingMode::kStoreAndForward, SwitchingMode::kWormhole}) {
    SimConfig config = base_config(mode);
    config.packet_length = 3;
    config.queue_capacity = 2;
    config.lanes = 2;
    config.lane_depth = 2;
    config.warmup_cycles = 0;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      SCOPED_TRACE(testing::Message()
                   << "mode " << static_cast<int>(mode) << " threads "
                   << threads);
      config.sim_threads = threads;
      const SimResult pristine = engine.run(Pattern::kUniform, config);
      EXPECT_EQ(pristine.flits_injected,
                pristine.flits_delivered + pristine.flits_in_flight);
      const SimResult faulted = engine.run(Pattern::kUniform, config, &mask);
      EXPECT_EQ(faulted.flits_injected,
                faulted.flits_delivered + faulted.flits_in_flight +
                    faulted.flits_dropped_faulted);
    }
  }
}

// ------------------------------------------------------------- megafabric

TEST(MegafabricTest, MillionTerminalFabricSmoke) {
  // The namesake scale pin: a radix-16, 5-stage Omega is 16^5 = 2^20
  // terminals (65536 switches per stage). A handful of cycles at low
  // rate with single-slot buffers keeps the runtime and footprint small
  // while still forcing full-fabric kernel sweeps; serial vs 2-thread
  // results must match exactly.
  const Engine engine(
      min::build_kary_network(NetworkKind::kOmega, 5, 16));
  ASSERT_EQ(engine.terminals(), 1ULL << 20);
  SimConfig config;
  config.mode = SwitchingMode::kStoreAndForward;
  config.injection_rate = 0.05;
  config.queue_capacity = 1;
  config.warmup_cycles = 0;
  config.measure_cycles = 8;
  config.seed = 5;
  const SimResult serial = engine.run(Pattern::kUniform, config);
  EXPECT_EQ(serial.flits_injected,
            serial.flits_delivered + serial.flits_in_flight);
  config.sim_threads = 2;
  expect_identical(serial, engine.run(Pattern::kUniform, config));
}

// ------------------------------------------------------------- validation

TEST(MegafabricTest, ValidateRejectsBadThreadCounts) {
  SimConfig config;
  config.sim_threads = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.sim_threads = SimConfig::kMaxSimThreads + 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.sim_threads = SimConfig::kMaxSimThreads;
  EXPECT_NO_THROW(config.validate());
}

TEST(MegafabricTest, ThreadCountAboveCellCountClamps) {
  // 3-stage Omega: 4 cells per stage; 64 requested shards clamp to the
  // cell count instead of spinning empty workers — and stay identical.
  const Engine engine(min::build_network(NetworkKind::kOmega, 3));
  SimConfig config = base_config(SwitchingMode::kStoreAndForward);
  config.queue_capacity = 2;
  const SimResult serial = engine.run(Pattern::kUniform, config);
  config.sim_threads = 64;
  expect_identical(serial, engine.run(Pattern::kUniform, config));
}

#if defined(__linux__)
/// Threads in this process, one /proc/self/task entry each.
std::size_t process_threads() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

TEST(MegafabricTest, RunStartsOnlyItsTeamThreads) {
  // A T-worker run needs T - 1 team threads beside the calling thread,
  // and a one-worker run needs none. Counted on a fresh thread, whose
  // thread-local team starts empty.
  const Engine engine(min::build_network(NetworkKind::kOmega, 4));
  SimConfig config = base_config(SwitchingMode::kStoreAndForward);
  std::size_t before = 0;
  std::size_t after_one = 0;
  std::size_t after_three = 0;
  std::thread runner([&] {
    before = process_threads();
    config.sim_threads = 1;
    (void)engine.run(Pattern::kUniform, config);
    after_one = process_threads();
    config.sim_threads = 3;
    (void)engine.run(Pattern::kUniform, config);
    after_three = process_threads();
  });
  runner.join();
  EXPECT_EQ(after_one, before);
  EXPECT_EQ(after_three, before + 2);
}
#endif

}  // namespace
}  // namespace mineq::sim
