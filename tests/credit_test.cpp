/// \file credit_test.cpp
/// \brief Credit-based link-level flow control and virtual-lane
/// arbitration: neutral-config byte-equivalence to the idealized
/// handshake, the credit-conservation invariant under traffic x faults x
/// radices x return latencies, per-SL latency separation under weighted
/// and priority arbitration, arbiter state validation, and the
/// CreditConfig rejection surface.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "fault/fault_model.hpp"
#include "min/kary.hpp"
#include "min/networks.hpp"
#include "sim/engine.hpp"
#include "sim/fabric.hpp"
#include "test_seed.hpp"

namespace mineq::sim {
namespace {

SimConfig saf_golden_config() {
  SimConfig config;
  config.mode = SwitchingMode::kStoreAndForward;
  config.injection_rate = 0.7;
  config.packet_length = 3;
  config.queue_capacity = 4;
  config.warmup_cycles = 100;
  config.measure_cycles = 500;
  config.seed = 42;
  return config;
}

SimConfig wormhole_golden_config() {
  SimConfig config;
  config.mode = SwitchingMode::kWormhole;
  config.injection_rate = 0.8;
  config.packet_length = 4;
  config.lanes = 2;
  config.lane_depth = 4;
  config.warmup_cycles = 100;
  config.measure_cycles = 500;
  config.seed = 99;
  return config;
}

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.flits_injected, b.flits_injected);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.flits_in_flight, b.flits_in_flight);
  EXPECT_EQ(a.hol_blocking_cycles, b.hol_blocking_cycles);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_DOUBLE_EQ(a.latency.max(), b.latency.max());
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  EXPECT_DOUBLE_EQ(a.acceptance, b.acceptance);
  EXPECT_DOUBLE_EQ(a.link_utilization, b.link_utilization);
  EXPECT_DOUBLE_EQ(a.lane_occupancy.mean(), b.lane_occupancy.mean());
}

/// Credits with return latency 0 ARE the idealized handshake: within a
/// cycle every downstream pop precedes the upstream push opportunity, so
/// a zero-latency credit count always equals the free-slot count the
/// ideal probe reads. The PR 5 goldens must reproduce byte for byte —
/// pinned against the committed literals, not a parallel run, so this
/// breaks loudly if either path drifts.
TEST(CreditTest, NeutralCreditsReproduceTheSafGoldenExactly) {
  const Engine engine(min::build_network(min::NetworkKind::kOmega, 5));
  SimConfig config = saf_golden_config();
  config.credits.enabled = true;
  config.credits.return_latency = 0;
  const SimResult r = engine.run(Pattern::kUniform, config);

  EXPECT_EQ(r.offered, 6157U);
  EXPECT_EQ(r.injected, 3589U);
  EXPECT_EQ(r.delivered, 3246U);
  EXPECT_EQ(r.flits_injected, 10767U);
  EXPECT_EQ(r.flits_delivered, 9738U);
  EXPECT_EQ(r.flits_in_flight, 1029U);
  EXPECT_EQ(r.hol_blocking_cycles, 40414U);
  EXPECT_EQ(r.latency.count(), 3246U);
  EXPECT_DOUBLE_EQ(r.latency.mean(), 49.411275415896377);
  EXPECT_DOUBLE_EQ(r.latency.max(), 121.0);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.5), 48.0);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.99), 96.0);
  EXPECT_DOUBLE_EQ(r.throughput, 0.202875);
  EXPECT_DOUBLE_EQ(r.acceptance, 0.58291375669969137);
  EXPECT_DOUBLE_EQ(r.link_utilization, 0.66739062500000002);
  EXPECT_DOUBLE_EQ(r.lane_occupancy.mean(), 0.52008124999999994);
  EXPECT_EQ(r.credit_violations, 0U);
}

TEST(CreditTest, NeutralCreditsReproduceTheWormholeGoldenExactly) {
  const Engine engine(min::build_network(min::NetworkKind::kBaseline, 5));
  SimConfig config = wormhole_golden_config();
  config.credits.enabled = true;
  config.credits.return_latency = 0;
  const SimResult r = engine.run(Pattern::kHotSpot, config);

  EXPECT_EQ(r.offered, 11463U);
  EXPECT_EQ(r.injected, 546U);
  EXPECT_EQ(r.delivered, 426U);
  EXPECT_EQ(r.flits_injected, 2188U);
  EXPECT_EQ(r.flits_delivered, 1707U);
  EXPECT_EQ(r.flits_in_flight, 474U);
  EXPECT_EQ(r.hol_blocking_cycles, 56564U);
  EXPECT_EQ(r.latency.count(), 426U);
  EXPECT_DOUBLE_EQ(r.latency.mean(), 81.577464788732385);
  EXPECT_DOUBLE_EQ(r.latency.max(), 359.0);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.5), 17.0);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.99), 336.0);
  EXPECT_DOUBLE_EQ(r.throughput, 0.026624999999999999);
  EXPECT_DOUBLE_EQ(r.acceptance, 0.047631510075896361);
  EXPECT_DOUBLE_EQ(r.link_utilization, 0.136421875);
  EXPECT_DOUBLE_EQ(r.lane_occupancy.mean(), 0.36309531249999988);
  EXPECT_EQ(r.credit_violations, 0U);
}

/// Weighted arbitration with uniform weights degrades to plain
/// round-robin (the quantum expires after every grant), and strict
/// priority with one weight class filters nothing — both must match the
/// disabled-credit run byte for byte, not approximately.
TEST(CreditTest, UniformWeightedAndPriorityDegradeToRoundRobin) {
  for (const bool wormhole : {false, true}) {
    const Engine engine(min::build_network(
        wormhole ? min::NetworkKind::kBaseline : min::NetworkKind::kOmega,
        5));
    const SimConfig plain_config =
        wormhole ? wormhole_golden_config() : saf_golden_config();
    const Pattern pattern =
        wormhole ? Pattern::kHotSpot : Pattern::kUniform;
    const SimResult plain = engine.run(pattern, plain_config);
    for (const ArbitrationPolicy policy :
         {ArbitrationPolicy::kWeighted, ArbitrationPolicy::kPriority}) {
      SimConfig config = plain_config;
      config.credits.enabled = true;
      config.credits.return_latency = 0;
      config.credits.arbitration = policy;
      // Uniform weights, spelled two ways: empty (all default 1) and an
      // explicit broadcast list.
      config.credits.weights = {};
      expect_identical(plain, engine.run(pattern, config));
      config.credits.weights = {1};
      expect_identical(plain, engine.run(pattern, config));
    }
  }
}

/// The conservation invariant — credits held + credit messages in flight
/// + occupancy == capacity, per link, every sampled cycle — audited by
/// the policies themselves into credit_violations, across disciplines x
/// radices x faults x return latencies. The flit ledger must close
/// exactly too (warmup 0).
TEST(CreditTest, ConservationHoldsAcrossFaultsRadicesAndLatencies) {
  SCOPED_TRACE(test::seed_trace());
  for (const int radix : {2, 3}) {
    const Engine engine(radix == 2
                            ? Engine(min::build_network(
                                  min::NetworkKind::kBaseline, 5))
                            : Engine(min::build_kary_network(
                                  min::NetworkKind::kBaseline, 4, radix)));
    for (const SwitchingMode mode :
         {SwitchingMode::kStoreAndForward, SwitchingMode::kWormhole}) {
      for (const fault::FaultKind kind :
           {fault::FaultKind::kNone, fault::FaultKind::kRandomLinks,
            fault::FaultKind::kSwitchKills}) {
        const fault::FaultMask mask = fault::build_fault_mask(
            engine.wiring(),
            fault::FaultSpec{kind, kind == fault::FaultKind::kNone ? 0.0
                                                                   : 0.1,
                             test::test_seed()});
        for (const std::uint64_t latency : {0U, 1U, 3U}) {
          SimConfig config;
          config.mode = mode;
          config.injection_rate = 0.7;
          config.packet_length = 3;
          config.lanes = 2;
          config.warmup_cycles = 0;  // exact conservation ledger
          config.measure_cycles = 400;
          config.seed = 77;
          config.credits.enabled = true;
          config.credits.return_latency = latency;
          const SimResult r =
              engine.run(Pattern::kUniform, config, &mask);
          EXPECT_EQ(r.credit_violations, 0U)
              << "radix " << radix << " " << switching_mode_name(mode)
              << " " << fault::fault_kind_name(kind) << " latency "
              << latency;
          EXPECT_EQ(r.flits_injected, r.flits_delivered +
                                          r.flits_in_flight +
                                          r.flits_dropped_faulted)
              << "radix " << radix << " " << switching_mode_name(mode)
              << " " << fault::fault_kind_name(kind) << " latency "
              << latency;
        }
      }
    }
  }
}

/// A positive return latency shrinks the effective flow-control window,
/// so under load senders must actually stall on missing credits — the
/// counter is live, and throughput degrades monotonically-ish (pinned
/// loosely: long latency strictly below zero latency).
TEST(CreditTest, ReturnLatencyCausesStallsAndDegradesThroughput) {
  const Engine engine(min::build_network(min::NetworkKind::kOmega, 5));
  for (const SwitchingMode mode :
       {SwitchingMode::kStoreAndForward, SwitchingMode::kWormhole}) {
    SimConfig config;
    config.mode = mode;
    config.injection_rate = 1.0;
    config.packet_length = 3;
    config.lanes = 2;
    config.warmup_cycles = 100;
    config.measure_cycles = 500;
    config.seed = 5;
    config.credits.enabled = true;

    config.credits.return_latency = 16;
    const SimResult slow = engine.run(Pattern::kUniform, config);
    EXPECT_GT(slow.credit_stall_cycles, 0U) << switching_mode_name(mode);

    config.credits.return_latency = 0;
    const SimResult fast = engine.run(Pattern::kUniform, config);
    EXPECT_LT(slow.throughput, fast.throughput)
        << switching_mode_name(mode);
  }
}

/// Under saturation with two service levels mapped to two virtual lanes,
/// weighted (4:1) and strict-priority arbitration must open a measurable
/// latency gap in favor of the heavy class; plain round-robin must not.
TEST(CreditTest, WeightedArbitrationSeparatesServiceLevels) {
  const Engine engine(min::build_network(min::NetworkKind::kOmega, 5));
  SimConfig config;
  config.mode = SwitchingMode::kWormhole;
  config.injection_rate = 1.0;
  config.packet_length = 4;
  config.lanes = 2;
  config.lane_depth = 4;
  config.warmup_cycles = 100;
  config.measure_cycles = 800;
  config.seed = 9;
  config.credits.enabled = true;
  config.credits.sl_map = {0, 1};
  config.credits.weights = {4, 1};

  config.credits.arbitration = ArbitrationPolicy::kRoundRobin;
  const SimResult rr = engine.run(Pattern::kUniform, config);
  config.credits.arbitration = ArbitrationPolicy::kWeighted;
  const SimResult weighted = engine.run(Pattern::kUniform, config);
  config.credits.arbitration = ArbitrationPolicy::kPriority;
  const SimResult priority = engine.run(Pattern::kUniform, config);

  ASSERT_EQ(rr.sl_latency.size(), 2U);
  ASSERT_EQ(weighted.sl_latency.size(), 2U);
  ASSERT_EQ(priority.sl_latency.size(), 2U);
  ASSERT_GT(weighted.sl_latency[0].count(), 0U);
  ASSERT_GT(weighted.sl_latency[1].count(), 0U);
  // Round-robin treats the classes symmetrically: the gap stays small.
  const double rr_gap = rr.sl_latency[1].mean() - rr.sl_latency[0].mean();
  // Weighted 4:1 favors SL 0 measurably; strict priority more so.
  const double weighted_gap =
      weighted.sl_latency[1].mean() - weighted.sl_latency[0].mean();
  const double priority_gap =
      priority.sl_latency[1].mean() - priority.sl_latency[0].mean();
  EXPECT_GT(weighted_gap, rr_gap + 5.0);
  EXPECT_GT(priority_gap, rr_gap + 5.0);
  EXPECT_LT(weighted.sl_latency[0].mean(), rr.sl_latency[0].mean());
  // The per-VL occupancy columns are populated for every policy.
  EXPECT_EQ(rr.vl_occupancy.size(), 2U);
  EXPECT_GT(rr.vl_occupancy[0].count(), 0U);
}

/// Per-VL occupancy is sampled for the SAF discipline too (one physical
/// buffer per link, so a single lane-0 series), and sl_latency splits by
/// terminal-derived service level.
TEST(CreditTest, SafCreditRunsReportVlOccupancyAndSlLatency) {
  const Engine engine(min::build_network(min::NetworkKind::kOmega, 4));
  SimConfig config;
  config.injection_rate = 0.6;
  config.packet_length = 3;
  config.warmup_cycles = 50;
  config.measure_cycles = 300;
  config.credits.enabled = true;
  config.credits.sl_map = {0, 0};  // 2 SLs, both on the single buffer
  const SimResult r = engine.run(Pattern::kUniform, config);
  ASSERT_EQ(r.vl_occupancy.size(), 1U);
  EXPECT_GT(r.vl_occupancy[0].count(), 0U);
  ASSERT_EQ(r.sl_latency.size(), 2U);
  EXPECT_GT(r.sl_latency[0].count(), 0U);
  EXPECT_GT(r.sl_latency[1].count(), 0U);
  EXPECT_EQ(r.sl_latency[0].count() + r.sl_latency[1].count(),
            r.latency.count());
  EXPECT_EQ(r.credit_violations, 0U);
}

/// SimWorkspace reuse across configurations of different shapes (port
/// counts, radices, credit latencies): the arena must re-initialize the
/// arbiter/ledger state per run, so reused-workspace results are byte-
/// identical to fresh-workspace results in any interleaving.
TEST(CreditTest, WorkspaceReuseAcrossShapesIsByteIdentical) {
  const Engine small(min::build_network(min::NetworkKind::kOmega, 4));
  const Engine large(min::build_network(min::NetworkKind::kBaseline, 6));
  const Engine kary(min::build_kary_network(min::NetworkKind::kOmega, 4, 3));
  SimConfig config;
  config.injection_rate = 0.8;
  config.packet_length = 3;
  config.warmup_cycles = 50;
  config.measure_cycles = 300;
  config.credits.enabled = true;
  config.credits.return_latency = 2;
  config.credits.arbitration = ArbitrationPolicy::kWeighted;

  const SimResult small_fresh = small.run(Pattern::kUniform, config);
  const SimResult large_fresh = large.run(Pattern::kUniform, config);
  const SimResult kary_fresh = kary.run(Pattern::kUniform, config);

  SimWorkspace workspace;
  // Interleave shapes through one arena, twice around.
  for (int round = 0; round < 2; ++round) {
    expect_identical(small_fresh, small.run(Pattern::kUniform, config,
                                            nullptr, &workspace));
    expect_identical(large_fresh, large.run(Pattern::kUniform, config,
                                            nullptr, &workspace));
    expect_identical(kary_fresh, kary.run(Pattern::kUniform, config,
                                          nullptr, &workspace));
  }
}

TEST(CreditTest, ValidationRejectsBadConfigs) {
  const Engine engine(min::build_network(min::NetworkKind::kOmega, 4));
  SimConfig config;
  config.credits.enabled = true;

  // Weight 0 is meaningless (a quantum that never grants).
  config.credits.weights = {0};
  EXPECT_THROW(engine.run(Pattern::kUniform, config),
               std::invalid_argument);
  config.credits.weights = {1, 0, 2};
  EXPECT_THROW(engine.run(Pattern::kUniform, config),
               std::invalid_argument);
  config.credits.weights.clear();

  // Wormhole: an SL->VL entry must name an existing lane.
  config.mode = SwitchingMode::kWormhole;
  config.lanes = 2;
  config.credits.sl_map = {0, 2};
  EXPECT_THROW(engine.run(Pattern::kUniform, config),
               std::invalid_argument);
  config.credits.sl_map = {0, 1};
  EXPECT_NO_THROW(engine.run(Pattern::kUniform, config));

  // Unbounded return latency is rejected up front.
  config.credits.sl_map.clear();
  config.credits.return_latency = std::uint64_t{1} << 32;
  EXPECT_THROW(engine.run(Pattern::kUniform, config),
               std::invalid_argument);

  // Disabled credits ignore the rest of the struct entirely.
  config.credits.enabled = false;
  EXPECT_NO_THROW(engine.run(Pattern::kUniform, config));
}

TEST(CreditTest, ArbitrationPolicyNamesRoundTrip) {
  for (const ArbitrationPolicy policy :
       {ArbitrationPolicy::kRoundRobin, ArbitrationPolicy::kWeighted,
        ArbitrationPolicy::kPriority}) {
    EXPECT_EQ(parse_arbitration_policy(
                  std::string(arbitration_policy_name(policy))),
              policy);
  }
  EXPECT_EQ(parse_arbitration_policy("round-robin"),
            ArbitrationPolicy::kRoundRobin);
  EXPECT_THROW((void)parse_arbitration_policy("fifo"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// Arbiter and ledger state machines (satellite bugfixes)
// ---------------------------------------------------------------------

TEST(RoundRobinTest, RejectsEmptyRingAndOutOfRangeWinner) {
  EXPECT_THROW(RoundRobin(0), std::invalid_argument);
  RoundRobin arb(2);
  EXPECT_NO_THROW(arb.grant(1));
  // Granting a candidate index outside the ring used to silently corrupt
  // the pointer (next_ beyond size_); now it is a hard logic error.
  EXPECT_THROW(arb.grant(2), std::logic_error);
}

TEST(RoundRobinTest, PickMeetsRequestersInProbeOrder) {
  // A 70-candidate ring spans two mask words.
  RoundRobin arb(70);
  std::uint64_t requests[2] = {std::uint64_t{1} << 5, std::uint64_t{1} << 3};
  EXPECT_EQ(arb.pick(requests, 2), 5U);
  arb.grant(5);  // pointer 6: the next requester is 64 + 3
  EXPECT_EQ(arb.pick(requests, 2), 67U);
  arb.grant(68);  // pointer 69: wrap to the lowest requester
  EXPECT_EQ(arb.pick(requests, 2), 5U);
  arb.grant(69);  // pointer 0
  EXPECT_EQ(arb.pick(requests, 2), 5U);
  // Every pointer position meets the requester a probe loop would.
  requests[0] = 0x8000000000000101ULL;
  requests[1] = 0x21;
  for (unsigned from = 0; from < 70; ++from) {
    RoundRobin ring(70);
    if (from > 0) ring.grant(from - 1);
    unsigned probe = 0;
    unsigned c = from;
    while (((requests[c / 64] >> (c % 64)) & 1U) == 0) {
      ++probe;
      c = (from + probe) % 70;
    }
    EXPECT_EQ(ring.pick(requests, 2), c) << "pointer " << from;
  }
}

TEST(WeightedRoundRobinTest, QuantumSemantics) {
  WeightedRoundRobin wrr;
  EXPECT_THROW(wrr.reset(1, 0), std::invalid_argument);
  wrr.reset(1, 3);
  EXPECT_THROW(wrr.grant(0, 3, 1), std::logic_error);
  // With every candidate requesting, the pick is the pointer.
  const std::uint64_t all = 0b111;
  // Weight 1 behaves exactly like round-robin: pointer advances on every
  // grant.
  EXPECT_EQ(wrr.pick(0, &all), 0U);
  wrr.grant(0, 0, 1);
  EXPECT_EQ(wrr.pick(0, &all), 1U);
  // Weight 2 holds top priority for one more grant, then advances.
  wrr.grant(0, 1, 2);
  EXPECT_EQ(wrr.pick(0, &all), 1U);
  wrr.grant(0, 1, 2);
  EXPECT_EQ(wrr.pick(0, &all), 2U);
  // A pick skips idle candidates from the pointer and wraps around.
  const std::uint64_t low = 0b011;
  EXPECT_EQ(wrr.pick(0, &low), 0U);
  // A different winner (the holder was not ready) restarts its quantum.
  wrr.grant(0, 0, 2);
  EXPECT_EQ(wrr.pick(0, &all), 0U);
}

TEST(CreditLedgerTest, RingDeliversAtTheConfiguredLatency) {
  CreditLedger ledger;
  EXPECT_THROW(ledger.reset(1, 0, 0), std::invalid_argument);
  ledger.reset(2, 2, 3);
  EXPECT_EQ(ledger.credits(0), 2U);
  ledger.consume(0);
  ledger.consume(0);
  EXPECT_FALSE(ledger.available(0));
  ledger.give_back(0, /*cycle=*/10);
  EXPECT_EQ(ledger.in_flight(0), 1U);
  // Not delivered before 3 cycles elapse.
  ledger.deliver(11);
  ledger.deliver(12);
  EXPECT_FALSE(ledger.available(0));
  ledger.deliver(13);
  EXPECT_TRUE(ledger.available(0));
  EXPECT_EQ(ledger.in_flight(0), 0U);
  // Returning more credits than were consumed is a ledger corruption.
  ledger.give_back(0, 14);
  ledger.deliver(17);
  EXPECT_THROW(ledger.give_back(0, 18), std::logic_error);
  // Link 1 was untouched throughout.
  EXPECT_EQ(ledger.credits(1), 2U);
}

}  // namespace
}  // namespace mineq::sim
