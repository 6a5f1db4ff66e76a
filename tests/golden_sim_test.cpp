/// \file golden_sim_test.cpp
/// \brief Golden-equivalence pins for the FabricCore refactor: every
/// counter and statistic below was captured from the pre-IR simulators
/// (PR 2's engine.cpp / wormhole.cpp, one deque-backed simulator per
/// discipline) at a fixed seed, and the policy-over-FabricCore rebuild
/// must reproduce them byte-for-byte. Integer counters are compared
/// exactly; doubles via EXPECT_DOUBLE_EQ against full-precision (%.17g)
/// literals, which round-trip exactly, so any drift in RNG stream
/// layout, arbitration order, slot assignment or accounting shows up
/// here as a hard failure rather than a plausible-looking number.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "fault/fault_mask.hpp"
#include "fault/fault_model.hpp"
#include "min/kary.hpp"
#include "min/networks.hpp"
#include "multipath/multipath_wiring.hpp"
#include "sim/engine.hpp"
#include "sim/wormhole.hpp"

namespace mineq::sim {
namespace {

TEST(GoldenSimTest, StoreAndForwardOmega5UniformSeed42) {
  const Engine engine(min::build_network(min::NetworkKind::kOmega, 5));
  SimConfig config;
  config.mode = SwitchingMode::kStoreAndForward;
  config.injection_rate = 0.7;
  config.packet_length = 3;
  config.queue_capacity = 4;
  config.warmup_cycles = 100;
  config.measure_cycles = 500;
  config.seed = 42;
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
}

TEST(GoldenSimTest, WormholeBaseline5HotspotSeed99) {
  const Engine engine(min::build_network(min::NetworkKind::kBaseline, 5));
  SimConfig config;
  config.mode = SwitchingMode::kWormhole;
  config.injection_rate = 0.8;
  config.packet_length = 4;
  config.lanes = 2;
  config.lane_depth = 4;
  config.warmup_cycles = 100;
  config.measure_cycles = 500;
  config.seed = 99;
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
}

/// An all-zero FaultMask must take the unmasked fast path: the exact
/// pinned golden numbers, not merely plausible ones. (The faulted policy
/// instantiations are compile-time separate, so this guards the
/// dispatch, not just the policy code.)
TEST(GoldenSimTest, AllZeroFaultMaskReproducesGoldenOutputs) {
  {
    const Engine engine(min::build_network(min::NetworkKind::kOmega, 5));
    const fault::FaultMask empty(engine.wiring());
    SimConfig config;
    config.mode = SwitchingMode::kStoreAndForward;
    config.injection_rate = 0.7;
    config.packet_length = 3;
    config.queue_capacity = 4;
    config.warmup_cycles = 100;
    config.measure_cycles = 500;
    config.seed = 42;
    const SimResult r = engine.run(Pattern::kUniform, config, &empty);
    EXPECT_EQ(r.offered, 6157U);
    EXPECT_EQ(r.injected, 3589U);
    EXPECT_EQ(r.delivered, 3246U);
    EXPECT_EQ(r.hol_blocking_cycles, 40414U);
    EXPECT_DOUBLE_EQ(r.latency.mean(), 49.411275415896377);
    EXPECT_DOUBLE_EQ(r.link_utilization, 0.66739062500000002);
    EXPECT_EQ(r.packets_dropped_faulted, 0U);
    EXPECT_EQ(r.packets_rerouted, 0U);
  }
  {
    const Engine engine(min::build_network(min::NetworkKind::kBaseline, 5));
    const fault::FaultMask empty(engine.wiring());
    SimConfig config;
    config.mode = SwitchingMode::kWormhole;
    config.injection_rate = 0.8;
    config.packet_length = 4;
    config.lanes = 2;
    config.lane_depth = 4;
    config.warmup_cycles = 100;
    config.measure_cycles = 500;
    config.seed = 99;
    const SimResult r = engine.run(Pattern::kHotSpot, config, &empty);
    EXPECT_EQ(r.offered, 11463U);
    EXPECT_EQ(r.injected, 546U);
    EXPECT_EQ(r.delivered, 426U);
    EXPECT_EQ(r.hol_blocking_cycles, 56564U);
    EXPECT_DOUBLE_EQ(r.latency.mean(), 81.577464788732385);
    EXPECT_DOUBLE_EQ(r.link_utilization, 0.136421875);
    EXPECT_EQ(r.packets_dropped_faulted, 0U);
    EXPECT_EQ(r.packets_rerouted, 0U);
  }
}

/// The golden configs must also be self-consistent on repeat runs: the
/// pins above would not catch a stateful Engine.
TEST(GoldenSimTest, RepeatRunsAreIdentical) {
  const Engine engine(min::build_network(min::NetworkKind::kOmega, 5));
  SimConfig config;
  config.injection_rate = 0.7;
  config.packet_length = 3;
  config.warmup_cycles = 100;
  config.measure_cycles = 500;
  config.seed = 42;
  const SimResult a = engine.run(Pattern::kUniform, config);
  const SimResult b = engine.run(Pattern::kUniform, config);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.hol_blocking_cycles, b.hol_blocking_cycles);
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
}

/// The counters a multipath or faulted golden pins, in SimResult order.
struct Pins {
  std::uint64_t offered, injected, delivered;
  std::uint64_t flits_injected, flits_delivered, flits_in_flight;
  std::uint64_t hol_blocking_cycles;
  std::uint64_t path_reroutes, packets_rerouted, packets_dropped_faulted,
      packets_misdelivered;
  /// lost arbitration, downstream full, no free lane, zero credits,
  /// masked arc
  std::uint64_t stall[5];
  double latency_mean, latency_max, latency_p99;
  double link_utilization, lane_occupancy_mean;
};

void expect_pins(const SimResult& r, const Pins& p) {
  EXPECT_EQ(r.offered, p.offered);
  EXPECT_EQ(r.injected, p.injected);
  EXPECT_EQ(r.delivered, p.delivered);
  EXPECT_EQ(r.flits_injected, p.flits_injected);
  EXPECT_EQ(r.flits_delivered, p.flits_delivered);
  EXPECT_EQ(r.flits_in_flight, p.flits_in_flight);
  EXPECT_EQ(r.hol_blocking_cycles, p.hol_blocking_cycles);
  EXPECT_EQ(r.path_reroutes, p.path_reroutes);
  EXPECT_EQ(r.packets_rerouted, p.packets_rerouted);
  EXPECT_EQ(r.packets_dropped_faulted, p.packets_dropped_faulted);
  EXPECT_EQ(r.packets_misdelivered, p.packets_misdelivered);
  EXPECT_EQ(r.stall_lost_arbitration, p.stall[0]);
  EXPECT_EQ(r.stall_downstream_full, p.stall[1]);
  EXPECT_EQ(r.stall_no_free_lane, p.stall[2]);
  EXPECT_EQ(r.stall_zero_credits, p.stall[3]);
  EXPECT_EQ(r.stall_masked_arc, p.stall[4]);
  EXPECT_DOUBLE_EQ(r.latency.mean(), p.latency_mean);
  EXPECT_DOUBLE_EQ(r.latency.max(), p.latency_max);
  EXPECT_DOUBLE_EQ(r.latency_histogram.quantile(0.99), p.latency_p99);
  EXPECT_DOUBLE_EQ(r.link_utilization, p.link_utilization);
  EXPECT_DOUBLE_EQ(r.lane_occupancy.mean(), p.lane_occupancy_mean);
}

/// Benes(4, 2) on the reversal permutation at full load.
SimResult run_benes_reversal(SwitchingMode mode, PathPolicy policy) {
  const Engine engine{min::MultiPathWiring::benes(4, 2)};
  SimConfig config;
  config.mode = mode;
  config.injection_rate = 1.0;
  config.packet_length = 2;
  config.queue_capacity = 4;
  config.lanes = 2;
  config.lane_depth = 4;
  config.warmup_cycles = 100;
  config.measure_cycles = 400;
  config.seed = 7;
  config.path_policy = policy;
  config.permutation.resize(16);
  for (std::uint32_t t = 0; t < 16; ++t) config.permutation[t] = 15 - t;
  return engine.run(Pattern::kPermutation, config);
}

/// dilated(omega, 4, 2, 2), adaptive, 10% random link faults, probes and
/// flow statistics on.
SimResult run_dilated_faulted() {
  const Engine engine{
      min::MultiPathWiring::dilated(min::NetworkKind::kOmega, 4, 2, 2)};
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kRandomLinks;
  spec.rate = 0.1;
  spec.seed = 3;
  const fault::FaultMask mask = fault::build_fault_mask(engine.wiring(), spec);
  SimConfig config;
  config.injection_rate = 0.6;
  config.packet_length = 2;
  config.queue_capacity = 4;
  config.warmup_cycles = 100;
  config.measure_cycles = 400;
  config.seed = 13;
  config.path_policy = PathPolicy::kAdaptive;
  config.obs.probe_stride = 50;
  config.obs.flow_stats = true;
  return engine.run(Pattern::kUniform, config, &mask);
}

/// replicated(omega, 4, 2, 2), hash, switch kills, 2 lanes, traced.
SimResult run_replicated_killed() {
  const Engine engine{
      min::MultiPathWiring::replicated(min::NetworkKind::kOmega, 4, 2, 2)};
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kSwitchKills;
  spec.rate = 0.1;
  spec.seed = 5;
  const fault::FaultMask mask = fault::build_fault_mask(engine.wiring(), spec);
  SimConfig config;
  config.mode = SwitchingMode::kWormhole;
  config.injection_rate = 0.5;
  config.packet_length = 3;
  config.lanes = 2;
  config.lane_depth = 3;
  config.warmup_cycles = 100;
  config.measure_cycles = 400;
  config.seed = 17;
  config.path_policy = PathPolicy::kHash;
  config.obs.trace_sample = 4;
  return engine.run(Pattern::kUniform, config, &mask);
}

/// Benes(3, 3): the general-radix multipath kernels, adaptive.
SimResult run_benes_radix3() {
  const Engine engine{min::MultiPathWiring::benes(3, 3)};
  SimConfig config;
  config.injection_rate = 0.6;
  config.packet_length = 2;
  config.queue_capacity = 4;
  config.warmup_cycles = 100;
  config.measure_cycles = 400;
  config.seed = 19;
  config.path_policy = PathPolicy::kAdaptive;
  return engine.run(Pattern::kUniform, config);
}

/// omega n = 5 under 10% random link faults with probes on: the
/// masked-arc refinement of the stall split.
SimResult run_omega_masked_arcs() {
  const Engine engine(min::build_network(min::NetworkKind::kOmega, 5));
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kRandomLinks;
  spec.rate = 0.1;
  spec.seed = 9;
  const fault::FaultMask mask = fault::build_fault_mask(engine.wiring(), spec);
  SimConfig config;
  config.injection_rate = 0.6;
  config.packet_length = 2;
  config.queue_capacity = 4;
  config.warmup_cycles = 100;
  config.measure_cycles = 400;
  config.seed = 23;
  config.obs.probe_stride = 50;
  return engine.run(Pattern::kUniform, config, &mask);
}

/// Benes(4, 2), hash, 10% random link faults, probes on: in-group path
/// re-selection (path_reroutes) next to out-of-group detours.
SimResult run_benes_hash_faulted(SwitchingMode mode) {
  const Engine engine{min::MultiPathWiring::benes(4, 2)};
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kRandomLinks;
  spec.rate = 0.1;
  spec.seed = 29;
  const fault::FaultMask mask = fault::build_fault_mask(engine.wiring(), spec);
  SimConfig config;
  config.mode = mode;
  config.injection_rate = 0.6;
  config.packet_length = 2;
  config.queue_capacity = 4;
  config.lanes = 2;
  config.lane_depth = 4;
  config.warmup_cycles = 100;
  config.measure_cycles = 400;
  config.seed = 31;
  config.path_policy = PathPolicy::kHash;
  config.obs.probe_stride = 50;
  return engine.run(Pattern::kUniform, config, &mask);
}

/// The credit counters a credit-run golden pins on top of Pins: the
/// zero-credit stall count, the conservation audit (always clean) and
/// each service level's mean latency.
void expect_credit_pins(const SimResult& r, std::uint64_t credit_stall_cycles,
                        const std::vector<double>& sl_latency_means) {
  EXPECT_EQ(r.credit_stall_cycles, credit_stall_cycles);
  EXPECT_EQ(r.credit_violations, 0U);
  ASSERT_EQ(r.sl_latency.size(), sl_latency_means.size());
  for (std::size_t sl = 0; sl < sl_latency_means.size(); ++sl) {
    EXPECT_DOUBLE_EQ(r.sl_latency[sl].mean(), sl_latency_means[sl]);
  }
}

/// omega n = 5, hotspot, store-and-forward: weighted arbitration over two
/// service levels with a 3-cycle credit return.
SimResult run_saf_weighted_credits() {
  const Engine engine(min::build_network(min::NetworkKind::kOmega, 5));
  SimConfig config;
  config.injection_rate = 0.7;
  config.packet_length = 2;
  config.queue_capacity = 4;
  config.warmup_cycles = 100;
  config.measure_cycles = 400;
  config.seed = 37;
  config.credits.enabled = true;
  config.credits.return_latency = 3;
  config.credits.arbitration = ArbitrationPolicy::kWeighted;
  config.credits.sl_map = {0, 1};
  config.credits.weights = {4, 1};
  return engine.run(Pattern::kHotSpot, config);
}

/// omega n = 5, wormhole, 2 lanes: strict priority over two service
/// levels pinned to their own lanes, 2-cycle credit return.
SimResult run_wormhole_priority_credits() {
  const Engine engine(min::build_network(min::NetworkKind::kOmega, 5));
  SimConfig config;
  config.mode = SwitchingMode::kWormhole;
  config.injection_rate = 0.6;
  config.packet_length = 4;
  config.lanes = 2;
  config.lane_depth = 2;
  config.warmup_cycles = 100;
  config.measure_cycles = 400;
  config.seed = 41;
  config.credits.enabled = true;
  config.credits.return_latency = 2;
  config.credits.arbitration = ArbitrationPolicy::kPriority;
  config.credits.sl_map = {0, 1};
  config.credits.weights = {3, 1};
  return engine.run(Pattern::kUniform, config);
}

/// Radix-3 baseline n = 3, store-and-forward, with all three run features
/// at once: 2-cycle credits, 10% switch kills, probes and trace sampling.
SimResult run_kary_all_features() {
  const Engine engine(
      min::build_kary_network(min::NetworkKind::kBaseline, 3, 3));
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kSwitchKills;
  spec.rate = 0.1;
  spec.seed = 7;
  const fault::FaultMask mask = fault::build_fault_mask(engine.wiring(), spec);
  SimConfig config;
  config.injection_rate = 0.6;
  config.packet_length = 2;
  config.queue_capacity = 3;
  config.warmup_cycles = 100;
  config.measure_cycles = 400;
  config.seed = 43;
  config.credits.enabled = true;
  config.credits.return_latency = 2;
  config.obs.probe_stride = 50;
  config.obs.trace_sample = 4;
  return engine.run(Pattern::kUniform, config, &mask);
}

/// Radix-4 omega n = 3, wormhole, pristine, probes and flow statistics.
SimResult run_radix4_wormhole_observed() {
  const Engine engine(
      min::build_kary_network(min::NetworkKind::kOmega, 3, 4));
  SimConfig config;
  config.mode = SwitchingMode::kWormhole;
  config.injection_rate = 0.5;
  config.packet_length = 4;
  config.lanes = 2;
  config.lane_depth = 4;
  config.warmup_cycles = 100;
  config.measure_cycles = 400;
  config.seed = 47;
  config.obs.probe_stride = 50;
  config.obs.flow_stats = true;
  return engine.run(Pattern::kUniform, config);
}

/// Radix-3 baseline n = 3, store-and-forward, plain (no mask, credits or
/// observer), loaded past its 2-packet first-stage FIFOs.
SimResult run_radix3_saf_plain() {
  const Engine engine(
      min::build_kary_network(min::NetworkKind::kBaseline, 3, 3));
  SimConfig config;
  config.injection_rate = 0.9;
  config.packet_length = 2;
  config.queue_capacity = 2;
  config.warmup_cycles = 100;
  config.measure_cycles = 400;
  config.seed = 53;
  return engine.run(Pattern::kUniform, config);
}

/// Radix-4 omega n = 3, wormhole, plain, 2 lanes of depth 2.
SimResult run_radix4_wormhole_plain() {
  const Engine engine(
      min::build_kary_network(min::NetworkKind::kOmega, 3, 4));
  SimConfig config;
  config.mode = SwitchingMode::kWormhole;
  config.injection_rate = 0.8;
  config.packet_length = 4;
  config.lanes = 2;
  config.lane_depth = 2;
  config.warmup_cycles = 100;
  config.measure_cycles = 400;
  config.seed = 59;
  return engine.run(Pattern::kUniform, config);
}

/// The workload counters a closed-loop golden pins on top of Pins: the
/// window stalls, orphaned exchanges, request->reply latency, the rate
/// the clients actually offered, and the recorded injection trace.
struct ClosedLoopPins {
  std::uint64_t window_stall_cycles, reply_orphans;
  double reply_latency_mean;
  std::uint64_t reply_latency_count;
  double offered_rate_effective;
  std::size_t workload_trace_size;
};

void expect_closed_loop_pins(const SimResult& r, const ClosedLoopPins& p) {
  EXPECT_EQ(r.window_stall_cycles, p.window_stall_cycles);
  EXPECT_EQ(r.reply_orphans, p.reply_orphans);
  EXPECT_DOUBLE_EQ(r.reply_latency.mean(), p.reply_latency_mean);
  EXPECT_EQ(r.reply_latency.count(), p.reply_latency_count);
  EXPECT_DOUBLE_EQ(r.offered_rate_effective, p.offered_rate_effective);
  EXPECT_EQ(r.workload_trace.size(), p.workload_trace_size);
}

/// omega n = 5, store-and-forward, closed-loop clients with a 2-request
/// window, recording every accepted injection.
SimResult run_saf_closed_loop() {
  const Engine engine(min::build_network(min::NetworkKind::kOmega, 5));
  SimConfig config;
  config.mode = SwitchingMode::kStoreAndForward;
  config.injection_rate = 0.8;
  config.packet_length = 2;
  config.warmup_cycles = 100;
  config.measure_cycles = 500;
  config.seed = 11;
  config.workload.kind = workload::Kind::kClosedLoop;
  config.workload.rr_window = 2;
  config.workload.record = true;
  return engine.run(Pattern::kUniform, config);
}

/// baseline n = 5, wormhole, 2 lanes of depth 2, closed-loop clients
/// with a 3-request window, recording every accepted injection.
SimResult run_wormhole_closed_loop() {
  const Engine engine(min::build_network(min::NetworkKind::kBaseline, 5));
  SimConfig config;
  config.mode = SwitchingMode::kWormhole;
  config.injection_rate = 0.9;
  config.packet_length = 3;
  config.lanes = 2;
  config.lane_depth = 2;
  config.warmup_cycles = 100;
  config.measure_cycles = 500;
  config.seed = 12;
  config.workload.kind = workload::Kind::kClosedLoop;
  config.workload.rr_window = 3;
  config.workload.record = true;
  return engine.run(Pattern::kUniform, config);
}

// Multipath and faulted pins, captured from the simulators as they stood
// before the unipath and multipath kernels were merged: every path
// policy, both disciplines, general radix, fault masks and the
// observability stall split.

TEST(GoldenSimTest, BenesReversalLoopingAndHash) {
  expect_pins(
      run_benes_reversal(SwitchingMode::kStoreAndForward, PathPolicy::kLooping),
      {3200, 3200, 3088, 6400, 6176, 224, 0, 0, 0, 0, 0, {0, 0, 0, 0, 0},
       16, 16, 17, 1, 0.25});
  expect_pins(
      run_benes_reversal(SwitchingMode::kStoreAndForward, PathPolicy::kHash),
      {4150, 2248, 2055, 4496, 4110, 386, 14519, 0, 0, 0, 0, {0, 0, 0, 0, 0},
       35.037956204379554, 66, 55, 0.69781249999999995, 0.4142243303571429});
  expect_pins(
      run_benes_reversal(SwitchingMode::kWormhole, PathPolicy::kLooping),
      {3200, 3200, 3136, 6400, 6288, 112, 0, 0, 0, 0, 0, {0, 0, 0, 0, 0}, 9,
       9, 10, 1, 0.125});
  expect_pins(
      run_benes_reversal(SwitchingMode::kWormhole, PathPolicy::kHash),
      {4216, 2182, 2090, 4366, 4192, 168, 23236, 0, 0, 0, 0, {0, 0, 0, 0, 0},
       17.873684210526346, 39, 33, 0.68231770833333338, 0.18603515624999989});
}

TEST(GoldenSimTest, DilatedOmegaAdaptiveUnderLinkFaults) {
  expect_pins(run_dilated_faulted(),
              {2415, 2412, 2301, 4824, 4602, 222, 7186, 0, 0, 0, 0,
               {6840, 346, 0, 0, 0}, 15.292481529769665, 47, 39,
               0.37546875000000002, 0.15770996093750006});
}

TEST(GoldenSimTest, ReplicatedOmegaWormholeUnderSwitchKills) {
  expect_pins(run_replicated_killed(),
              {2024, 1152, 949, 3460, 2863, 234, 28923, 0, 244, 118, 211,
               {7817, 0, 21106, 0, 0}, 30.555321390937834, 189, 150,
               0.23885416666666667, 0.29814127604166679});
}

TEST(GoldenSimTest, BenesRadix3Adaptive) {
  expect_pins(run_benes_radix3(),
              {4475, 3414, 3100, 6828, 6200, 628, 29990, 0, 0, 0, 0,
               {0, 0, 0, 0, 0}, 39.486451612903203, 84, 68,
               0.62192129629629633, 0.59243055555555579});
}

TEST(GoldenSimTest, OmegaMaskedArcStalls) {
  expect_pins(run_omega_masked_arcs(),
              {5830, 3028, 2586, 6056, 5172, 546, 22052, 0, 787, 169, 660,
               {12961, 7034, 0, 0, 2057}, 36.866202629543743, 142, 111,
               0.46621093749999998, 0.41677734374999992});
}

TEST(GoldenSimTest, BenesHashPathReroutesUnderLinkFaults) {
  expect_pins(run_benes_hash_faulted(SwitchingMode::kStoreAndForward),
              {3455, 673, 539, 1346, 1078, 268, 11387, 237, 175, 0, 154,
               {3220, 7781, 0, 0, 386}, 74.356215213358169, 247, 218,
               0.21546874999999999, 0.30478236607142845});
  expect_pins(run_benes_hash_faulted(SwitchingMode::kWormhole),
              {3437, 687, 622, 1374, 1247, 126, 21591, 284, 185, 0, 163,
               {4215, 0, 17376, 0, 0}, 36.274919614147898, 126, 124,
               0.21601562499999999, 0.14442801339285707});
}

// Feature-combination pins, captured from the simulator as it stood when
// faults, credits and observers were each a separate policy
// instantiation: credits with non-neutral arbitration in both
// disciplines, all three features in one run, and a pristine observed
// general-radix run.

TEST(GoldenSimTest, SafWeightedCreditsHotspot) {
  const SimResult r = run_saf_weighted_credits();
  expect_pins(r, {8485, 784, 548, 1568, 1096, 472, 22951, 0, 0, 0, 0,
                  {0, 0, 0, 0, 0}, 90.284671532846744, 385, 294, 0.1228125,
                  0.36910937500000018});
  expect_credit_pins(r, 17148, {78.993377483443609, 144.12631578947375});
}

TEST(GoldenSimTest, WormholePriorityCredits) {
  const SimResult r = run_wormhole_priority_credits();
  expect_pins(r, {3858, 1038, 988, 4160, 3980, 148, 20419, 0, 0, 0, 0,
                  {0, 0, 0, 0, 0}, 20.067813765182184, 117, 87,
                  0.32417968749999998, 0.21962499999999982});
  expect_credit_pins(r, 10649, {14.952517985611523, 32.2013651877133});
}

TEST(GoldenSimTest, KaryBaselineCreditsFaultsAndObservers) {
  const SimResult r = run_kary_all_features();
  expect_pins(r, {5016, 2415, 1870, 4830, 3740, 194, 11066, 0, 421, 448, 416,
                  {7422, 0, 0, 1810, 1834}, 20.373796791443837, 82, 63,
                  0.36319444444444443, 0.39081275720164571});
  expect_credit_pins(r, 4437, {20.373796791443837});
  EXPECT_EQ(r.trace.size(), 6569U);
  EXPECT_EQ(r.probes.samples, 8U);
}

TEST(GoldenSimTest, Radix4WormholeObserved) {
  const SimResult r = run_radix4_wormhole_observed();
  expect_pins(r, {7146, 3724, 3539, 14877, 14295, 530, 57484, 0, 0, 0, 0,
                  {33623, 0, 23861, 0, 0}, 20.545634359988735, 93, 63,
                  0.58193359374999998, 0.35804524739583343});
  EXPECT_EQ(r.probes.samples, 8U);
  EXPECT_EQ(r.flows.flows.size(), 2374U);
  EXPECT_DOUBLE_EQ(r.flows.worst_p99, 94.0);
}

// Plain general-radix unipath pins, captured from the simulator as it
// stood when the multipath geometry was a compile-time axis. Both runs
// refuse injection attempts (offered > injected), so they pin the
// unipath injection order: check the first-stage buffer, then draw.

TEST(GoldenSimTest, Radix3StoreAndForwardPlain) {
  const SimResult r = run_radix3_saf_plain();
  EXPECT_GT(r.offered, r.injected);
  expect_pins(r, {7001, 3058, 2957, 6116, 5914, 202, 13237, 0, 0, 0, 0,
                  {0, 0, 0, 0, 0}, 15.127155901251276, 47, 35,
                  0.56671296296296292, 0.62367283950617269});
}

TEST(GoldenSimTest, Radix4WormholePlain) {
  const SimResult r = run_radix4_wormhole_plain();
  EXPECT_GT(r.offered, r.injected);
  expect_pins(r, {4552, 3443, 3285, 13787, 13293, 390, 49201, 0, 0, 0, 0,
                  {0, 0, 0, 0, 0}, 16.956773211567739, 82, 52,
                  0.53818359375000002, 0.44253906249999986});
}

// Closed-loop pins, captured from the simulator as it stood when a serial
// run fed each delivery back to its workload inline during eject: the one
// path where a delivery changes what is injected next.

TEST(GoldenSimTest, SafClosedLoopRecorded) {
  const SimResult r = run_saf_closed_loop();
  expect_pins(r, {2788, 2788, 2727, 5576, 5454, 122, 3172, 0, 0, 0, 0,
                  {0, 0, 0, 0, 0}, 13.28639530619728, 23, 20,
                  0.34876562500000002, 0.098396874999999967});
  expect_closed_loop_pins(
      r, {10196, 0, 24.620538965768358, 1373, 0.17424999999999999, 3365});
}

TEST(GoldenSimTest, WormholeClosedLoopRecorded) {
  const SimResult r = run_wormhole_closed_loop();
  expect_pins(r, {3090, 2950, 2868, 8844, 8648, 185, 28742, 0, 0, 0, 0,
                  {0, 0, 0, 0, 0}, 14.55962343096232, 51, 33,
                  0.55204687500000005, 0.28269062500000008});
  expect_closed_loop_pins(
      r, {4617, 0, 30.148328690807791, 1436, 0.19312499999999999, 3588});
}

// Guard pins for the request-mask arbitration, captured from the
// simulator as it stood when every output port probed its candidates one
// by one: strict priority over store-and-forward credits, weighted
// wormhole credits on the first-idle-lane path, wormhole adaptive
// multipath, eject arbiters wider than one 64-bit word, and wormhole
// ports with 68 candidate lanes.

/// omega n = 5, store-and-forward: strict priority over two service
/// levels, 2-cycle credit return, probes on.
SimResult run_saf_priority_credits() {
  const Engine engine(min::build_network(min::NetworkKind::kOmega, 5));
  SimConfig config;
  config.injection_rate = 0.8;
  config.packet_length = 2;
  config.queue_capacity = 3;
  config.warmup_cycles = 100;
  config.measure_cycles = 400;
  config.seed = 61;
  config.credits.enabled = true;
  config.credits.return_latency = 2;
  config.credits.arbitration = ArbitrationPolicy::kPriority;
  config.credits.sl_map = {0, 1};
  config.credits.weights = {3, 1};
  config.obs.probe_stride = 50;
  return engine.run(Pattern::kUniform, config);
}

/// omega n = 5, wormhole, 2 lanes: weighted arbitration with no SL->VL
/// map, so worms claim the first idle lane; 2-cycle credit return,
/// probes on.
SimResult run_wormhole_weighted_credits() {
  const Engine engine(min::build_network(min::NetworkKind::kOmega, 5));
  SimConfig config;
  config.mode = SwitchingMode::kWormhole;
  config.injection_rate = 0.6;
  config.packet_length = 4;
  config.lanes = 2;
  config.lane_depth = 2;
  config.warmup_cycles = 100;
  config.measure_cycles = 400;
  config.seed = 67;
  config.credits.enabled = true;
  config.credits.return_latency = 2;
  config.credits.arbitration = ArbitrationPolicy::kWeighted;
  config.credits.weights = {3};
  config.obs.probe_stride = 50;
  return engine.run(Pattern::kUniform, config);
}

/// dilated(omega, 4, 2, 2), wormhole, adaptive, plain.
SimResult run_dilated_wormhole_adaptive() {
  const Engine engine{
      min::MultiPathWiring::dilated(min::NetworkKind::kOmega, 4, 2, 2)};
  SimConfig config;
  config.mode = SwitchingMode::kWormhole;
  config.injection_rate = 0.7;
  config.packet_length = 3;
  config.lanes = 2;
  config.lane_depth = 3;
  config.warmup_cycles = 100;
  config.measure_cycles = 400;
  config.seed = 71;
  config.path_policy = PathPolicy::kAdaptive;
  return engine.run(Pattern::kUniform, config);
}

/// replicated(omega, 3, 2, 33), hash: each logical terminal's eject
/// arbiter spans 66 store-and-forward buffers, or 132 lanes at 2 lanes.
/// Store-and-forward runs plain, wormhole with probes on.
SimResult run_replicated33(SwitchingMode mode) {
  const Engine engine{
      min::MultiPathWiring::replicated(min::NetworkKind::kOmega, 3, 2, 33)};
  SimConfig config;
  config.mode = mode;
  config.injection_rate = 0.9;
  config.packet_length = 2;
  config.queue_capacity = 2;
  config.lanes = 2;
  config.lane_depth = 2;
  config.warmup_cycles = 100;
  config.measure_cycles = 400;
  config.seed = 73;
  config.path_policy = PathPolicy::kHash;
  if (mode == SwitchingMode::kWormhole) config.obs.probe_stride = 50;
  return engine.run(Pattern::kUniform, config);
}

/// Radix-4 omega n = 3, wormhole, 17 lanes: 68 candidate lanes per
/// output port.
SimResult run_radix4_wormhole_17_lanes(bool observed) {
  const Engine engine(
      min::build_kary_network(min::NetworkKind::kOmega, 3, 4));
  SimConfig config;
  config.mode = SwitchingMode::kWormhole;
  config.injection_rate = 0.8;
  config.packet_length = 4;
  config.lanes = 17;
  config.lane_depth = 2;
  config.warmup_cycles = 100;
  config.measure_cycles = 400;
  config.seed = 79;
  if (observed) config.obs.probe_stride = 50;
  return engine.run(Pattern::kUniform, config);
}

TEST(GoldenSimTest, SafPriorityCredits) {
  const SimResult r = run_saf_priority_credits();
  expect_pins(r, {7363, 3598, 3410, 7196, 6820, 376, 21397, 0, 0, 0, 0,
                  {17539, 0, 0, 3858, 0}, 23.724633431085103, 89, 64,
                  0.56333984375000001, 0.41822916666666676});
  expect_credit_pins(r, 7663, {19.607817869415786, 32.582255083179305});
}

TEST(GoldenSimTest, WormholeWeightedCreditsFirstIdleLane) {
  const SimResult r = run_wormhole_weighted_credits();
  expect_pins(r, {1999, 1522, 1454, 6098, 5865, 181, 22953, 0, 0, 0, 0,
                  {11689, 0, 3475, 7789, 0}, 18.809491059147149, 76, 53,
                  0.4790625, 0.2853046875000001});
  expect_credit_pins(r, 13029, {18.809491059147149});
}

TEST(GoldenSimTest, DilatedOmegaWormholeAdaptive) {
  expect_pins(run_dilated_wormhole_adaptive(),
              {1963, 1760, 1664, 5283, 5040, 229, 27242, 0, 0, 0, 0,
               {0, 0, 0, 0, 0}, 20.684495192307708, 90, 61,
               0.41065104166666666, 0.26157552083333324});
}

TEST(GoldenSimTest, Replicated33PlanesEjectArbitersSpanWords) {
  expect_pins(run_replicated33(SwitchingMode::kStoreAndForward),
              {1509, 1509, 1442, 3018, 2884, 134, 14796, 0, 0, 0, 0,
               {0, 0, 0, 0, 0}, 19.430651872399469, 123, 81,
               0.028598484848484849, 0.041968118686868658});
  expect_pins(run_replicated33(SwitchingMode::kWormhole),
              {1515, 1515, 1444, 3027, 2933, 92, 25484, 0, 0, 0, 0,
               {24742, 0, 742, 0, 0}, 21.893351800553976, 100, 73,
               0.028664772727272726, 0.034273200757575749});
}

TEST(GoldenSimTest, Radix4Wormhole17Lanes) {
  Pins pins{4438, 4438, 4211, 17750, 17155, 500, 95779, 0, 0, 0, 0,
            {90398, 5381, 0, 0, 0}, 21.96936594633101, 79, 54,
            0.6925, 0.077516467524509802};
  expect_pins(run_radix4_wormhole_17_lanes(true), pins);
  // Observers are passive: the plain run differs only in the stall
  // split, which it does not collect.
  pins.stall[0] = pins.stall[1] = 0;
  expect_pins(run_radix4_wormhole_17_lanes(false), pins);
}

/// A store-and-forward FIFO can send more than one packet in a cycle:
/// each output port reads the current head of every input FIFO, so a
/// FIFO whose head won an earlier port offers its next fully-arrived
/// packet to the later ports of the same cycle. The classical
/// buffered-banyan model sends at most one packet per input per cycle;
/// this pin records the simulator's behaviour as it stands. With every
/// packet traced, a (cycle, source) pair with two stage-0 StageEnd
/// events is one first-stage FIFO sending twice in one cycle.
TEST(GoldenSimTest, SafFifoSendsTwoPacketsInOneCycle) {
  const Engine engine(min::build_network(min::NetworkKind::kOmega, 4));
  SimConfig config;
  config.injection_rate = 0.9;
  config.warmup_cycles = 100;
  config.measure_cycles = 300;
  config.obs.trace_sample = 1;
  const SimResult r = engine.run(Pattern::kUniform, config);
  std::map<std::pair<std::uint64_t, std::uint32_t>, int> sends;
  for (const obs::TraceEvent& event : r.trace) {
    if (event.kind == obs::TraceEventKind::kStageEnd && event.stage == 0) {
      ++sends[{event.cycle, event.src}];
    }
  }
  int twice = 0;
  for (const auto& [key, count] : sends) {
    EXPECT_LE(count, 2);
    if (count == 2) ++twice;
  }
  EXPECT_EQ(twice, 508);
}

// Guard pins for the wormhole lane pool, captured from the simulator as
// it stood when every lane buffered a ring of flit copies: single-flit
// worms (every flit is head and tail at once) through one-flit lanes,
// worms long enough to span five lanes, and the full ejected-flit stream
// of a run whose flits carry non-zero service levels and workload tags.

/// omega n = 5, wormhole, 2 lanes of \p depth flits, packets of
/// \p length flits.
SimResult run_wormhole_omega5_lanes(std::size_t length, std::size_t depth,
                                   double rate, std::uint64_t seed,
                                   bool observed) {
  const Engine engine(min::build_network(min::NetworkKind::kOmega, 5));
  SimConfig config;
  config.mode = SwitchingMode::kWormhole;
  config.injection_rate = rate;
  config.packet_length = length;
  config.lanes = 2;
  config.lane_depth = depth;
  config.warmup_cycles = 100;
  config.measure_cycles = 400;
  config.seed = seed;
  if (observed) config.obs.probe_stride = 50;
  return engine.run(Pattern::kUniform, config);
}

TEST(GoldenSimTest, WormholeSingleFlitWormsDepthOne) {
  Pins pins{8952, 7987, 7816, 7987, 7816, 171, 28596, 0, 0, 0, 0,
            {22998, 0, 5598, 0, 0}, 9.5582139201637304, 29, 21,
            0.62470703125000004, 0.53568749999999954};
  expect_pins(run_wormhole_omega5_lanes(1, 1, 0.7, 83, true), pins);
  pins.stall[0] = pins.stall[2] = 0;
  expect_pins(run_wormhole_omega5_lanes(1, 1, 0.7, 83, false), pins);
}

/// Nine-flit worms in two-flit lanes: a worm in full flight spans five
/// lanes of the five-stage path.
TEST(GoldenSimTest, WormholeNineFlitWormsSpanFiveLanes) {
  Pins pins{683, 683, 633, 6141, 5822, 225, 28110, 0, 0, 0, 0,
            {14150, 10038, 3922, 0, 0}, 31.279620853080569, 91, 77,
            0.4794921875, 0.35974609374999994};
  expect_pins(run_wormhole_omega5_lanes(9, 2, 0.5, 89, true), pins);
  pins.stall[0] = pins.stall[1] = pins.stall[2] = 0;
  expect_pins(run_wormhole_omega5_lanes(9, 2, 0.5, 89, false), pins);
}

/// Every field of every ejected flit, warmup included, folded into one
/// FNV-1a hash in ejection order: credits with two service levels on
/// their own virtual lanes and closed-loop clients, so sl and tag are
/// non-zero.
TEST(GoldenSimTest, WormholeEjectStreamHash) {
  const Engine engine(min::build_network(min::NetworkKind::kOmega, 5));
  SimConfig config;
  config.mode = SwitchingMode::kWormhole;
  config.injection_rate = 0.5;
  config.packet_length = 4;
  config.lanes = 2;
  config.lane_depth = 2;
  config.warmup_cycles = 50;
  config.measure_cycles = 300;
  config.seed = 5;
  config.credits.enabled = true;
  config.credits.sl_map = {0, 1};
  config.workload.kind = workload::Kind::kClosedLoop;
  config.workload.rr_window = 4;
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFFU;
      hash *= 1099511628211ULL;
    }
  };
  std::uint64_t flits = 0, with_sl = 0, with_tag = 0;
  const EjectObserver observer = [&](const Flit& flit, std::uint64_t cycle) {
    ++flits;
    if (flit.sl != 0) ++with_sl;
    if (flit.tag != 0) ++with_tag;
    mix(cycle);
    mix(flit.packet_id);
    mix(flit.dest_terminal);
    mix(flit.src);
    mix(flit.inject_cycle);
    mix(flit.sl);
    mix(flit.tag);
    mix(flit.head);
    mix(flit.tail);
  };
  const SimResult r =
      WormholeSimulator(engine).run(Pattern::kUniform, config, observer);
  EXPECT_EQ(flits, 5246U);
  EXPECT_EQ(with_sl, 2668U);
  EXPECT_EQ(with_tag, 5246U);
  EXPECT_EQ(hash, 835339660181302176ULL);
  expect_pins(r, {3350, 1144, 1078, 4581, 4362, 187, 15382, 0, 0, 0, 0,
                  {0, 0, 0, 0, 0}, 17.202226345083481, 57, 39,
                  0.47776041666666669, 0.27832812500000015});
}

}  // namespace
}  // namespace mineq::sim
