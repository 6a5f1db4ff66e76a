/// \file obs_test.cpp
/// \brief The observability collectors: stall attribution partitions
/// hol_blocking_cycles exactly, the per-flow recorders account every
/// delivered packet, probes have the declared shape, traces nest, and —
/// the core contract — enabling any collector never changes a simulation
/// outcome (obs is strictly passive).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_model.hpp"
#include "min/kary.hpp"
#include "min/networks.hpp"
#include "multipath/multipath_wiring.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace mineq::sim {
namespace {

using fault::FaultKind;
using fault::FaultMask;
using fault::FaultSpec;
using min::MultiPathWiring;
using min::NetworkKind;

[[nodiscard]] SimConfig base_config(SwitchingMode mode) {
  SimConfig config;
  config.mode = mode;
  config.injection_rate = 0.7;
  config.warmup_cycles = 50;
  config.measure_cycles = 300;
  config.seed = 99;
  config.packet_length = 3;
  config.queue_capacity = 2;
  config.lanes = 2;
  config.lane_depth = 2;
  return config;
}

[[nodiscard]] obs::ObsConfig all_collectors() {
  obs::ObsConfig config;
  config.probe_stride = 25;
  config.flow_stats = true;
  config.trace_sample = 4;
  return config;
}

// ------------------------------------------------------- stall attribution

/// The invariant the whole attribution design serves: the five cause
/// counters partition hol_blocking_cycles with no remainder, on every
/// policy instantiation of both disciplines.
TEST(ObsStallTest, CausesPartitionHolCyclesExactly) {
  const Engine omega(min::build_network(NetworkKind::kOmega, 5));
  const FaultMask mask = fault::build_fault_mask(
      omega.wiring(), FaultSpec{FaultKind::kRandomLinks, 0.08, 7});
  const Engine benes{MultiPathWiring::benes(4, 2)};
  for (const SwitchingMode mode :
       {SwitchingMode::kStoreAndForward, SwitchingMode::kWormhole}) {
    SimConfig config = base_config(mode);
    config.obs = all_collectors();

    SCOPED_TRACE(switching_mode_name(mode));
    const SimResult pristine = omega.run(Pattern::kBitReversal, config);
    EXPECT_GT(pristine.hol_blocking_cycles, 0U);
    EXPECT_EQ(pristine.stall_attributed(), pristine.hol_blocking_cycles);

    const SimResult faulted = omega.run(Pattern::kUniform, config, &mask);
    EXPECT_EQ(faulted.stall_attributed(), faulted.hol_blocking_cycles);

    SimConfig credits = config;
    credits.credits.enabled = true;
    credits.credits.return_latency = 3;
    const SimResult credited = omega.run(Pattern::kUniform, credits);
    EXPECT_EQ(credited.stall_attributed(), credited.hol_blocking_cycles);

    SimConfig multipath = config;
    multipath.path_policy = PathPolicy::kHash;
    const SimResult mp = benes.run(Pattern::kUniform, multipath);
    EXPECT_EQ(mp.stall_attributed(), mp.hol_blocking_cycles);
  }
}

TEST(ObsStallTest, CreditStallsAttributedOnCreditRuns) {
  // A tight credit loop must surface kZeroCredits mass — the split is
  // informative, not vacuously all lost-arbitration.
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  SimConfig config = base_config(SwitchingMode::kWormhole);
  config.obs.probe_stride = 50;
  config.credits.enabled = true;
  config.credits.return_latency = 8;
  config.injection_rate = 1.0;
  const SimResult result = engine.run(Pattern::kBitReversal, config);
  EXPECT_EQ(result.stall_attributed(), result.hol_blocking_cycles);
  EXPECT_GT(result.stall_zero_credits, 0U);
}

TEST(ObsStallTest, DominantCauseTokenIsRegistered) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  SimConfig config = base_config(SwitchingMode::kStoreAndForward);
  config.obs.flow_stats = true;
  const SimResult result = engine.run(Pattern::kBitReversal, config);
  bool found = false;
  for (std::size_t i = 0; i < obs::kStallCauseCount; ++i) {
    const auto cause = static_cast<obs::StallCause>(i);
    if (obs::stall_cause_name(result.dominant_stall_cause()) ==
        std::string(obs::stall_cause_name(cause))) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------------------- passivity

/// Every outcome counter of two runs of one config, obs on and off (the
/// stall-cause split exists only with obs on, so it is not compared).
void expect_same_outcome(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.flits_injected, b.flits_injected);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.flits_in_flight, b.flits_in_flight);
  EXPECT_EQ(a.hol_blocking_cycles, b.hol_blocking_cycles);
  EXPECT_EQ(a.credit_stall_cycles, b.credit_stall_cycles);
  EXPECT_EQ(a.credit_violations, b.credit_violations);
  EXPECT_EQ(a.path_reroutes, b.path_reroutes);
  EXPECT_EQ(a.packets_rerouted, b.packets_rerouted);
  EXPECT_EQ(a.packets_dropped_faulted, b.packets_dropped_faulted);
  EXPECT_EQ(a.flits_dropped_faulted, b.flits_dropped_faulted);
  EXPECT_EQ(a.packets_misdelivered, b.packets_misdelivered);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.latency_histogram.quantile(0.99),
            b.latency_histogram.quantile(0.99));
  EXPECT_EQ(a.link_utilization, b.link_utilization);
  EXPECT_EQ(a.lane_occupancy.mean(), b.lane_occupancy.mean());
  ASSERT_EQ(a.sl_latency.size(), b.sl_latency.size());
  for (std::size_t sl = 0; sl < a.sl_latency.size(); ++sl) {
    EXPECT_EQ(a.sl_latency[sl].count(), b.sl_latency[sl].count());
    EXPECT_EQ(a.sl_latency[sl].mean(), b.sl_latency[sl].mean());
  }
}

/// Credits with a 3-cycle return and two service levels weighted 3:1.
void two_level_credits(SimConfig& config, ArbitrationPolicy policy) {
  config.credits.enabled = true;
  config.credits.return_latency = 3;
  config.credits.arbitration = policy;
  config.credits.sl_map = {0, 1};
  config.credits.weights = {3, 1};
}

/// Enabling every collector must not change any simulation outcome: the
/// instrumented runs produce the same counters, latencies and RNG draws
/// as the uninstrumented ones. A pristine, credit-less run with obs off
/// takes the plain policy instantiation and with obs on the featured one,
/// so the pristine cases are also the plain-vs-featured differential; the
/// credit, multipath, faulted and general-radix cases pin that an
/// observer never perturbs the other features' runtime branches. Every
/// case runs serially and sharded.
TEST(ObsPassivityTest, CollectorsNeverPerturbResults) {
  const Engine omega(min::build_network(NetworkKind::kOmega, 5));
  const Engine benes{MultiPathWiring::benes(4, 2)};
  const Engine replicated{
      MultiPathWiring::replicated(NetworkKind::kOmega, 4, 2, 2)};
  const Engine kary(min::build_kary_network(NetworkKind::kBaseline, 3, 3));
  const FaultMask killed = fault::build_fault_mask(
      omega.wiring(), FaultSpec{FaultKind::kSwitchKills, 0.08, 3});
  const FaultMask links = fault::build_fault_mask(
      replicated.wiring(), FaultSpec{FaultKind::kRandomLinks, 0.1, 5});
  struct Case {
    const char* name;
    const Engine* engine;
    Pattern pattern;
    const FaultMask* mask;
    void (*setup)(SimConfig&);
  };
  const auto no_setup = [](SimConfig&) {};
  const Case cases[] = {
      {"omega pristine", &omega, Pattern::kBitReversal, nullptr, no_setup},
      {"omega switch kills", &omega, Pattern::kBitReversal, &killed,
       no_setup},
      {"omega weighted credits", &omega, Pattern::kHotSpot, nullptr,
       [](SimConfig& c) {
         two_level_credits(c, ArbitrationPolicy::kWeighted);
       }},
      {"omega priority credits", &omega, Pattern::kUniform, nullptr,
       [](SimConfig& c) {
         two_level_credits(c, ArbitrationPolicy::kPriority);
       }},
      {"benes adaptive", &benes, Pattern::kUniform, nullptr,
       [](SimConfig& c) { c.path_policy = PathPolicy::kAdaptive; }},
      {"replicated hash link faults", &replicated, Pattern::kUniform,
       &links, [](SimConfig& c) { c.path_policy = PathPolicy::kHash; }},
      {"radix-3 baseline", &kary, Pattern::kUniform, nullptr, no_setup},
  };
  for (const Case& c : cases) {
    for (const SwitchingMode mode :
         {SwitchingMode::kStoreAndForward, SwitchingMode::kWormhole}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        SCOPED_TRACE(std::string(c.name) + ", " + switching_mode_name(mode) +
                     ", sim_threads " + std::to_string(threads));
        SimConfig plain = base_config(mode);
        plain.sim_threads = threads;
        c.setup(plain);
        SimConfig instrumented = plain;
        instrumented.obs = all_collectors();
        const SimResult a = c.engine->run(c.pattern, plain, c.mask);
        const SimResult b = c.engine->run(c.pattern, instrumented, c.mask);
        expect_same_outcome(a, b);
        EXPECT_EQ(b.stall_attributed(), b.hol_blocking_cycles);
      }
    }
  }
}

// ----------------------------------------------------------------- flows

TEST(ObsFlowTest, RecorderAccountsEveryDeliveredPacket) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  for (const SwitchingMode mode :
       {SwitchingMode::kStoreAndForward, SwitchingMode::kWormhole}) {
    SCOPED_TRACE(switching_mode_name(mode));
    SimConfig config = base_config(mode);
    config.obs.flow_stats = true;
    const SimResult result = engine.run(Pattern::kUniform, config);
    ASSERT_FALSE(result.flows.empty());
    EXPECT_EQ(result.flows.terminals, engine.terminals());
    std::uint64_t recorded = 0;
    for (const obs::FlowStat& flow : result.flows.flows) {
      EXPECT_GT(flow.count, 0U);
      EXPECT_LE(flow.p50, flow.p99);
      EXPECT_LE(flow.p99, flow.p999);
      recorded += flow.count;
    }
    EXPECT_EQ(recorded, result.delivered);
    EXPECT_GT(result.flows.worst_p99, 0.0);
    // The advertised worst flow is a real flow with that p99.
    bool worst_found = false;
    for (const obs::FlowStat& flow : result.flows.flows) {
      if (flow.src == result.flows.worst_src &&
          flow.dst == result.flows.worst_dst) {
        EXPECT_EQ(flow.p99, result.flows.worst_p99);
        worst_found = true;
      }
    }
    EXPECT_TRUE(worst_found);
  }
}

TEST(ObsFlowTest, PerServiceLevelRowsCoverCreditRuns) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  SimConfig config = base_config(SwitchingMode::kWormhole);
  config.obs.flow_stats = true;
  config.credits.enabled = true;
  config.credits.sl_map = {0, 1};
  const SimResult result = engine.run(Pattern::kUniform, config);
  ASSERT_EQ(result.flows.per_sl.size(), 2U);
  std::uint64_t recorded = 0;
  for (const obs::FlowStat& sl : result.flows.per_sl) recorded += sl.count;
  EXPECT_EQ(recorded, result.delivered);
}

TEST(ObsFlowTest, ValidateRejectsOversizedFlowTables) {
  obs::ObsConfig flows_on;
  flows_on.flow_stats = true;
  EXPECT_NO_THROW(flows_on.validate(obs::kMaxFlowTerminals));
  EXPECT_THROW(flows_on.validate(obs::kMaxFlowTerminals + 1),
               std::invalid_argument);
  obs::ObsConfig probes_only;
  probes_only.probe_stride = 10;
  EXPECT_NO_THROW(probes_only.validate(1ULL << 20));
}

// ---------------------------------------------------------------- probes

TEST(ObsProbeTest, SeriesHasDeclaredShape) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  for (const SwitchingMode mode :
       {SwitchingMode::kStoreAndForward, SwitchingMode::kWormhole}) {
    SCOPED_TRACE(switching_mode_name(mode));
    SimConfig config = base_config(mode);
    config.obs.probe_stride = 50;
    const SimResult result = engine.run(Pattern::kUniform, config);
    const obs::ProbeSeries& probes = result.probes;
    ASSERT_FALSE(probes.empty());
    EXPECT_EQ(probes.stride, 50U);
    EXPECT_EQ(probes.stages, 5);
    EXPECT_EQ(probes.cells, 16U);
    // 300 measured cycles / stride 50 = 6 whole windows.
    EXPECT_EQ(probes.samples, 6U);
    const std::size_t slots = probes.filled();
    ASSERT_EQ(probes.cycle.size(), probes.capacity);
    ASSERT_EQ(probes.occupancy.size(), probes.capacity * 5);
    ASSERT_EQ(probes.heatmap.size(), 5U * 16U);
    for (std::size_t i = 0; i < slots * 5; ++i) {
      EXPECT_GE(probes.occupancy[i], 0.0);
      EXPECT_LE(probes.occupancy[i], 1.0);
      EXPECT_GE(probes.link_utilization[i], 0.0);
      // Store-and-forward moves whole packets (packet_length flit-cycles
      // per link-cycle), so utilization is bounded by the packet length,
      // not 1.
      EXPECT_LE(probes.link_utilization[i],
                static_cast<double>(config.packet_length));
    }
    for (const double h : probes.heatmap) {
      EXPECT_GE(h, 0.0);
      EXPECT_LE(h, 1.0);
    }
    // Window cycles advance by exactly one stride.
    for (std::size_t w = 1; w < slots; ++w) {
      EXPECT_EQ(probes.cycle[w] - probes.cycle[w - 1], probes.stride);
    }
    EXPECT_NE(probes.csv().find("cycle,stage,occupancy"), std::string::npos);
    EXPECT_NE(probes.heatmap_csv().find("stage,cell,occupancy"),
              std::string::npos);
  }
}

// ----------------------------------------------------------------- traces

TEST(ObsTraceTest, EventsNestPerPacket) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  for (const SwitchingMode mode :
       {SwitchingMode::kStoreAndForward, SwitchingMode::kWormhole}) {
    SCOPED_TRACE(switching_mode_name(mode));
    SimConfig config = base_config(mode);
    config.obs.trace_sample = 2;
    const SimResult result = engine.run(Pattern::kUniform, config);
    ASSERT_FALSE(result.trace.empty());
    // Emission order: cycles never run backwards.
    for (std::size_t i = 1; i < result.trace.size(); ++i) {
      EXPECT_LE(result.trace[i - 1].cycle, result.trace[i].cycle);
    }
    // Group by packet identity and check slice nesting.
    std::map<std::pair<std::uint64_t, std::uint32_t>,
             std::vector<const obs::TraceEvent*>>
        tracks;
    for (const obs::TraceEvent& event : result.trace) {
      EXPECT_TRUE(obs::trace_picked(2, event.src, event.inject_cycle));
      tracks[{event.inject_cycle, event.src}].push_back(&event);
    }
    EXPECT_GT(tracks.size(), 4U);
    std::size_t completed = 0;
    for (const auto& [key, events] : tracks) {
      int packet_open = 0;
      int stage_open = 0;
      for (const obs::TraceEvent* event : events) {
        switch (event->kind) {
          case obs::TraceEventKind::kPacketBegin:
            EXPECT_EQ(packet_open, 0);
            ++packet_open;
            break;
          case obs::TraceEventKind::kPacketEnd:
            EXPECT_EQ(stage_open, 0);  // stages close before the packet
            --packet_open;
            break;
          case obs::TraceEventKind::kStageBegin:
            EXPECT_EQ(packet_open, 1);
            ++stage_open;
            break;
          case obs::TraceEventKind::kStageEnd:
            --stage_open;
            break;
          default:  // instants may appear anywhere inside the packet
            EXPECT_EQ(packet_open, 1);
            break;
        }
        EXPECT_GE(packet_open, 0);
        EXPECT_GE(stage_open, 0);
        EXPECT_LE(stage_open, 1);  // the head is in one stage at a time
      }
      if (!events.empty() &&
          events.back()->kind == obs::TraceEventKind::kPacketEnd) {
        ++completed;
      }
    }
    EXPECT_GT(completed, 0U);
    const std::string json = obs::trace_json(result.trace, 0, "test");
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  }
}

TEST(ObsTraceTest, SampledSubsetIsDeterministicAndSparse) {
  const Engine engine(min::build_network(NetworkKind::kOmega, 5));
  SimConfig config = base_config(SwitchingMode::kStoreAndForward);
  config.obs.trace_sample = 8;
  const SimResult once = engine.run(Pattern::kUniform, config);
  const SimResult twice = engine.run(Pattern::kUniform, config);
  ASSERT_EQ(once.trace.size(), twice.trace.size());
  for (std::size_t i = 0; i < once.trace.size(); ++i) {
    EXPECT_EQ(once.trace[i].cycle, twice.trace[i].cycle);
    EXPECT_EQ(once.trace[i].src, twice.trace[i].src);
    EXPECT_EQ(once.trace[i].kind, twice.trace[i].kind);
  }
  // 1-in-8 sampling: far fewer traced packets than injected ones.
  std::map<std::pair<std::uint64_t, std::uint32_t>, int> tracks;
  for (const obs::TraceEvent& event : once.trace) {
    tracks[{event.inject_cycle, event.src}] = 1;
  }
  EXPECT_LT(tracks.size(), once.injected / 2);
}

}  // namespace
}  // namespace mineq::sim
