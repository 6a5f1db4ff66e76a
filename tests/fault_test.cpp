/// \file fault_test.cpp
/// \brief The fault-injection subsystem: mask geometry and fault models,
/// degraded-mode routing semantics in both switching disciplines
/// (conservation, drops, reroutes, zero-mask equivalence), survivor-
/// topology classification agreement with explicitly pruned ground
/// truth, and the SimWorkspace arena.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_model.hpp"
#include "graph/dsu.hpp"
#include "min/banyan.hpp"
#include "min/equivalence.hpp"
#include "min/kary.hpp"
#include "min/networks.hpp"
#include "min/properties.hpp"
#include "multipath/multipath_wiring.hpp"
#include "sim/fabric.hpp"
#include "sim/wormhole.hpp"
#include "test_seed.hpp"

namespace mineq {
namespace {

using fault::FaultKind;
using fault::FaultMask;
using fault::FaultSpec;
using min::FlatWiring;

FlatWiring omega_wiring(int stages) {
  return FlatWiring::from_digraph(
      min::build_network(min::NetworkKind::kOmega, stages));
}

// ---------------------------------------------------------------------------
// FaultMask
// ---------------------------------------------------------------------------

TEST(FaultMaskTest, GeometryAndIndexing) {
  const FlatWiring w = omega_wiring(4);
  FaultMask mask(w);
  EXPECT_TRUE(mask.matches(w));
  EXPECT_EQ(mask.stages(), 4);
  EXPECT_EQ(mask.links_per_stage(), 16U);
  EXPECT_EQ(mask.total_arcs(), 3U * 16U);
  EXPECT_TRUE(mask.none());
  EXPECT_EQ(mask.surviving_arcs(), mask.total_arcs());

  mask.set(1, 3, 1);
  EXPECT_FALSE(mask.none());
  EXPECT_EQ(mask.faulted_count(), 1U);
  EXPECT_TRUE(mask.faulted(1, 3, 1));
  EXPECT_FALSE(mask.faulted(1, 3, 0));
  EXPECT_EQ(mask.arc_index(1, 3, 1), 16U + 7U);
  EXPECT_TRUE(mask.faulted_index(16U + 7U));
  // Setting the same arc twice is idempotent.
  mask.set(1, 3, 1);
  EXPECT_EQ(mask.faulted_count(), 1U);
  EXPECT_EQ(mask.surviving_arcs(), mask.total_arcs() - 1);
}

TEST(FaultMaskTest, FaultedWiringReroutesAndDetectsDeadSwitches) {
  const FlatWiring w = omega_wiring(4);
  FaultMask mask(w);
  mask.set(0, 2, 0);
  const fault::FaultedWiring view(w, mask);
  EXPECT_FALSE(view.arc_ok(0, 2, 0));
  EXPECT_TRUE(view.arc_ok(0, 2, 1));
  // Desired port dead, sibling alive: degraded routing detours.
  EXPECT_EQ(view.usable_port(0, 2, 0), 1);
  EXPECT_EQ(view.usable_port(0, 2, 1), 1);
  EXPECT_FALSE(view.dead_switch(0, 2));
  mask.set(0, 2, 1);
  EXPECT_TRUE(view.dead_switch(0, 2));
  EXPECT_EQ(view.usable_port(0, 2, 0), -1);
  EXPECT_EQ(view.usable_port(0, 2, 1), -1);
}

// ---------------------------------------------------------------------------
// Fault models
// ---------------------------------------------------------------------------

TEST(FaultModelTest, KindNamesRoundTrip) {
  for (const FaultKind kind : fault::all_fault_kinds()) {
    EXPECT_EQ(fault::parse_fault_kind(fault::fault_kind_name(kind)), kind);
  }
  EXPECT_THROW((void)fault::parse_fault_kind("meteor"),
               std::invalid_argument);
}

TEST(FaultModelTest, SpecValidation) {
  EXPECT_NO_THROW(FaultSpec{}.validate());
  EXPECT_NO_THROW((FaultSpec{FaultKind::kRandomLinks, 1.0, 3}).validate());
  EXPECT_THROW((FaultSpec{FaultKind::kRandomLinks, -0.1, 0}).validate(),
               std::invalid_argument);
  EXPECT_THROW((FaultSpec{FaultKind::kRandomLinks, 1.5, 0}).validate(),
               std::invalid_argument);
  // "none" with a nonzero rate is ambiguous and rejected.
  EXPECT_THROW((FaultSpec{FaultKind::kNone, 0.5, 0}).validate(),
               std::invalid_argument);
}

TEST(FaultModelTest, ZeroRateAndNoneAreAllClear) {
  const FlatWiring w = omega_wiring(5);
  EXPECT_TRUE(fault::build_fault_mask(w, FaultSpec{}).none());
  EXPECT_TRUE(
      fault::build_fault_mask(w, FaultSpec{FaultKind::kRandomLinks, 0.0, 9})
          .none());
}

TEST(FaultModelTest, RandomLinksRateOneMasksEverything) {
  const FlatWiring w = omega_wiring(5);
  const FaultMask mask =
      fault::build_fault_mask(w, FaultSpec{FaultKind::kRandomLinks, 1.0, 5});
  EXPECT_EQ(mask.faulted_count(), mask.total_arcs());
}

TEST(FaultModelTest, RandomLinksHitsRoughlyRateAndIsSeedDeterministic) {
  SCOPED_TRACE(test::seed_trace());
  const FlatWiring w = omega_wiring(9);  // 256 cells, 4096 arcs
  const FaultSpec spec{FaultKind::kRandomLinks, 0.1, test::test_seed()};
  const FaultMask a = fault::build_fault_mask(w, spec);
  const FaultMask b = fault::build_fault_mask(w, spec);
  EXPECT_EQ(a, b);
  const double fraction = static_cast<double>(a.faulted_count()) /
                          static_cast<double>(a.total_arcs());
  EXPECT_GT(fraction, 0.05);
  EXPECT_LT(fraction, 0.16);
  // A different placement seed moves the faults.
  FaultSpec other = spec;
  other.seed = spec.seed + 1;
  EXPECT_NE(fault::build_fault_mask(w, other), a);
}

TEST(FaultModelTest, SwitchKillsMaskAllArcsOfKilledSwitches) {
  const FlatWiring w = omega_wiring(5);
  // rate 1: every switch killed -> every arc masked.
  const FaultMask all =
      fault::build_fault_mask(w, FaultSpec{FaultKind::kSwitchKills, 1.0, 2});
  EXPECT_EQ(all.faulted_count(), all.total_arcs());
  // A small kill count masks at least one switch's full arc set (an
  // interior switch owns 4 arcs; boundary switches 2).
  const FaultMask few =
      fault::build_fault_mask(w, FaultSpec{FaultKind::kSwitchKills, 0.05, 2});
  EXPECT_GE(few.faulted_count(), 2U);
  EXPECT_LT(few.faulted_count(), few.total_arcs());
}

TEST(FaultModelTest, StageBurstMasksContiguousRunsNearTargetRate) {
  const FlatWiring w = omega_wiring(8);
  const FaultMask mask =
      fault::build_fault_mask(w, FaultSpec{FaultKind::kStageBurst, 0.1, 4});
  const auto target = static_cast<std::size_t>(
      0.1 * static_cast<double>(mask.total_arcs()) + 0.5);
  EXPECT_EQ(mask.faulted_count(), target);
  // Burst faults are stage-correlated: some stage carries well more than
  // the uniform share of the masked arcs.
  std::size_t max_per_stage = 0;
  for (int s = 0; s + 1 < mask.stages(); ++s) {
    std::size_t in_stage = 0;
    for (std::size_t link = 0; link < mask.links_per_stage(); ++link) {
      const std::size_t arc = static_cast<std::size_t>(s) *
                                  mask.links_per_stage() + link;
      if (mask.faulted_index(arc)) ++in_stage;
    }
    max_per_stage = std::max(max_per_stage, in_stage);
  }
  EXPECT_GT(max_per_stage, target / static_cast<std::size_t>(
                                        mask.stages() - 1));
}

// ---------------------------------------------------------------------------
// Degraded-mode routing semantics
// ---------------------------------------------------------------------------

sim::SimConfig fault_sim_config(sim::SwitchingMode mode) {
  sim::SimConfig config;
  config.mode = mode;
  config.injection_rate = 0.7;
  config.packet_length = 3;
  config.lanes = 2;
  config.warmup_cycles = 0;  // exact conservation ledger
  config.measure_cycles = 600;
  config.seed = 77;
  return config;
}

void expect_identical(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.flits_injected, b.flits_injected);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.flits_in_flight, b.flits_in_flight);
  EXPECT_EQ(a.hol_blocking_cycles, b.hol_blocking_cycles);
  EXPECT_EQ(a.packets_dropped_faulted, b.packets_dropped_faulted);
  EXPECT_EQ(a.packets_rerouted, b.packets_rerouted);
  EXPECT_EQ(a.packets_misdelivered, b.packets_misdelivered);
  EXPECT_EQ(a.flits_dropped_faulted, b.flits_dropped_faulted);
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
  EXPECT_DOUBLE_EQ(a.link_utilization, b.link_utilization);
  EXPECT_DOUBLE_EQ(a.lane_occupancy.mean(), b.lane_occupancy.mean());
}

TEST(FaultedSimTest, AllClearMaskIsByteIdenticalToPlainRun) {
  const sim::Engine engine(
      min::build_network(min::NetworkKind::kOmega, 5));
  const FaultMask empty(engine.wiring());
  sim::SimWorkspace workspace;
  for (const sim::SwitchingMode mode :
       {sim::SwitchingMode::kStoreAndForward,
        sim::SwitchingMode::kWormhole}) {
    for (const sim::Pattern pattern :
         {sim::Pattern::kUniform, sim::Pattern::kBursty}) {
      const sim::SimConfig config = fault_sim_config(mode);
      const sim::SimResult plain = engine.run(pattern, config);
      const sim::SimResult masked =
          engine.run(pattern, config, &empty, &workspace);
      const sim::SimResult null_mask =
          engine.run(pattern, config, nullptr, &workspace);
      expect_identical(plain, masked);
      expect_identical(plain, null_mask);
      EXPECT_EQ(plain.packets_dropped_faulted, 0U);
      EXPECT_EQ(plain.packets_rerouted, 0U);
    }
  }
}

TEST(FaultedSimTest, ConservationHoldsUnderFaultsInBothDisciplines) {
  SCOPED_TRACE(test::seed_trace());
  const sim::Engine engine(
      min::build_network(min::NetworkKind::kBaseline, 5));
  for (const sim::SwitchingMode mode :
       {sim::SwitchingMode::kStoreAndForward,
        sim::SwitchingMode::kWormhole}) {
    for (const FaultKind kind :
         {FaultKind::kRandomLinks, FaultKind::kSwitchKills,
          FaultKind::kStageBurst}) {
      for (const double rate : {0.02, 0.1, 0.3}) {
        const FaultMask mask = fault::build_fault_mask(
            engine.wiring(), FaultSpec{kind, rate, test::test_seed()});
        const sim::SimResult r =
            engine.run(sim::Pattern::kUniform, fault_sim_config(mode),
                       &mask);
        // The flit ledger must close exactly at warmup 0: every flit
        // that entered was delivered, is still buffered, or was dropped
        // at a fault.
        EXPECT_EQ(r.flits_injected, r.flits_delivered + r.flits_in_flight +
                                        r.flits_dropped_faulted)
            << switching_mode_name(mode) << " " << fault_kind_name(kind)
            << " rate " << rate;
        EXPECT_LE(r.delivered, r.injected);
      }
    }
  }
}

TEST(FaultedSimTest, SingleMaskedLinkReroutesInsteadOfDropping) {
  const sim::Engine engine(
      min::build_network(min::NetworkKind::kOmega, 4));
  FaultMask mask(engine.wiring());
  mask.set(1, 0, 0);  // one interior arc; its sibling survives
  for (const sim::SwitchingMode mode :
       {sim::SwitchingMode::kStoreAndForward,
        sim::SwitchingMode::kWormhole}) {
    const sim::SimResult r =
        engine.run(sim::Pattern::kUniform, fault_sim_config(mode), &mask);
    EXPECT_GT(r.packets_rerouted, 0U) << switching_mode_name(mode);
    EXPECT_EQ(r.packets_dropped_faulted, 0U) << switching_mode_name(mode);
    // A banyan has unique paths, so detours end at the wrong terminal:
    // deliveries happen, but some are misses.
    EXPECT_GT(r.packets_misdelivered, 0U) << switching_mode_name(mode);
    EXPECT_LE(r.packets_misdelivered, r.delivered);
    EXPECT_EQ(r.flits_injected,
              r.flits_delivered + r.flits_in_flight +
                  r.flits_dropped_faulted);
  }
}

TEST(FaultedSimTest, DeadSwitchDropsArrivingPackets) {
  const sim::Engine engine(
      min::build_network(min::NetworkKind::kOmega, 4));
  FaultMask mask(engine.wiring());
  // Kill both out-arcs of first-stage cell 0: everything its terminals
  // inject must be dropped, and nothing else is affected.
  mask.set(0, 0, 0);
  mask.set(0, 0, 1);
  for (const sim::SwitchingMode mode :
       {sim::SwitchingMode::kStoreAndForward,
        sim::SwitchingMode::kWormhole}) {
    const sim::SimResult r =
        engine.run(sim::Pattern::kUniform, fault_sim_config(mode), &mask);
    EXPECT_GT(r.packets_dropped_faulted, 0U) << switching_mode_name(mode);
    EXPECT_GT(r.flits_dropped_faulted, 0U);
    EXPECT_EQ(r.flits_injected,
              r.flits_delivered + r.flits_in_flight +
                  r.flits_dropped_faulted);
    // Packets of the 14 unaffected terminals still flow.
    EXPECT_GT(r.delivered, 0U);
  }
}

TEST(FaultedSimTest, HeavyFaultsDegradeDeliveredFraction) {
  const sim::Engine engine(
      min::build_network(min::NetworkKind::kOmega, 5));
  const FaultMask heavy = fault::build_fault_mask(
      engine.wiring(), FaultSpec{FaultKind::kRandomLinks, 0.3, 11});
  const sim::SimConfig config =
      fault_sim_config(sim::SwitchingMode::kStoreAndForward);
  const sim::SimResult pristine = engine.run(sim::Pattern::kUniform, config);
  const sim::SimResult faulted =
      engine.run(sim::Pattern::kUniform, config, &heavy);
  EXPECT_LT(faulted.delivered, pristine.delivered);
  EXPECT_GT(faulted.packets_dropped_faulted + faulted.packets_rerouted, 0U);
}

TEST(FaultedSimTest, MismatchedMaskGeometryIsRejected) {
  const sim::Engine engine(
      min::build_network(min::NetworkKind::kOmega, 5));
  FaultMask wrong(omega_wiring(4));
  wrong.set(0, 0, 0);
  EXPECT_THROW(
      (void)engine.run(sim::Pattern::kUniform,
                       fault_sim_config(sim::SwitchingMode::kStoreAndForward),
                       &wrong),
      std::invalid_argument);
  EXPECT_THROW(
      (void)engine.run(sim::Pattern::kUniform,
                       fault_sim_config(sim::SwitchingMode::kWormhole),
                       &wrong),
      std::invalid_argument);
}

TEST(FaultedSimTest, WorkspaceReuseIsByteIdentical) {
  const sim::Engine engine(
      min::build_network(min::NetworkKind::kBaseline, 4));
  const FaultMask mask = fault::build_fault_mask(
      engine.wiring(), FaultSpec{FaultKind::kRandomLinks, 0.1, 3});
  sim::SimWorkspace workspace;
  for (const sim::SwitchingMode mode :
       {sim::SwitchingMode::kStoreAndForward,
        sim::SwitchingMode::kWormhole}) {
    const sim::SimConfig config = fault_sim_config(mode);
    const sim::SimResult fresh =
        engine.run(sim::Pattern::kUniform, config, &mask);
    // Second and third runs reuse the same (now dirty) workspace pools.
    const sim::SimResult reused1 =
        engine.run(sim::Pattern::kUniform, config, &mask, &workspace);
    const sim::SimResult reused2 =
        engine.run(sim::Pattern::kUniform, config, &mask, &workspace);
    expect_identical(fresh, reused1);
    expect_identical(fresh, reused2);
  }
}

// ---------------------------------------------------------------------------
// Survivor-topology classification vs explicitly pruned ground truth
// ---------------------------------------------------------------------------

/// Ground-truth path counts over the explicitly rebuilt survivor
/// digraph: adjacency lists with masked arcs removed, plain DP.
std::vector<std::uint64_t> pruned_path_counts(const FlatWiring& w,
                                              const FaultMask& mask,
                                              std::uint32_t source,
                                              std::uint64_t cap) {
  const std::uint32_t cells = w.cells_per_stage();
  std::vector<std::uint64_t> counts(cells, 0);
  counts[source] = 1;
  for (int s = 0; s + 1 < w.stages(); ++s) {
    // Explicit survivor adjacency of this stage.
    std::vector<std::vector<std::uint32_t>> children(cells);
    for (std::uint32_t x = 0; x < cells; ++x) {
      for (unsigned port = 0; port < 2; ++port) {
        if (!mask.faulted(s, x, port)) {
          children[x].push_back(w.child(s, x, port));
        }
      }
    }
    std::vector<std::uint64_t> next(cells, 0);
    for (std::uint32_t x = 0; x < cells; ++x) {
      if (counts[x] == 0) continue;
      for (const std::uint32_t child : children[x]) {
        next[child] = std::min(cap, next[child] + counts[x]);
      }
    }
    counts.swap(next);
  }
  return counts;
}

TEST(ClassifyFaultedTest, EmptyMaskMatchesPristineChecks) {
  for (const min::NetworkKind kind : min::all_network_kinds()) {
    const FlatWiring w =
        FlatWiring::from_digraph(min::build_network(kind, 5));
    const FaultMask empty(w);
    const min::FaultedClassification c = min::classify_faulted(w, empty);
    EXPECT_EQ(c.total_arcs, empty.total_arcs());
    EXPECT_EQ(c.surviving_arcs, empty.total_arcs());
    EXPECT_TRUE(c.full_access);
    EXPECT_EQ(c.banyan, min::is_banyan(w));
    EXPECT_EQ(c.baseline_equivalent, min::is_baseline_equivalent(w));
  }
}

/// Full access and unique surviving paths by the per-source masked DP.
min::SurvivingPaths per_source_survivors(const FlatWiring& w,
                                         const FaultMask& mask) {
  min::SurvivingPaths truth{true, true};
  for (std::uint32_t u = 0; u < w.cells_per_stage(); ++u) {
    for (const std::uint64_t c : min::path_counts_from(w, mask, u, 2)) {
      if (c == 0) truth.full_access = false;
      if (c != 1) truth.unique = false;
    }
  }
  return truth;
}

void expect_classified_like_per_source(const FlatWiring& w,
                                       const FaultMask& mask) {
  const min::SurvivingPaths truth = per_source_survivors(w, mask);
  const min::SurvivingPaths paths = min::surviving_paths(w, mask);
  EXPECT_EQ(paths.full_access, truth.full_access);
  EXPECT_EQ(paths.unique, truth.unique);
  const min::FaultedClassification c = min::classify_faulted(w, mask);
  EXPECT_EQ(c.full_access, truth.full_access);
  EXPECT_EQ(c.banyan, truth.unique);
}

TEST(ClassifyFaultedTest, BatchedSurvivorsMatchPerSourceDp) {
  // Banyans lose full access to almost any fault; Benes fabrics keep it
  // under light faults while their paths stay multiple, so both verdicts
  // get exercised, over several 64-source batches from n = 8 on.
  MINEQ_SEEDED_RNG(rng, 409);
  std::vector<FlatWiring> wirings;
  for (int n = 7; n <= 10; ++n) {
    wirings.push_back(omega_wiring(n));
    wirings.push_back(min::MultiPathWiring::benes(n, 2).wiring());
  }
  wirings.push_back(FlatWiring::from_kary(min::kary_baseline(5, 3)));
  wirings.push_back(min::MultiPathWiring::benes(4, 3).wiring());
  for (const FlatWiring& w : wirings) {
    SCOPED_TRACE("radix " + std::to_string(w.radix()) + ", " +
                 std::to_string(w.cells_per_stage()) + " cells, " +
                 std::to_string(w.stages()) + " stages");
    expect_classified_like_per_source(w, FaultMask(w));
    for (const FaultKind kind :
         {FaultKind::kRandomLinks, FaultKind::kSwitchKills}) {
      for (const double rate : {0.002, 0.02}) {
        expect_classified_like_per_source(
            w, fault::build_fault_mask(w, FaultSpec{kind, rate, rng.next()}));
      }
    }
  }
}

TEST(ClassifyFaultedTest, FaultSeveringOnlyALaterBatchIsSeen) {
  // One dead first-stage arc of source 100 severs only that source's
  // pairs: the first batch (sources 0..63) keeps full access.
  for (const FlatWiring& w :
       {omega_wiring(8), min::MultiPathWiring::benes(8, 2).wiring()}) {
    FaultMask mask(w);
    mask.set(0, 100, 0);
    mask.set(0, 100, 1);
    expect_classified_like_per_source(w, mask);
    EXPECT_FALSE(min::classify_faulted(w, mask).full_access);
  }
}

TEST(ClassifyFaultedTest, MultiplePathsSurviveASingleArcPerLink) {
  // Keep one arc of every dilated link at the last connection: the
  // sinks then get one arc per logical path, and the second paths seen
  // there were formed at earlier stages and carried along.
  const FlatWiring w =
      min::MultiPathWiring::dilated(min::NetworkKind::kOmega, 8, 2, 2)
          .wiring();
  FaultMask mask(w);
  const int s = w.stages() - 2;
  const auto ports = static_cast<unsigned>(w.radix());
  for (std::uint32_t x = 0; x < w.cells_per_stage(); ++x) {
    for (unsigned p = 1; p < ports; ++p) {
      for (unsigned q = 0; q < p; ++q) {
        if (w.child(s, x, q) == w.child(s, x, p)) {
          mask.set(s, x, p);
          break;
        }
      }
    }
  }
  expect_classified_like_per_source(w, mask);
  const min::SurvivingPaths paths = min::surviving_paths(w, mask);
  EXPECT_TRUE(paths.full_access);
  EXPECT_FALSE(paths.unique);
}

TEST(ClassifyFaultedTest, DisjointPlanesHaveNoFullAccess) {
  // A replicated fabric's sources reach only their own plane's sinks:
  // every plane is Banyan, the whole wiring is not.
  const FlatWiring w =
      min::MultiPathWiring::replicated(min::NetworkKind::kOmega, 7, 2, 2)
          .wiring();
  EXPECT_FALSE(min::is_banyan(w));
  EXPECT_FALSE(min::is_banyan(w, 4));
  const min::FaultedClassification c = min::classify_faulted(w, FaultMask(w));
  EXPECT_FALSE(c.full_access);
  EXPECT_FALSE(c.banyan);
  EXPECT_FALSE(c.baseline_equivalent);
}

TEST(ClassifyFaultedTest, AnySingleFaultBreaksFullAccessOfABanyan) {
  const FlatWiring w = omega_wiring(4);
  for (std::size_t arc = 0; arc < 3U * 16U; arc += 5) {
    FaultMask mask(w);
    mask.set_index(arc);
    const min::FaultedClassification c = min::classify_faulted(w, mask);
    EXPECT_FALSE(c.full_access) << "arc " << arc;
    EXPECT_FALSE(c.banyan);
    EXPECT_FALSE(c.baseline_equivalent);
    EXPECT_EQ(c.surviving_arcs, c.total_arcs - 1);
  }
}

TEST(ClassifyFaultedTest, AgreesWithExplicitlyPrunedDigraph) {
  MINEQ_SEEDED_RNG(rng, 401);
  for (int round = 0; round < 20; ++round) {
    const min::NetworkKind kind = min::all_network_kinds()[static_cast<
        std::size_t>(rng.below(min::all_network_kinds().size()))];
    const FlatWiring w =
        FlatWiring::from_digraph(min::build_network(kind, 5));
    const FaultKind fkind =
        round % 3 == 0 ? FaultKind::kRandomLinks
        : round % 3 == 1 ? FaultKind::kSwitchKills
                         : FaultKind::kStageBurst;
    const double rate = 0.02 + 0.03 * static_cast<double>(round % 5);
    const FaultMask mask =
        fault::build_fault_mask(w, FaultSpec{fkind, rate, rng.next()});

    // Masked path counts match the DP over the rebuilt survivor graph.
    bool truth_full_access = true;
    bool truth_banyan = true;
    for (std::uint32_t u = 0; u < w.cells_per_stage(); ++u) {
      const auto expected = pruned_path_counts(w, mask, u, 4);
      EXPECT_EQ(min::path_counts_from(w, mask, u, 4), expected);
      for (const std::uint64_t c : expected) {
        if (c == 0) truth_full_access = false;
        if (c != 1) truth_banyan = false;
      }
    }
    const min::FaultedClassification c = min::classify_faulted(w, mask);
    EXPECT_EQ(c.full_access, truth_full_access);
    EXPECT_EQ(c.banyan, truth_banyan);
    EXPECT_EQ(c.surviving_arcs, mask.surviving_arcs());

    // Masked component counts match a DSU over the explicit survivor
    // arc list.
    const std::uint32_t cells = w.cells_per_stage();
    graph::DSU dsu(static_cast<std::size_t>(w.stages()) * cells);
    for (int s = 0; s + 1 < w.stages(); ++s) {
      for (std::uint32_t x = 0; x < cells; ++x) {
        for (unsigned port = 0; port < 2; ++port) {
          if (mask.faulted(s, x, port)) continue;
          dsu.unite(static_cast<std::size_t>(s) * cells + x,
                    static_cast<std::size_t>(s + 1) * cells +
                        w.child(s, x, port));
        }
      }
    }
    EXPECT_EQ(
        min::component_count_range(w, mask, 0, w.stages() - 1),
        dsu.components());
  }
}

TEST(ClassifyFaultedTest, MaskedComponentCountEqualsUnmaskedOnEmptyMask) {
  const FlatWiring w = omega_wiring(5);
  const FaultMask empty(w);
  for (int lo = 0; lo < w.stages(); ++lo) {
    for (int hi = lo; hi < w.stages(); ++hi) {
      EXPECT_EQ(min::component_count_range(w, empty, lo, hi),
                min::component_count_range(w, lo, hi));
    }
  }
}

// ---------------------------------------------------------------------------
// Configurable burst parameters (SimConfig satellite)
// ---------------------------------------------------------------------------

TEST(BurstParamsTest, ValidationRejectsOutOfRangeProbabilities) {
  EXPECT_NO_THROW(sim::BurstParams{}.validate());
  EXPECT_NO_THROW((sim::BurstParams{1.0, 1.0}).validate());
  EXPECT_THROW((sim::BurstParams{0.0, 0.5}).validate(),
               std::invalid_argument);
  EXPECT_THROW((sim::BurstParams{0.5, -0.1}).validate(),
               std::invalid_argument);
  EXPECT_THROW((sim::BurstParams{1.5, 0.5}).validate(),
               std::invalid_argument);
  sim::SimConfig config;
  config.burst.off_to_on = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(BurstParamsTest, DutyCycleFollowsConfiguredProbabilities) {
  SCOPED_TRACE(test::seed_trace());
  // Duty p_on = off_on / (on_off + off_on): 1/2 here vs the default 1/4.
  sim::BurstModulator fast(256, test::seeded_rng(77),
                           sim::BurstParams{0.25, 0.25});
  std::uint64_t on = 0;
  const int cycles = 2000;
  for (int c = 0; c < cycles; ++c) {
    fast.advance();
    for (std::size_t t = 0; t < 256; ++t) {
      if (fast.on(t)) ++on;
    }
  }
  const double duty =
      static_cast<double>(on) / (256.0 * static_cast<double>(cycles));
  EXPECT_GT(duty, 0.44);
  EXPECT_LT(duty, 0.56);
}

TEST(BurstParamsTest, HigherDutyRaisesOfferedLoad) {
  const sim::Engine engine(
      min::build_network(min::NetworkKind::kOmega, 4));
  sim::SimConfig config =
      fault_sim_config(sim::SwitchingMode::kStoreAndForward);
  const sim::SimResult low = engine.run(sim::Pattern::kBursty, config);
  config.burst = sim::BurstParams{1.0 / 24.0, 1.0 / 8.0};  // duty 3/4
  const sim::SimResult high = engine.run(sim::Pattern::kBursty, config);
  EXPECT_GT(high.offered, low.offered * 2);
}

// ---------------------------------------------------------------------------
// Radix-r faults: the surviving-port scan and partial-port switch faults
// ---------------------------------------------------------------------------

TEST(FaultedWiringTest, SurvivingPortScanPicksExactlyTheOldSiblingAtRadix2) {
  // Regression pin for the `port ^ 1` -> "next surviving port" rewrite:
  // at r = 2 the scan must reproduce the historic sibling semantics on
  // every mask state, so the PR 4 goldens carry over unchanged.
  SCOPED_TRACE(test::seed_trace());
  auto rng = test::seeded_rng(83);
  const FlatWiring w = omega_wiring(5);
  FaultMask mask(w);
  for (std::size_t arc = 0; arc < mask.total_arcs(); ++arc) {
    if (rng.chance(1, 3)) mask.set_index(arc);
  }
  const fault::FaultedWiring view(w, mask);
  for (int s = 0; s + 1 < w.stages(); ++s) {
    for (std::uint32_t x = 0; x < w.cells_per_stage(); ++x) {
      for (unsigned desired = 0; desired < 2; ++desired) {
        // The pre-k-ary formula, verbatim.
        int old_semantics = -1;
        if (!mask.faulted(s, x, desired)) {
          old_semantics = static_cast<int>(desired);
        } else if (!mask.faulted(s, x, desired ^ 1U)) {
          old_semantics = static_cast<int>(desired ^ 1U);
        }
        EXPECT_EQ(view.usable_port(s, x, desired), old_semantics)
            << "s=" << s << " x=" << x << " desired=" << desired;
      }
    }
  }
}

TEST(FaultedWiringTest, SurvivingPortScanWalksAllPortsAtRadix4) {
  const FlatWiring w = FlatWiring::from_kary(min::kary_omega(3, 4));
  FaultMask mask(w);
  // Kill ports 1 and 2 of switch (0, 5): desired 1 detours to 3 (the
  // next survivor past dead 2), desired 2 to 3, desired 0 stays.
  mask.set(0, 5, 1);
  mask.set(0, 5, 2);
  const fault::FaultedWiring view(w, mask);
  EXPECT_EQ(view.usable_port(0, 5, 0), 0);
  EXPECT_EQ(view.usable_port(0, 5, 1), 3);
  EXPECT_EQ(view.usable_port(0, 5, 2), 3);
  EXPECT_EQ(view.usable_port(0, 5, 3), 3);
  EXPECT_FALSE(view.dead_switch(0, 5));
  // The scan wraps: with 2 and 3 dead, desired 2 reaches 0.
  FaultMask wrap_mask(w);
  wrap_mask.set(0, 5, 2);
  wrap_mask.set(0, 5, 3);
  const fault::FaultedWiring wrap_view(w, wrap_mask);
  EXPECT_EQ(wrap_view.usable_port(0, 5, 2), 0);
  // All four dead: the switch is dead and no port is usable.
  FaultMask dead_mask(w);
  for (unsigned port = 0; port < 4; ++port) dead_mask.set(0, 5, port);
  const fault::FaultedWiring dead_view(w, dead_mask);
  EXPECT_TRUE(dead_view.dead_switch(0, 5));
  EXPECT_EQ(dead_view.usable_port(0, 5, 0), -1);
}

TEST(FaultMaskTest, MasksOfDifferentRadixDoNotMatch) {
  const FlatWiring binary = omega_wiring(3);
  const FlatWiring kary = FlatWiring::from_kary(min::kary_omega(2, 4));
  // Same stage count; the radix must still separate the geometries.
  ASSERT_EQ(binary.stages(), 3);
  const FaultMask mask(binary);
  EXPECT_TRUE(mask.matches(binary));
  EXPECT_FALSE(mask.matches(FlatWiring::from_kary(min::kary_omega(3, 3))));
  EXPECT_FALSE(FaultMask(kary).matches(binary));
}

TEST(FaultModelTest, PartialPortFaultsNeverKillASwitch) {
  // The defining property of the model: a hit k x k switch loses
  // j < k out-ports, so degraded routing always finds a survivor.
  for (const int radix : {2, 3, 4}) {
    const FlatWiring w =
        radix == 2 ? omega_wiring(5)
                   : FlatWiring::from_kary(min::kary_omega(3, radix));
    const FaultMask mask = fault::build_fault_mask(
        w, FaultSpec{FaultKind::kPartialPort, 0.5, 9});
    EXPECT_GT(mask.faulted_count(), 0U) << "radix=" << radix;
    const fault::FaultedWiring view(w, mask);
    for (int s = 0; s + 1 < w.stages(); ++s) {
      for (std::uint32_t x = 0; x < w.cells_per_stage(); ++x) {
        EXPECT_FALSE(view.dead_switch(s, x)) << "radix=" << radix;
        for (unsigned desired = 0; desired < static_cast<unsigned>(radix);
             ++desired) {
          EXPECT_GE(view.usable_port(s, x, desired), 0) << "radix=" << radix;
        }
      }
    }
  }
}

TEST(FaultModelTest, PartialPortFaultsAreSeedDeterministicAndRateScaled) {
  const FlatWiring w = FlatWiring::from_kary(min::kary_omega(3, 3));
  const FaultSpec spec{FaultKind::kPartialPort, 0.4, 21};
  EXPECT_EQ(fault::build_fault_mask(w, spec),
            fault::build_fault_mask(w, spec));
  FaultSpec other = spec;
  other.seed = spec.seed + 1;
  EXPECT_NE(fault::build_fault_mask(w, other),
            fault::build_fault_mask(w, spec));
  // Per hit switch at least one and at most radix - 1 arcs are masked.
  const FaultMask mask = fault::build_fault_mask(w, spec);
  std::size_t hit_switches = 0;
  for (int s = 0; s + 1 < w.stages(); ++s) {
    for (std::uint32_t x = 0; x < w.cells_per_stage(); ++x) {
      unsigned masked = 0;
      for (unsigned port = 0; port < 3; ++port) {
        if (mask.faulted(s, x, port)) ++masked;
      }
      EXPECT_LT(masked, 3U);
      if (masked > 0) ++hit_switches;
    }
  }
  // round(0.4 * 18 forwarding switches) = 7.
  EXPECT_EQ(hit_switches, 7U);
}

}  // namespace
}  // namespace mineq
