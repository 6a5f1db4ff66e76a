/// \file multipath_test.cpp
/// \brief The multipath subsystem end to end: fabric construction and
/// geometry, embedded-plane extraction against the paper's equivalence
/// checks, surviving-path diversity, path-diverse routing in both
/// simulation disciplines, fault resilience dominance over the matching
/// unipath banyans, and the sweep-layer fabric axis.

#include "multipath/multipath_wiring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "fault/fault_model.hpp"
#include "min/equivalence.hpp"
#include "min/kary.hpp"
#include "multipath/diversity.hpp"
#include "multipath/looping.hpp"
#include "sim/engine.hpp"
#include "sim/wormhole.hpp"

namespace mineq {
namespace {

using min::MultiPathKind;
using min::MultiPathWiring;
using min::NetworkKind;

// ---------------------------------------------------------------- fabrics

TEST(MultiPathWiringTest, BenesGeometry) {
  const MultiPathWiring fabric = MultiPathWiring::benes(3, 2);
  EXPECT_EQ(fabric.kind(), MultiPathKind::kBenes);
  EXPECT_EQ(fabric.base_kind(), NetworkKind::kBaseline);
  EXPECT_EQ(fabric.wiring().stages(), 5);  // 2n-1 physical stages
  EXPECT_EQ(fabric.wiring().radix(), 2);
  EXPECT_EQ(fabric.logical_terminals(), 8U);
  EXPECT_EQ(fabric.logical_stages(), 3);
  EXPECT_EQ(fabric.paths_available(), 4U);  // r^(n-1)
  EXPECT_EQ(fabric.planes(), 1);
  EXPECT_EQ(fabric.dilation(), 1);
  EXPECT_EQ(fabric.plane_count(), 2);  // front baseline + back mirror
  // Free front half, forced back half: exactly n-1 free connections.
  const std::vector<std::uint8_t> expected_free = {1, 1, 0, 0};
  EXPECT_EQ(fabric.free_stage(), expected_free);
}

TEST(MultiPathWiringTest, DilatedGeometry) {
  const MultiPathWiring fabric =
      MultiPathWiring::dilated(NetworkKind::kOmega, 3, 2, 2);
  EXPECT_EQ(fabric.kind(), MultiPathKind::kDilated);
  EXPECT_EQ(fabric.wiring().stages(), 3);
  EXPECT_EQ(fabric.wiring().radix(), 4);  // r * dilation physical
  EXPECT_EQ(fabric.logical_radix(), 2);
  EXPECT_EQ(fabric.logical_terminals(), 8U);
  EXPECT_EQ(fabric.dilation(), 2);
  EXPECT_EQ(fabric.paths_available(), 4U);  // d^(n-1)
  EXPECT_EQ(fabric.plane_count(), 2);
}

TEST(MultiPathWiringTest, ReplicatedGeometry) {
  const MultiPathWiring fabric =
      MultiPathWiring::replicated(NetworkKind::kOmega, 3, 2, 3);
  EXPECT_EQ(fabric.kind(), MultiPathKind::kReplicated);
  EXPECT_EQ(fabric.wiring().stages(), 3);
  EXPECT_EQ(fabric.wiring().radix(), 2);
  EXPECT_EQ(fabric.wiring().cells_per_stage(), 12U);  // planes * r^(n-1)
  EXPECT_EQ(fabric.logical_terminals(), 8U);
  EXPECT_EQ(fabric.planes(), 3);
  EXPECT_EQ(fabric.paths_available(), 3U);
  EXPECT_EQ(fabric.plane_count(), 3);
}

TEST(MultiPathWiringTest, UnipathWrapAndRejections) {
  const MultiPathWiring fabric =
      MultiPathWiring::unipath(NetworkKind::kOmega, 3, 2);
  EXPECT_EQ(fabric.kind(), MultiPathKind::kUnipath);
  EXPECT_EQ(fabric.paths_available(), 1U);
  EXPECT_EQ(fabric.plane_count(), 1);
  EXPECT_THROW((void)MultiPathWiring::dilated(NetworkKind::kOmega, 3, 2, 1),
               std::invalid_argument);
  EXPECT_THROW((void)MultiPathWiring::dilated(NetworkKind::kOmega, 3, 16, 8),
               std::invalid_argument);  // r*d > 64
  EXPECT_THROW(
      (void)MultiPathWiring::replicated(NetworkKind::kOmega, 3, 2, 1),
      std::invalid_argument);
  EXPECT_THROW((void)MultiPathWiring::benes(1, 2), std::invalid_argument);
}

TEST(MultiPathWiringTest, KindTokensRoundTrip) {
  for (const MultiPathKind kind : min::all_multipath_kinds()) {
    EXPECT_EQ(min::parse_multipath_kind(min::multipath_kind_name(kind)),
              kind);
  }
  try {
    (void)min::parse_multipath_kind("clos-strict");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("valid"), std::string::npos);
    EXPECT_NE(message.find("benes"), std::string::npos);
  }
}

// Every embedded unipath plane of every fabric family passes the paper's
// baseline-equivalence characterization — the multipath fabrics really
// are compositions of baseline-equivalent building blocks.
TEST(MultiPathWiringTest, ExtractedPlanesAreBaselineEquivalent) {
  const MultiPathWiring fabrics[] = {
      MultiPathWiring::benes(3, 2),
      MultiPathWiring::dilated(NetworkKind::kOmega, 3, 2, 2),
      MultiPathWiring::replicated(NetworkKind::kOmega, 3, 2, 3),
      MultiPathWiring::unipath(NetworkKind::kBaseline, 4, 2),
  };
  for (const MultiPathWiring& fabric : fabrics) {
    for (int plane = 0; plane < fabric.plane_count(); ++plane) {
      EXPECT_TRUE(min::is_baseline_equivalent(fabric.unipath_plane(plane)))
          << min::multipath_kind_name(fabric.kind()) << " plane " << plane;
    }
  }
  EXPECT_THROW((void)fabrics[0].unipath_plane(2), std::out_of_range);
}

// ------------------------------------------------------------- diversity

TEST(MultiPathDiversityTest, PristineEqualsPathsAvailable) {
  const MultiPathWiring fabrics[] = {
      MultiPathWiring::benes(3, 2),
      MultiPathWiring::dilated(NetworkKind::kOmega, 3, 2, 2),
      MultiPathWiring::replicated(NetworkKind::kOmega, 3, 2, 3),
      MultiPathWiring::unipath(NetworkKind::kOmega, 3, 2),
  };
  for (const MultiPathWiring& fabric : fabrics) {
    EXPECT_EQ(multipath::min_path_diversity(fabric),
              fabric.paths_available());
  }
}

TEST(MultiPathDiversityTest, MaskedArcsReduceTheFloor) {
  // Dilated d=2: cutting one arc of a dilation group halves the floor of
  // the pairs routed through it; the other arc keeps them connected.
  const MultiPathWiring dilated =
      MultiPathWiring::dilated(NetworkKind::kOmega, 3, 2, 2);
  fault::FaultMask one_arc(dilated.wiring());
  one_arc.set(0, 0, 0);
  EXPECT_EQ(multipath::min_path_diversity(dilated, &one_arc), 2U);

  // A unipath banyan drops to zero as soon as full access is lost.
  const MultiPathWiring unipath =
      MultiPathWiring::unipath(NetworkKind::kOmega, 3, 2);
  fault::FaultMask cut(unipath.wiring());
  cut.set(0, 0, 0);
  EXPECT_EQ(multipath::min_path_diversity(unipath, &cut), 0U);

  // Replicated p=3: killing every stage-0 out-arc of one plane leaves
  // the other two planes.
  const MultiPathWiring replicated =
      MultiPathWiring::replicated(NetworkKind::kOmega, 3, 2, 3);
  fault::FaultMask plane_dead(replicated.wiring());
  for (std::uint32_t x = 0; x < 4; ++x) {  // plane 0 = cells 0..3
    plane_dead.set(0, x, 0);
    plane_dead.set(0, x, 1);
  }
  EXPECT_EQ(multipath::min_path_diversity(replicated, &plane_dead), 2U);
}

// ------------------------------------------------- simulation disciplines

sim::SimConfig quiet_config(double rate) {
  sim::SimConfig config;
  config.injection_rate = rate;
  config.warmup_cycles = 100;
  config.measure_cycles = 500;
  config.seed = 11;
  return config;
}

std::vector<std::uint32_t> reversal_permutation(std::size_t n) {
  std::vector<std::uint32_t> image(n);
  for (std::size_t t = 0; t < n; ++t) {
    image[t] = static_cast<std::uint32_t>(n - 1 - t);
  }
  return image;
}

// The rearrangeable payoff, observed behaviorally: a looping-configured
// Benes sustains a full permutation at rate 1.0 with zero head-of-line
// blocking in BOTH disciplines — every offered packet of the measured
// window is delivered. A blocking path policy (hash) on the same fabric
// and permutation cannot do that.
// Engine::route_port names the first out-port of the destination's route
// group, so following it from any source, in any plane, reaches the
// destination's logical cell in that plane.
TEST(MultiPathSimTest, RoutePortReachesTheDestination) {
  for (const MultiPathWiring& fabric :
       {MultiPathWiring::benes(3, 2), MultiPathWiring::benes(3, 3),
        MultiPathWiring::dilated(NetworkKind::kOmega, 3, 2, 2),
        MultiPathWiring::dilated(NetworkKind::kBaseline, 3, 3, 2),
        MultiPathWiring::replicated(NetworkKind::kOmega, 3, 2, 2)}) {
    const sim::Engine engine{fabric};
    SCOPED_TRACE(min::multipath_kind_name(fabric.kind()) + " radix " +
                 std::to_string(engine.radix()));
    const min::FlatWiring& w = engine.wiring();
    const auto lr = static_cast<std::uint32_t>(engine.logical_radix());
    const int last = w.stages() - 1;
    for (int plane = 0; plane < engine.planes(); ++plane) {
      const std::uint32_t base =
          static_cast<std::uint32_t>(plane) * engine.logical_cells();
      for (std::uint32_t src = 0; src < engine.terminals(); ++src) {
        for (std::uint32_t dest = 0; dest < engine.terminals(); ++dest) {
          std::uint32_t cell = base + src / lr;
          for (int s = 0; s < last; ++s) {
            cell = w.child(s, cell, engine.route_port(s, dest));
          }
          EXPECT_EQ(cell, base + dest / lr)
              << "plane=" << plane << " src=" << src << " dest=" << dest;
          EXPECT_EQ(engine.route_port(last, dest), dest % lr);
        }
      }
    }
  }
}

TEST(MultiPathSimTest, LoopingSaturatesPermutationStoreAndForward) {
  const sim::Engine engine{MultiPathWiring::benes(3, 2)};
  sim::SimConfig config = quiet_config(1.0);
  config.path_policy = sim::PathPolicy::kLooping;
  config.permutation = reversal_permutation(8);
  const sim::SimResult looping =
      engine.run(sim::Pattern::kPermutation, config);
  EXPECT_EQ(looping.offered, 8U * config.measure_cycles);
  EXPECT_EQ(looping.injected, looping.offered);  // never refused at source
  // 100% of the set: everything not still in the 5-stage pipeline at the
  // end of the window was delivered, with zero blocking anywhere.
  EXPECT_EQ(looping.delivered + looping.flits_in_flight, looping.offered);
  EXPECT_EQ(looping.hol_blocking_cycles, 0U);
  EXPECT_EQ(looping.packets_misdelivered, 0U);
  EXPECT_GE(looping.throughput, 0.98);

  config.path_policy = sim::PathPolicy::kHash;
  const sim::SimResult hash = engine.run(sim::Pattern::kPermutation, config);
  EXPECT_LT(hash.throughput, looping.throughput);
  EXPECT_GT(hash.hol_blocking_cycles, 0U);
}

TEST(MultiPathSimTest, LoopingSaturatesPermutationWormhole) {
  const sim::Engine engine{MultiPathWiring::benes(3, 2)};
  const sim::WormholeSimulator wormhole(engine);
  sim::SimConfig config = quiet_config(1.0);
  config.path_policy = sim::PathPolicy::kLooping;
  config.permutation = reversal_permutation(8);
  const sim::SimResult looping =
      wormhole.run(sim::Pattern::kPermutation, config);
  EXPECT_EQ(looping.injected, looping.offered);
  EXPECT_EQ(looping.delivered + looping.flits_in_flight, looping.offered);
  EXPECT_EQ(looping.packets_misdelivered, 0U);
  EXPECT_GE(looping.throughput, 0.98);

  config.path_policy = sim::PathPolicy::kHash;
  const sim::SimResult hash =
      wormhole.run(sim::Pattern::kPermutation, config);
  EXPECT_LT(hash.throughput, looping.throughput);
}

// Hash and adaptive selection deliver uniform traffic on every fabric
// family in both disciplines, with the flit ledger closing exactly.
TEST(MultiPathSimTest, HashAndAdaptiveDeliverUniformTraffic) {
  const MultiPathWiring fabrics[] = {
      MultiPathWiring::benes(3, 2),
      MultiPathWiring::dilated(NetworkKind::kOmega, 3, 2, 2),
      MultiPathWiring::replicated(NetworkKind::kOmega, 3, 2, 3),
  };
  for (const MultiPathWiring& fabric : fabrics) {
    const std::uint64_t paths = fabric.paths_available();
    const sim::Engine engine{fabric};
    const sim::WormholeSimulator wormhole(engine);
    for (const sim::PathPolicy policy :
         {sim::PathPolicy::kHash, sim::PathPolicy::kAdaptive}) {
      sim::SimConfig config = quiet_config(0.4);
      config.packet_length = 2;
      config.path_policy = policy;
      const sim::SimResult saf = engine.run(sim::Pattern::kUniform, config);
      EXPECT_GT(saf.delivered, 0U);
      EXPECT_EQ(saf.paths_available, paths);
      EXPECT_EQ(saf.flits_injected, saf.flits_delivered + saf.flits_in_flight);
      const sim::SimResult worm =
          wormhole.run(sim::Pattern::kUniform, config);
      EXPECT_GT(worm.delivered, 0U);
      EXPECT_EQ(worm.paths_available, paths);
      // Wormhole serialization flits of warmup-boundary packets are
      // counted injected but not delivered (matches the unipath ledger),
      // so the equation closes up to one packet tail per terminal.
      const std::uint64_t accounted =
          worm.flits_delivered + worm.flits_in_flight;
      EXPECT_GE(worm.flits_injected, accounted);
      EXPECT_LE(worm.flits_injected - accounted,
                engine.terminals() * (config.packet_length - 1));
    }
  }
}

// A unipath banyan is the degenerate multipath fabric: one plane,
// dilation 1, every route group a singleton. Wrapped in the multipath
// view it must run exactly like the plain engine over the same banyan —
// as long as no injection is refused, because the multipath injector
// draws the packet before checking the first-stage buffer (its plane
// pick keys on the destination) and a refused attempt discards that
// draw, while the unipath injector checks first.
TEST(MultiPathSimTest, UnipathWrapMatchesPlainEngineWithoutRefusals) {
  const fault::FaultKind fault_kinds[] = {
      fault::FaultKind::kNone, fault::FaultKind::kRandomLinks,
      fault::FaultKind::kSwitchKills, fault::FaultKind::kPartialPort};
  // What the grid must exercise for the comparison to mean anything.
  std::uint64_t reroutes = 0;
  std::uint64_t drops = 0;
  std::uint64_t misdeliveries = 0;
  std::uint64_t masked_arc_stalls = 0;
  for (const auto& [stages, radix] : {std::pair{5, 2}, std::pair{3, 3}}) {
    const sim::Engine plain{
        min::build_kary_network(NetworkKind::kOmega, stages, radix)};
    const sim::Engine wrapped{
        MultiPathWiring::unipath(NetworkKind::kOmega, stages, radix)};
    ASSERT_TRUE(wrapped.multipath());
    for (const fault::FaultKind kind : fault_kinds) {
      fault::FaultSpec spec;
      spec.kind = kind;
      spec.rate = kind == fault::FaultKind::kNone ? 0.0 : 0.1;
      spec.seed = 4;
      const fault::FaultMask mask =
          fault::build_fault_mask(plain.wiring(), spec);
      for (const sim::SwitchingMode mode :
           {sim::SwitchingMode::kStoreAndForward,
            sim::SwitchingMode::kWormhole}) {
        for (const bool obs : {false, true}) {
          for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
            SCOPED_TRACE("radix " + std::to_string(radix) + " fault " +
                         fault::fault_kind_name(kind) + ' ' +
                         sim::switching_mode_name(mode) +
                         (obs ? " obs" : "") + " threads " +
                         std::to_string(threads));
            sim::SimConfig config;
            config.mode = mode;
            config.injection_rate = 0.08;
            config.queue_capacity = 32;
            config.lanes = 8;
            config.lane_depth = 2;
            config.packet_length = 3;
            config.warmup_cycles = 50;
            config.measure_cycles = 300;
            config.seed = 11;
            config.sim_threads = threads;
            if (obs) {
              config.obs.probe_stride = 25;
              config.obs.flow_stats = true;
              config.obs.trace_sample = 3;
            }
            const sim::SimResult a =
                plain.run(sim::Pattern::kUniform, config, &mask);
            const sim::SimResult b =
                wrapped.run(sim::Pattern::kUniform, config, &mask);
            // The premise: no attempt was refused on either side.
            ASSERT_EQ(a.offered, a.injected);
            ASSERT_EQ(b.offered, b.injected);
            EXPECT_EQ(a.offered, b.offered);
            EXPECT_EQ(a.delivered, b.delivered);
            EXPECT_EQ(a.flits_injected, b.flits_injected);
            EXPECT_EQ(a.flits_delivered, b.flits_delivered);
            EXPECT_EQ(a.flits_in_flight, b.flits_in_flight);
            EXPECT_EQ(a.hol_blocking_cycles, b.hol_blocking_cycles);
            EXPECT_EQ(a.path_reroutes, b.path_reroutes);
            EXPECT_EQ(a.packets_rerouted, b.packets_rerouted);
            EXPECT_EQ(a.packets_dropped_faulted, b.packets_dropped_faulted);
            EXPECT_EQ(a.packets_misdelivered, b.packets_misdelivered);
            EXPECT_EQ(a.stall_lost_arbitration, b.stall_lost_arbitration);
            EXPECT_EQ(a.stall_downstream_full, b.stall_downstream_full);
            EXPECT_EQ(a.stall_no_free_lane, b.stall_no_free_lane);
            EXPECT_EQ(a.stall_zero_credits, b.stall_zero_credits);
            EXPECT_EQ(a.stall_masked_arc, b.stall_masked_arc);
            EXPECT_EQ(a.latency.mean(), b.latency.mean());
            EXPECT_EQ(a.latency.max(), b.latency.max());
            EXPECT_EQ(a.latency_histogram.quantile(0.99),
                      b.latency_histogram.quantile(0.99));
            EXPECT_EQ(a.link_utilization, b.link_utilization);
            EXPECT_EQ(a.lane_occupancy.mean(), b.lane_occupancy.mean());
            reroutes += a.packets_rerouted;
            drops += a.packets_dropped_faulted;
            misdeliveries += a.packets_misdelivered;
            masked_arc_stalls += a.stall_masked_arc;
          }
        }
      }
    }
  }
  EXPECT_GT(reroutes, 0U);
  EXPECT_GT(drops, 0U);
  EXPECT_GT(misdeliveries, 0U);
  EXPECT_GT(masked_arc_stalls, 0U);
}

TEST(MultiPathSimTest, RejectsCreditsAndUnconfiguredLooping) {
  const sim::Engine engine{MultiPathWiring::benes(3, 2)};
  const sim::WormholeSimulator wormhole(engine);
  sim::SimConfig credits = quiet_config(0.4);
  credits.credits.enabled = true;
  EXPECT_THROW((void)engine.run(sim::Pattern::kUniform, credits),
               std::invalid_argument);
  EXPECT_THROW((void)wormhole.run(sim::Pattern::kUniform, credits),
               std::invalid_argument);
  // kLooping needs a Benes fabric and a bijection in config.permutation.
  sim::SimConfig looping = quiet_config(0.4);
  looping.path_policy = sim::PathPolicy::kLooping;
  EXPECT_THROW((void)engine.run(sim::Pattern::kUniform, looping),
               std::invalid_argument);
  const sim::Engine dilated{
      MultiPathWiring::dilated(NetworkKind::kOmega, 3, 2, 2)};
  looping.permutation = reversal_permutation(8);
  EXPECT_THROW((void)dilated.run(sim::Pattern::kUniform, looping),
               std::invalid_argument);
}

// ------------------------------------------------- resilience dominance

// The committed resilience comparison of the issue: under the same
// seeded link-fault axis, the multipath fabrics' delivered fraction
// strictly dominates the matching unipath banyans' (dilated-omega vs
// omega, Benes vs baseline) in both disciplines.
TEST(MultiPathResilienceTest, FabricsDominateUnipathUnderLinkFaults) {
  exp::SweepGrid grid;
  grid.networks = {NetworkKind::kOmega, NetworkKind::kBaseline};
  grid.patterns = {sim::Pattern::kUniform};
  grid.modes = {sim::SwitchingMode::kStoreAndForward,
                sim::SwitchingMode::kWormhole};
  grid.lane_counts = {1};
  grid.rates = {0.5};
  grid.stages = 4;
  grid.fabrics = {
      {MultiPathKind::kDilated, NetworkKind::kOmega, 2},
      {MultiPathKind::kBenes, NetworkKind::kOmega, 2},
  };
  grid.path_policies = {sim::PathPolicy::kAdaptive};
  fault::FaultSpec faults;
  faults.kind = fault::FaultKind::kRandomLinks;
  faults.rate = 0.05;
  faults.seed = 5;
  grid.faults = {faults};
  grid.base.warmup_cycles = 100;
  grid.base.measure_cycles = 600;
  grid.base.seed = 21;
  const exp::SweepResult sweep = run_sweep(grid, 2);
  ASSERT_EQ(sweep.points.size(), grid.size());

  const auto fraction = [&sweep](MultiPathKind fabric, NetworkKind network,
                                 sim::SwitchingMode mode) {
    for (const exp::SweepPoint& p : sweep.points) {
      if (p.fabric == fabric && p.network == network && p.mode == mode) {
        return p.result.delivered_fraction();
      }
    }
    ADD_FAILURE() << "missing grid point";
    return -1.0;
  };
  for (const sim::SwitchingMode mode :
       {sim::SwitchingMode::kStoreAndForward,
        sim::SwitchingMode::kWormhole}) {
    EXPECT_GT(fraction(MultiPathKind::kDilated, NetworkKind::kOmega, mode),
              fraction(MultiPathKind::kUnipath, NetworkKind::kOmega, mode));
    EXPECT_GT(fraction(MultiPathKind::kBenes, NetworkKind::kBaseline, mode),
              fraction(MultiPathKind::kUnipath, NetworkKind::kBaseline, mode));
  }
  // The structural column agrees: multipath points keep a positive
  // surviving-path floor where the unipath banyans lost full access.
  for (const exp::SweepPoint& p : sweep.points) {
    if (p.fabric != MultiPathKind::kUnipath) {
      EXPECT_GT(p.min_path_diversity, 0U);
      EXPECT_GT(p.result.paths_available, 1U);
    } else {
      EXPECT_EQ(p.min_path_diversity, p.survivor.full_access ? 1U : 0U);
    }
  }
}

// --------------------------------------------------------- sweep fabric axis

exp::SweepGrid fabric_grid() {
  exp::SweepGrid grid;
  grid.networks = {NetworkKind::kOmega};
  grid.patterns = {sim::Pattern::kUniform};
  grid.modes = {sim::SwitchingMode::kStoreAndForward,
                sim::SwitchingMode::kWormhole};
  grid.lane_counts = {1};
  grid.rates = {0.3, 0.8};
  grid.stages = 3;
  grid.fabrics = {{MultiPathKind::kDilated, NetworkKind::kOmega, 2}};
  grid.path_policies = {sim::PathPolicy::kHash, sim::PathPolicy::kAdaptive};
  grid.base.warmup_cycles = 50;
  grid.base.measure_cycles = 200;
  grid.base.seed = 3;
  return grid;
}

TEST(MultiPathSweepTest, FabricAxisExtendsSizeAndTagsPoints) {
  exp::SweepGrid grid = fabric_grid();
  // 1 network * 1 pattern * (saf + wormhole) * 2 rates = 4 unipath
  // points; 1 fabric * 2 policies * 2 modes * 2 rates = 8 fabric points.
  EXPECT_EQ(grid.size(), 4U + 8U);
  const exp::SweepResult sweep = run_sweep(grid, 2);
  ASSERT_EQ(sweep.points.size(), 12U);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(sweep.points[i].fabric, MultiPathKind::kUnipath);
    EXPECT_EQ(sweep.points[i].paths, 1);
  }
  for (std::size_t i = 4; i < 12; ++i) {
    EXPECT_EQ(sweep.points[i].fabric, MultiPathKind::kDilated);
    EXPECT_EQ(sweep.points[i].paths, 2);
    EXPECT_EQ(sweep.points[i].result.paths_available, 4U);
    EXPECT_FALSE(sweep.points[i].credits.enabled);  // credit axis skipped
    // Pristine survivor columns: full access, but parallel arcs.
    EXPECT_TRUE(sweep.points[i].survivor.full_access);
    EXPECT_FALSE(sweep.points[i].survivor.banyan);
  }
  // Full access is judged per physical cell pair: a replicated fabric's
  // disjoint planes never have it, while every logical pair keeps p paths.
  grid.networks.clear();
  grid.fabrics = {{MultiPathKind::kReplicated, NetworkKind::kOmega, 2}};
  for (const exp::SweepPoint& p : run_sweep(grid, 2).points) {
    EXPECT_EQ(p.fault.kind, fault::FaultKind::kNone);
    EXPECT_FALSE(p.survivor.full_access);
    EXPECT_FALSE(p.survivor.banyan);
    EXPECT_EQ(p.min_path_diversity, 2U);
  }
}

// Adding the fabric axis must not perturb a single byte of the unipath
// prefix — same tasks, same derived seeds, same rendered rows.
TEST(MultiPathSweepTest, UnipathPrefixIsByteIdentical) {
  exp::SweepGrid with_fabrics = fabric_grid();
  exp::SweepGrid without = with_fabrics;
  without.fabrics.clear();
  const std::string base_csv = exp::sweep_csv(run_sweep(without, 2));
  const std::string full_csv = exp::sweep_csv(run_sweep(with_fabrics, 2));
  EXPECT_EQ(full_csv.substr(0, base_csv.size()), base_csv);
  EXPECT_GT(full_csv.size(), base_csv.size());
}

TEST(MultiPathSweepTest, ThreadCountInvariantWithFabrics) {
  const exp::SweepGrid grid = fabric_grid();
  const std::string csv = exp::sweep_csv(run_sweep(grid, 1));
  EXPECT_EQ(exp::sweep_csv(run_sweep(grid, 4)), csv);
  EXPECT_NE(csv.find("min_path_diversity"), std::string::npos);
}

TEST(MultiPathSweepTest, ValidatesFabricAxis) {
  exp::SweepGrid grid = fabric_grid();
  grid.fabrics = {{MultiPathKind::kUnipath, NetworkKind::kOmega, 2}};
  EXPECT_THROW((void)run_sweep(grid, 1), std::invalid_argument);
  grid = fabric_grid();
  grid.path_policies = {sim::PathPolicy::kLooping};
  EXPECT_THROW((void)run_sweep(grid, 1), std::invalid_argument);
  grid = fabric_grid();
  grid.fabrics = {{MultiPathKind::kDilated, NetworkKind::kOmega, 64}};
  EXPECT_THROW((void)run_sweep(grid, 1), std::invalid_argument);
  // A fabric-only sweep (empty networks axis) is legal.
  grid = fabric_grid();
  grid.networks.clear();
  const exp::SweepResult sweep = run_sweep(grid, 2);
  EXPECT_EQ(sweep.points.size(), 8U);
}

// ------------------------------------------- registry-driven diagnostics

TEST(MultiPathParseTest, RejectionMessagesEnumerateValidTokens) {
  try {
    (void)min::parse_network_kind("hypercube");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("valid:"), std::string::npos);
    EXPECT_NE(message.find("omega"), std::string::npos);
    EXPECT_NE(message.find("revbaseline"), std::string::npos);
  }
  try {
    (void)sim::parse_pattern("zipf");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("valid:"), std::string::npos);
    EXPECT_NE(message.find("uniform"), std::string::npos);
  }
  try {
    (void)sim::parse_path_policy("random");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("valid"), std::string::npos);
    EXPECT_NE(message.find("adaptive"), std::string::npos);
  }
}

}  // namespace
}  // namespace mineq
