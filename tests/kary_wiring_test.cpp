/// \file kary_wiring_test.cpp
/// \brief The radix-r FlatWiring IR and everything stacked on it: record
/// agreement with the table-built KaryMIDigraph, verdict agreement
/// between the digraph DP and the packed bitset/DSU paths, destination-
/// digit schedules, the k-ary simulators (flit-ledger conservation at
/// r = 3), and the packed-record capacity guard.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "fault/fault_model.hpp"
#include "min/banyan.hpp"
#include "min/equivalence.hpp"
#include "min/flat_wiring.hpp"
#include "min/kary.hpp"
#include "min/networks.hpp"
#include "min/properties.hpp"
#include "min/routing.hpp"
#include "sim/engine.hpp"
#include "test_seed.hpp"

namespace mineq {
namespace {

using min::FlatWiring;
using min::KaryConnection;
using min::KaryMIDigraph;
using min::NetworkKind;

std::vector<KaryMIDigraph> classical_kary_networks(int stages, int radix) {
  return {min::kary_omega(stages, radix), min::kary_flip(stages, radix),
          min::kary_baseline(stages, radix)};
}

// ---------------------------------------------------------------------------
// from_kary: record-for-record agreement with the connection tables
// ---------------------------------------------------------------------------

TEST(KaryWiringTest, FromKaryMatchesConnectionTablesRecordForRecord) {
  SCOPED_TRACE(mineq::test::seed_trace());
  auto rng = mineq::test::seeded_rng(41);
  for (int radix : {3, 4, 5}) {
    const int stages = 3;
    std::vector<KaryConnection> connections;
    for (int s = 0; s + 1 < stages; ++s) {
      connections.push_back(
          KaryConnection::random_valid(radix, stages - 1, rng));
    }
    const KaryMIDigraph g(stages, radix, std::move(connections));
    const FlatWiring w = FlatWiring::from_kary(g);
    ASSERT_EQ(w.stages(), stages);
    ASSERT_EQ(w.radix(), radix);
    ASSERT_EQ(w.cells_per_stage(), g.cells_per_stage());
    ASSERT_EQ(w.links_per_stage(),
              static_cast<std::size_t>(radix) * g.cells_per_stage());
    for (int s = 0; s + 1 < stages; ++s) {
      // Children match the tables; each child receives exactly one arc
      // per input slot, in deterministic (source, port) fill order, and
      // the up records invert the down records arc for arc.
      std::vector<std::vector<int>> seen(
          g.cells_per_stage(), std::vector<int>(radix, 0));
      for (std::uint32_t x = 0; x < g.cells_per_stage(); ++x) {
        for (unsigned t = 0; t < static_cast<unsigned>(radix); ++t) {
          EXPECT_EQ(w.child(s, x, t), g.connection(s).table(t)[x]);
          const std::uint32_t child = w.child(s, x, t);
          const unsigned slot = w.slot(s, x, t);
          ++seen[child][slot];
          EXPECT_EQ(w.parent(s, child, slot), x);
          EXPECT_EQ(w.parent_port(s, child, slot), t);
        }
      }
      for (std::uint32_t y = 0; y < g.cells_per_stage(); ++y) {
        for (int slot = 0; slot < radix; ++slot) {
          EXPECT_EQ(seen[y][static_cast<std::size_t>(slot)], 1)
              << "radix=" << radix << " s=" << s << " y=" << y;
        }
      }
    }
  }
}

TEST(KaryWiringTest, Radix2KaryConstructionsEqualBinaryWirings) {
  // The radix-2 packing is bit-for-bit the historic one, so the k-ary
  // constructions at r = 2 must flatten to the exact binary wirings —
  // operator== compares the record arrays.
  for (int n : {2, 3, 5}) {
    for (const NetworkKind kind :
         {NetworkKind::kOmega, NetworkKind::kFlip, NetworkKind::kBaseline}) {
      const FlatWiring via_kary =
          FlatWiring::from_kary(min::build_kary_network(kind, n, 2));
      const FlatWiring via_binary =
          FlatWiring::from_digraph(min::build_network(kind, n));
      EXPECT_EQ(via_kary, via_binary) << min::network_name(kind) << " n=" << n;
    }
  }
}

TEST(KaryWiringTest, FromKaryRejectsInvalidStages) {
  // A connection whose tables all map to cell 0 has in-degree radix^2 at
  // cell 0 — unrepresentable.
  std::vector<std::vector<std::uint32_t>> tables(
      3, std::vector<std::uint32_t>(3, 0));
  const KaryConnection bad(std::move(tables), 3, 1);
  ASSERT_FALSE(bad.is_valid_stage());
  const KaryMIDigraph g(2, 3, {bad});
  EXPECT_THROW((void)FlatWiring::from_kary(g), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Verdict agreement: digraph table DP vs the packed bitset/DSU paths
// ---------------------------------------------------------------------------

TEST(KaryWiringTest, BanyanAndPropertyVerdictsMatchDigraphImplementations) {
  SCOPED_TRACE(mineq::test::seed_trace());
  auto rng = mineq::test::seeded_rng(43);
  for (int radix : {3, 4}) {
    // 81 and 243 cells at radix 3 leave the Banyan check's last batch of
    // 64 sources partly empty; 256 cells at radix 4 fill four batches.
    for (int stages : {2, 3, 4, 5, 6}) {
      if (radix == 4 && stages == 6) continue;  // keep the suite fast
      std::vector<KaryMIDigraph> candidates =
          classical_kary_networks(stages, radix);
      // Random valid stages are usually non-Banyan, random aligned
      // independent ones usually Banyan: both verdicts get exercised.
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<KaryConnection> connections;
        for (int s = 0; s + 1 < stages; ++s) {
          connections.push_back(
              trial % 2 == 0
                  ? KaryConnection::random_valid(radix, stages - 1, rng)
                  : KaryConnection::random_independent_aligned(
                        radix, stages - 1, rng));
        }
        candidates.emplace_back(stages, radix, std::move(connections));
      }
      for (const KaryMIDigraph& g : candidates) {
        const FlatWiring w = FlatWiring::from_kary(g);
        EXPECT_EQ(min::is_banyan(w), min::kary_is_banyan(g));
        EXPECT_EQ(min::is_banyan(w, /*threads=*/4), min::kary_is_banyan(g));
        EXPECT_EQ(min::satisfies_p1_star(w), min::kary_satisfies_p1_star(g));
        EXPECT_EQ(min::satisfies_p_star_n(w),
                  min::kary_satisfies_p_star_n(g));
        EXPECT_EQ(min::is_baseline_equivalent(w),
                  min::kary_is_baseline_equivalent(g));
        for (int lo = 0; lo < stages; ++lo) {
          EXPECT_EQ(min::component_count_range(w, lo, stages - 1),
                    min::kary_component_count_range(g, lo, stages - 1));
        }
      }
    }
  }
}

TEST(KaryWiringTest, PathCountsSeparateBanyanFromMultipath) {
  // On a Banyan kary fabric every (source, sink) pair has exactly one
  // path; the capped DP over the packed records must see all ones.
  const KaryMIDigraph g = min::kary_omega(3, 3);
  const FlatWiring w = FlatWiring::from_kary(g);
  ASSERT_TRUE(min::kary_is_banyan(g));
  for (std::uint32_t source = 0; source < w.cells_per_stage(); ++source) {
    const auto counts = min::path_counts_from(w, source, /*cap=*/2);
    for (const std::uint64_t c : counts) EXPECT_EQ(c, 1U);
  }
}

// ---------------------------------------------------------------------------
// Destination-digit schedules
// ---------------------------------------------------------------------------

TEST(DigitScheduleTest, ClassicalKaryNetworksAreDigitRoutable) {
  for (int radix : {3, 4}) {
    for (int stages : {2, 3, 4}) {
      for (const KaryMIDigraph& g : classical_kary_networks(stages, radix)) {
        const FlatWiring w = FlatWiring::from_kary(g);
        const auto schedule = min::find_digit_schedule(w);
        ASSERT_TRUE(schedule.has_value())
            << "radix=" << radix << " stages=" << stages;
        EXPECT_EQ(schedule->radix, radix);
        EXPECT_EQ(schedule->digit.size(),
                  static_cast<std::size_t>(stages - 1));
        EXPECT_TRUE(min::verify_digit_schedule(w, *schedule));
        // Every per-stage value map is a bijection of {0..r-1}.
        for (const auto& map : schedule->port_of_value) {
          std::vector<int> seen(static_cast<std::size_t>(radix), 0);
          for (const unsigned port : map) {
            ASSERT_LT(port, static_cast<unsigned>(radix));
            ++seen[port];
          }
          for (const int count : seen) EXPECT_EQ(count, 1);
        }
      }
    }
  }
}

TEST(DigitScheduleTest, BinaryWiringsAreDigitRoutableToo) {
  // The r = 2 instance of the digit machinery must agree with the
  // engine's historic bit schedules: same networks, same routability.
  for (const NetworkKind kind : min::all_network_kinds()) {
    const FlatWiring w =
        FlatWiring::from_digraph(min::build_network(kind, 4));
    const auto schedule = min::find_digit_schedule(w);
    ASSERT_TRUE(schedule.has_value()) << min::network_name(kind);
    EXPECT_TRUE(min::verify_digit_schedule(w, *schedule));
  }
}

TEST(DigitScheduleTest, RejectsFabricsWithoutFullAccess) {
  // The degenerate double-link PIPID network (Fig. 5) reaches only a
  // fraction of the sinks from each source: no schedule.
  const int n = 4;
  const std::vector<perm::IndexPermutation> pipids(
      static_cast<std::size_t>(n - 1), perm::IndexPermutation::identity(n));
  const FlatWiring w = FlatWiring::from_pipids(pipids);
  EXPECT_FALSE(min::find_digit_schedule(w).has_value());
}

// ---------------------------------------------------------------------------
// The k-ary engine
// ---------------------------------------------------------------------------

/// route_port delivers every (source, destination) pair from the one
/// digit schedule every engine holds: at radix 3, and at radix 2 from the
/// MIDigraph constructor and from KaryMIDigraphs with and without an
/// attached schedule.
TEST(KaryEngineTest, RoutePortDeliversEveryPairAtRadix3) {
  const sim::Engine ternary(min::kary_baseline(3, 3));
  EXPECT_EQ(ternary.radix(), 3);
  EXPECT_EQ(ternary.terminals(), 27U);
  const sim::Engine binary(min::build_network(NetworkKind::kOmega, 4));
  const sim::Engine binary_kary(min::kary_flip(4, 2));
  // The same radix-2 tables without the construction's schedule take
  // the recovery path instead of adoption.
  const KaryMIDigraph built = min::kary_baseline(4, 2);
  std::vector<KaryConnection> connections;
  for (int s = 0; s + 1 < built.stages(); ++s) {
    connections.push_back(built.connection(s));
  }
  const sim::Engine binary_bare(KaryMIDigraph(4, 2, std::move(connections)));
  for (const sim::Engine* engine :
       {&ternary, &binary, &binary_kary, &binary_bare}) {
    const FlatWiring& w = engine->wiring();
    const auto r = static_cast<std::uint32_t>(engine->radix());
    SCOPED_TRACE("radix " + std::to_string(r));
    EXPECT_EQ(engine->schedule().digit.size(),
              static_cast<std::size_t>(w.stages() - 1));
    for (std::uint32_t src = 0; src < engine->terminals(); ++src) {
      for (std::uint32_t dest = 0; dest < engine->terminals(); ++dest) {
        std::uint32_t cell = src / r;
        for (int s = 0; s + 1 < w.stages(); ++s) {
          cell = w.child(s, cell, engine->route_port(s, dest));
        }
        EXPECT_EQ(cell, dest / r) << "src=" << src << " dest=" << dest;
        EXPECT_EQ(engine->route_port(w.stages() - 1, dest), dest % r);
      }
    }
  }
}

TEST(KaryEngineTest, Radix2KaryEngineMatchesBinaryEngineExactly) {
  // A radix-2 KaryMIDigraph flattens to the same wiring and schedule as
  // the MIDigraph constructor; its runs must be byte-identical.
  const sim::Engine kary(min::kary_omega(5, 2));
  const sim::Engine binary(min::build_network(NetworkKind::kOmega, 5));
  EXPECT_EQ(kary.wiring(), binary.wiring());
  sim::SimConfig config;
  config.injection_rate = 0.6;
  config.packet_length = 2;
  config.warmup_cycles = 50;
  config.measure_cycles = 300;
  config.seed = 11;
  for (const sim::SwitchingMode mode :
       {sim::SwitchingMode::kStoreAndForward, sim::SwitchingMode::kWormhole}) {
    config.mode = mode;
    const sim::SimResult a = kary.run(sim::Pattern::kUniform, config);
    const sim::SimResult b = binary.run(sim::Pattern::kUniform, config);
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.flits_injected, b.flits_injected);
    EXPECT_EQ(a.hol_blocking_cycles, b.hol_blocking_cycles);
    EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
  }
}

TEST(KaryEngineTest, FlitLedgerClosesAtRadix3BothDisciplines) {
  // warmup 0 makes conservation exact: every flit ever injected is
  // delivered, still buffered, or (with faults) dropped at a fault.
  const sim::Engine engine(min::kary_omega(3, 3));
  sim::SimConfig config;
  config.injection_rate = 0.7;
  config.packet_length = 3;
  config.warmup_cycles = 0;
  config.measure_cycles = 400;
  config.seed = 5;
  config.lanes = 2;
  for (const sim::SwitchingMode mode :
       {sim::SwitchingMode::kStoreAndForward, sim::SwitchingMode::kWormhole}) {
    config.mode = mode;
    for (const sim::Pattern pattern :
         {sim::Pattern::kUniform, sim::Pattern::kComplement,
          sim::Pattern::kBitReversal, sim::Pattern::kHotSpot,
          sim::Pattern::kBursty}) {
      const sim::SimResult r = engine.run(pattern, config);
      EXPECT_GT(r.delivered, 0U)
          << switching_mode_name(mode) << " " << pattern_name(pattern);
      EXPECT_EQ(r.flits_injected, r.flits_delivered + r.flits_in_flight)
          << switching_mode_name(mode) << " " << pattern_name(pattern);
      EXPECT_EQ(r.packets_misdelivered, 0U);
    }
  }
}

TEST(KaryEngineTest, ShuffleAndTransposePatternsRunAtRadix4) {
  // Digit-wise pattern transforms must stay inside the terminal space
  // (transpose needs the even digit count stages = 4 provides).
  const sim::Engine engine(min::kary_baseline(4, 4));
  sim::SimConfig config;
  config.injection_rate = 0.4;
  config.warmup_cycles = 0;
  config.measure_cycles = 200;
  for (const sim::Pattern pattern :
       {sim::Pattern::kShuffle, sim::Pattern::kTranspose}) {
    const sim::SimResult r = engine.run(pattern, config);
    EXPECT_GT(r.delivered, 0U);
    EXPECT_EQ(r.flits_injected, r.flits_delivered + r.flits_in_flight);
  }
}

TEST(KaryEngineTest, FaultConservationAtRadix3UnderAllKinds) {
  // The acceptance ledger: a full {kind x mode} cross at r = 3 closes
  // flit conservation exactly (warmup 0) with every fault kind,
  // including the new partial-port model.
  const sim::Engine engine(min::kary_omega(3, 3));
  sim::SimConfig config;
  config.injection_rate = 0.6;
  config.packet_length = 2;
  config.warmup_cycles = 0;
  config.measure_cycles = 300;
  config.seed = 17;
  for (const fault::FaultKind kind : fault::all_fault_kinds()) {
    const double rate = kind == fault::FaultKind::kNone ? 0.0 : 0.2;
    const fault::FaultMask mask = fault::build_fault_mask(
        engine.wiring(), fault::FaultSpec{kind, rate, 7});
    for (const sim::SwitchingMode mode :
         {sim::SwitchingMode::kStoreAndForward,
          sim::SwitchingMode::kWormhole}) {
      config.mode = mode;
      const sim::SimResult r =
          engine.run(sim::Pattern::kUniform, config, &mask);
      EXPECT_EQ(r.flits_injected, r.flits_delivered + r.flits_in_flight +
                                      r.flits_dropped_faulted)
          << fault::fault_kind_name(kind) << " " << switching_mode_name(mode);
      if (kind == fault::FaultKind::kNone) {
        EXPECT_EQ(r.packets_rerouted, 0U);
        EXPECT_EQ(r.flits_dropped_faulted, 0U);
      }
      if (kind == fault::FaultKind::kPartialPort && !mask.none()) {
        // Partial-port switches keep routing: detours, never drops.
        EXPECT_GT(r.packets_rerouted, 0U);
        EXPECT_EQ(r.packets_dropped_faulted, 0U);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sweep integration at radix > 2 (grid-level tests live in sweep_test)
// ---------------------------------------------------------------------------

TEST(KaryWiringTest, ClassifyFaultedWorksOnKaryWirings) {
  const FlatWiring w = FlatWiring::from_kary(min::kary_baseline(3, 3));
  const fault::FaultMask pristine(w);
  const min::FaultedClassification intact = min::classify_faulted(w, pristine);
  EXPECT_TRUE(intact.full_access);
  EXPECT_TRUE(intact.banyan);
  EXPECT_TRUE(intact.baseline_equivalent);
  EXPECT_EQ(intact.surviving_arcs, intact.total_arcs);

  fault::FaultMask masked(w);
  masked.set(0, 0, 0);
  const min::FaultedClassification degraded = min::classify_faulted(w, masked);
  // Removing any arc from a Banyan fabric severs some pair.
  EXPECT_FALSE(degraded.full_access);
  EXPECT_FALSE(degraded.baseline_equivalent);
  EXPECT_EQ(degraded.surviving_arcs, degraded.total_arcs - 1);
}

// ---------------------------------------------------------------------------
// Packed-record capacity and the packing helpers
// ---------------------------------------------------------------------------

TEST(FlatWiringCapacityTest, RejectsGeometriesThatOverflowPackedRecords) {
  // cells * radix == 2^32 still fits (max record 2^32 - 1)...
  EXPECT_NO_THROW(
      FlatWiring::check_geometry(2, std::uint64_t{1} << 30, 4));
  // ...one cell more overflows, long before memory limits would bite.
  EXPECT_THROW(
      FlatWiring::check_geometry(2, (std::uint64_t{1} << 30) + 1, 4),
      std::invalid_argument);
  EXPECT_THROW(
      FlatWiring::check_geometry(2, (std::uint64_t{1} << 31) + 1, 2),
      std::invalid_argument);
  EXPECT_THROW(FlatWiring::check_geometry(2, 8, 1), std::invalid_argument);
  EXPECT_THROW(FlatWiring::check_geometry(2, 8, 65), std::invalid_argument);
  EXPECT_THROW(FlatWiring::check_geometry(0, 8, 2), std::invalid_argument);
  EXPECT_NO_THROW(FlatWiring::check_geometry(5, 16, 2));
}

TEST(FlatWiringCapacityTest, PackingHelpersRoundTripAtEveryRadix) {
  for (const unsigned radix : {2U, 3U, 5U, 16U}) {
    for (std::uint32_t cell : {0U, 1U, 7U, 1000U}) {
      for (unsigned slot = 0; slot < radix; ++slot) {
        const std::uint32_t record =
            FlatWiring::pack_record(cell, slot, radix);
        EXPECT_EQ(FlatWiring::unpack_cell(record, radix), cell);
        EXPECT_EQ(FlatWiring::unpack_slot(record, radix), slot);
      }
    }
  }
  // The member forms agree with the wiring's own radix, and the record
  // value doubles as the downstream port-slot index (the identity the
  // simulators rely on).
  const FlatWiring w = FlatWiring::from_kary(min::kary_omega(3, 3));
  const auto down = w.down_stage(0);
  for (std::size_t i = 0; i < down.size(); ++i) {
    EXPECT_EQ(FlatWiring::pack_record(w.unpack_cell(down[i]),
                                      w.unpack_slot(down[i]), 3),
              down[i]);
  }
}

}  // namespace
}  // namespace mineq
