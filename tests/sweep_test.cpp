/// \file sweep_test.cpp
/// \brief The experiment-sweep subsystem: grid enumeration, validation,
/// thread-count invariance of the rendered CSV/JSON, and emitter shape.

#include "exp/sweep.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>

#include "exp/report.hpp"

namespace mineq::exp {
namespace {

SweepGrid small_grid() {
  SweepGrid grid;
  grid.networks = {min::NetworkKind::kOmega, min::NetworkKind::kBaseline};
  grid.patterns = {sim::Pattern::kUniform, sim::Pattern::kComplement};
  grid.modes = {sim::SwitchingMode::kStoreAndForward,
                sim::SwitchingMode::kWormhole};
  grid.lane_counts = {1, 2};
  grid.rates = {0.2, 1.0};
  grid.stages = 4;
  grid.base.packet_length = 3;
  grid.base.warmup_cycles = 50;
  grid.base.measure_cycles = 300;
  grid.base.seed = 7;
  return grid;
}

TEST(SweepTest, GridSizeIsAxisProduct) {
  const SweepGrid grid = small_grid();
  // saf contributes one lane variant, wormhole the full lane axis:
  // 2 networks * 2 patterns * (1 + 2) mode-lane variants * 2 rates.
  EXPECT_EQ(grid.size(), 2U * 2U * 3U * 2U);
  const SweepResult sweep = run_sweep(grid, 2);
  EXPECT_EQ(sweep.points.size(), grid.size());
}

TEST(SweepTest, StoreAndForwardCollapsesLaneAxis) {
  const SweepResult sweep = run_sweep(small_grid(), 2);
  std::size_t saf_points = 0;
  for (const SweepPoint& point : sweep.points) {
    if (point.mode == sim::SwitchingMode::kStoreAndForward) {
      ++saf_points;
      EXPECT_EQ(point.lanes, 1U);  // recorded with the first lane count
    }
  }
  // One saf point per (network, pattern, rate) — the lane axis is gone.
  EXPECT_EQ(saf_points, 2U * 2U * 2U);
}

TEST(SweepTest, EnumerationOrderIsRateInnermost) {
  const SweepGrid grid = small_grid();
  const SweepResult sweep = run_sweep(grid, 2);
  // First two points: same everything except the rate axis.
  EXPECT_EQ(sweep.points[0].network, min::NetworkKind::kOmega);
  EXPECT_DOUBLE_EQ(sweep.points[0].rate, 0.2);
  EXPECT_DOUBLE_EQ(sweep.points[1].rate, 1.0);
  EXPECT_EQ(sweep.points[0].lanes, sweep.points[1].lanes);
  // Network-major: the second half of the grid is Baseline.
  EXPECT_EQ(sweep.points[grid.size() / 2].network,
            min::NetworkKind::kBaseline);
}

TEST(SweepTest, ByteIdenticalAcrossThreadCounts) {
  // All thread counts share one Engine (and one min::FlatWiring) per
  // network; the rendered text must not depend on how the grid points
  // were scheduled over it.
  const SweepGrid grid = small_grid();
  const SweepResult serial = run_sweep(grid, 1);
  const SweepResult two = run_sweep(grid, 2);
  const SweepResult parallel = run_sweep(grid, 5);
  EXPECT_EQ(sweep_csv(serial), sweep_csv(two));
  EXPECT_EQ(sweep_csv(serial), sweep_csv(parallel));
  EXPECT_EQ(sweep_json(serial), sweep_json(two));
  EXPECT_EQ(sweep_json(serial), sweep_json(parallel));
}

TEST(SweepTest, BurstyPatternSweepsAndInjectsLessThanUniform) {
  SweepGrid grid = small_grid();
  grid.patterns = {sim::Pattern::kUniform, sim::Pattern::kBursty};
  grid.modes = {sim::SwitchingMode::kStoreAndForward,
                sim::SwitchingMode::kWormhole};
  grid.rates = {0.8};
  const SweepResult sweep = run_sweep(grid, 2);
  std::uint64_t uniform_offered = 0;
  std::uint64_t bursty_offered = 0;
  for (const SweepPoint& point : sweep.points) {
    if (point.pattern == sim::Pattern::kUniform) {
      uniform_offered += point.result.offered;
    } else {
      bursty_offered += point.result.offered;
      EXPECT_GT(point.result.delivered, 0U);
    }
  }
  // OFF terminals make no injection attempts: at duty 1/4 the bursty
  // offered load must sit well below the always-on uniform load.
  EXPECT_LT(bursty_offered, uniform_offered / 2);
  // And byte-determinism holds for the modulated pattern too.
  EXPECT_EQ(sweep_csv(run_sweep(grid, 1)), sweep_csv(run_sweep(grid, 4)));
}

TEST(SweepTest, FaultAxisSweepsAndReportsSurvivorColumns) {
  SweepGrid grid = small_grid();
  grid.faults = {fault::FaultSpec{},
                 fault::FaultSpec{fault::FaultKind::kRandomLinks, 0.1, 5},
                 fault::FaultSpec{fault::FaultKind::kSwitchKills, 0.1, 5}};
  EXPECT_EQ(grid.size(), 2U * 2U * 3U * 3U * 2U);
  const SweepResult sweep = run_sweep(grid, 2);
  ASSERT_EQ(sweep.points.size(), grid.size());
  for (const SweepPoint& point : sweep.points) {
    if (point.fault.kind == fault::FaultKind::kNone) {
      // Pristine points: intact, baseline-equivalent survivor, and the
      // fault counters stay untouched.
      EXPECT_TRUE(point.survivor.full_access);
      EXPECT_TRUE(point.survivor.baseline_equivalent);
      EXPECT_EQ(point.survivor.surviving_arcs, point.survivor.total_arcs);
      EXPECT_EQ(point.result.packets_dropped_faulted, 0U);
      EXPECT_EQ(point.result.packets_rerouted, 0U);
    } else {
      // Any removed arc severs some pair in a banyan fabric.
      EXPECT_LT(point.survivor.surviving_arcs, point.survivor.total_arcs);
      EXPECT_FALSE(point.survivor.full_access);
      EXPECT_FALSE(point.survivor.baseline_equivalent);
    }
  }
  // The resilience columns reach the rendered artifacts.
  const std::string csv = sweep_csv(sweep);
  for (const char* column :
       {",fault_kind,", ",fault_rate,", ",fault_seed,",
        ",delivered_fraction,", ",packets_dropped_faulted,",
        ",packets_misdelivered,", ",full_access,", ",surviving_arcs"}) {
    EXPECT_NE(csv.find(column), std::string::npos) << column;
  }
  // And fault sweeps stay byte-identical across thread counts.
  EXPECT_EQ(sweep_csv(run_sweep(grid, 1)), csv);
  EXPECT_EQ(sweep_csv(run_sweep(grid, 5)), csv);
}

TEST(SweepTest, BurstAxisExpandsOnlyBurstyPatterns) {
  SweepGrid grid = small_grid();
  grid.patterns = {sim::Pattern::kUniform, sim::Pattern::kBursty};
  grid.modes = {sim::SwitchingMode::kStoreAndForward};
  grid.rates = {0.8};
  grid.bursts = {sim::BurstParams{},               // duty 1/4
                 sim::BurstParams{1.0 / 24, 1.0 / 8}};  // duty 3/4
  // uniform contributes one burst variant, bursty both.
  EXPECT_EQ(grid.size(), 2U * (1U + 2U) * 1U * 1U);
  const SweepResult sweep = run_sweep(grid, 2);
  std::vector<std::uint64_t> bursty_offered;
  for (const SweepPoint& point : sweep.points) {
    if (point.pattern == sim::Pattern::kBursty) {
      bursty_offered.push_back(point.result.offered);
    }
  }
  ASSERT_EQ(bursty_offered.size(), 2U * 2U);  // 2 networks x 2 variants
  // The high-duty variant offers far more load than the default.
  EXPECT_GT(bursty_offered[1], 2 * bursty_offered[0]);
}

TEST(SweepTest, RadixAxisExpandsTheGridAndStaysDeterministic) {
  SweepGrid grid = small_grid();
  grid.networks = {min::NetworkKind::kOmega, min::NetworkKind::kBaseline};
  grid.radices = {2, 3};
  grid.patterns = {sim::Pattern::kUniform};
  // 2 networks * 2 radices * 1 pattern * (1 + 2) mode-lane variants *
  // 2 rates.
  EXPECT_EQ(grid.size(), 2U * 2U * 1U * 3U * 2U);
  const SweepResult sweep = run_sweep(grid, 2);
  ASSERT_EQ(sweep.points.size(), grid.size());
  std::size_t kary_points = 0;
  for (const SweepPoint& point : sweep.points) {
    if (point.radix == 3) {
      ++kary_points;
      EXPECT_GT(point.result.delivered, 0U);
    }
    EXPECT_LE(point.result.delivered, point.result.injected);
  }
  EXPECT_EQ(kary_points, grid.size() / 2);
  // Radix is enumerated right after network: the first half of each
  // network block is radix 2, the second radix 3.
  EXPECT_EQ(sweep.points[0].radix, 2);
  EXPECT_EQ(sweep.points[grid.size() / 4].radix, 3);
  // The radix column reaches the artifacts, and determinism holds at
  // 1/2/5 threads with the radix axis in play.
  const std::string csv = sweep_csv(sweep);
  EXPECT_NE(csv.find(",radix,"), std::string::npos);
  EXPECT_EQ(sweep_csv(run_sweep(grid, 1)), csv);
  EXPECT_EQ(sweep_csv(run_sweep(grid, 5)), csv);
  EXPECT_EQ(sweep_json(run_sweep(grid, 1)), sweep_json(run_sweep(grid, 5)));

  // Closed-form kinds build through their construction at radix 2 too:
  // an omega at 14 stages (8192 cells per stage) sets up from its
  // attached schedule, without recovery, and runs.
  SweepGrid deep = small_grid();
  deep.networks = {min::NetworkKind::kOmega};
  deep.radices = {2};
  deep.patterns = {sim::Pattern::kUniform};
  deep.modes = {sim::SwitchingMode::kStoreAndForward};
  deep.rates = {0.5};
  deep.stages = 14;
  deep.base.warmup_cycles = 0;
  deep.base.measure_cycles = 4;
  const SweepResult deep_sweep = run_sweep(deep, 1);
  ASSERT_EQ(deep_sweep.points.size(), 1U);
  EXPECT_EQ(deep_sweep.points[0].stages, 14);
  EXPECT_GT(deep_sweep.points[0].result.injected, 0U);
}

TEST(SweepTest, RadixAxisCrossesTheFaultAxis) {
  SweepGrid grid = small_grid();
  grid.networks = {min::NetworkKind::kOmega};
  grid.radices = {3};
  grid.patterns = {sim::Pattern::kUniform};
  grid.modes = {sim::SwitchingMode::kStoreAndForward,
                sim::SwitchingMode::kWormhole};
  grid.rates = {0.5};
  grid.base.warmup_cycles = 0;  // exact conservation ledger
  grid.faults = {fault::FaultSpec{},
                 fault::FaultSpec{fault::FaultKind::kPartialPort, 0.3, 5},
                 fault::FaultSpec{fault::FaultKind::kSwitchKills, 0.1, 5}};
  const SweepResult sweep = run_sweep(grid, 2);
  ASSERT_EQ(sweep.points.size(), grid.size());
  for (const SweepPoint& point : sweep.points) {
    EXPECT_EQ(point.radix, 3);
    // The flit ledger closes exactly at every fault kind and radix.
    EXPECT_EQ(point.result.flits_injected,
              point.result.flits_delivered + point.result.flits_in_flight +
                  point.result.flits_dropped_faulted);
    if (point.fault.kind == fault::FaultKind::kPartialPort) {
      // Partial-port switches keep routing: reroutes, no drops, and the
      // survivor keeps full access only if no pair was severed — but
      // never a dead switch.
      EXPECT_EQ(point.result.packets_dropped_faulted, 0U);
      EXPECT_GT(point.result.packets_rerouted, 0U);
      EXPECT_LT(point.survivor.surviving_arcs, point.survivor.total_arcs);
    }
  }
}

TEST(SweepTest, RadixAxisRejectsKindsWithoutKaryConstruction) {
  SweepGrid grid = small_grid();
  grid.networks = {min::NetworkKind::kIndirectBinaryCube};
  grid.radices = {3};
  EXPECT_THROW((void)run_sweep(grid, 1), std::invalid_argument);

  grid = small_grid();
  grid.radices = {1};
  EXPECT_THROW((void)run_sweep(grid, 1), std::invalid_argument);

  grid = small_grid();
  grid.radices.clear();
  EXPECT_THROW((void)run_sweep(grid, 1), std::invalid_argument);
}

TEST(SweepTest, CreditAxisExpandsTheGridAndStaysDeterministic) {
  SweepGrid grid = small_grid();
  grid.patterns = {sim::Pattern::kUniform};
  sim::CreditConfig latency0;
  latency0.enabled = true;
  sim::CreditConfig latency2 = latency0;
  latency2.return_latency = 2;
  sim::CreditConfig weighted = latency0;
  weighted.arbitration = sim::ArbitrationPolicy::kWeighted;
  weighted.weights = {4, 1};
  weighted.sl_map = {0, 0};  // both SLs valid for saf (1 lane) too
  grid.credits = {sim::CreditConfig{}, latency0, latency2, weighted};
  // 2 networks * 1 pattern * (1 + 2) mode-lane variants * 4 credit
  // configs * 2 rates.
  EXPECT_EQ(grid.size(), 2U * 1U * 3U * 4U * 2U);
  const SweepResult sweep = run_sweep(grid, 2);
  ASSERT_EQ(sweep.points.size(), grid.size());
  for (const SweepPoint& point : sweep.points) {
    // The invariant audit runs on every credit-enabled point.
    EXPECT_EQ(point.result.credit_violations, 0U);
    if (!point.credits.enabled) {
      EXPECT_EQ(point.result.credit_stall_cycles, 0U);
    }
  }
  // The credit axis sits between lanes and faults in the enumeration:
  // points 0..7 of the first (saf) block differ only in (credits, rate).
  EXPECT_FALSE(sweep.points[0].credits.enabled);
  EXPECT_TRUE(sweep.points[2].credits.enabled);
  EXPECT_EQ(sweep.points[4].credits.return_latency, 2U);
  EXPECT_EQ(sweep.points[6].credits.arbitration,
            sim::ArbitrationPolicy::kWeighted);
  // The credit columns reach the artifacts, and the 1/2/5-thread byte
  // determinism pin holds with the credit axis in play.
  const std::string csv = sweep_csv(sweep);
  for (const char* column :
       {",credits,", ",credit_latency,", ",arbitration,", ",vl_weights,",
        ",sl_map,", ",vl_occupancy,", ",sl_latency_mean,",
        ",credit_stall_cycles,", ",credit_violations,"}) {
    EXPECT_NE(csv.find(column), std::string::npos) << column;
  }
  EXPECT_EQ(sweep_csv(run_sweep(grid, 1)), csv);
  EXPECT_EQ(sweep_csv(run_sweep(grid, 5)), csv);
  EXPECT_EQ(sweep_json(run_sweep(grid, 1)), sweep_json(run_sweep(grid, 5)));
}

/// A sweep over a neutral credit config (latency 0, rr, uniform weights)
/// must reproduce the credit-disabled sweep's numbers point for point:
/// both grids are single-value on the credit axis, so task indices — and
/// with them the per-point seeds — line up exactly, and only the credit
/// columns may differ.
TEST(SweepTest, NeutralCreditSweepMatchesDisabledSweepNumerically) {
  SweepGrid disabled_grid = small_grid();
  disabled_grid.patterns = {sim::Pattern::kUniform};
  SweepGrid neutral_grid = disabled_grid;
  sim::CreditConfig neutral;
  neutral.enabled = true;
  neutral_grid.credits = {neutral};
  const SweepResult disabled = run_sweep(disabled_grid, 2);
  const SweepResult with_credits = run_sweep(neutral_grid, 2);
  ASSERT_EQ(disabled.points.size(), with_credits.points.size());
  for (std::size_t i = 0; i < disabled.points.size(); ++i) {
    const sim::SimResult& a = disabled.points[i].result;
    const sim::SimResult& b = with_credits.points[i].result;
    ASSERT_EQ(disabled.points[i].seed, with_credits.points[i].seed);
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.flits_injected, b.flits_injected);
    EXPECT_EQ(a.hol_blocking_cycles, b.hol_blocking_cycles);
    EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
    EXPECT_DOUBLE_EQ(a.link_utilization, b.link_utilization);
    EXPECT_EQ(b.credit_violations, 0U);
  }
}

/// Ratio fields are defined as 0 when nothing is injected: a rate-0 axis
/// value must never leak nan/inf into the artifacts.
TEST(SweepTest, RateZeroPointsEmitCleanZeros) {
  SweepGrid grid = small_grid();
  grid.rates = {0.0};
  const SweepResult sweep = run_sweep(grid, 2);
  for (const SweepPoint& point : sweep.points) {
    EXPECT_EQ(point.result.offered, 0U);
    EXPECT_EQ(point.result.injected, 0U);
    EXPECT_DOUBLE_EQ(point.result.acceptance, 0.0);
    EXPECT_DOUBLE_EQ(point.result.delivered_fraction(), 0.0);
    EXPECT_DOUBLE_EQ(point.result.throughput, 0.0);
  }
  const std::string csv = sweep_csv(sweep);
  const std::string json = sweep_json(sweep);
  for (const char* poison : {"nan", "inf", "NaN", "Inf"}) {
    EXPECT_EQ(csv.find(poison), std::string::npos) << poison;
    EXPECT_EQ(json.find(poison), std::string::npos) << poison;
  }
}

TEST(SweepTest, PerPointSeedsAreDistinctAndRecorded) {
  const SweepResult sweep = run_sweep(small_grid(), 2);
  std::set<std::uint64_t> seeds;
  for (const SweepPoint& point : sweep.points) {
    seeds.insert(point.seed);
  }
  EXPECT_EQ(seeds.size(), sweep.points.size());
}

TEST(SweepTest, CsvShape) {
  const SweepResult sweep = run_sweep(small_grid(), 2);
  const std::string csv = sweep_csv(sweep);
  EXPECT_EQ(csv.rfind("network,pattern,mode,lanes,rate,stages,seed,", 0), 0U);
  // Tail-behavior and conservation columns.
  for (const char* column :
       {",latency_p99,", ",flits_in_flight,", ",hol_blocking_cycles"}) {
    EXPECT_NE(csv.find(column), std::string::npos) << column;
  }
  std::size_t lines = 0;
  for (const char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, sweep.points.size() + 1);
  EXPECT_EQ(csv.back(), '\n');
}

TEST(SweepTest, JsonContainsTheCsvFields) {
  const SweepResult sweep = run_sweep(small_grid(), 2);
  const std::string json = sweep_json(sweep);
  for (const char* field :
       {"\"network\": ", "\"mode\": ", "\"throughput\": ",
        "\"latency_p99\": ", "\"hol_blocking_cycles\": ",
        "\"flits_in_flight\": ", "\"lane_occupancy\": "}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  // Seeds exceed double precision: they must be JSON strings, never
  // bare numbers a reader would round.
  EXPECT_NE(json.find("\"seed\": \""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
}

TEST(SweepTest, ResultsArePhysical) {
  const SweepResult sweep = run_sweep(small_grid(), 0);
  for (const SweepPoint& point : sweep.points) {
    EXPECT_LE(point.result.delivered, point.result.injected);
    EXPECT_GE(point.result.throughput, 0.0);
    EXPECT_LE(point.result.throughput, 1.0);
    EXPECT_GE(point.result.acceptance, 0.0);
    EXPECT_LE(point.result.acceptance, 1.0);
  }
}

TEST(SweepTest, ValidationErrors) {
  SweepGrid grid = small_grid();
  grid.patterns.clear();
  EXPECT_THROW((void)run_sweep(grid, 1), std::invalid_argument);

  grid = small_grid();
  grid.rates = {1.5};
  EXPECT_THROW((void)run_sweep(grid, 1), std::invalid_argument);

  // NaN passes both range comparisons; it must be rejected up front or
  // the validate() throw would fire inside a worker thread.
  grid = small_grid();
  grid.rates = {std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW((void)run_sweep(grid, 1), std::invalid_argument);

  grid = small_grid();
  grid.lane_counts = {0};
  EXPECT_THROW((void)run_sweep(grid, 1), std::invalid_argument);

  grid = small_grid();
  grid.stages = 1;
  EXPECT_THROW((void)run_sweep(grid, 1), std::invalid_argument);

  grid = small_grid();
  grid.stages = 5;  // transpose needs an even address width
  grid.patterns = {sim::Pattern::kTranspose};
  EXPECT_THROW((void)run_sweep(grid, 1), std::invalid_argument);

  grid = small_grid();
  grid.faults = {fault::FaultSpec{fault::FaultKind::kRandomLinks, 1.5, 0}};
  EXPECT_THROW((void)run_sweep(grid, 1), std::invalid_argument);

  grid = small_grid();
  grid.faults.clear();
  EXPECT_THROW((void)run_sweep(grid, 1), std::invalid_argument);

  grid = small_grid();
  grid.bursts = {sim::BurstParams{0.0, 0.5}};
  EXPECT_THROW((void)run_sweep(grid, 1), std::invalid_argument);

  grid = small_grid();
  grid.credits.clear();
  EXPECT_THROW((void)run_sweep(grid, 1), std::invalid_argument);

  // A credit config is validated against every mode/lane combination the
  // grid pairs it with: lane 5 exists at no swept wormhole lane count.
  grid = small_grid();
  sim::CreditConfig bad_map;
  bad_map.enabled = true;
  bad_map.sl_map = {5};
  grid.credits = {bad_map};
  EXPECT_THROW((void)run_sweep(grid, 1), std::invalid_argument);

  // Every worker grows its own sim team: an explicit fan-out times the
  // team size is bounded like one team, before any thread starts.
  grid = small_grid();
  grid.base.sim_threads = 17;
  EXPECT_THROW((void)run_sweep(grid, 16), std::invalid_argument);
}

}  // namespace
}  // namespace mineq::exp
