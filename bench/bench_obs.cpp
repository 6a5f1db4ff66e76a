/// \file bench_obs.cpp
/// \brief Observability overhead: the compiled-in-but-off dispatch must
/// be free (with no fault mask or credits either, it reaches the plain
/// kFeatures=false instantiations the goldens pin), and each collector's
/// enabled cost is measured per discipline.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>

#include "min/networks.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "util/format.hpp"

#include "bench_main.hpp"

namespace {

using mineq::sim::Engine;
using mineq::sim::Pattern;
using mineq::sim::SimConfig;
using mineq::sim::SwitchingMode;

SimConfig bench_config(SwitchingMode mode) {
  SimConfig config;
  config.mode = mode;
  config.injection_rate = 0.7;
  config.warmup_cycles = 50;
  config.measure_cycles = 400;
  config.seed = 21;
  config.packet_length = 3;
  config.lanes = 2;
  config.lane_depth = 2;
  return config;
}

mineq::obs::ObsConfig collectors(bool probes, bool flows,
                                 std::uint64_t trace) {
  mineq::obs::ObsConfig obs;
  obs.probe_stride = probes ? 50 : 0;
  obs.flow_stats = flows;
  obs.trace_sample = trace;
  return obs;
}

double time_ms(const Engine& engine, const SimConfig& config, int reps) {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sink = 0;
  for (int i = 0; i < reps; ++i) {
    sink += engine.run(Pattern::kUniform, config).delivered;
  }
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(sink);
  return std::chrono::duration<double, std::milli>(t1 - t0).count() /
         static_cast<double>(reps);
}

}  // namespace

void print_report() {
  using namespace mineq;
  std::cout << "=== Observability overhead (omega n=8, per collector) "
               "===\n\n";
  util::TablePrinter table({"mode", "collectors", "ms/run", "vs off"});
  const Engine engine(min::build_network(min::NetworkKind::kOmega, 8));
  constexpr int kReps = 5;
  struct Row {
    const char* label;
    bool probes;
    bool flows;
    std::uint64_t trace;
  };
  const Row rows[] = {
      {"off", false, false, 0},       {"probes", true, false, 0},
      {"flows", false, true, 0},      {"trace 1/64", false, false, 64},
      {"all", true, true, 64},
  };
  for (const SwitchingMode mode :
       {SwitchingMode::kStoreAndForward, SwitchingMode::kWormhole}) {
    double off_ms = 0.0;
    for (const Row& row : rows) {
      SimConfig config = bench_config(mode);
      config.obs = collectors(row.probes, row.flows, row.trace);
      const double ms = time_ms(engine, config, kReps);
      if (std::string(row.label) == "off") off_ms = ms;
      table.add_row({sim::switching_mode_name(mode), row.label,
                     util::fixed(ms, 2),
                     util::fixed(off_ms > 0.0 ? ms / off_ms : 1.0, 3)});
    }
  }
  std::cout << table.str()
            << "\n(\"off\" dispatches to the plain kFeatures=false "
               "instantiations — the acceptance gate is <3% vs the pre-obs "
               "baselines, "
               "checked by bench_compare.py against BENCH_sim/"
               "BENCH_wormhole)\n\n";
}

// The compiled-in-but-off cost for each discipline: these two are the
// entries bench_compare.py tracks against the committed baselines.
static void BM_SafObsOff(benchmark::State& state) {
  const Engine engine(
      mineq::min::build_network(mineq::min::NetworkKind::kOmega,
                                static_cast<int>(state.range(0))));
  const SimConfig config = bench_config(SwitchingMode::kStoreAndForward);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(Pattern::kUniform, config));
  }
}
BENCHMARK(BM_SafObsOff)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);

static void BM_WormholeObsOff(benchmark::State& state) {
  const Engine engine(
      mineq::min::build_network(mineq::min::NetworkKind::kOmega,
                                static_cast<int>(state.range(0))));
  const SimConfig config = bench_config(SwitchingMode::kWormhole);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(Pattern::kUniform, config));
  }
}
BENCHMARK(BM_WormholeObsOff)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);

static void BM_SafObsAll(benchmark::State& state) {
  const Engine engine(
      mineq::min::build_network(mineq::min::NetworkKind::kOmega,
                                static_cast<int>(state.range(0))));
  SimConfig config = bench_config(SwitchingMode::kStoreAndForward);
  config.obs = collectors(true, true, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(Pattern::kUniform, config));
  }
}
BENCHMARK(BM_SafObsAll)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);

static void BM_WormholeObsAll(benchmark::State& state) {
  const Engine engine(
      mineq::min::build_network(mineq::min::NetworkKind::kOmega,
                                static_cast<int>(state.range(0))));
  SimConfig config = bench_config(SwitchingMode::kWormhole);
  config.obs = collectors(true, true, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(Pattern::kUniform, config));
  }
}
BENCHMARK(BM_WormholeObsAll)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);
