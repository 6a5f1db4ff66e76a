/// \file bench_megafabric.cpp
/// \brief The sharded single-simulation engine (megafabric mode):
/// one-worker-vs-sharded wall time and strong-scaling efficiency for
/// both disciplines, plus the per-call dispatch cost of the persistent
/// team (ThreadPool::run_team).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>

#include "min/networks.hpp"
#include "sim/engine.hpp"
#include "sim/wormhole.hpp"
#include "util/format.hpp"
#include "util/parallel.hpp"

#include "bench_main.hpp"

namespace {

double run_once(const mineq::sim::Engine& engine, mineq::sim::SimConfig config,
                std::size_t sim_threads, std::uint64_t* delivered) {
  config.sim_threads = sim_threads;
  const auto t0 = std::chrono::steady_clock::now();
  mineq::sim::SimResult result;
  if (config.mode == mineq::sim::SwitchingMode::kWormhole) {
    result = mineq::sim::WormholeSimulator(engine).run(
        mineq::sim::Pattern::kUniform, config);
  } else {
    result = engine.run(mineq::sim::Pattern::kUniform, config);
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (delivered != nullptr) *delivered = result.delivered;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

void print_report() {
  using namespace mineq;
  std::cout << "=== Megafabric: one simulation sharded over a thread team "
               "===\n\n";
  // Strong scaling: the same fixed-size simulation at growing team
  // sizes. Efficiency = serial_time / (threads * sharded_time); on a
  // single-core box every team multiplexes one CPU, so expect ~1/threads
  // here and read the committed baseline README before comparing.
  util::TablePrinter table({"n", "mode", "threads", "ms/run", "speedup",
                            "efficiency"});
  sim::SimConfig config;
  config.injection_rate = 0.6;
  config.warmup_cycles = 50;
  config.measure_cycles = 300;
  config.seed = 9;
  for (int n : {10, 12, 14}) {
    const sim::Engine engine(
        min::build_kary_network(min::NetworkKind::kOmega, n, 2));
    for (const sim::SwitchingMode mode :
         {sim::SwitchingMode::kStoreAndForward,
          sim::SwitchingMode::kWormhole}) {
      config.mode = mode;
      const char* mode_name =
          mode == sim::SwitchingMode::kWormhole ? "wormhole" : "saf";
      std::uint64_t serial_delivered = 0;
      const double serial_ms = run_once(engine, config, 1, &serial_delivered);
      table.add_row({std::to_string(n), mode_name, "1",
                     util::fixed(serial_ms, 2), "1.00", "1.00"});
      for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                        std::size_t{8}}) {
        std::uint64_t delivered = 0;
        const double ms = run_once(engine, config, threads, &delivered);
        const double speedup = serial_ms / ms;
        table.add_row({std::to_string(n), mode_name,
                       std::to_string(threads), util::fixed(ms, 2),
                       util::fixed(speedup, 2),
                       util::fixed(speedup / static_cast<double>(threads),
                                   3)});
        if (delivered != serial_delivered) {
          std::cout << "DETERMINISM VIOLATION at n=" << n << " threads="
                    << threads << "\n";
        }
      }
    }
  }
  std::cout << table.str()
            << "\n(results are byte-identical at every thread count; "
               "speedup needs real cores — see the baseline README)\n\n";
}

// One simulation, sharded: the headline one-worker-vs-sharded comparison.
// range(0) = n, range(1) = sim_threads (1 runs the worker body inline).
static void BM_MegafabricSaf(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const mineq::sim::Engine engine(
      mineq::min::build_kary_network(mineq::min::NetworkKind::kOmega, n, 2));
  mineq::sim::SimConfig config;
  config.injection_rate = 0.6;
  config.warmup_cycles = 20;
  config.measure_cycles = 100;
  config.sim_threads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.run(mineq::sim::Pattern::kUniform, config));
  }
  state.counters["terminal-cycles/s"] = benchmark::Counter(
      static_cast<double>(engine.terminals()) *
          static_cast<double>(config.warmup_cycles + config.measure_cycles) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MegafabricSaf)
    ->ArgsProduct({{10, 12, 14}, {1, 2, 8}});

static void BM_MegafabricWormhole(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const mineq::sim::Engine engine(
      mineq::min::build_kary_network(mineq::min::NetworkKind::kOmega, n, 2));
  const mineq::sim::WormholeSimulator simulator(engine);
  mineq::sim::SimConfig config;
  config.injection_rate = 0.6;
  config.warmup_cycles = 20;
  config.measure_cycles = 100;
  config.packet_length = 4;
  config.lanes = 2;
  config.sim_threads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulator.run(mineq::sim::Pattern::kUniform, config));
  }
}
BENCHMARK(BM_MegafabricWormhole)
    ->ArgsProduct({{10, 12, 14}, {1, 2, 8}});

// Dispatch micro-bench: one round-trip of handing N trivial work items to
// a team of N workers and getting control back. The driver calls into the
// team once per simulation (workers live across cycles, rendezvousing on
// a SpinBarrier); this is the cost it would pay per cycle instead.
static void BM_DispatchRunTeam(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  mineq::util::ThreadPool pool;
  std::atomic<std::uint64_t> sink(0);
  for (auto _ : state) {
    pool.run_team(n, [&sink](std::size_t index, std::size_t) {
      sink.fetch_add(index + 1, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_DispatchRunTeam)->Arg(2)->Arg(4)->Arg(8);
