/// \file bench_equivalence.cpp
/// \brief The headline ablation: the paper's easy characterization versus
/// general-purpose isomorphism search for deciding Baseline equivalence.
///
/// The report prints the head-to-head series (who wins, by what factor);
/// the benchmark suite times each decision path across network sizes.

#include <chrono>
#include <functional>
#include <iostream>

#include "graph/isomorphism.hpp"
#include "min/baseline.hpp"
#include "min/equivalence.hpp"
#include "min/networks.hpp"
#include "min/properties.hpp"
#include "perm/permutation.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

#include "bench_main.hpp"

namespace {

using namespace mineq;

double seconds_of(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

}  // namespace

void print_report() {
  std::cout << "=== Easy characterization vs isomorphism search ===\n\n";
  util::TablePrinter table({"n", "cells", "easy check (s)",
                            "VF2 search (s)", "speedup"});
  util::SplitMix64 rng(31);
  for (int n = 3; n <= 8; ++n) {
    const min::MIDigraph g = min::build_network(min::NetworkKind::kOmega, n);
    const min::MIDigraph base = min::baseline_network(n);
    bool easy_verdict = false;
    const double easy = seconds_of(
        [&] { easy_verdict = min::is_baseline_equivalent(g); });
    bool oracle_verdict = false;
    const double oracle = seconds_of([&] {
      oracle_verdict = graph::find_layered_isomorphism(g.to_layered(),
                                                       base.to_layered())
                           .has_value();
    });
    table.add_row({std::to_string(n),
                   std::to_string(g.cells_per_stage()),
                   util::fixed(easy, 6), util::fixed(oracle, 6),
                   easy > 0 ? util::fixed(oracle / easy, 1) + "x" : "-"});
    if (easy_verdict != oracle_verdict) {
      std::cout << "DISAGREEMENT at n=" << n << "!\n";
    }
  }
  std::cout << table.str()
            << "\n(the easy check also scales to sizes where the search is "
               "hopeless; see the suite below)\n\n";
}

static void BM_EasyCheck(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const min::MIDigraph g = min::build_network(min::NetworkKind::kOmega, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(min::is_baseline_equivalent(g));
  }
  state.SetComplexityN(static_cast<std::int64_t>(g.cells_per_stage()));
}
BENCHMARK(BM_EasyCheck)->DenseRange(4, 14, 2)->Complexity();

static void BM_EasyCheckScrambled(benchmark::State& state) {
  // The full report for an omega with every stage relabelled at random:
  // arbitrary labels, as a candidate network arrives, on the acceptance
  // path (the probe, the fused Banyan and P(1,*) sweep, then P(*,n)).
  const int n = static_cast<int>(state.range(0));
  const min::MIDigraph omega = min::build_network(min::NetworkKind::kOmega, n);
  util::SplitMix64 rng(41);
  std::vector<perm::Permutation> maps;
  for (int s = 0; s < n; ++s) {
    maps.push_back(perm::Permutation::random(omega.cells_per_stage(), rng));
  }
  const min::MIDigraph g = omega.relabelled(maps);
  for (auto _ : state) {
    benchmark::DoNotOptimize(min::check_baseline_equivalence(g));
  }
  state.SetComplexityN(static_cast<std::int64_t>(g.cells_per_stage()));
}
BENCHMARK(BM_EasyCheckScrambled)
    ->DenseRange(12, 16, 2)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

static void BM_FlatWiringBuild(benchmark::State& state) {
  // Cost of flattening the image tables into the stage-packed IR — the
  // one-time price every FlatWiring consumer amortizes.
  const int n = static_cast<int>(state.range(0));
  const min::MIDigraph g = min::build_network(min::NetworkKind::kOmega, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(min::FlatWiring::from_digraph(g));
  }
}
BENCHMARK(BM_FlatWiringBuild)->DenseRange(4, 14, 2);

static void BM_EasyCheckPrebuiltWiring(benchmark::State& state) {
  // The characterization over an already-flattened wiring: what a sweep
  // or repeated classification pays per check once the IR is shared.
  const int n = static_cast<int>(state.range(0));
  const min::FlatWiring w = min::FlatWiring::from_digraph(
      min::build_network(min::NetworkKind::kOmega, n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(min::is_baseline_equivalent(w));
  }
}
BENCHMARK(BM_EasyCheckPrebuiltWiring)->DenseRange(4, 14, 2);

static void BM_EasyCheckPropertiesOnly(benchmark::State& state) {
  // P(1,*) + P(*,n) without the Banyan sweep: the near-linear core.
  const int n = static_cast<int>(state.range(0));
  const min::MIDigraph g = min::build_network(min::NetworkKind::kOmega, n);
  for (auto _ : state) {
    bool ok = min::satisfies_p1_star(g) && min::satisfies_p_star_n(g);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_EasyCheckPropertiesOnly)->DenseRange(4, 18, 2);

static void BM_IndependenceFastPath(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const min::MIDigraph g = min::build_network(min::NetworkKind::kOmega, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(min::is_baseline_equivalent_via_independence(g));
  }
}
BENCHMARK(BM_IndependenceFastPath)->DenseRange(4, 14, 2);

static void BM_Vf2Search(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const min::MIDigraph g = min::build_network(min::NetworkKind::kOmega, n);
  const min::MIDigraph base = min::baseline_network(n);
  const auto layered_g = g.to_layered();
  const auto layered_base = base.to_layered();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::find_layered_isomorphism(layered_g, layered_base));
  }
}
BENCHMARK(BM_Vf2Search)->DenseRange(3, 8, 1);

static void BM_EquivalenceFullReport(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::SplitMix64 rng(77);
  const min::MIDigraph g = min::random_independent_network(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(min::check_baseline_equivalence(g));
  }
}
BENCHMARK(BM_EquivalenceFullReport)->DenseRange(4, 12, 2);
