/// \file mineq_sweep.cpp
/// \brief Experiment-sweep CLI: fan a {network x radix x pattern x mode x
/// lanes x faults x rate} grid across a thread pool and emit CSV/JSON.
///
/// Example (the saturation study from the README):
///   mineq_sweep --networks omega,baseline --patterns uniform,bitrev,hotspot
///     --rates 0.1:1.0:0.1 --mode wormhole --lanes 1,2,4 --csv sweep.csv
///
/// Resilience sweep (fault kind x fault rate x placement seed, with
/// degraded-mode routing and survivor-topology columns in the output):
///   mineq_sweep --networks omega --fault-kinds links,switches
///     --fault-rates 0.01:0.10:0.01 --fault-seeds 1,2,3 --rates 0.6
///
/// k-ary sweep (radix-r switches; omega/flip/baseline have closed-form
/// constructions at radix > 2, incl. partial-port switch faults):
///   mineq_sweep --networks omega,baseline --radix 2,4 --stages 4
///     --fault-kinds none,partial --fault-rates 0.1 --rates 0.3,0.6
///
/// Multipath resilience (Benes / dilated / replicated fabrics next to
/// their unipath base, with path-diversity columns in the output):
///   mineq_sweep --networks omega,benes,dilated --paths 2 --path-policy
///     hash,adaptive --fault-kinds links --fault-rates 0.05 --rates 0.6
///
/// Workload axis (open-loop vs closed-loop honesty check, then record a
/// run as a trace and replay it):
///   mineq_sweep --networks omega --workload open,closedloop --rr-window 8
///     --rates 0.6 --csv rr.csv
///   mineq_sweep --networks omega --rates 0.6 --trace-out-workload run.trace
///   mineq_sweep --networks omega --rates 0.6 --trace-in run.trace
///
/// Output is byte-identical for any --threads value: every grid point
/// derives its RNG stream from (seed, grid index), not from scheduling.

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <fstream>
#include <memory>
#include <sstream>

#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/format.hpp"
#include "workload/spec.hpp"

namespace {

using mineq::exp::SweepGrid;
using mineq::exp::SweepPoint;

/// Comma-joined registry tokens, so the help text can never drift from
/// the parsers (which enumerate the same registries in their rejection
/// messages).
std::string network_tokens() {
  std::string out;
  for (const mineq::min::NetworkKind kind : mineq::min::all_network_kinds()) {
    if (!out.empty()) out += ',';
    out += mineq::min::network_token(kind);
  }
  return out;
}

std::string fabric_tokens() {
  std::string out;
  for (const mineq::min::MultiPathKind kind :
       mineq::min::all_multipath_kinds()) {
    if (kind == mineq::min::MultiPathKind::kUnipath) continue;
    if (!out.empty()) out += ',';
    out += mineq::min::multipath_kind_name(kind);
  }
  return out;
}

std::string pattern_tokens() {
  std::string out;
  for (const mineq::sim::Pattern pattern : mineq::sim::all_patterns()) {
    if (!out.empty()) out += ',';
    out += mineq::sim::pattern_name(pattern);
  }
  return out;
}

std::string path_policy_tokens() {
  std::string out;
  for (const mineq::sim::PathPolicy policy : mineq::sim::all_path_policies()) {
    if (policy == mineq::sim::PathPolicy::kLooping) continue;  // not sweepable
    if (!out.empty()) out += ',';
    out += mineq::sim::path_policy_name(policy);
  }
  return out;
}

std::string workload_tokens() {
  std::string out;
  for (const mineq::workload::Kind kind : mineq::workload::all_kinds()) {
    if (!out.empty()) out += ',';
    out += mineq::workload::kind_name(kind);
  }
  return out;
}

std::string stall_cause_tokens() {
  std::string out;
  for (std::size_t i = 0; i < mineq::obs::kStallCauseCount; ++i) {
    if (!out.empty()) out += ',';
    out +=
        mineq::obs::stall_cause_name(static_cast<mineq::obs::StallCause>(i));
  }
  return out;
}

std::string usage() {
  return "mineq_sweep — parallel MIN experiment sweeps\n"
         "\n"
         "Usage: mineq_sweep [options]\n"
         "\n"
         "Grid axes (comma-separated lists):\n"
         "  --networks LIST   " +
         network_tokens() +
         "\n"
         "                    plus multipath fabrics " +
         fabric_tokens() +
         "\n"
         "                    (composed over omega)        [omega,baseline]\n"
         R"(  --radix LIST      switch radix r (r x r cells, r^N terminals);
                    radix > 2 needs omega/flip/baseline         [2]
  --patterns LIST   )" +
         pattern_tokens() +
         "\n"
         R"(                    (bursty = two-state Markov on/off)         [uniform]
  --paths LIST      path multiplicity per multipath fabric:
                    dilation of dilated, planes of replicated
                    (a Benes fixes its own)                     [2]
  --path-policy LIST  multipath path selection: )" +
         path_policy_tokens() +
         R"(   [hash]
  --mode LIST       saf,wormhole                               [saf])"
         R"(
  --lanes LIST      virtual channels per input port (wormhole
                    only — saf points collapse this axis)      [1]
  --rates SPEC      comma list (0.2,0.5,1.0) or range start:stop:step
                    (0.1:1.0:0.1)                              [0.1:1.0:0.1]
  --fault-kinds LIST  none,links,switches,burst,partial ("none"
                    collapses to a single pristine variant)    [none]
  --fault-rates SPEC  fraction of arcs/switches faulted (comma
                    list or range, like --rates)               [0.05]
  --fault-seeds LIST  fault-placement seeds                    [1]
  --burst-on-off LIST P(ON->OFF) per cycle, bursty pattern only
                    (mean burst = 1/p cycles)                  [0.125]
  --burst-off-on LIST P(OFF->ON) per cycle (mean idle = 1/p)   [0.041667]
  --credit-latency LIST  credit-return latencies (cycles); any credit
                    flag switches the sweep from the idealized
                    handshake to link-level credit flow control [0]
  --arbitration LIST  output-port arbiter: rr,weighted,priority
                    (crossed with --credit-latency)            [rr]
  --vl-weights LIST   per-virtual-lane arbitration weights (last
                    entry broadcasts to higher lanes)          [uniform]
  --sl-map LIST       service-level -> virtual-lane map; defines
                    SL count = list length (packets carry
                    SL = terminal % count)                     [all->0]
  --workload LIST   injection source: )" +
         workload_tokens() +
         R"( — the whole
                    grid repeats per value, appended after the
                    prefix (trace needs --trace-in)            [open]

Fixed parameters:
  --stages N          stages (terminals = radix^N)             [6]
  --packet-length N   flits per packet                         [4]
  --lane-depth N      flits buffered per lane (wormhole)       [4]
  --queue-capacity N  packets per input FIFO (saf)             [4]
  --warmup N          warmup cycles                            [200]
  --measure N         measured cycles                          [2000]
  --seed N            base seed                                [1]
  --threads N         worker threads (0 = hardware, <= 256)    [0]
  --sim-threads N     shard each simulation over N threads     [1]
                      (byte-identical to serial; the default
                      sweep fan-out divides itself by N so the
                      two levels never oversubscribe; an
                      explicit --threads times N is <= 256)
  --rr-window N       closed-loop: max outstanding (un-replied)
                      requests per client                      [4]
  --trace-in FILE     workload trace to replay (line format:
                      cycle src dst size [tag]); implies a
                      "trace" workload value when none listed
  --time-compression N  divide replayed trace cycles by N      [1]
  --trace-out-workload FILE  record the FIRST grid point's
                      accepted injections as a workload trace
                      (replayable through --trace-in; the
                      replay reproduces the run's delivered and
                      latency counters exactly)

Observability (any flag attaches an observer, which the simulator
  tests at run time on its featured path, shared with fault masks and
  credits; all off and no faults or credits = the plain fast path):
  --probe-stride N    sample per-stage occupancy / utilization /
                      stall / reroute time series every N measured
                      cycles (0 = off)                         [0]
  --flow-stats        record exact per-(src,dst) and per-SL latency
                      histograms; adds worst-p99 summary columns
  --trace-sample N    trace the deterministic 1-in-N packet subset
                      (0 = off)                                [0]
  --trace-out FILE    write traced packet events as Chrome
                      trace-event JSON (open in Perfetto); implies
                      --trace-sample 64 when no rate is given
  Any observability flag also splits hol_blocking_cycles exactly by
  cause into the stall_* CSV/JSON columns; causes:
    )" + stall_cause_tokens() +
         R"(

Output:
  --csv FILE          write CSV ("-" = stdout, implies --quiet)
  --json FILE         write JSON ("-" = stdout, implies --quiet)
  --quiet             suppress the summary table
  --help              this text
)";
}

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "mineq_sweep: " << message << "\n\nRun with --help for usage.\n";
  std::exit(1);
}

std::vector<std::string> split_list(std::string_view text, char sep) {
  std::vector<std::string> items;
  while (!text.empty()) {
    const std::size_t pos = text.find(sep);
    items.emplace_back(text.substr(0, pos));
    if (pos == std::string_view::npos) break;
    text.remove_prefix(pos + 1);
  }
  return items;
}

/// An unsigned decimal value of \p flag, at most \p max. A value past
/// \p max — or past 2^64 - 1, where strtoull saturates and sets ERANGE —
/// is rejected, naming the flag and the value, instead of running with a
/// clamped or wrapped one.
std::uint64_t parse_u64(
    const std::string& text, const std::string& what, std::string_view flag,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  char* end = nullptr;
  // strtoull silently wraps negatives; reject any sign explicitly.
  const bool signed_input = !text.empty() && (text[0] == '-' || text[0] == '+');
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (signed_input || end == text.c_str() || *end != '\0') {
    fail("cannot parse " + what + " \"" + text + '"');
  }
  if (errno == ERANGE || value > max) {
    std::string message(flag);
    message += ' ';
    message += text;
    message += ": ";
    message += what;
    message += " out of range (at most ";
    message += std::to_string(max);
    message += ')';
    fail(message);
  }
  return value;
}

/// parse_u64 for a flag whose target type is narrower than 64 bits.
template <class T>
T parse_narrow(const std::string& text, const std::string& what,
               std::string_view flag) {
  return static_cast<T>(parse_u64(
      text, what, flag,
      static_cast<std::uint64_t>(std::numeric_limits<T>::max())));
}

double parse_double(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    fail("cannot parse " + what + " \"" + text + '"');
  }
  return value;
}

/// "0.1:1.0:0.1" (inclusive range) or "0.2,0.5,1.0" (explicit list), the
/// value of \p flag. A range holds at most kMaxRangePoints points.
std::vector<double> parse_rates(const std::string& spec,
                                std::string_view flag) {
  constexpr std::size_t kMaxRangePoints = 100000;
  std::vector<double> rates;
  if (spec.find(':') != std::string::npos) {
    const auto parts = split_list(spec, ':');
    if (parts.size() != 3) fail("rate range must be start:stop:step");
    const double start = parse_double(parts[0], "rate");
    const double stop = parse_double(parts[1], "rate");
    const double step = parse_double(parts[2], "rate step");
    if (step <= 0.0) fail("rate step must be positive");
    const auto too_many = [&] {
      std::string message(flag);
      message += ' ';
      message += spec;
      message += ": rate range has more than ";
      message += std::to_string(kMaxRangePoints);
      message += " points";
      fail(message);
    };
    // Count the points before generating them: a step too small to
    // advance the rate (0.5:1:1e-17) would grow the list until memory
    // runs out. The guard in the loop catches a step that stops
    // advancing part-way, below the rate's floating-point resolution.
    if ((stop + 1e-9 - start) / step >= kMaxRangePoints) too_many();
    for (double rate = start; rate <= stop + 1e-9; rate += step) {
      if (rates.size() == kMaxRangePoints) too_many();
      // Accumulated float error can overshoot stop (0:1:0.05 ends at
      // 1.0000000000000002, which run_sweep would reject); clamp.
      rates.push_back(std::min(rate, stop));
    }
  } else {
    for (const std::string& item : split_list(spec, ',')) {
      rates.push_back(parse_double(item, "rate"));
    }
  }
  return rates;
}

void print_summary(const mineq::exp::SweepResult& sweep) {
  using mineq::util::fixed;
  // The observability columns (dominant stall cause, per-flow worst p99)
  // only appear when a collector ran — an uninstrumented sweep keeps the
  // familiar narrow table.
  const bool obs_on = sweep.grid.base.obs.any();
  // Likewise the workload columns: they only appear when the grid swept
  // a non-open source (effective rate vs configured rate is the
  // closed-loop self-throttling readout).
  const bool wl_on = std::any_of(
      sweep.grid.workloads.begin(), sweep.grid.workloads.end(),
      [](const mineq::workload::Spec& spec) {
        return spec.kind != mineq::workload::Kind::kOpen;
      });
  std::vector<std::string> headers = {
      "network", "fabric", "paths", "r", "pattern", "mode", "lanes",
      "fault", "frate", "rate", "throughput", "accept", "lat mean",
      "lat p99", "dropped", "fullacc", "mindiv", "hol"};
  if (wl_on) {
    headers.push_back("workload");
    headers.push_back("eff rate");
    headers.push_back("reply p99");
    headers.push_back("wstall");
  }
  if (obs_on) {
    headers.push_back("stall cause");
    headers.push_back("flow p99");
  }
  mineq::util::TablePrinter table(std::move(headers));
  for (const SweepPoint& p : sweep.points) {
    std::vector<std::string> row = {
        mineq::min::network_token(p.network),
        mineq::min::multipath_kind_name(p.fabric),
        std::to_string(p.result.paths_available),
        std::to_string(p.radix),
        mineq::sim::pattern_name(p.pattern),
        mineq::sim::switching_mode_name(p.mode),
        std::to_string(p.lanes),
        mineq::fault::fault_kind_name(p.fault.kind),
        fixed(p.fault.rate, 2), fixed(p.rate, 2),
        fixed(p.result.throughput, 3),
        fixed(p.result.acceptance, 3),
        fixed(p.result.latency.mean(), 1),
        fixed(p.result.latency_histogram.quantile(0.99), 0),
        std::to_string(p.result.packets_dropped_faulted),
        p.survivor.full_access ? "yes" : "no",
        std::to_string(p.min_path_diversity),
        std::to_string(p.result.hol_blocking_cycles)};
    if (wl_on) {
      row.push_back(mineq::workload::kind_name(p.workload.kind));
      row.push_back(fixed(p.result.offered_rate_effective, 3));
      row.push_back(
          fixed(p.result.reply_latency_histogram.quantile(0.99), 0));
      row.push_back(std::to_string(p.result.window_stall_cycles));
    }
    if (obs_on) {
      row.emplace_back(
          mineq::obs::stall_cause_name(p.result.dominant_stall_cause()));
      row.push_back(fixed(p.result.flows.worst_p99, 0));
    }
    table.add_row(std::move(row));
  }
  std::cout << table.str();
}

/// Process-track label of one traced sweep point in the merged
/// Perfetto document.
std::string trace_label(const SweepPoint& p) {
  return mineq::min::network_token(p.network) + '/' +
         std::string(mineq::min::multipath_kind_name(p.fabric)) + '/' +
         std::string(mineq::sim::pattern_name(p.pattern)) + '/' +
         std::string(mineq::sim::switching_mode_name(p.mode)) +
         " rate=" + mineq::util::fixed(p.rate, 2);
}

/// Cross {kinds x rates x seeds} into the fault axis; "none" collapses
/// to the single pristine spec regardless of the rate/seed lists (a
/// no-fault point is one point).
std::vector<mineq::fault::FaultSpec> cross_fault_axis(
    const std::vector<mineq::fault::FaultKind>& kinds,
    const std::vector<double>& rates,
    const std::vector<std::uint64_t>& seeds) {
  std::vector<mineq::fault::FaultSpec> specs;
  bool none_added = false;
  for (const mineq::fault::FaultKind kind : kinds) {
    if (kind == mineq::fault::FaultKind::kNone) {
      if (!none_added) specs.push_back(mineq::fault::FaultSpec{});
      none_added = true;
      continue;
    }
    for (const double rate : rates) {
      for (const std::uint64_t seed : seeds) {
        specs.push_back(mineq::fault::FaultSpec{kind, rate, seed});
      }
    }
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  SweepGrid grid;
  grid.networks = {mineq::min::NetworkKind::kOmega,
                   mineq::min::NetworkKind::kBaseline};
  grid.patterns = {mineq::sim::Pattern::kUniform};
  grid.modes = {mineq::sim::SwitchingMode::kStoreAndForward};
  grid.lane_counts = {1};
  grid.rates = parse_rates("0.1:1.0:0.1", "--rates");
  grid.base.packet_length = 4;

  std::vector<mineq::min::MultiPathKind> fabric_kinds;
  std::vector<int> fabric_paths = {2};
  std::vector<mineq::fault::FaultKind> fault_kinds = {
      mineq::fault::FaultKind::kNone};
  std::vector<double> fault_rates = {0.05};
  std::vector<std::uint64_t> fault_seeds = {1};
  std::vector<double> burst_on_off = {mineq::sim::BurstParams{}.on_to_off};
  std::vector<double> burst_off_on = {mineq::sim::BurstParams{}.off_to_on};
  std::vector<std::uint64_t> credit_latencies;
  std::vector<mineq::sim::ArbitrationPolicy> arbitrations;
  std::vector<unsigned> vl_weights;
  std::vector<unsigned> sl_map;
  bool credits_requested = false;
  std::vector<mineq::workload::Kind> workload_kinds;
  unsigned rr_window = mineq::workload::Spec{}.rr_window;
  std::uint64_t time_compression = 1;
  std::string trace_in_path;
  std::string trace_out_workload_path;

  std::size_t threads = 0;
  std::string csv_path;
  std::string json_path;
  std::string trace_path;
  bool quiet = false;

  const auto next_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) fail(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    try {
      if (arg == "--help" || arg == "-h") {
        std::cout << usage();
        return 0;
      } else if (arg == "--networks") {
        grid.networks.clear();
        fabric_kinds.clear();
        for (const std::string& item : split_list(next_value(i), ',')) {
          // Multipath fabric tokens share the axis with the classic
          // single-path networks; route them to the fabric axis.
          if (item == "benes" || item == "dilated" || item == "replicated") {
            fabric_kinds.push_back(mineq::min::parse_multipath_kind(item));
          } else {
            grid.networks.push_back(mineq::min::parse_network_kind(item));
          }
        }
      } else if (arg == "--paths") {
        fabric_paths.clear();
        for (const std::string& item : split_list(next_value(i), ',')) {
          const std::uint64_t paths = parse_u64(item, "path count", arg);
          if (paths < 2 || paths > 64) {
            fail("path count must be within [2, 64], got " + item);
          }
          fabric_paths.push_back(static_cast<int>(paths));
        }
      } else if (arg == "--path-policy" || arg == "--path-policies") {
        grid.path_policies.clear();
        for (const std::string& item : split_list(next_value(i), ',')) {
          grid.path_policies.push_back(mineq::sim::parse_path_policy(item));
        }
      } else if (arg == "--radix" || arg == "--radices") {
        grid.radices.clear();
        for (const std::string& item : split_list(next_value(i), ',')) {
          const std::uint64_t radix = parse_u64(item, "radix", arg);
          // Range-check before narrowing: a huge value must not wrap
          // into the valid [2, 16] window.
          if (radix < 2 || radix > 16) {
            fail("radix must be within [2, 16], got " + item);
          }
          grid.radices.push_back(static_cast<int>(radix));
        }
      } else if (arg == "--patterns") {
        grid.patterns.clear();
        for (const std::string& item : split_list(next_value(i), ',')) {
          grid.patterns.push_back(mineq::sim::parse_pattern(item));
        }
      } else if (arg == "--mode" || arg == "--modes") {
        grid.modes.clear();
        for (const std::string& item : split_list(next_value(i), ',')) {
          grid.modes.push_back(mineq::sim::parse_switching_mode(item));
        }
      } else if (arg == "--lanes") {
        grid.lane_counts.clear();
        for (const std::string& item : split_list(next_value(i), ',')) {
          grid.lane_counts.push_back(parse_u64(item, "lane count", arg));
        }
      } else if (arg == "--rates") {
        grid.rates = parse_rates(next_value(i), arg);
      } else if (arg == "--fault-kinds") {
        fault_kinds.clear();
        for (const std::string& item : split_list(next_value(i), ',')) {
          fault_kinds.push_back(mineq::fault::parse_fault_kind(item));
        }
      } else if (arg == "--fault-rates") {
        fault_rates = parse_rates(next_value(i), arg);
      } else if (arg == "--fault-seeds") {
        fault_seeds.clear();
        for (const std::string& item : split_list(next_value(i), ',')) {
          fault_seeds.push_back(parse_u64(item, "fault seed", arg));
        }
      } else if (arg == "--burst-on-off") {
        burst_on_off.clear();
        for (const std::string& item : split_list(next_value(i), ',')) {
          burst_on_off.push_back(parse_double(item, "burst on->off"));
        }
      } else if (arg == "--burst-off-on") {
        burst_off_on.clear();
        for (const std::string& item : split_list(next_value(i), ',')) {
          burst_off_on.push_back(parse_double(item, "burst off->on"));
        }
      } else if (arg == "--credit-latency" || arg == "--credit-latencies") {
        credits_requested = true;
        credit_latencies.clear();
        for (const std::string& item : split_list(next_value(i), ',')) {
          credit_latencies.push_back(parse_u64(item, "credit latency", arg));
        }
      } else if (arg == "--arbitration" || arg == "--arbitrations") {
        credits_requested = true;
        arbitrations.clear();
        for (const std::string& item : split_list(next_value(i), ',')) {
          arbitrations.push_back(mineq::sim::parse_arbitration_policy(item));
        }
      } else if (arg == "--vl-weights") {
        credits_requested = true;
        vl_weights.clear();
        for (const std::string& item : split_list(next_value(i), ',')) {
          vl_weights.push_back(
              parse_narrow<unsigned>(item, "VL weight", arg));
        }
      } else if (arg == "--sl-map") {
        credits_requested = true;
        sl_map.clear();
        for (const std::string& item : split_list(next_value(i), ',')) {
          sl_map.push_back(
              parse_narrow<unsigned>(item, "SL->VL entry", arg));
        }
      } else if (arg == "--stages") {
        grid.stages = parse_narrow<int>(next_value(i), "stages", arg);
      } else if (arg == "--packet-length") {
        grid.base.packet_length =
            parse_u64(next_value(i), "packet length", arg);
      } else if (arg == "--lane-depth") {
        grid.base.lane_depth =
            parse_u64(next_value(i), "lane depth", arg);
      } else if (arg == "--queue-capacity") {
        grid.base.queue_capacity =
            parse_u64(next_value(i), "queue capacity", arg);
      } else if (arg == "--warmup") {
        grid.base.warmup_cycles =
            parse_u64(next_value(i), "warmup cycles", arg);
      } else if (arg == "--measure") {
        grid.base.measure_cycles =
            parse_u64(next_value(i), "measure cycles", arg);
      } else if (arg == "--seed") {
        grid.base.seed = parse_u64(next_value(i), "seed", arg);
      } else if (arg == "--threads") {
        threads = parse_u64(next_value(i), "thread count", arg,
                            mineq::sim::SimConfig::kMaxSimThreads);
      } else if (arg == "--sim-threads") {
        grid.base.sim_threads =
            parse_u64(next_value(i), "per-simulation thread count", arg);
      } else if (arg == "--workload" || arg == "--workloads") {
        workload_kinds.clear();
        for (const std::string& item : split_list(next_value(i), ',')) {
          workload_kinds.push_back(mineq::workload::parse_kind(item));
        }
      } else if (arg == "--rr-window") {
        rr_window =
            parse_narrow<unsigned>(next_value(i), "request-reply window", arg);
      } else if (arg == "--time-compression") {
        time_compression =
            parse_u64(next_value(i), "trace time-compression factor", arg);
      } else if (arg == "--trace-in") {
        trace_in_path = next_value(i);
      } else if (arg == "--trace-out-workload") {
        trace_out_workload_path = next_value(i);
      } else if (arg == "--probe-stride") {
        grid.base.obs.probe_stride =
            parse_u64(next_value(i), "probe stride", arg);
      } else if (arg == "--flow-stats") {
        grid.base.obs.flow_stats = true;
      } else if (arg == "--trace-sample") {
        grid.base.obs.trace_sample =
            parse_u64(next_value(i), "trace sample rate", arg);
      } else if (arg == "--trace-out") {
        trace_path = next_value(i);
      } else if (arg == "--csv") {
        csv_path = next_value(i);
      } else if (arg == "--json") {
        json_path = next_value(i);
      } else if (arg == "--quiet") {
        quiet = true;
      } else {
        fail("unknown option \"" + std::string(arg) + '"');
      }
    } catch (const std::invalid_argument& error) {
      fail(error.what());
    }
  }

  // A machine-readable stream on stdout must not be polluted by the
  // summary table.
  if (csv_path == "-" || json_path == "-") quiet = true;

  // --trace-out without an explicit sampling rate traces the 1-in-64
  // deterministic packet subset — dense enough to see structure, sparse
  // enough that the document stays loadable.
  if (!trace_path.empty() && grid.base.obs.trace_sample == 0) {
    grid.base.obs.trace_sample = 64;
  }

  grid.faults = cross_fault_axis(fault_kinds, fault_rates, fault_seeds);
  if (credits_requested) {
    // Cross {latency x arbitration} into the flow-control axis; the VL
    // weights and SL->VL map are shared by every credit point.
    if (credit_latencies.empty()) credit_latencies.push_back(0);
    if (arbitrations.empty()) {
      arbitrations.push_back(mineq::sim::ArbitrationPolicy::kRoundRobin);
    }
    grid.credits.clear();
    for (const std::uint64_t latency : credit_latencies) {
      for (const mineq::sim::ArbitrationPolicy arbitration : arbitrations) {
        mineq::sim::CreditConfig cc;
        cc.enabled = true;
        cc.return_latency = latency;
        cc.arbitration = arbitration;
        cc.weights = vl_weights;
        cc.sl_map = sl_map;
        grid.credits.push_back(std::move(cc));
      }
    }
  }
  grid.bursts.clear();
  for (const double on_off : burst_on_off) {
    for (const double off_on : burst_off_on) {
      grid.bursts.push_back(mineq::sim::BurstParams{on_off, off_on});
    }
  }
  // The workload axis. A loaded --trace-in implies a trace workload
  // value when none was listed, so a bare replay needs only the file.
  std::shared_ptr<const mineq::workload::TraceData> trace_data;
  if (!trace_in_path.empty()) {
    std::ifstream in(trace_in_path, std::ios::binary);
    if (!in) fail("cannot open trace file " + trace_in_path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
      trace_data = std::make_shared<const mineq::workload::TraceData>(
          mineq::workload::parse_trace(buffer.str()));
    } catch (const std::invalid_argument& error) {
      fail(trace_in_path + ": " + error.what());
    }
    if (std::find(workload_kinds.begin(), workload_kinds.end(),
                  mineq::workload::Kind::kTrace) == workload_kinds.end()) {
      workload_kinds.push_back(mineq::workload::Kind::kTrace);
    }
  }
  if (!workload_kinds.empty()) {
    grid.workloads.clear();
    for (const mineq::workload::Kind kind : workload_kinds) {
      mineq::workload::Spec spec;
      spec.kind = kind;
      if (kind == mineq::workload::Kind::kTrace) {
        if (!trace_data) fail("--workload trace needs --trace-in FILE");
        spec.trace = trace_data;
      }
      grid.workloads.push_back(std::move(spec));
    }
  }
  for (mineq::workload::Spec& spec : grid.workloads) {
    spec.rr_window = rr_window;
    spec.time_compression = time_compression;
    // Recording works with any kind: every grid repeat captures its
    // injections; the first grid point's capture is what gets written.
    spec.record = !trace_out_workload_path.empty();
  }

  // Cross {fabric kind x paths} into the fabric axis; the Benes fixes
  // its own multiplicity (radix^(stages-1)), so it contributes one spec
  // regardless of the --paths list. Dilated/replicated fabrics compose
  // over the omega base.
  for (const mineq::min::MultiPathKind kind : fabric_kinds) {
    if (kind == mineq::min::MultiPathKind::kBenes) {
      grid.fabrics.push_back(mineq::exp::FabricSpec{
          kind, mineq::min::NetworkKind::kOmega, 2});
      continue;
    }
    for (const int paths : fabric_paths) {
      grid.fabrics.push_back(mineq::exp::FabricSpec{
          kind, mineq::min::NetworkKind::kOmega, paths});
    }
  }

  try {
    const mineq::exp::SweepResult sweep = mineq::exp::run_sweep(grid, threads);
    if (!quiet) {
      print_summary(sweep);
      std::cerr << sweep.points.size() << " grid points";
      for (const int radix : grid.radices) {
        std::uint64_t terminals = 1;
        for (int s = 0; s < grid.stages; ++s) {
          terminals *= static_cast<std::uint64_t>(radix);
        }
        std::cerr << ", " << terminals << " terminals per radix-" << radix
                  << " network";
      }
      std::cerr << '\n';
    }
    if (!csv_path.empty()) {
      const std::string csv = mineq::exp::sweep_csv(sweep);
      if (csv_path == "-") {
        std::cout << csv;
      } else {
        mineq::exp::write_text_file(csv_path, csv);
      }
    }
    if (!json_path.empty()) {
      const std::string json = mineq::exp::sweep_json(sweep);
      if (json_path == "-") {
        std::cout << json;
      } else {
        mineq::exp::write_text_file(json_path, json);
      }
    }
    if (!trace_out_workload_path.empty()) {
      if (sweep.points.empty()) fail("nothing simulated, no trace to write");
      mineq::exp::write_text_file(
          trace_out_workload_path,
          mineq::workload::write_trace(
              sweep.points.front().result.workload_trace));
    }
    if (!trace_path.empty()) {
      // One merged Perfetto document, one process track per traced grid
      // point (points whose sampled subset ejected nothing contribute no
      // track).
      std::vector<
          std::pair<std::string, const std::vector<mineq::obs::TraceEvent>*>>
          processes;
      for (const SweepPoint& p : sweep.points) {
        if (p.result.trace.empty()) continue;
        processes.emplace_back(trace_label(p), &p.result.trace);
      }
      mineq::exp::write_text_file(trace_path,
                                  mineq::obs::trace_json_multi(processes));
    }
  } catch (const std::exception& error) {
    fail(error.what());
  }
  return 0;
}
