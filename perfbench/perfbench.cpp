/// \file perfbench.cpp
/// \brief The repository benchmark: one process runs one workload and
/// prints its metrics as one JSON line (see README.md in this directory).
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             --pins FILE [--smoke] [--spans-out FILE]
///             [--revision TEXT] [--emit-pins]
///
/// Untraced runs (--trace 0) measure the workload's end-to-end metrics.
/// Traced runs (--trace 1) run the layer profile instead: every call the
/// benchmark makes into a library layer is wrapped in a span, and the
/// per-layer metrics are read off those spans. Spans are recorded only
/// from the benchmark's own files, around calls into public functions;
/// nothing inside the library is instrumented.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "fault/fault_model.hpp"
#include "min/banyan.hpp"
#include "min/equivalence.hpp"
#include "min/flat_wiring.hpp"
#include "min/kary.hpp"
#include "min/networks.hpp"
#include "min/properties.hpp"
#include "min/routing.hpp"
#include "multipath/diversity.hpp"
#include "multipath/multipath_wiring.hpp"
#include "perm/permutation.hpp"
#include "sim/engine.hpp"
#include "sim/fabric.hpp"
#include "util/rng.hpp"

namespace {

using namespace mineq;
using Clock = std::chrono::steady_clock;

/// The seed whose outputs are pinned in pins.txt.
constexpr std::uint64_t kDefaultSeed = 1;
/// Sweep fan-out and per-simulation threads: the benchmark uses at most
/// two of the host's cores so co-tenant noise stays low.
constexpr std::size_t kSweepThreads = 2;
constexpr std::size_t kSimThreads = 1;

const std::vector<std::string> kWorkloads = {
    "sweep",           "megafabric_saf",          "megafabric_wormhole",
    "megafabric_radix4", "characterize_equivalent", "characterize_rejected"};

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool emit_pins = false;
  std::string pins_path;
  std::string spans_out;
  std::string revision = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --pins FILE [--smoke] "
               "[--spans-out FILE] [--revision TEXT] [--emit-pins]\n"
               "workloads:";
  for (const std::string& w : kWorkloads) std::cerr << ' ' << w;
  std::cerr << '\n';
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (arg == "--pins") {
        opt.pins_path = value();
      } else if (arg == "--spans-out") {
        opt.spans_out = value();
      } else if (arg == "--revision") {
        opt.revision = value();
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--emit-pins") {
        opt.emit_pins = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload ||
      std::find(kWorkloads.begin(), kWorkloads.end(), opt.workload) ==
          kWorkloads.end()) {
    usage("unknown or missing --workload");
  }
  if (!(opt.seconds > 0.0) || opt.seconds > 600.0) {
    usage("--seconds must be within (0, 600]");
  }
  if (opt.pins_path.empty() && !opt.emit_pins) usage("--pins is required");
  return opt;
}

// ---------------------------------------------------------------------------
// Sizes: the full benchmark and the seconds-long smoke mode run the same
// code paths at different scales.
// ---------------------------------------------------------------------------

struct Sizes {
  std::string pin_prefix;  ///< "" (full) or "smoke." — pins.txt key prefix
  int sweep_stages;
  std::uint64_t sweep_warmup;
  std::uint64_t sweep_measure;
  int mega_stages_radix2;
  int mega_stages_radix4;
  std::uint64_t mega_warmup;
  std::uint64_t mega_measure;
  std::vector<int> char_stages;
  int char_random_equivalent;  ///< Banyan independent networks per size
  int char_random_rejected;    ///< non-Banyan networks per size and family
  // Set-up repetitions per run: setup_s is their median, and they are
  // spread over the run's measuring time (SetupSchedule).
  int sweep_setup_reps;
  int mega_setup_reps;
  int char_setup_reps;
};

Sizes full_sizes() {
  return Sizes{"", 9, 20, 100, 14, 7, 20, 40, {10, 11, 12}, 6, 20, 3, 15, 3};
}

Sizes smoke_sizes() {
  return Sizes{"smoke.", 5, 5, 60, 6, 3, 5, 20, {7, 8, 9}, 2, 3, 2, 2, 2};
}

// ---------------------------------------------------------------------------
// Timing, spans, checks, pins
// ---------------------------------------------------------------------------

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 != 0 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) throw std::logic_error("mean of no samples");
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// In-memory span recorder. Each span is one call the benchmark makes into
/// a layer (or a section of the benchmark grouping such calls), with its
/// parent: the innermost span open when it started. A disabled tracer
/// records nothing, which is the untraced path.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s;
    double end_s;
    int parent;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Run \p body inside a span named \p name; returns its wall seconds.
  template <class Body>
  double timed(const std::string& name, Body&& body) {
    const int index = open(name);
    const Clock::time_point t0 = Clock::now();
    body();
    const Clock::time_point t1 = Clock::now();
    close(index, t1);
    return seconds_between(t0, t1);
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time per span: its duration minus the time its direct
  /// children cover (children of one span never overlap: the benchmark
  /// opens spans from one thread only).
  [[nodiscard]] std::vector<double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_s - spans_[i].start_s;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
      }
    }
    return self;
  }

 private:
  int open(const std::string& name) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, seconds_between(origin_, Clock::now()), 0.0,
                          current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int index, Clock::time_point end) {
    if (index < 0) return;
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_s = seconds_between(origin_, end);
    current_ = s.parent;
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Operations attempted and failed. An operation is one unit of checked
/// work (a grid point, a simulation run, a decision); it fails when any
/// check on its output fails, and counts once either way.
class Checks {
 public:
  /// Log \p what when \p ok is false; returns \p ok.
  bool note(bool ok, const std::string& what) {
    if (!ok && logged_++ < 20) std::cerr << "CHECK FAILED: " << what << '\n';
    return ok;
  }

  /// Count \p ops operations, failed unless \p ok.
  void record(std::uint64_t ops, bool ok) {
    attempted_ += ops;
    if (!ok) failed_ += ops;
  }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int logged_ = 0;
};

/// Pinned outputs at the default seed (pins.txt: `key value` lines).
/// Comparing a missing key fails, so a lost pins file never passes.
class Pins {
 public:
  Pins(const Options& opt, const Sizes& sizes)
      : active_(opt.seed == kDefaultSeed), emit_(opt.emit_pins),
        prefix_(sizes.pin_prefix) {
    if (emit_ || !active_) return;
    std::ifstream in(opt.pins_path);
    if (!in) throw std::runtime_error("cannot read pins file " + opt.pins_path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string key;
      std::string value;
      if (fields >> key >> value) values_[key] = value;
    }
  }

  /// At the default seed, compare \p value with the pin \p key (or print
  /// it in --emit-pins mode); other seeds skip pinned checks.
  bool matches(Checks& checks, const std::string& key,
               const std::string& value) const {
    if (!active_) return true;
    const std::string full = prefix_ + key;
    if (emit_) {
      if (emitted_.insert(full).second) {
        std::cout << "PIN " << full << ' ' << value << '\n';
      }
      return true;
    }
    const auto it = values_.find(full);
    return checks.note(it != values_.end() && it->second == value,
                       "pin " + full + " expected " +
                           (it == values_.end() ? "<missing>" : it->second) +
                           " got " + value);
  }

 private:
  bool active_;
  bool emit_;
  std::string prefix_;
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> emitted_;
};

/// FNV-1a, 64 bit: a fingerprint for pinned byte strings.
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// The SimResult counters a replay or a repeated run must reproduce
/// exactly, as one comparable line (doubles at full precision).
std::string counters_line(const sim::SimResult& r) {
  std::ostringstream out;
  out.precision(17);
  out << r.offered << ' ' << r.injected << ' ' << r.delivered << ' '
      << r.flits_injected << ' ' << r.flits_delivered << ' '
      << r.flits_in_flight << ' ' << r.hol_blocking_cycles << ' '
      << r.latency.count() << ' ' << r.latency.mean() << ' '
      << r.latency.max() << ' ' << r.latency_histogram.quantile(0.5) << ' '
      << r.latency_histogram.quantile(0.99) << ' ' << r.link_utilization
      << ' ' << r.credit_stall_cycles << ' ' << r.packets_dropped_faulted
      << ' ' << r.packets_rerouted << ' ' << r.packets_misdelivered << ' '
      << r.path_reroutes << ' ' << r.window_stall_cycles << ' '
      << r.reply_latency.count() << ' ' << r.reply_latency.mean();
  return out.str();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Spreads a run's set-up repetitions over its measuring time, so their
/// median samples the host at several moments instead of one burst: set-up
/// i runs at the first unit boundary after i/reps of the budget. The
/// callable does one set-up and returns its seconds.
class SetupSchedule {
 public:
  SetupSchedule(int reps, double seconds, std::function<double()> set_up)
      : reps_(static_cast<std::size_t>(reps)), seconds_(seconds),
        set_up_(std::move(set_up)) {}

  /// Run the set-ups due \p elapsed seconds into the measurement.
  void due(double elapsed) {
    while (times_.size() < reps_ &&
           elapsed >= static_cast<double>(times_.size()) * seconds_ /
                          static_cast<double>(reps_)) {
      times_.push_back(set_up_());
    }
  }

  /// Run any set-ups still missing; the median of all of them.
  double finish() {
    while (times_.size() < reps_) times_.push_back(set_up_());
    return median(times_);
  }

 private:
  std::size_t reps_;
  double seconds_;
  std::function<double()> set_up_;
  std::vector<double> times_;
};

// ---------------------------------------------------------------------------
// sweep
// ---------------------------------------------------------------------------

/// The sweep grid: 2 networks + 1 Benes fabric x 2 patterns x {saf,
/// wormhole with 2 lanes} x 2 fault specs x 2 credit configs (unipath
/// only) x 3 rates x {open loop, closed loop window 4} = 240 points.
exp::SweepGrid sweep_grid(const Sizes& z, std::uint64_t seed) {
  exp::SweepGrid grid;
  grid.networks = {min::NetworkKind::kOmega, min::NetworkKind::kBaseline};
  grid.fabrics = {exp::FabricSpec{min::MultiPathKind::kBenes,
                                  min::NetworkKind::kOmega, 2}};
  grid.patterns = {sim::Pattern::kUniform, sim::Pattern::kHotSpot};
  grid.modes = {sim::SwitchingMode::kStoreAndForward,
                sim::SwitchingMode::kWormhole};
  grid.lane_counts = {2};
  grid.faults = {fault::FaultSpec{},
                 fault::FaultSpec{fault::FaultKind::kRandomLinks, 0.05, seed}};
  sim::CreditConfig credits;
  credits.enabled = true;
  credits.return_latency = 2;
  grid.credits = {sim::CreditConfig{}, credits};
  grid.rates = {0.3, 0.6, 0.9};
  workload::Spec closed;
  closed.kind = workload::Kind::kClosedLoop;
  closed.rr_window = 4;
  grid.workloads = {workload::Spec{}, closed};
  grid.stages = z.sweep_stages;
  grid.base.packet_length = 4;
  grid.base.warmup_cycles = z.sweep_warmup;
  grid.base.measure_cycles = z.sweep_measure;
  grid.base.seed = seed;
  grid.base.sim_threads = kSimThreads;
  return grid;
}

/// What run_sweep builds before its first simulated cycle, built by the
/// benchmark through the same public calls: one Engine per network and per
/// fabric, and per (engine, fault spec) one fault mask, its survivor
/// classification and (on the fabric) its surviving-path floor.
struct SweepFixture {
  std::vector<std::unique_ptr<sim::Engine>> engines;  ///< networks, then benes
  std::vector<std::vector<fault::FaultMask>> masks;   ///< [engine][fault]
  std::vector<std::vector<min::FaultedClassification>> survivors;
  std::vector<std::vector<std::uint64_t>> diversity;
};

SweepFixture build_sweep_fixture(const exp::SweepGrid& grid, Tracer& tracer) {
  SweepFixture fx;
  for (const min::NetworkKind kind : grid.networks) {
    min::MIDigraph network = min::build_network(kind, grid.stages);
    tracer.timed("sim.engine_build.radix2", [&] {
      fx.engines.push_back(std::make_unique<sim::Engine>(std::move(network)));
    });
  }
  tracer.timed("multipath.benes_build", [&] {
    fx.engines.push_back(std::make_unique<sim::Engine>(
        min::MultiPathWiring::benes(grid.stages, 2)));
  });
  for (const auto& engine : fx.engines) {
    fx.masks.emplace_back();
    fx.survivors.emplace_back();
    fx.diversity.emplace_back();
    for (const fault::FaultSpec& spec : grid.faults) {
      tracer.timed("fault.mask_classify", [&] {
        fault::FaultMask mask = fault::build_fault_mask(engine->wiring(), spec);
        const min::FaultedClassification survivor =
            min::classify_faulted(engine->wiring(), mask);
        fx.diversity.back().push_back(
            engine->multipath()
                ? multipath::min_path_diversity(engine->fabric(), &mask)
                : (survivor.full_access ? 1 : 0));
        fx.survivors.back().push_back(survivor);
        fx.masks.back().push_back(std::move(mask));
      });
    }
  }
  return fx;
}

/// Where run_sweep ran a point: (engine index, fault index) in the
/// fixture.
std::pair<std::size_t, std::size_t> point_slot(const exp::SweepGrid& grid,
                                               const exp::SweepPoint& p) {
  std::size_t engine = grid.networks.size();  // the Benes fabric
  if (p.fabric == min::MultiPathKind::kUnipath) {
    engine = static_cast<std::size_t>(
        std::find(grid.networks.begin(), grid.networks.end(), p.network) -
        grid.networks.begin());
  }
  const std::size_t fault =
      p.fault.kind == fault::FaultKind::kNone ? 0 : 1;
  return {engine, fault};
}

/// The SimConfig run_sweep derived for a point.
sim::SimConfig point_config(const exp::SweepGrid& grid,
                            const exp::SweepPoint& p) {
  sim::SimConfig config = grid.base;
  config.injection_rate = p.rate;
  config.mode = p.mode;
  config.lanes = p.lanes;
  config.burst = p.burst;
  config.credits = p.credits;
  config.path_policy = p.path_policy;
  config.workload = p.workload;
  config.seed = p.seed;
  return config;
}

struct SweepOutput {
  std::string csv;
  std::string json;
  std::size_t points = 0;
};

/// Check one sweep's reports; every point of the sweep fails with them.
void check_sweep_output(const SweepOutput& out, const SweepOutput& first,
                        const exp::SweepGrid& grid, const Pins& pins,
                        Checks& checks) {
  const auto rows = static_cast<std::size_t>(
      std::count(out.csv.begin(), out.csv.end(), '\n'));
  // Bitwise & so every check runs and logs.
  const bool ok =
      checks.note(out.points == grid.size(), "sweep point count") &
      checks.note(rows == grid.size() + 1, "sweep CSV row count") &
      checks.note(out.csv == first.csv && out.json == first.json,
                  "sweep reports differ between repeated sweeps") &
      pins.matches(checks, "sweep.csv_fnv64", hex(fnv1a(out.csv))) &
      pins.matches(checks, "sweep.json_fnv64", hex(fnv1a(out.json)));
  checks.record(out.points, ok);
}

std::vector<Metric> sweep_workload(const Options& opt, const Sizes& z,
                                   Checks& checks, const Pins& pins) {
  const exp::SweepGrid grid = sweep_grid(z, opt.seed);
  Tracer off(false);
  SetupSchedule setup(z.sweep_setup_reps, opt.seconds, [&] {
    const Clock::time_point t0 = Clock::now();
    const SweepFixture fx = build_sweep_fixture(grid, off);
    return seconds_between(t0, Clock::now());
  });

  std::vector<double> walls;
  SweepOutput first;
  setup.due(0.0);
  const Clock::time_point start = Clock::now();
  while (true) {
    const Clock::time_point t0 = Clock::now();
    const exp::SweepResult result = exp::run_sweep(grid, kSweepThreads);
    SweepOutput out{exp::sweep_csv(result), exp::sweep_json(result),
                    result.points.size()};
    const Clock::time_point t1 = Clock::now();
    walls.push_back(seconds_between(t0, t1));
    if (walls.size() == 1) first = out;
    check_sweep_output(out, first, grid, pins, checks);
    setup.due(seconds_between(start, Clock::now()));
    // Start another sweep only if it fits in the budget, but always
    // measure at least two.
    const double elapsed = seconds_between(start, Clock::now());
    if (walls.size() >= 2 && elapsed + median(walls) > opt.seconds) break;
  }
  const double per_point =
      median(walls) / static_cast<double>(grid.size());
  std::cerr << "sweep: " << walls.size() << " sweeps of " << grid.size()
            << " points, median " << median(walls) << " s ("
            << static_cast<double>(grid.size()) / median(walls)
            << " points/s)\n";
  return {{"setup_s", setup.finish(), "s"},
          {"ns_per_op", per_point * 1e9, "ns"}};
}

// ---------------------------------------------------------------------------
// megafabric
// ---------------------------------------------------------------------------

struct MegaConfig {
  int radix;
  int stages;
  sim::SimConfig config;
};

MegaConfig mega_config(const std::string& workload, const Sizes& z,
                       std::uint64_t seed) {
  MegaConfig mc{2, z.mega_stages_radix2, sim::SimConfig{}};
  mc.config.injection_rate = 0.6;
  mc.config.warmup_cycles = z.mega_warmup;
  mc.config.measure_cycles = z.mega_measure;
  mc.config.seed = seed;
  mc.config.sim_threads = kSimThreads;
  if (workload == "megafabric_wormhole") {
    mc.config.mode = sim::SwitchingMode::kWormhole;
    mc.config.packet_length = 4;
    mc.config.lanes = 2;
  } else if (workload == "megafabric_radix4") {
    mc.radix = 4;
    mc.stages = z.mega_stages_radix4;
  }
  return mc;
}

/// Switches (of the fabric's own radix) per simulated cycle.
double switch_count(const sim::Engine& engine) {
  return static_cast<double>(engine.wiring().cells_per_stage()) *
         static_cast<double>(engine.wiring().stages());
}

double total_cycles(const sim::SimConfig& c) {
  return static_cast<double>(c.warmup_cycles + c.measure_cycles);
}

/// A megafabric run's set-up: the engine build plus the first run's pool
/// sizing, isolated as a one-cycle run on a fresh workspace.
struct MegaSetup {
  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<sim::SimWorkspace> workspace;
};

MegaSetup mega_setup(const MegaConfig& mc) {
  MegaSetup s;
  const min::KaryMIDigraph network =
      min::build_kary_network(min::NetworkKind::kOmega, mc.stages, mc.radix);
  s.engine = std::make_unique<sim::Engine>(network);
  s.workspace = std::make_unique<sim::SimWorkspace>();
  sim::SimConfig sizing = mc.config;
  sizing.warmup_cycles = 0;
  sizing.measure_cycles = 1;
  (void)s.engine->run(sim::Pattern::kUniform, sizing, nullptr,
                      s.workspace.get());
  return s;
}

/// Check one large run's counters (one operation).
void check_mega_result(const sim::SimResult& r, const std::string& first,
                       const std::string& workload, const Pins& pins,
                       Checks& checks) {
  const bool ok =
      checks.note(r.delivered > 0, workload + ": nothing delivered") &
      checks.note(counters_line(r) == first,
                  workload + ": counters differ between repeated runs") &
      pins.matches(checks, workload + ".delivered",
                   std::to_string(r.delivered)) &
      pins.matches(checks, workload + ".flits_injected",
                   std::to_string(r.flits_injected)) &
      pins.matches(checks, workload + ".flits_delivered",
                   std::to_string(r.flits_delivered)) &
      pins.matches(checks, workload + ".latency_p50",
                   std::to_string(r.latency_histogram.quantile(0.5))) &
      pins.matches(checks, workload + ".latency_p99",
                   std::to_string(r.latency_histogram.quantile(0.99))) &
      pins.matches(checks, workload + ".hol_blocking_cycles",
                   std::to_string(r.hol_blocking_cycles));
  checks.record(1, ok);
}

std::vector<Metric> megafabric_workload(const Options& opt, const Sizes& z,
                                        Checks& checks, const Pins& pins) {
  const MegaConfig mc = mega_config(opt.workload, z, opt.seed);
  // The first set-up's engine and workspace are the ones measured; later
  // set-ups build a spare, released before the next one is timed.
  MegaSetup kept;
  MegaSetup spare;
  SetupSchedule setup(z.mega_setup_reps, opt.seconds, [&] {
    spare = MegaSetup{};
    const Clock::time_point t0 = Clock::now();
    MegaSetup built = mega_setup(mc);
    const double seconds = seconds_between(t0, Clock::now());
    (kept.engine ? spare : kept) = std::move(built);
    return seconds;
  });

  std::vector<double> walls;
  std::string first;
  setup.due(0.0);
  const Clock::time_point start = Clock::now();
  while (true) {
    const Clock::time_point t0 = Clock::now();
    const sim::SimResult r = kept.engine->run(sim::Pattern::kUniform,
                                              mc.config, nullptr,
                                              kept.workspace.get());
    const Clock::time_point t1 = Clock::now();
    walls.push_back(seconds_between(t0, t1));
    if (walls.size() == 1) first = counters_line(r);
    check_mega_result(r, first, opt.workload, pins, checks);
    setup.due(seconds_between(start, Clock::now()));
    const double elapsed = seconds_between(start, Clock::now());
    if (walls.size() >= 3 && elapsed + median(walls) > opt.seconds) break;
  }
  const double ns = median(walls) * 1e9 /
                    (switch_count(*kept.engine) * total_cycles(mc.config));
  std::cerr << opt.workload << ": " << walls.size() << " runs, median "
            << median(walls) << " s, " << ns << " ns per switch-cycle\n";
  return {{"setup_s", setup.finish(), "s"}, {"ns_per_op", ns, "ns"}};
}

// ---------------------------------------------------------------------------
// characterize
// ---------------------------------------------------------------------------

struct BatchEntry {
  min::MIDigraph network;
  bool expect_equivalent;
};

/// A seeded batch built through min's public builders. Equivalent:
/// the six classical networks under random per-stage relabellings, and
/// random independent-connection networks that are Banyan (Theorem 3).
/// Rejected: random PIPID and random independent-connection networks
/// that are not Banyan. Neither verdict is taken from the procedure
/// under test: equivalents are confirmed Banyan by the byte-set doubling
/// check (is_banyan_doubling), and rejects carry a witness — a source
/// whose path count to some sink is not 1.
std::vector<BatchEntry> build_batch(bool equivalent, const Sizes& z,
                                    std::uint64_t seed, Tracer& tracer) {
  util::SplitMix64 rng(seed);
  std::vector<BatchEntry> batch;
  // Keep \p g when it is Banyan (\p want_banyan) or, otherwise, when
  // source 0 already witnesses that it is not; candidates that pass the
  // one-source test are dropped without the full check.
  auto keep_if = [&](min::MIDigraph g, bool want_banyan) {
    bool keep = false;
    tracer.timed("min.banyan_filter", [&] {
      if (!g.is_valid()) {
        keep = !want_banyan;
        return;
      }
      const std::vector<std::uint64_t> counts =
          min::path_counts_from(g, 0, /*cap=*/2);
      const bool witness = std::any_of(counts.begin(), counts.end(),
                                       [](std::uint64_t c) { return c != 1; });
      keep = want_banyan ? !witness && min::is_banyan_doubling(g) : witness;
    });
    if (keep) batch.push_back({std::move(g), want_banyan});
    return keep;
  };
  auto random_network = [&](bool pipid, int n) {
    std::optional<min::MIDigraph> g;
    tracer.timed(pipid ? "min.random_pipid_network"
                       : "min.random_independent_network",
                 [&] {
                   g = pipid ? min::random_pipid_network(n, rng)
                             : min::random_independent_network(n, rng);
                 });
    return std::move(*g);
  };
  for (const int n : z.char_stages) {
    if (equivalent) {
      for (const min::NetworkKind kind : min::all_network_kinds()) {
        std::optional<min::MIDigraph> g;
        tracer.timed("min.build_network",
                     [&] { g = min::build_network(kind, n); });
        std::vector<perm::Permutation> maps;
        for (int s = 0; s < n; ++s) {
          maps.push_back(perm::Permutation::random(g->cells_per_stage(), rng));
        }
        tracer.timed("min.relabelled", [&] {
          batch.push_back({g->relabelled(maps), true});
        });
      }
      for (int found = 0; found < z.char_random_equivalent;) {
        found += keep_if(random_network(false, n), true) ? 1 : 0;
      }
    } else {
      for (const bool pipid : {true, false}) {
        for (int found = 0; found < z.char_random_rejected;) {
          found += keep_if(random_network(pipid, n), false) ? 1 : 0;
        }
      }
    }
  }
  return batch;
}

/// Fingerprint of a batch and its decision transcripts: the pinned
/// "verdict vector" at the default seed.
std::string batch_fingerprint(const std::vector<BatchEntry>& batch,
                              const std::vector<min::EquivalenceReport>& rep) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const min::MIDigraph& g = batch[i].network;
    std::string bytes;
    for (int s = 0; s + 1 < g.stages(); ++s) {
      for (std::uint32_t x = 0; x < g.cells_per_stage(); ++x) {
        const auto c = g.children(s, x);
        bytes += std::to_string(c[0]) + ',' + std::to_string(c[1]) + ';';
      }
    }
    const min::EquivalenceReport& r = rep[i];
    bytes += std::string(r.valid_degrees ? "D" : "d") +
             (r.banyan ? "B" : "b") + (r.p1_star ? "P" : "p") +
             (r.p_star_n ? "S" : "s") + (r.equivalent ? "E" : "e") +
             r.failure;
    h = fnv1a(bytes, h);
  }
  return hex(h);
}

/// Theorem 3's fast path is sound: it never accepts a network the full
/// check rejects. Checked once per network, outside the timed passes.
void check_fast_path(const std::vector<BatchEntry>& batch, Checks& checks) {
  for (const BatchEntry& e : batch) {
    const bool fast = min::is_baseline_equivalent_via_independence(e.network);
    const bool sound = !fast || min::is_baseline_equivalent(e.network);
    checks.record(1, checks.note(sound, "Theorem-3 fast path accepted a "
                                        "rejected network"));
  }
}

std::vector<Metric> characterize_workload(const Options& opt, const Sizes& z,
                                          Checks& checks, const Pins& pins) {
  const bool equivalent = opt.workload == "characterize_equivalent";
  Tracer off(false);
  // The first set-up's batch is the one measured; later ones rebuild the
  // same batch and discard it.
  std::vector<BatchEntry> batch;
  SetupSchedule setup(z.char_setup_reps, opt.seconds, [&] {
    const Clock::time_point t0 = Clock::now();
    std::vector<BatchEntry> built = build_batch(equivalent, z, opt.seed, off);
    const double seconds = seconds_between(t0, Clock::now());
    if (batch.empty()) batch = std::move(built);
    return seconds;
  });

  setup.due(0.0);
  check_fast_path(batch, checks);

  std::vector<double> walls;
  std::vector<min::EquivalenceReport> reports(batch.size());
  const Clock::time_point start = Clock::now();
  while (true) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      reports[i] = min::check_baseline_equivalence(batch[i].network);
    }
    const Clock::time_point t1 = Clock::now();
    walls.push_back(seconds_between(t0, t1));
    // The pinned fingerprint covers the whole first pass.
    const bool pinned =
        walls.size() != 1 ||
        pins.matches(checks, opt.workload + ".verdicts_fnv64",
                     batch_fingerprint(batch, reports));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      checks.record(
          1, pinned && checks.note(
                           reports[i].equivalent == batch[i].expect_equivalent,
                           "verdict of batch network " + std::to_string(i)));
    }
    setup.due(seconds_between(start, Clock::now()));
    const double elapsed = seconds_between(start, Clock::now());
    if (walls.size() >= 3 && elapsed + median(walls) > opt.seconds) break;
  }
  const double per_network =
      median(walls) / static_cast<double>(batch.size());
  std::cerr << opt.workload << ": " << walls.size() << " passes over "
            << batch.size() << " networks, " << 1.0 / per_network
            << " networks/s\n";
  return {{"setup_s", setup.finish(), "s"},
          {"ns_per_op", per_network * 1e9, "ns"}};
}

// ---------------------------------------------------------------------------
// The traced run: the layer profile
// ---------------------------------------------------------------------------

/// The per-layer metrics of a traced run, in the order they are measured.
struct Layer {
  std::vector<Metric> metrics;
  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Mean duration (seconds) of the spans named \p name.
double span_mean(const Tracer& tracer, const std::string& name) {
  std::vector<double> d;
  for (const Tracer::Span& s : tracer.spans()) {
    if (s.name == name) d.push_back(s.end_s - s.start_s);
  }
  if (d.empty()) throw std::logic_error("no span named " + name);
  return mean(d);
}

/// Median duration (seconds) of the spans named \p name.
double span_median(const Tracer& tracer, const std::string& name) {
  std::vector<double> d;
  for (const Tracer::Span& s : tracer.spans()) {
    if (s.name == name) d.push_back(s.end_s - s.start_s);
  }
  if (d.empty()) throw std::logic_error("no span named " + name);
  return median(d);
}

/// Layers of the sweep: schedule derivation, engine/fabric/mask builds,
/// per-run fixed cost, one representative point per policy family, and
/// run_sweep itself with its reports and a serial replay of every point.
void profile_sweep_layers(const Sizes& z, std::uint64_t seed, Checks& checks,
                          const Pins& pins, Tracer& tracer,
                          Layer& m) {
  const exp::SweepGrid grid = sweep_grid(z, seed);
  for (const min::NetworkKind kind : grid.networks) {
    const min::MIDigraph g = min::build_network(kind, grid.stages);
    std::optional<min::BitSchedule> schedule;
    tracer.timed("min.find_bit_schedule",
                 [&] { schedule = min::find_bit_schedule(g); });
    checks.record(1, checks.note(schedule.has_value(),
                                 "no bit schedule for a network"));
    if (!schedule) continue;
    bool verified = false;
    tracer.timed("min.verify_bit_schedule",
                 [&] { verified = min::verify_bit_schedule(g, *schedule); });
    checks.record(1, checks.note(verified, "bit schedule failed verification"));
  }
  m.put("min.find_bit_schedule_ms",
        span_mean(tracer, "min.find_bit_schedule") * 1e3, "ms");
  m.put("min.verify_bit_schedule_ms",
        span_mean(tracer, "min.verify_bit_schedule") * 1e3, "ms");

  SweepFixture fx;
  tracer.timed("sweep.setup", [&] { fx = build_sweep_fixture(grid, tracer); });
  m.put("sim.engine_build_ms.radix2",
        span_mean(tracer, "sim.engine_build.radix2") * 1e3, "ms");
  m.put("multipath.benes_build_ms",
        span_mean(tracer, "multipath.benes_build") * 1e3, "ms");
  m.put("fault.mask_classify_ms",
        span_mean(tracer, "fault.mask_classify") * 1e3, "ms");

  // Per-run fixed cost: a one-cycle run on a workspace already sized.
  const sim::Engine& omega = *fx.engines[0];
  sim::SimWorkspace workspace;
  sim::SimConfig one = grid.base;
  one.injection_rate = 0.6;
  one.warmup_cycles = 0;
  one.measure_cycles = 1;
  (void)omega.run(sim::Pattern::kUniform, one, nullptr, &workspace);
  for (int rep = 0; rep < 30; ++rep) {
    tracer.timed("sim.run_fixed", [&] {
      (void)omega.run(sim::Pattern::kUniform, one, nullptr, &workspace);
    });
  }
  m.put("sim.run_fixed_us", span_median(tracer, "sim.run_fixed") * 1e6, "us");

  // One representative point per policy family: omega (or the Benes
  // fabric), uniform traffic at rate 0.6, the grid's cycle counts.
  const std::vector<std::string> families = {"pristine", "faulted", "credits",
                                             "closedloop", "benes"};
  for (const sim::SwitchingMode mode : grid.modes) {
    const std::string mode_name = sim::switching_mode_name(mode);
    for (const std::string& family : families) {
      sim::SimConfig c = grid.base;
      c.injection_rate = 0.6;
      c.mode = mode;
      if (mode == sim::SwitchingMode::kWormhole) c.lanes = grid.lane_counts[0];
      if (family == "credits") c.credits = grid.credits[1];
      if (family == "closedloop") c.workload = grid.workloads[1];
      const std::size_t engine_index = family == "benes" ? 2 : 0;
      const sim::Engine& engine = *fx.engines[engine_index];
      const fault::FaultMask* mask =
          family == "faulted" ? &fx.masks[engine_index][1] : nullptr;
      const std::string span = "sim.run." + mode_name + '.' + family;
      for (int rep = 0; rep < 3; ++rep) {
        sim::SimResult r;
        tracer.timed(span, [&] {
          r = engine.run(sim::Pattern::kUniform, c, mask, &workspace);
        });
        checks.record(1, checks.note(r.delivered > 0,
                                     span + ": nothing delivered"));
      }
      m.put("sim." + mode_name + "_ns_per_switch_cycle." + family,
            span_median(tracer, span) * 1e9 /
                (switch_count(engine) * total_cycles(c)),
            "ns");
    }
  }

  // run_sweep + reports, then a serial replay of every point from its
  // recorded seed and config through the fixture's engines and masks.
  exp::SweepResult result;
  const double sweep_s = tracer.timed(
      "exp.run_sweep", [&] { result = exp::run_sweep(grid, kSweepThreads); });
  SweepOutput out;
  const double report_s = tracer.timed("exp.report", [&] {
    out.csv = exp::sweep_csv(result);
    out.json = exp::sweep_json(result);
  });
  out.points = result.points.size();
  check_sweep_output(out, out, grid, pins, checks);
  double replay_s = 0.0;
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const exp::SweepPoint& p = result.points[i];
    const auto [e, f] = point_slot(grid, p);
    const sim::SimConfig config = point_config(grid, p);
    sim::SimResult r;
    replay_s += tracer.timed("sim.replay_point", [&] {
      r = fx.engines[e]->run(p.pattern, config, &fx.masks[e][f], &workspace);
    });
    const min::FaultedClassification& survivor = fx.survivors[e][f];
    checks.record(
        1, checks.note(counters_line(r) == counters_line(p.result) &&
                           p.min_path_diversity == fx.diversity[e][f] &&
                           p.survivor.surviving_arcs ==
                               survivor.surviving_arcs &&
                           p.survivor.full_access == survivor.full_access &&
                           p.survivor.banyan == survivor.banyan,
                       "serial replay of sweep point " + std::to_string(i)));
  }
  m.put("exp.run_sweep_s", sweep_s, "s");
  m.put("exp.report_ms", report_s * 1e3, "ms");
  m.put("exp.fanout_efficiency",
        replay_s / (static_cast<double>(kSweepThreads) * sweep_s), "ratio");
}

/// Layers of the large runs: k-ary engine construction, the first run's
/// extra cost on a fresh workspace, and host time per flit hop.
void profile_megafabric_layers(const Sizes& z, std::uint64_t seed,
                               Checks& checks, const Pins& pins,
                               Tracer& tracer,
                               Layer& m) {
  std::vector<double> first_extra;
  for (const std::string workload :
       {"megafabric_saf", "megafabric_wormhole", "megafabric_radix4"}) {
    const MegaConfig mc = mega_config(workload, z, seed);
    const min::KaryMIDigraph network =
        min::build_kary_network(min::NetworkKind::kOmega, mc.stages, mc.radix);
    std::unique_ptr<sim::Engine> engine;
    tracer.timed("sim.engine_build.kary",
                 [&] { engine = std::make_unique<sim::Engine>(network); });
    sim::SimWorkspace workspace;
    sim::SimConfig brief = mc.config;
    brief.warmup_cycles = 0;
    brief.measure_cycles = 2;
    const double first = tracer.timed("sim.run.first", [&] {
      (void)engine->run(sim::Pattern::kUniform, brief, nullptr, &workspace);
    });
    const double warm = tracer.timed("sim.run.warm", [&] {
      (void)engine->run(sim::Pattern::kUniform, brief, nullptr, &workspace);
    });
    first_extra.push_back(first - warm);

    sim::SimResult r;
    const double wall = tracer.timed("sim.run." + workload, [&] {
      r = engine->run(sim::Pattern::kUniform, mc.config, nullptr, &workspace);
    });
    check_mega_result(r, counters_line(r), workload, pins, checks);
    const double hops_per_cycle =
        r.link_utilization *
        static_cast<double>(engine->wiring().stages() - 1) *
        static_cast<double>(engine->terminals());
    const std::string tag = workload.substr(workload.find('_') + 1);
    m.put("sim.ns_per_flit_hop." + tag,
          wall * 1e9 / total_cycles(mc.config) / hops_per_cycle, "ns");
  }
  m.put("sim.engine_build_ms.kary",
        span_mean(tracer, "sim.engine_build.kary") * 1e3, "ms");
  m.put("sim.first_run_extra_ms", mean(first_extra) * 1e3, "ms");
}

/// Layers of the decision procedure: batch building, the four checks of
/// the acceptance path on equivalent networks, and the fail-fast
/// rejection path.
void profile_characterize_layers(const Sizes& z, std::uint64_t seed,
                                 Checks& checks, Tracer& tracer,
                                 Layer& m) {
  std::vector<BatchEntry> equivalent;
  std::vector<BatchEntry> rejected;
  const double build_s = tracer.timed("min.batch_build", [&] {
    equivalent = build_batch(true, z, seed, tracer);
    rejected = build_batch(false, z, seed, tracer);
  });
  m.put("min.batch_build_ms", build_s * 1e3, "ms");
  for (const BatchEntry& e : equivalent) {
    bool banyan = false;
    bool p1 = false;
    bool pn = false;
    std::optional<min::FlatWiring> w;
    tracer.timed("min.is_banyan", [&] { banyan = min::is_banyan(e.network); });
    tracer.timed("min.flatten",
                 [&] { w = min::FlatWiring::from_digraph(e.network); });
    tracer.timed("min.p1_star", [&] { p1 = min::satisfies_p1_star(*w); });
    tracer.timed("min.p_star_n", [&] { pn = min::satisfies_p_star_n(*w); });
    checks.record(1, checks.note(banyan && p1 && pn,
                                 "an equivalent network failed a "
                                 "characterization check"));
  }
  for (const BatchEntry& e : rejected) {
    min::EquivalenceReport report;
    tracer.timed("min.reject",
                 [&] { report = min::check_baseline_equivalence(e.network); });
    checks.record(1, checks.note(!report.equivalent,
                                 "a rejected network was accepted"));
  }
  m.put("min.is_banyan_ms", span_mean(tracer, "min.is_banyan") * 1e3, "ms");
  m.put("min.flatten_ms", span_mean(tracer, "min.flatten") * 1e3, "ms");
  m.put("min.p1_star_ms", span_mean(tracer, "min.p1_star") * 1e3, "ms");
  m.put("min.p_star_n_ms", span_mean(tracer, "min.p_star_n") * 1e3, "ms");
  m.put("min.reject_us", span_mean(tracer, "min.reject") * 1e6, "us");
}

/// Tracing overhead: the workload's own unit of work (one sweep with its
/// reports, one large run, one pass over the batch), timed with spans
/// recorded around its layer calls and without, alternating.
double trace_overhead(const Options& opt, const Sizes& z, Tracer& tracer) {
  Tracer off(false);
  std::function<void(Tracer&)> unit;
  int reps = 1;
  const exp::SweepGrid grid = sweep_grid(z, opt.seed);
  const MegaConfig mc = mega_config(opt.workload, z, opt.seed);
  std::unique_ptr<sim::Engine> engine;
  sim::SimWorkspace workspace;
  std::vector<BatchEntry> batch;
  if (opt.workload == "sweep") {
    unit = [&](Tracer& t) {
      exp::SweepResult r;
      t.timed("exp.run_sweep",
              [&] { r = exp::run_sweep(grid, kSweepThreads); });
      t.timed("exp.report", [&] {
        (void)exp::sweep_csv(r);
        (void)exp::sweep_json(r);
      });
    };
  } else if (opt.workload.rfind("megafabric", 0) == 0) {
    engine = std::make_unique<sim::Engine>(min::build_kary_network(
        min::NetworkKind::kOmega, mc.stages, mc.radix));
    (void)engine->run(sim::Pattern::kUniform, mc.config, nullptr, &workspace);
    unit = [&](Tracer& t) {
      t.timed("sim.run." + opt.workload, [&] {
        (void)engine->run(sim::Pattern::kUniform, mc.config, nullptr,
                          &workspace);
      });
    };
  } else {
    Tracer quiet(false);
    batch = build_batch(opt.workload == "characterize_equivalent", z,
                        opt.seed, quiet);
    reps = opt.workload == "characterize_equivalent" ? 5 : 50;
    unit = [&](Tracer& t) {
      for (const BatchEntry& e : batch) {
        t.timed("min.check_baseline_equivalence", [&] {
          (void)min::check_baseline_equivalence(e.network);
        });
      }
    };
  }
  std::vector<double> with;
  std::vector<double> without;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point a = Clock::now();
    unit(off);
    const Clock::time_point b = Clock::now();
    unit(tracer);
    const Clock::time_point c = Clock::now();
    without.push_back(seconds_between(a, b));
    with.push_back(seconds_between(b, c));
  }
  return median(with) / median(without);
}

std::vector<Metric> layer_profile(const Options& opt, const Sizes& z,
                                  Checks& checks, const Pins& pins,
                                  Tracer& tracer) {
  Layer m;
  tracer.timed("profile.sweep", [&] {
    profile_sweep_layers(z, opt.seed, checks, pins, tracer, m);
  });
  tracer.timed("profile.megafabric", [&] {
    profile_megafabric_layers(z, opt.seed, checks, pins, tracer, m);
  });
  tracer.timed("profile.characterize", [&] {
    profile_characterize_layers(z, opt.seed, checks, tracer, m);
  });
  double overhead = 0.0;
  tracer.timed("profile.overhead",
               [&] { overhead = trace_overhead(opt, z, tracer); });
  m.put("trace.overhead_ratio", overhead, "ratio");
  return m.metrics;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Host, toolchain, revision, seed and thread counts of this result.
std::string provenance_json(const Options& opt) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  std::ostringstream out;
  out << "{\"workload\": " << json_string(opt.workload)
      << ", \"seed\": " << opt.seed << ", \"default_seed\": " << kDefaultSeed
      << ", \"seconds\": " << opt.seconds
      << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"smoke\": " << (opt.smoke ? "true" : "false")
      << ", \"nproc\": " << nproc << ", \"hardware_concurrency\": "
      << std::thread::hardware_concurrency()
      << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
      << ", \"flags\": " << json_string(PERFBENCH_FLAGS)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"revision\": " << json_string(opt.revision)
      << ", \"sweep_threads\": " << kSweepThreads
      << ", \"sim_threads\": " << kSimThreads << "}";
  return out.str();
}

/// Write the spans (with self time) and a per-name summary to stderr.
void write_spans(const Options& opt, const std::string& provenance,
                 const Tracer& tracer) {
  const std::vector<double> self = tracer.self_seconds();
  struct Row {
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& s = tracer.spans()[i];
    Row& row = rows[s.name];
    ++row.count;
    row.total += s.end_s - s.start_s;
    row.self += self[i];
  }
  std::fprintf(stderr, "%-40s %7s %12s %12s\n", "span", "count", "total_ms",
               "self_ms");
  for (const auto& [name, row] : rows) {
    std::fprintf(stderr, "%-40s %7zu %12.3f %12.3f\n", name.c_str(), row.count,
                 row.total * 1e3, row.self * 1e3);
  }
  if (opt.spans_out.empty()) return;
  std::ofstream out(opt.spans_out);
  out << "{\"provenance\": " << provenance << ",\n \"spans\": [\n";
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Tracer::Span& s = tracer.spans()[i];
    out << (i == 0 ? "  " : ",\n  ") << "{\"id\": " << i
        << ", \"name\": " << json_string(s.name)
        << ", \"parent\": " << s.parent
        << ", \"start_us\": " << json_number(s.start_s * 1e6)
        << ", \"end_us\": " << json_number(s.end_s * 1e6)
        << ", \"self_us\": " << json_number(self[i] * 1e6) << '}';
  }
  out << "\n ]}\n";
  if (!out) throw std::runtime_error("cannot write " + opt.spans_out);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_args(argc, argv);
    const Sizes z = opt.smoke ? smoke_sizes() : full_sizes();
    const Pins pins(opt, z);
    Checks checks;
    Tracer tracer(opt.trace);
    const std::string provenance = provenance_json(opt);
    std::cout << "provenance " << provenance << std::endl;

    std::vector<Metric> metrics;
    if (opt.trace) {
      metrics = layer_profile(opt, z, checks, pins, tracer);
      write_spans(opt, provenance, tracer);
    } else {
      if (opt.workload == "sweep") {
        metrics = sweep_workload(opt, z, checks, pins);
      } else if (opt.workload.rfind("megafabric", 0) == 0) {
        metrics = megafabric_workload(opt, z, checks, pins);
      } else {
        metrics = characterize_workload(opt, z, checks, pins);
      }
      metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    }

    std::ostringstream json;
    json << "{\"correct\": "
         << (checks.failed() == 0 && checks.attempted() > 0 ? "true" : "false")
         << ", \"attempted\": " << checks.attempted()
         << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& mt = metrics[i];
      std::cout << "metric " << mt.name << ' ' << json_number(mt.value) << ' '
                << mt.unit << '\n';
      json << (i == 0 ? "" : ", ") << json_string(mt.name)
           << ": {\"value\": " << json_number(mt.value)
           << ", \"unit\": " << json_string(mt.unit) << '}';
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
