#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "multipath/looping.hpp"
#include "obs/observer.hpp"
#include "sim/fabric.hpp"
#include "sim/multipath_select.hpp"
#include "sim/policy.hpp"
#include "sim/shard.hpp"

namespace mineq::sim {

std::string switching_mode_name(SwitchingMode mode) {
  switch (mode) {
    case SwitchingMode::kStoreAndForward:
      return "saf";
    case SwitchingMode::kWormhole:
      return "wormhole";
  }
  throw std::invalid_argument("switching_mode_name: unknown mode");
}

SwitchingMode parse_switching_mode(std::string_view name) {
  if (name == "saf" || name == "store-and-forward") {
    return SwitchingMode::kStoreAndForward;
  }
  if (name == "wormhole") return SwitchingMode::kWormhole;
  throw std::invalid_argument("parse_switching_mode: unknown mode \"" +
                              std::string(name) + '"');
}

std::string arbitration_policy_name(ArbitrationPolicy policy) {
  switch (policy) {
    case ArbitrationPolicy::kRoundRobin:
      return "rr";
    case ArbitrationPolicy::kWeighted:
      return "weighted";
    case ArbitrationPolicy::kPriority:
      return "priority";
  }
  throw std::invalid_argument("arbitration_policy_name: unknown policy");
}

ArbitrationPolicy parse_arbitration_policy(std::string_view name) {
  if (name == "rr" || name == "round-robin") {
    return ArbitrationPolicy::kRoundRobin;
  }
  if (name == "weighted") return ArbitrationPolicy::kWeighted;
  if (name == "priority") return ArbitrationPolicy::kPriority;
  throw std::invalid_argument(
      "parse_arbitration_policy: unknown policy \"" + std::string(name) +
      "\" (expected rr, weighted or priority)");
}

const std::vector<PathPolicy>& all_path_policies() {
  static const std::vector<PathPolicy> policies = {
      PathPolicy::kHash, PathPolicy::kAdaptive, PathPolicy::kLooping};
  return policies;
}

std::string path_policy_name(PathPolicy policy) {
  switch (policy) {
    case PathPolicy::kHash:
      return "hash";
    case PathPolicy::kAdaptive:
      return "adaptive";
    case PathPolicy::kLooping:
      return "looping";
  }
  throw std::invalid_argument("path_policy_name: unknown policy");
}

PathPolicy parse_path_policy(std::string_view name) {
  for (const PathPolicy policy : all_path_policies()) {
    if (path_policy_name(policy) == name) return policy;
  }
  std::string valid;
  for (const PathPolicy policy : all_path_policies()) {
    if (!valid.empty()) valid += ", ";
    valid += path_policy_name(policy);
  }
  throw std::invalid_argument("parse_path_policy: unknown policy \"" +
                              std::string(name) + "\" (valid: " + valid +
                              ')');
}

std::size_t latency_histogram_buckets(const SimConfig& config,
                                      int stages) noexcept {
  if (config.latency_histogram_buckets > 0) {
    return config.latency_histogram_buckets;
  }
  // Auto-scale: 1-cycle buckets covering ~64 full-traversal serialization
  // delays, clamped to the run length (a delivered latency can never
  // exceed total cycles plus the tail's serialization) and to
  // [1024, 65536] — the floor keeps every historic config's histogram
  // shape (and therefore its pinned quantiles) exactly as it was.
  std::uint64_t want = 64ULL * static_cast<std::uint64_t>(stages) *
                       static_cast<std::uint64_t>(config.packet_length);
  const std::uint64_t total = config.warmup_cycles + config.measure_cycles;
  if (want > total + 2) want = total + 2;
  if (want < 1024) want = 1024;
  if (want > 65536) want = 65536;
  return static_cast<std::size_t>(want);
}

void CreditConfig::validate(SwitchingMode mode, std::size_t lanes) const {
  if (!enabled) return;  // disabled leaves the remaining fields inert
  // The in-flight ring allocates latency slots per link; cap it well
  // above any physically meaningful round-trip.
  constexpr std::uint64_t kMaxReturnLatency = 4096;
  if (return_latency > kMaxReturnLatency) {
    throw std::invalid_argument(
        "CreditConfig: return_latency must be <= " +
        std::to_string(kMaxReturnLatency) + ", got " +
        std::to_string(return_latency));
  }
  // Flit::sl is a 6-bit field; 64 service levels / weight classes.
  constexpr std::size_t kMaxServiceLevels = 64;
  if (sl_map.size() > kMaxServiceLevels) {
    throw std::invalid_argument(
        "CreditConfig: at most " + std::to_string(kMaxServiceLevels) +
        " service levels, got " + std::to_string(sl_map.size()));
  }
  if (weights.size() > kMaxServiceLevels) {
    throw std::invalid_argument(
        "CreditConfig: at most " + std::to_string(kMaxServiceLevels) +
        " VL weights, got " + std::to_string(weights.size()));
  }
  for (const unsigned w : weights) {
    if (w == 0 || w > (1U << 20)) {
      throw std::invalid_argument(
          "CreditConfig: weights must be within [1, 2^20], got " +
          std::to_string(w));
    }
  }
  for (const unsigned vl : sl_map) {
    if (mode == SwitchingMode::kWormhole && vl >= lanes) {
      throw std::invalid_argument(
          "CreditConfig: sl_map entry " + std::to_string(vl) +
          " names a virtual lane but the config has only " +
          std::to_string(lanes) + " lanes");
    }
    if (vl >= kMaxServiceLevels) {
      throw std::invalid_argument(
          "CreditConfig: sl_map entry " + std::to_string(vl) +
          " exceeds the VL/weight-class bound of " +
          std::to_string(kMaxServiceLevels - 1));
    }
  }
}

void SimConfig::validate() const {
  if (!std::isfinite(injection_rate) || injection_rate < 0.0 ||
      injection_rate > 1.0) {
    throw std::invalid_argument(
        "SimConfig: injection_rate must be finite and within [0, 1], got " +
        std::to_string(injection_rate));
  }
  if (packet_length == 0) {
    throw std::invalid_argument(
        "SimConfig: packet_length must be positive (a packet has at least "
        "one flit)");
  }
  if (queue_capacity == 0) {
    throw std::invalid_argument(
        "SimConfig: queue_capacity must be positive (store-and-forward "
        "FIFOs need at least one packet slot)");
  }
  if (measure_cycles == 0) {
    throw std::invalid_argument(
        "SimConfig: measure_cycles must be positive (a run with no measured "
        "cycles has no throughput, latency or utilization to report)");
  }
  // The run is warmup_cycles + measure_cycles long, and a wormhole flit
  // keeps its injection cycle in 32 bits (flit.hpp). Checked without
  // forming the sum, which could wrap.
  constexpr std::uint64_t kMaxRunCycles = std::uint64_t{1} << 32;
  if (warmup_cycles > kMaxRunCycles ||
      measure_cycles > kMaxRunCycles - warmup_cycles) {
    throw std::invalid_argument(
        "SimConfig: warmup_cycles + measure_cycles must be <= 2^32 (flits "
        "carry 32-bit injection cycles), got warmup_cycles " +
        std::to_string(warmup_cycles) + " + measure_cycles " +
        std::to_string(measure_cycles));
  }
  if (lanes == 0) {
    throw std::invalid_argument(
        "SimConfig: lanes must be positive (wormhole ports need at least "
        "one virtual channel)");
  }
  if (lane_depth == 0) {
    throw std::invalid_argument(
        "SimConfig: lane_depth must be positive (a lane buffers at least "
        "one flit)");
  }
  if (sim_threads == 0) {
    throw std::invalid_argument(
        "SimConfig: sim_threads must be positive (1 = serial; > 1 shards "
        "the simulation across a worker team)");
  }
  if (sim_threads > kMaxSimThreads) {
    throw std::invalid_argument(
        "SimConfig: sim_threads must be <= " +
        std::to_string(kMaxSimThreads) + ", got " +
        std::to_string(sim_threads) +
        " (the driver clamps to the cell count, but a team this "
        "large is surely a typo)");
  }
  burst.validate();
  credits.validate(mode, lanes);
  workload.validate();
}

namespace {

/// Structural sanity of a digit schedule: the arity must match the
/// fabric and every per-stage map must be a bijection of the ports.
/// Deliberately O(stages * radix): re-proving that an attached schedule
/// routes costs min::verify_digit_schedule's O(cells^2 * stages), so
/// routing correctness is the construction's contract (pinned against
/// verify_digit_schedule at small sizes in the tests), not re-proved per
/// Engine.
void check_schedule(const min::DigitSchedule& schedule, int stages,
                    int radix) {
  const auto hops = static_cast<std::size_t>(stages - 1);
  const auto r = static_cast<std::size_t>(radix);
  if (schedule.radix != radix || schedule.digit.size() != hops ||
      schedule.port_of_value.size() != hops) {
    throw std::invalid_argument(
        "Engine: digit schedule does not match the fabric arity");
  }
  for (std::size_t s = 0; s < hops; ++s) {
    const std::vector<unsigned>& map = schedule.port_of_value[s];
    const char* fault = nullptr;
    if (schedule.digit[s] < 0 || schedule.digit[s] + 1 >= stages) {
      fault = "reads an out-of-range digit";
    } else if (map.size() != r) {
      fault = "has a non-radix value map";
    } else {
      std::vector<bool> seen(r, false);
      for (const unsigned port : map) {
        if (port >= r || seen[port]) {
          fault = "maps values to ports that are not a bijection";
          break;
        }
        seen[port] = true;
      }
    }
    if (fault != nullptr) {
      throw std::invalid_argument("Engine: digit schedule at stage " +
                                  std::to_string(s) + ' ' + fault);
    }
  }
}

/// The one recovery path for wirings without an attached schedule
/// (binary MI-digraphs and bare KaryMIDigraphs alike).
min::DigitSchedule recover_schedule(const min::FlatWiring& wiring) {
  auto schedule = min::find_digit_schedule(wiring);
  if (!schedule.has_value()) {
    throw std::invalid_argument(
        "Engine: network has no destination-digit schedule");
  }
  return std::move(*schedule);
}

/// radix^(digit[s] + 1) per stage: the divisor that extracts the
/// scheduled digit of a terminal label written in base \p radix (the
/// digit of its cell label, one place up). digit[s] + 1 < stages, so the
/// scale is at most the cell count and fits in 32 bits.
std::vector<std::uint32_t> digit_scales(const min::DigitSchedule& schedule,
                                        int radix) {
  const auto r = static_cast<unsigned>(radix);
  std::vector<std::uint32_t> scales;
  scales.reserve(schedule.digit.size());
  for (const int digit : schedule.digit) {
    scales.push_back(min::digit_scale(r, digit) * r);
  }
  return scales;
}

}  // namespace

void Engine::init_unipath(const std::optional<min::DigitSchedule>& attached) {
  // A closed-form schedule attached by the construction (the built-in
  // omega/flip/baseline kinds at any radix) needs no recovery.
  schedule_ = attached.has_value() ? *attached : recover_schedule(wiring_);
  check_schedule(schedule_, wiring_.stages(), wiring_.radix());
  digit_scale_ = digit_scales(schedule_, wiring_.radix());
  terminals_ = static_cast<std::uint64_t>(wiring_.radix()) *
               wiring_.cells_per_stage();
  address_digits_ = wiring_.stages();
  logical_radix_ = wiring_.radix();
  logical_cells_ = wiring_.cells_per_stage();
}

Engine::Engine(const min::MIDigraph& network) {
  if (!network.is_valid()) {
    throw std::invalid_argument("Engine: network has invalid degrees");
  }
  wiring_ = min::FlatWiring::from_digraph(network);
  init_unipath(std::nullopt);
}

Engine::Engine(const min::KaryMIDigraph& network) {
  if (!network.is_valid()) {
    throw std::invalid_argument("Engine: network has invalid degrees");
  }
  wiring_ = min::FlatWiring::from_kary(network);
  init_unipath(network.schedule());
}

Engine::Engine(min::MultiPathWiring fabric)
    : schedule_(fabric.schedule()),
      wiring_(fabric.wiring()),
      fabric_(std::move(fabric)) {
  terminals_ = fabric_->logical_terminals();
  address_digits_ = fabric_->logical_stages();
  logical_radix_ = fabric_->logical_radix();
  logical_cells_ = fabric_->logical_cells();
  planes_ = fabric_->planes();
  dilation_ = fabric_->dilation();
  // Digit scales in the *logical* radix (identity placeholders at free
  // connections read digit 0, harmlessly — the policies check the free
  // flag first).
  digit_scale_ = digit_scales(schedule_, logical_radix_);
}

const min::MultiPathWiring& Engine::fabric() const {
  if (!fabric_.has_value()) {
    throw std::logic_error(
        "Engine::fabric: this engine was not built from a MultiPathWiring");
  }
  return *fabric_;
}

unsigned Engine::route_port_general(int stage,
                                    std::uint32_t dest_terminal) const {
  const int stages = wiring_.stages();
  if (stage < 0 || stage >= stages) {
    throw std::invalid_argument("Engine::route_port: stage out of range");
  }
  // Terminal labels and digit scales are in the logical radix, and a
  // route group's first out-port is its logical port times the dilation
  // (both equal to the physical ones on unipath engines).
  const auto lr = static_cast<unsigned>(logical_radix_);
  if (stage + 1 == stages) return dest_terminal % lr;
  const unsigned value =
      (dest_terminal / digit_scale_[static_cast<std::size_t>(stage)]) % lr;
  return schedule_.port_of_value[static_cast<std::size_t>(stage)][value] *
         static_cast<unsigned>(dilation_);
}

namespace {

/// The store-and-forward discipline as a policy over FabricCore: packets
/// move as units between fixed-capacity per-port FIFOs (PacketRing), a
/// packet of L flits serializes over each link for L cycles, and a packet
/// must have fully arrived (arrival_complete) before it may advance. The
/// template switches and the shared plumbing are PolicyBase's
/// (policy.hpp); what the run's features mean here, each tested at run
/// time on the featured instantiation:
///  - a fault mask: masked arcs accept nothing, packets reroute via the
///    next surviving port, and dead switches drain their queues into
///    packets_dropped_faulted;
///  - credits: one credit per downstream FIFO slot, consumed per push,
///    returned per pop with the configured latency, plus round-robin /
///    quantum-weighted / strict-priority arbitration over the SL->VL
///    classes packets carry;
///  - an observer: per-stage probe counters and trace events go to the
///    per-worker WorkerLogs (order-independent sums / (cycle, phase) sort
///    keys keep every thread count byte-identical), flow records ride the
///    worker-0 eject replay, and every HOL-blocked head-cycle is
///    attributed to exactly one StallCause.
/// Multipath fabrics: the route step (select_port) chooses within a hop's
/// equivalent-path group by the configured PathPolicy (deterministic
/// hash, least-occupancy adaptive, or looping-precomputed Benes
/// settings), injection picks a plane on replicated fabrics, and each
/// logical terminal's eject arbiter spans planes * radix physical
/// buffers. Faulted runs re-select within the surviving group members
/// first (path_reroutes) before falling back to the unipath out-of-group
/// detour (packets_rerouted). Unipath fabrics run the same kernels with
/// one plane and singleton groups.
template <bool kBinary, bool kFeatures>
class StoreAndForwardPolicy
    : public PolicyBase<StoreAndForwardPolicy<kBinary, kFeatures>, kBinary,
                        kFeatures> {
  using Base = PolicyBase<StoreAndForwardPolicy, kBinary, kFeatures>;
  friend Base;
  using Base::core_, Base::length_, Base::total_slots_, Base::credit_config_,
      Base::service_levels_, Base::path_policy_, Base::stall_cause_,
      Base::fault_mask, Base::credit_ledger, Base::observer, Base::arbitrates,
      Base::radix, Base::multipath, Base::planes, Base::lradix, Base::lcells,
      Base::inject_port, Base::stage_route, Base::path_group, Base::arb_pick,
      Base::arb_grant, Base::keep_heaviest, Base::set_request,
      Base::any_request, Base::clear_words, Base::request_scratch,
      Base::count_blocked, Base::usable_port, Base::pooled_units,
      Base::commit_probe_window, Base::kEjectPhase, Base::eject_stall_phase,
      Base::drain_phase, Base::advance_phase, Base::stall_phase,
      Base::inject_phase;
  using StageRoute = typename Base::StageRoute;
  using PathGroup = typename Base::PathGroup;

 public:
  StoreAndForwardPolicy(FabricCore& core, SimWorkspace& workspace,
                        const PolicyArgs& args)
      : Base(core, workspace, args),
        queues_(workspace.packet_ring(
            static_cast<std::size_t>(core.stages()) * core.ports(),
            core.config().queue_capacity)),
        link_busy_until_(
            static_cast<std::size_t>(core.stages() - 1) * core.ports(), 0),
        source_busy_until_(core.terminals(), 0),
        eject_busy_until_(core.ports(), 0) {
    if (const fault::FaultMask* const mask = fault_mask()) {
      const fault::FaultedWiring view(core.wiring(), *mask);
      dead_cells_.resize(static_cast<std::size_t>(core.stages() - 1));
      for (int s = 0; s + 1 < core.stages(); ++s) {
        for (std::uint32_t x = 0; x < core.cells(); ++x) {
          if (view.dead_switch(s, x)) {
            dead_cells_[static_cast<std::size_t>(s)].push_back(x);
          }
        }
      }
    }
  }

  /// Flits in \p packets buffered packets.
  [[nodiscard]] std::uint64_t buffered_flits(std::int64_t packets) const {
    return static_cast<std::uint64_t>(packets) * length_;
  }

  /// Worker 0 adds the pool-occupancy samples: they need the pool-wide
  /// total, the sum of the workers' deltas.
  void shard_sample_reduce(std::uint64_t cycle,
                           const std::vector<ShardWorker>& workers) {
    const auto packets = static_cast<double>(pooled_units(workers));
    core_.result.lane_occupancy.add(packets / total_slots_);
    if (credit_ledger() != nullptr) {
      if (core_.result.vl_occupancy.empty()) {
        core_.result.vl_occupancy.resize(1);
      }
      core_.result.vl_occupancy[0].add(packets / total_slots_);
    }
    obs::Observer* const obs = observer();
    if (obs != nullptr && obs->want_probe(cycle)) commit_probe_window(cycle);
  }

  /// Injection: logical terminal t feeds the first arc of port t % lr of
  /// its logical cell t / lr (on a unipath fabric, input slot t % r of
  /// cell t / r), in the plane the path policy picks on replicated
  /// fabrics — hash of the destination, or the emptiest injection FIFO.
  /// Unipath runs check the FIFO (or its credit) before drawing the
  /// packet; multipath runs draw first, because the hashed plane pick
  /// keys on the destination, and a refused attempt discards its draw.
  /// Runs on worker 0, \p wk.
  void inject(std::uint64_t cycle, bool measuring, ShardWorker& wk) {
    CreditLedger* const credits = credit_ledger();
    obs::Observer* const obs = observer();
    for (std::uint64_t t = 0; t < core_.terminals(); ++t) {
      if (!core_.attempt(cycle, static_cast<std::uint32_t>(t))) continue;
      if (source_busy_until_[t] > cycle) continue;  // still serializing
      if (measuring) ++core_.result.offered;
      workload::Injection packet;
      std::size_t q = 0;
      if (multipath()) {
        packet = core_.draw(cycle, static_cast<std::uint32_t>(t));
        bool accepted = false;
        if (path_policy_ == PathPolicy::kAdaptive) {
          std::uint32_t best = 0;
          for (unsigned plane = 0; plane < planes(); ++plane) {
            const std::size_t candidate = queue_index(0, inject_port(t, plane));
            if (queues_.full(candidate)) continue;
            if (!accepted || queues_.count(candidate) < best) {
              best = queues_.count(candidate);
              q = candidate;
              accepted = true;
            }
          }
        } else {
          const auto plane =
              static_cast<unsigned>(path_mix(packet.dest, cycle, t) % planes());
          q = queue_index(0, inject_port(t, plane));
          accepted = !queues_.full(q);
        }
        if (!accepted) continue;  // dropped at source
      } else {
        q = queue_index(0, t);
        if (credits != nullptr) {
          // The terminal's injection link runs the same credit handshake
          // as the internal links: no credit, no attempt consumed.
          if (!credits->available(q)) {
            if (measuring) {
              ++core_.result.credit_stall_cycles;
              if (obs != nullptr) ++wk.obs_log->credit[0];
            }
            continue;
          }
        } else if (queues_.full(q)) {
          continue;  // dropped at source
        }
        packet = core_.draw(cycle, static_cast<std::uint32_t>(t));
      }
      const std::uint32_t dest = packet.dest;
      const auto src = static_cast<std::uint32_t>(t);
      if (credits != nullptr) {
        shard_push(q, dest, src, cycle, cycle + length_,
                   static_cast<unsigned>(t % service_levels_), packet.tag, wk);
        credits->consume(q);
      } else {
        shard_push(q, dest, src, cycle, cycle + length_, 0, packet.tag, wk);
      }
      core_.commit(cycle, static_cast<std::uint32_t>(t), packet);
      source_busy_until_[t] = cycle + length_;
      if (measuring) {
        ++core_.result.injected;
        core_.result.flits_injected += length_;
        if (obs != nullptr && obs->traced(src, cycle)) {
          trace_push(wk, cycle, cycle, src, dest,
                     obs::TraceEventKind::kPacketBegin, 0, 0, inject_phase());
          trace_push(wk, cycle, cycle, src, dest,
                     obs::TraceEventKind::kStageBegin, 0, 0, inject_phase());
        }
      }
    }
  }

 private:
  /// The eject kernel over logical cells [\p lx0, \p lx1): each terminal
  /// link carries one packet per packet_length cycles, granted by the
  /// terminal's arbiter among the planes * radix last-stage buffers of its
  /// logical cell (a packet may arrive on any arc of its dilation group
  /// and in any plane; on a unipath fabric, the r input slots of the
  /// cell). One pass per cell sets each fully-arrived head's bit in its
  /// terminal's request mask, planes * radix bits wide; each free terminal
  /// then picks from its mask, and a buffer whose head ejects offers its
  /// next packet to the cell's later terminals (see advance_stage_impl).
  /// Ejection consumes no credits (terminals always sink), but popping
  /// returns the slot's credit upstream. Order-independent counters
  /// accumulate into \p wk's partial; the order-sensitive latency adds and
  /// workload deliveries defer into its event buffers for worker 0 to
  /// replay in range order. Every structure touched is owned by the range:
  /// a logical-cell range owns one contiguous physical run per plane
  /// (cells plane * lcells + [lx0, lx1)), and eject pacing and arbiters
  /// index by terminal.
  void eject_impl(std::uint64_t cycle, bool measuring, std::uint32_t lx0,
                  std::uint32_t lx1, ShardWorker& wk) {
    ShardCounters& res = wk.partial;
    const fault::FaultMask* const mask = fault_mask();
    CreditLedger* const credits = credit_ledger();
    obs::Observer* const obs = observer();
    const bool weighted = arbitrates(ArbitrationPolicy::kWeighted);
    const bool priority = arbitrates(ArbitrationPolicy::kPriority);
    const int last = core_.stages() - 1;
    const unsigned r = radix();
    const unsigned lr = lradix();
    const std::size_t words =
        (static_cast<std::size_t>(planes()) * r + 63) / 64;
    // Rows 0 .. lr - 1 hold each terminal's requesters, then come the
    // cell's fully-arrived heads and the buffers that ejected.
    const std::size_t rows = static_cast<std::size_t>(lr) + 2;
    std::uint64_t* const requests = request_scratch(wk, rows * words);
    std::uint64_t* const ready =
        requests + static_cast<std::size_t>(lr) * words;
    std::uint64_t* const moved = ready + words;
    if (obs != nullptr) {
      // Ejection stalls are all lost arbitration.
      for (unsigned plane = 0; plane < planes(); ++plane) {
        const std::size_t run = static_cast<std::size_t>(plane) * lcells() * r;
        std::fill(stall_cause_.begin() + queue_index(last, run + lx0 * r),
                  stall_cause_.begin() + queue_index(last, run + lx1 * r), 0);
      }
    }
    for (std::uint32_t lx = lx0; lx < lx1; ++lx) {
      clear_words(requests, rows * words);
      for (unsigned plane = 0; plane < planes(); ++plane) {
        const std::size_t q0 = queue_index(
            last, (static_cast<std::size_t>(plane) * lcells() + lx) * r);
        for (unsigned slot = 0; slot < r; ++slot) {
          const std::size_t q = q0 + slot;
          if (queues_.empty(q) || queues_.front_arrival(q) > cycle) continue;
          const unsigned c = plane * r + slot;
          set_request(ready, c);
          set_request(requests + (queues_.front_dest(q) % lr) * words, c);
        }
      }
      for (unsigned j = 0; j < lr; ++j) {
        const std::uint32_t term = lx * lr + j;
        std::uint64_t* const candidates = requests + j * words;
        if (eject_busy_until_[term] > cycle ||
            !any_request(candidates, words)) {
          continue;
        }
        if (priority) {
          keep_heaviest(candidates, words, [&](unsigned c) {
            return front_weight(queue_index(last, eject_port(lx, c)));
          });
        }
        const unsigned c = arb_pick(last, term, candidates, words, weighted);
        const std::size_t q = queue_index(last, eject_port(lx, c));
        unsigned vl = 0;
        unsigned sl = 0;
        if (credits != nullptr) {
          sl = queues_.front_sl(q);
          vl = credit_config_->vl_of_sl(sl);
        }
        const std::uint32_t dest = queues_.front_dest(q);
        const std::uint64_t inject_cycle = queues_.front_inject(q);
        const std::uint32_t src = queues_.front_src(q);
        const unsigned tag = queues_.front_tag(q);
        shard_pop(q, wk);
        if (credits != nullptr) credits->give_back(q, cycle);
        eject_busy_until_[term] = cycle + length_;
        arb_grant(last, term, c, vl, weighted);
        set_request(moved, c);
        if (!queues_.empty(q) && queues_.front_arrival(q) <= cycle) {
          const unsigned next = queues_.front_dest(q) % lr;
          if (next > j) set_request(requests + next * words, c);
        }
        if (core_.wants_deliveries()) {
          // Every delivery feeds the source, warmup included (see
          // workload::Delivery); eject_cycle counts the serialization
          // tail so reply latencies match the packet-latency clock.
          const workload::Delivery delivery{
              src, dest, term, inject_cycle, cycle + length_,
              static_cast<std::uint8_t>(tag),
              measuring && inject_cycle >= core_.config().warmup_cycles};
          wk.wl_events.push_back(delivery);
        }
        if (obs != nullptr) {
          if (measuring) {
            wk.obs_log->hops[static_cast<std::size_t>(last)] += length_;
          }
          if (inject_cycle >= core_.config().warmup_cycles &&
              obs->traced(src, inject_cycle)) {
            trace_push(wk, cycle, inject_cycle, src, dest,
                       obs::TraceEventKind::kStageEnd,
                       static_cast<std::uint8_t>(last), 0, kEjectPhase);
            trace_push(wk, cycle, inject_cycle, src, dest,
                       obs::TraceEventKind::kPacketEnd, 0, 0, kEjectPhase);
          }
        }
        if (measuring && inject_cycle >= core_.config().warmup_cycles) {
          res.flits_delivered += length_;
          const double latency =
              static_cast<double>(cycle - inject_cycle + length_);
          wk.saf_events.push_back(SafEjectEvent{latency, sl, src, dest});
          // A detoured packet ejects at whatever terminal the surviving
          // route reached; count the miss.
          if (mask != nullptr && (dest / lr) != lx) {
            ++res.packets_misdelivered;
          }
        }
      }
      if (measuring) {
        count_blocked(ready, moved, words, wk, [&](unsigned c) {
          this->attribute_stall(last, cycle,
                                queue_index(last, eject_port(lx, c)), wk,
                                eject_stall_phase(c / r));
        });
      }
    }
  }

  /// The last-stage input port behind eject candidate \p c of logical
  /// cell \p lx: slot c % r of the cell's copy in plane c / r.
  [[nodiscard]] std::size_t eject_port(std::uint32_t lx, unsigned c) const {
    const unsigned r = radix();
    if (planes() == 1) return static_cast<std::size_t>(lx) * r + c;
    return (static_cast<std::size_t>(c / r) * lcells() + lx) * r + c % r;
  }

  /// The advance kernel over cells [\p x0, \p x1): each output port
  /// grants one of the r input slots whose head packet's route step
  /// (select_port) picked it, honoring link serialization and downstream
  /// FIFO capacity. One pass per cell routes each fully-arrived head once
  /// and sets its slot's bit in its out-port's r-bit request mask (radix
  /// <= 64, so one word); each port then picks from its mask in its
  /// arbiter's probe order. Every port serves the current head of each
  /// FIFO, so a FIFO whose head won port p offers its next fully-arrived
  /// packet to the ports after p in the same cycle: a FIFO can send more
  /// than one packet per cycle, where the classical buffered-banyan model
  /// sends at most one. Under least-occupancy path choice a grant raises
  /// one downstream FIFO's count, so the port's other requesters route
  /// again. Head-of-line blocking is the cell's ready & ~moved heads.
  /// Safe to run on disjoint ranges concurrently: a cell pops only its
  /// own stage-s queues and pushes only through its own down-arcs, and
  /// the perfect matching makes each stage-(s+1) queue reachable from
  /// exactly one upstream cell — single-writer without locks. Credit
  /// handshakes stay range-local too (consume/available index the pushed
  /// target, give_back the popped queue). Out of line on purpose: inlined
  /// into the driver's cycle loop, the binary instantiation's loops lose
  /// `this` to a stack slot and run the one-worker megafabric 4-8% slower.
  [[gnu::noinline]] void advance_stage_impl(int s, std::uint64_t cycle,
                                            bool measuring, std::uint32_t x0,
                                            std::uint32_t x1,
                                            ShardWorker& wk) {
    ShardCounters& res = wk.partial;
    const fault::FaultMask* const mask = fault_mask();
    CreditLedger* const credits = credit_ledger();
    obs::Observer* const obs = observer();
    const bool weighted = arbitrates(ArbitrationPolicy::kWeighted);
    const bool priority = arbitrates(ArbitrationPolicy::kPriority);
    const bool adaptive =
        multipath() && path_policy_ == PathPolicy::kAdaptive;
    const unsigned r = radix();
    const auto down = core_.wiring().down_stage(s);
    // One index per out-arc of the stage: the link pacing slot, and the
    // arc's mask bit (FaultMask::arc_index's layout, computed with the
    // policy's folded radix so binary instantiations keep shift indexing).
    const std::size_t link_base =
        static_cast<std::size_t>(s) * core_.ports();
    // Interior stages only — the last stage ejects, in eject().
    const StageRoute route = stage_route(s);
    if (mask != nullptr) {
      drain_dead_switches(s, cycle, measuring, x0, x1, wk);
    }
    if (obs != nullptr) {
      // Stall causes default to lost-arbitration; the port loop below
      // overwrites the specific causes it detects.
      std::fill(stall_cause_.begin() + queue_index(s, x0 * r),
                stall_cause_.begin() + queue_index(s, x1 * r), 0);
    }
    // Per cell: each out-port's requesters (radix <= 64), zeroed as the
    // port is visited, and the reroute kind of each slot's routed head.
    std::uint64_t requests[64];
    std::uint8_t reroute_kinds[64];
    std::fill_n(requests, r, std::uint64_t{0});
    for (std::uint32_t x = x0; x < x1; ++x) {
      const std::size_t q0 = queue_index(s, x * r);
      // The route step for the fully-arrived head of slot \p slot.
      const auto route_head = [&](unsigned slot) {
        const std::size_t q = q0 + slot;
        int reroute_kind = 0;
        const int port = select_port(s, x, slot, q, route, down.data(), mask,
                                     link_base, reroute_kind);
        reroute_kinds[slot] = static_cast<std::uint8_t>(reroute_kind);
        return port;
      };
      const auto ready_head = [&](std::size_t q) {
        return !queues_.empty(q) && queues_.front_arrival(q) <= cycle;
      };
      std::uint64_t ready = 0;
      for (unsigned slot = 0; slot < r; ++slot) {
        if (!ready_head(q0 + slot)) continue;
        ready |= std::uint64_t{1} << slot;
        const int port = route_head(slot);
        if (port >= 0) requests[port] |= std::uint64_t{1} << slot;
      }
      std::uint64_t moved = 0;
      for (unsigned port = 0; port < r; ++port) {
        const std::uint64_t requesters = requests[port];
        requests[port] = 0;
        if (requesters == 0 ||
            link_busy_until_[link_base + x * r + port] > cycle) {
          continue;  // no requester, or still serializing a packet
        }
        std::uint64_t candidates = requesters;
        if (priority) {
          keep_heaviest(&candidates, 1, [&](unsigned slot) {
            return front_weight(q0 + slot);
          });
        }
        const unsigned slot =
            arb_pick(s, x * r + port, &candidates, 1, weighted);
        const std::size_t q = q0 + slot;
        // One packed read gives the child cell and its input slot —
        // and the record value r * child + slot IS the downstream
        // port-slot index (the identity the packing was chosen for).
        const std::uint32_t record = down[x * r + port];
        const std::size_t target = queue_index(s + 1, record);
        if (credits != nullptr) {
          // Credit handshake in place of the occupancy probe. Every
          // requester of this output port sends into the same
          // downstream FIFO, so zero credits stalls the port outright
          // (conservation guarantees credits <= free slots; the push
          // below can never overflow).
          if (!credits->available(target)) {
            if (measuring) ++res.credit_stall_cycles;
            if (obs != nullptr) {
              stall_cause_[q] =
                  static_cast<std::uint8_t>(obs::StallCause::kZeroCredits);
              if (measuring) {
                ++wk.obs_log->credit[static_cast<std::size_t>(s)];
              }
            }
            continue;
          }
        } else if (queues_.full(target)) {
          if (obs != nullptr) {
            util::for_each_set_bit(&candidates, 1, [&](unsigned c) {
              stall_cause_[q0 + c] =
                  static_cast<std::uint8_t>(obs::StallCause::kDownstreamFull);
            });
          }
          continue;
        }
        unsigned vl = 0;
        if (credits != nullptr) {
          vl = credit_config_->vl_of_sl(queues_.front_sl(q));
        }
        const std::uint32_t dest = queues_.front_dest(q);
        const std::uint64_t inject_cycle = queues_.front_inject(q);
        const std::uint32_t src = queues_.front_src(q);
        const unsigned tag = queues_.front_tag(q);
        const int reroute_kind = reroute_kinds[slot];
        shard_push(target, dest, src, inject_cycle, cycle + length_,
                   credits != nullptr ? queues_.front_sl(q) : 0U, tag, wk);
        shard_pop(q, wk);
        if (credits != nullptr) {
          credits->consume(target);
          credits->give_back(q, cycle);
        }
        moved |= std::uint64_t{1} << slot;
        link_busy_until_[link_base + x * r + port] = cycle + length_;
        arb_grant(s, x * r + port, slot, vl, weighted);
        // The FIFO's next packet competes at the later ports, and the
        // push may move this port's other adaptive requesters there.
        if (ready_head(q)) {
          const int next = route_head(slot);
          if (next > static_cast<int>(port)) {
            requests[next] |= std::uint64_t{1} << slot;
          }
        }
        if (adaptive) {
          const std::uint64_t losers =
              requesters & ~(std::uint64_t{1} << slot);
          util::for_each_set_bit(&losers, 1, [&](unsigned loser) {
            const int next = route_head(loser);
            if (next > static_cast<int>(port)) {
              requests[next] |= std::uint64_t{1} << loser;
            }
          });
        }
        if (obs != nullptr) {
          if (measuring) {
            wk.obs_log->hops[static_cast<std::size_t>(s)] += length_;
          }
          if (inject_cycle >= core_.config().warmup_cycles &&
              obs->traced(src, inject_cycle)) {
            trace_push(wk, cycle, inject_cycle, src, dest,
                       obs::TraceEventKind::kStageEnd,
                       static_cast<std::uint8_t>(s), 0, advance_phase(s));
            trace_push(wk, cycle, inject_cycle, src, dest,
                       obs::TraceEventKind::kStageBegin,
                       static_cast<std::uint8_t>(s + 1), 0,
                       advance_phase(s));
          }
        }
        if (reroute_kind != 0 && measuring &&
            inject_cycle >= core_.config().warmup_cycles) {
          if (reroute_kind == 1) {
            ++res.path_reroutes;
          } else {
            ++res.packets_rerouted;
          }
          if (obs != nullptr) {
            ++wk.obs_log->reroute[static_cast<std::size_t>(s)];
            if (obs->traced(src, inject_cycle)) {
              trace_push(wk, cycle, inject_cycle, src, dest,
                         obs::TraceEventKind::kReroute,
                         static_cast<std::uint8_t>(s), 0, advance_phase(s));
            }
          }
        }
      }
      if (measuring) {
        count_blocked(&ready, &moved, 1, wk, [&](unsigned slot) {
          if (mask != nullptr) {
            refine_masked_arc_stall(q0 + slot, x, mask, link_base, route);
          }
          this->attribute_stall(s, cycle, q0 + slot, wk, stall_phase(s));
        });
      }
    }
  }

  /// The route step: the out-port the head packet of queue \p q (cell
  /// \p x, input slot \p slot) of stage \p s takes, or -1 at a dead
  /// switch. A
  /// singleton group — every hop of a unipath fabric — takes its
  /// scheduled port. A wider group chooses by the configured PathPolicy;
  /// with a fault \p mask, a masked choice re-selects among the surviving
  /// group members (\p reroute_kind = 1), and a fully-masked group takes
  /// the unipath out-of-group detour through the next surviving port
  /// (\p reroute_kind = 2).
  [[nodiscard]] int select_port(int s, std::uint32_t x, unsigned slot,
                                std::size_t q, const StageRoute& route,
                                const std::uint32_t* down,
                                const fault::FaultMask* mask,
                                std::size_t link_base, int& reroute_kind) {
    const unsigned r = radix();
    const std::size_t arc_row = link_base + x * r;
    const std::uint32_t dest = queues_.front_dest(q);
    const PathGroup group = path_group(dest, route);
    reroute_kind = 0;
    if (group.count > 1 && path_policy_ == PathPolicy::kAdaptive) {
      // Least-occupancy: the group member with the emptiest downstream
      // FIFO (ties to the lowest port). Masked arcs are simply not
      // candidates — adaptivity subsumes in-group re-selection.
      int chosen = -1;
      std::uint32_t best = 0;
      for (unsigned k = 0; k < group.count; ++k) {
        const unsigned p = group.base + k;
        if (mask != nullptr && mask->faulted_index(arc_row + p)) continue;
        const std::uint32_t occupancy =
            queues_.count(queue_index(s + 1, down[x * r + p]));
        if (chosen < 0 || occupancy < best) {
          best = occupancy;
          chosen = static_cast<int>(p);
        }
      }
      if (chosen >= 0) return chosen;
    } else if (group.count > 1) {
      unsigned desired;
      if (route.settings != nullptr) {
        desired = route.settings[static_cast<std::size_t>(x) * lradix() + slot];
      } else {
        desired = group.base +
                  static_cast<unsigned>(
                      path_mix(dest, queues_.front_inject(q),
                               static_cast<std::uint64_t>(s)) %
                      group.count);
      }
      if (mask == nullptr || !mask->faulted_index(arc_row + desired)) {
        return static_cast<int>(desired);
      }
      const int member = surviving_group_member(*mask, arc_row, group.base,
                                                group.count, desired);
      if (member >= 0) {
        reroute_kind = 1;
        return member;
      }
    }
    // A singleton group's scheduled port while its arc survives; else
    // (or with the whole group masked) the out-of-group detour through
    // the next surviving port.
    if (mask != nullptr) {
      const int port = usable_port(mask, arc_row, group.base);
      if (port != static_cast<int>(group.base)) reroute_kind = 2;
      return port;
    }
    return static_cast<int>(group.base);
  }

  /// The sample kernel: worker \p w of \p n counts its share of the
  /// busy links and (credit runs) audits its share of the per-link
  /// conservation invariant. The pool-occupancy series needs the
  /// pool-wide total, so worker 0's shard_sample_reduce adds it.
  void sample_impl(std::uint64_t cycle, std::size_t w, std::size_t n,
                   ShardWorker& wk) {
    const auto [l0, l1] = shard_range(link_busy_until_.size(), w, n);
    std::uint64_t busy = 0;
    for (std::size_t i = l0; i < l1; ++i) {
      if (link_busy_until_[i] > cycle) ++busy;
    }
    wk.link_counter += busy;
    if (const CreditLedger* const credits = credit_ledger()) {
      const std::size_t links =
          static_cast<std::size_t>(core_.stages()) * core_.ports();
      const auto [q0, q1] = shard_range(links, w, n);
      const std::uint64_t capacity = credits->capacity();
      for (std::size_t q = q0; q < q1; ++q) {
        const std::uint64_t held = credits->credits(q);
        if (held > capacity ||
            held + credits->in_flight(q) + queues_.count(q) != capacity) {
          ++wk.partial.credit_violations;
        }
      }
    }
  }

  /// Replay one worker's deferred ejection statistics (worker 0's
  /// serial phase, in ascending-worker = ascending-cell order).
  void replay_ejects(std::uint64_t /*cycle*/, bool /*measuring*/,
                     ShardWorker& wk) {
    const bool credits = credit_ledger() != nullptr;
    obs::Observer* const obs = observer();
    for (const SafEjectEvent& event : wk.saf_events) {
      core_.record_packet_delivered(event.latency);
      if (credits) core_.result.sl_latency[event.sl].add(event.latency);
      if (obs != nullptr && obs->flows_on()) {
        obs->record_flow(event.src, event.dst, event.sl, event.latency);
      }
    }
    wk.saf_events.clear();
  }

  [[nodiscard]] BufferHead head(std::size_t q) const {
    return {queues_.front_inject(q), queues_.front_src(q),
            queues_.front_dest(q)};
  }
  [[nodiscard]] std::uint32_t buffer_count(std::size_t q) const {
    return queues_.count(q);
  }

  /// Pool ops that count into worker \p wk's pool delta.
  void shard_pop(std::size_t q, ShardWorker& wk) {
    queues_.pop(q);
    --wk.pool_delta;
  }
  void shard_push(std::size_t q, std::uint32_t dest, std::uint32_t src,
                  std::uint64_t inject_cycle, std::uint64_t arrival,
                  unsigned sl, unsigned tag, ShardWorker& wk) {
    queues_.push(q, dest, src, inject_cycle, arrival, sl, tag);
    ++wk.pool_delta;
  }

  [[nodiscard]] std::size_t queue_index(int s, std::size_t i) const {
    return static_cast<std::size_t>(s) * core_.ports() + i;
  }

  /// Weight class of the packet at the head of queue \p q (credit runs
  /// only: resolves SL -> VL -> weight through the config tables).
  [[nodiscard]] unsigned front_weight(std::size_t q) const {
    return credit_config_->weight(
        credit_config_->vl_of_sl(queues_.front_sl(q)));
  }

  /// Discard every fully-arrived packet queued at a dead switch of stage
  /// \p s whose cell falls in [x0, x1) (all out-arcs masked: no degraded
  /// route exists). Flits still serializing in stay buffered until their
  /// arrival completes.
  void drain_dead_switches(int s, std::uint64_t cycle, bool measuring,
                           std::uint32_t x0, std::uint32_t x1,
                           ShardWorker& wk) {
    CreditLedger* const credits = credit_ledger();
    obs::Observer* const obs = observer();
    const unsigned r = radix();
    ShardCounters& res = wk.partial;
    for (const std::uint32_t x : dead_cells_[static_cast<std::size_t>(s)]) {
      if (x < x0 || x >= x1) continue;
      for (unsigned slot = 0; slot < r; ++slot) {
        const std::size_t q = queue_index(s, x * r + slot);
        while (!queues_.empty(q) && queues_.front_arrival(q) <= cycle) {
          const std::uint64_t inject_cycle = queues_.front_inject(q);
          if (obs != nullptr && inject_cycle >= core_.config().warmup_cycles) {
            const std::uint32_t src = queues_.front_src(q);
            if (obs->traced(src, inject_cycle)) {
              const std::uint32_t dest = queues_.front_dest(q);
              const std::uint8_t phase = drain_phase(s);
              trace_push(wk, cycle, inject_cycle, src, dest,
                         obs::TraceEventKind::kDrop,
                         static_cast<std::uint8_t>(s), 0, phase);
              trace_push(wk, cycle, inject_cycle, src, dest,
                         obs::TraceEventKind::kStageEnd,
                         static_cast<std::uint8_t>(s), 0, phase);
              trace_push(wk, cycle, inject_cycle, src, dest,
                         obs::TraceEventKind::kPacketEnd, 0, 0, phase);
            }
          }
          shard_pop(q, wk);
          // A drained slot returns its credit like any other pop, so
          // the ledger closes exactly even across dead switches.
          if (credits != nullptr) credits->give_back(q, cycle);
          if (measuring && inject_cycle >= core_.config().warmup_cycles) {
            ++res.packets_dropped_faulted;
            res.flits_dropped_faulted += length_;
          }
        }
      }
    }
  }

  /// Observed faulted runs: re-attribute a still-unexplained blocked
  /// head of queue \p q (cell \p x) whose every route-group member is
  /// fault-masked — the scheduled arc on a unipath hop — as a masked-arc
  /// stall: it waits on detour capacity, which is a fault symptom, not
  /// plain congestion (a surviving member would have been a normal
  /// candidate). Runs just before the head's stall is attributed, with
  /// the stage's hoisted routing registers.
  void refine_masked_arc_stall(std::size_t q, std::uint32_t x,
                               const fault::FaultMask* mask,
                               std::size_t link_base,
                               const StageRoute& route) {
    if (stall_cause_[q] != 0) return;
    const PathGroup group = path_group(queues_.front_dest(q), route);
    const std::size_t arc_row =
        link_base + static_cast<std::size_t>(x) * radix();
    for (unsigned k = 0; k < group.count; ++k) {
      if (!mask->faulted_index(arc_row + group.base + k)) return;
    }
    stall_cause_[q] = static_cast<std::uint8_t>(obs::StallCause::kMaskedArc);
  }

  PacketRing& queues_;
  std::vector<std::uint64_t> link_busy_until_;
  std::vector<std::uint64_t> source_busy_until_;
  std::vector<std::uint64_t> eject_busy_until_;
  std::vector<std::vector<std::uint32_t>> dead_cells_;  // faulted runs only
};

/// The discipline as the ladder's argument (see run_policy).
struct StoreAndForward {
  template <bool kBinary, bool kFeatures>
  using Policy = StoreAndForwardPolicy<kBinary, kFeatures>;
};

}  // namespace

SimResult run_store_and_forward(FabricCore& core, SimWorkspace& workspace,
                                const PolicyArgs& args) {
  return run_discipline<StoreAndForward>(core, workspace, args);
}

SimResult run_fabric(const Engine& engine, SwitchingMode mode,
                     Pattern pattern, const SimConfig& config,
                     const fault::FaultMask* mask, SimWorkspace* workspace,
                     const EjectObserver& eject_observer) {
  config.validate();
  // An absent or all-clear mask is no mask: without credits or an
  // observer too, the run takes the plain policy instantiation, so fault
  // support costs the pristine hot loop nothing.
  const bool faulted = mask != nullptr && !mask->none();
  const min::FlatWiring& wiring = engine.wiring();
  if (faulted && !mask->matches(wiring)) {
    throw std::invalid_argument(
        "Engine::run: fault mask geometry does not match this network");
  }
  // The discipline's buffer shape: one FIFO of queue_capacity packets per
  // input port (store-and-forward), or lanes lanes of lane_depth flits.
  const bool wormhole = mode == SwitchingMode::kWormhole;
  PolicyArgs args;
  args.mask = faulted ? mask : nullptr;
  args.eject_observer = &eject_observer;
  args.slots = wormhole ? config.lanes : 1;
  args.capacity = wormhole ? config.lane_depth : config.queue_capacity;
  const auto radix = static_cast<std::size_t>(wiring.radix());
  const std::size_t ports = radix * wiring.cells_per_stage();
  // The observer outlives the policy: constructed up front (so its
  // worker-log count matches the team the driver will clamp to) and
  // harvested into the result by run_policy.
  std::optional<obs::Observer> observer;
  if (config.obs.any()) {
    config.obs.validate(engine.terminals());
    const std::size_t workers = std::min<std::size_t>(
        config.sim_threads,
        std::max<std::uint32_t>(1, wiring.cells_per_stage()));
    args.obs = &observer.emplace(
        config.obs, wiring.stages(), wiring.cells_per_stage(), ports,
        static_cast<std::uint32_t>(engine.terminals()), config.warmup_cycles,
        config.measure_cycles, workers,
        latency_histogram_buckets(config, wiring.stages()),
        config.credits.enabled ? config.credits.service_levels() : 1,
        static_cast<double>(ports) * static_cast<double>(args.slots) *
            static_cast<double>(args.capacity));
  }
  if (engine.multipath() && config.credits.enabled) {
    throw std::invalid_argument(
        "Engine::run: credit-based flow control is not supported on "
        "multipath fabrics");
  }
  // The looping rearrangement runs once up front: it configures every
  // free connection for the requested permutation, and the policy then
  // just reads the settings tables.
  std::optional<multipath::LoopingSettings> looping;
  if (engine.multipath() && config.path_policy == PathPolicy::kLooping) {
    args.looping = &looping.emplace(
        multipath::looping_configure(engine.fabric(), config.permutation));
  }
  // Output-port arbiters choose among the radix * slots input buffers
  // (the last stage's eject among every plane's, see FabricCore).
  FabricCore core(engine, pattern, config,
                  static_cast<unsigned>(radix * args.slots));
  SimWorkspace local;
  SimWorkspace& ws = workspace != nullptr ? *workspace : local;
  return wormhole ? run_wormhole(core, ws, args)
                  : run_store_and_forward(core, ws, args);
}

SimResult Engine::run(Pattern pattern, const SimConfig& config,
                      const fault::FaultMask* mask,
                      SimWorkspace* workspace) const {
  return run_fabric(*this, config.mode, pattern, config, mask, workspace,
                    EjectObserver());
}

}  // namespace mineq::sim
