/// \file policy.hpp
/// \brief The plumbing both switching policies share, defined once: the
/// PolicyBase CRTP base and the one run dispatcher behind Engine::run and
/// WormholeSimulator::run.
///
/// A discipline (StoreAndForwardPolicy in engine.cpp, WormholePolicy in
/// wormhole.cpp) derives from PolicyBase and supplies only what moves its
/// payload: its pool, one eject, advance and inject kernel, its
/// path-selection step, the sample kernels and the replay of its deferred
/// ejections. The base owns the per-feature state (fault view, credit
/// ledger and arbiters, multipath geometry, observer and stall scratch),
/// the logical geometry and routing accessors the kernels read, the
/// arbitration seam, the observability helpers, and the entry points the
/// cycle driver (run_switched, shard.hpp) calls. Every kernel runs over a
/// worker's cell or link range and writes its counters into that
/// worker's ShardWorker, so a one-worker run and a sharded run execute
/// the same code.
///
/// A unipath banyan runs as the degenerate multipath fabric: one plane,
/// dilation 1 and singleton route groups. The logical geometry is
/// run-time state the base copies from the Engine, so one kernel body per
/// phase serves every fabric; only the binary instantiation folds it, to
/// the constants of a radix-2 unipath banyan.
///
/// Fault masks, credit flow control and observers are properties of a
/// run, not of the topology, so they share one compile-time switch: a run
/// with none of them takes the plain instantiation, where every feature
/// test folds to false, and any other run takes the featured one, which
/// tests the feature state at run time. Four instantiations per
/// discipline: (binary, general) x (plain, featured).
///
/// Shared code never asks which discipline is calling: the differences
/// arrive as data — the buffers behind each input port (one FIFO or
/// `lanes` lanes) and each buffer's capacity — or through the Derived
/// type's kernels. Buffers are indexed flat, (stage * ports + port) *
/// slots + slot, so a buffer index names the same thing in both pools.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fault/fault_mask.hpp"
#include "multipath/looping.hpp"
#include "obs/observer.hpp"
#include "sim/engine.hpp"
#include "sim/fabric.hpp"
#include "sim/shard.hpp"
#include "sim/wormhole.hpp"
#include "util/bitops.hpp"

namespace mineq::sim {

/// What a run hands its policy beyond the core and the workspace.
struct PolicyArgs {
  const fault::FaultMask* mask = nullptr;  ///< non-null on faulted runs only
  /// Non-null when a collector is enabled; one WorkerLog per worker of
  /// the clamped team.
  obs::Observer* obs = nullptr;
  /// Precomputed settings of a kLooping multipath run (else null).
  const multipath::LoopingSettings* looping = nullptr;
  /// Per-flit ejection hook (wormhole runs; empty otherwise), called by
  /// worker 0's eject replay in ejection order.
  const EjectObserver* eject_observer = nullptr;
  std::size_t slots = 1;     ///< buffers behind each input port
  std::size_t capacity = 1;  ///< units (packets or flits) per buffer
};

/// Append one trace event to worker \p wk's buffer, tagged with its
/// (cycle, phase) sort key. Callers have already checked
/// Observer::traced for the packet.
inline void trace_push(ShardWorker& wk, std::uint64_t cycle,
                       std::uint64_t inject_cycle, std::uint32_t src,
                       std::uint32_t dst, obs::TraceEventKind kind,
                       std::uint8_t stage, std::uint8_t cause,
                       std::uint8_t phase) {
  obs::TraceEvent event;
  event.cycle = cycle;
  event.inject_cycle = inject_cycle;
  event.src = src;
  event.dst = dst;
  event.kind = kind;
  event.stage = stage;
  event.cause = cause;
  event.phase = phase;
  wk.obs_log->events.push_back(event);
}

/// The head packet of a buffer, as the stall tracer reports it.
struct BufferHead {
  std::uint64_t inject_cycle;
  std::uint32_t src;
  std::uint32_t dst;
};

/// The CRTP base of both switching policies. \p Derived implements, over
/// cells [x0, x1) (logical cells for eject), counting into the worker
/// \p wk that runs it:
///   void eject_impl(cycle, measuring, x0, x1, wk);
///   void advance_stage_impl(s, cycle, measuring, x0, x1, wk);
///   void inject(cycle, measuring, wk);         // worker 0
///   void sample_impl(cycle, w, n, wk);         // worker w of n
///   void replay_ejects(cycle, measuring, wk);  // worker 0, per worker
///   BufferHead head(b) const;             // non-empty buffer b
///   std::uint32_t buffer_count(b) const;  // units buffered in b
///   std::uint64_t buffered_flits(units) const;  // of pool units
/// plus shard_sample_reduce(cycle, workers).
///
/// \tparam kBinary a radix-2 unipath banyan: radix() folds to the literal
/// 2, so / and % compile to the historic shift/mask code, a stage's route
/// reads its scheduled digit and port_of_value[s][0] as a shift and an
/// invert, and the logical geometry folds to the physical one — planes()
/// 1, dilation() 1, lradix() 2, lcells() cells, multipath() false — with
/// every route group a singleton. False reads the geometry the Engine
/// carries: a general-radix unipath banyan, or logical terminal addresses
/// over a MultiPathWiring's physical fabric (credit-less) at any radix.
/// \tparam kFeatures the run has a fault mask, credit flow control or an
/// observer. False folds fault_mask(), credit_ledger() and observer() to
/// null, so the plain instantiation carries no feature code at all; true
/// reads each from the state the base owns, null meaning off.
template <class Derived, bool kBinary, bool kFeatures>
class PolicyBase {
 public:
  // --- The driver interface (run_switched, shard.hpp) ------------------
  // Worker w of n runs each kernel over its contiguous range, counts into
  // its own ShardWorker and defers order-sensitive statistics to worker
  // 0's replay.

  /// Credit runs harvest the return ring as a dedicated phase: give_back
  /// writes the very slot deliver reads for the same cycle, so harvest
  /// must finish fabric-wide before any kernel returns a credit.
  [[nodiscard]] bool shard_needs_deliver() const noexcept {
    return credit_ledger() != nullptr;
  }

  void shard_deliver(std::uint64_t cycle, std::size_t w, std::size_t n) {
    const auto [lo, hi] = shard_range(buffers(), w, n);
    credits_->deliver_range(cycle, lo, hi);
  }

  /// Ejection arbitrates per LOGICAL terminal across planes, so its
  /// partition is by logical cells; the physical buffers a logical range
  /// touches are disjoint per-plane runs.
  void shard_eject(std::uint64_t cycle, bool measuring, std::size_t w,
                   std::size_t n, ShardWorker& wk) {
    if (obs::Observer* const obs = observer()) wk.obs_log = &obs->log(w);
    const auto [x0, x1] = shard_range(lcells(), w, n);
    derived().eject_impl(cycle, measuring, static_cast<std::uint32_t>(x0),
                         static_cast<std::uint32_t>(x1), wk);
  }

  void shard_advance(int s, std::uint64_t cycle, bool measuring,
                     std::size_t w, std::size_t n, ShardWorker& wk) {
    const auto [x0, x1] = shard_range(core_.cells(), w, n);
    derived().advance_stage_impl(s, cycle, measuring,
                                 static_cast<std::uint32_t>(x0),
                                 static_cast<std::uint32_t>(x1), wk);
  }

  /// Worker 0's exclusive phase: replay the cycle's deferred ejection
  /// statistics and workload deliveries in ascending-worker (=
  /// ascending-cell) order, then run the cycle tail — the workload tick
  /// and injection consume the source's RNG streams in terminal order, so
  /// they run on worker 0 alone and stay byte-deterministic at any thread
  /// count.
  void shard_serial(std::uint64_t cycle, bool measuring,
                    std::vector<ShardWorker>& workers) {
    for (ShardWorker& wk : workers) {
      derived().replay_ejects(cycle, measuring, wk);
      for (const workload::Delivery& delivery : wk.wl_events) {
        core_.workload_delivered(delivery);
      }
      wk.wl_events.clear();
    }
    core_.workload_tick(cycle, measuring);
    derived().inject(cycle, measuring, workers.front());
  }

  /// Sample (measured cycles only): the busy links and, on credit runs,
  /// the conservation invariant — credits held + credits in flight +
  /// units buffered == capacity on every link, counted, not thrown.
  void shard_sample(std::uint64_t cycle, std::size_t w, std::size_t n,
                    ShardWorker& wk) {
    derived().sample_impl(cycle, w, n, wk);
  }

  /// Sum every worker's order-independent partial into the core result
  /// and finalize it.
  void shard_finish(const std::vector<ShardWorker>& workers) {
    SimResult& total = core_.result;
    std::uint64_t link_counter = 0;
    for (const ShardWorker& wk : workers) {
      const ShardCounters& p = wk.partial;
      total.flits_delivered += p.flits_delivered;
      total.hol_blocking_cycles += p.hol_blocking_cycles;
      total.credit_stall_cycles += p.credit_stall_cycles;
      total.credit_violations += p.credit_violations;
      total.packets_dropped_faulted += p.packets_dropped_faulted;
      total.flits_dropped_faulted += p.flits_dropped_faulted;
      total.packets_rerouted += p.packets_rerouted;
      total.packets_misdelivered += p.packets_misdelivered;
      total.path_reroutes += p.path_reroutes;
      total.stall_lost_arbitration += p.stall_lost_arbitration;
      total.stall_downstream_full += p.stall_downstream_full;
      total.stall_no_free_lane += p.stall_no_free_lane;
      total.stall_zero_credits += p.stall_zero_credits;
      total.stall_masked_arc += p.stall_masked_arc;
      link_counter += wk.link_counter;
    }
    total.flits_in_flight = derived().buffered_flits(pooled_units(workers));
    core_.finalize(link_counter);
  }

 protected:
  PolicyBase(FabricCore& core, SimWorkspace& workspace,
             const PolicyArgs& args)
      : core_(core),
        radix_(static_cast<unsigned>(core.wiring().radix())),
        length_(core.config().packet_length),
        slots_(args.slots),
        total_slots_(static_cast<double>(core.stages()) *
                     static_cast<double>(core.ports()) *
                     static_cast<double>(args.slots) *
                     static_cast<double>(args.capacity)),
        mask_(kFeatures ? args.mask : nullptr),
        lradix_(static_cast<unsigned>(core.engine().logical_radix())),
        lcells_(core.engine().logical_cells()),
        planes_(static_cast<unsigned>(core.engine().planes())),
        dilation_(static_cast<unsigned>(core.engine().dilation())),
        obs_(kFeatures ? args.obs : nullptr) {
    const Engine& engine = core.engine();
    if (engine.multipath()) {
      multipath_ = true;
      path_policy_ = core.config().path_policy;
      looping_ = args.looping;
      free_stage_ = engine.fabric().free_stage().data();
      core.result.paths_available = engine.fabric().paths_available();
    }
    // run_fabric rejects credits on multipath fabrics.
    if (kFeatures && core.config().credits.enabled) {
      credit_config_ = &core.config().credits;
      service_levels_ = credit_config_->service_levels();
      credits_ = &workspace.credit_ledger(
          buffers(), static_cast<std::uint32_t>(args.capacity),
          credit_config_->return_latency);
      if (credit_config_->arbitration == ArbitrationPolicy::kWeighted) {
        weighted_.reset(
            static_cast<std::size_t>(core.stages()) * core.ports(),
            static_cast<unsigned>(static_cast<std::size_t>(radix()) *
                                  slots_));
      }
      core.result.sl_latency.resize(service_levels_);
    }
    if (obs_ != nullptr) {
      // One StallCause slot per buffer; the kernels re-zero exactly the
      // ranges they probe each cycle.
      stall_cause_.assign(buffers(), 0);
    }
  }

  [[nodiscard]] Derived& derived() { return static_cast<Derived&>(*this); }

  /// Units (packets or flits) in the pool: the workers' deltas summed.
  [[nodiscard]] static std::int64_t pooled_units(
      const std::vector<ShardWorker>& workers) {
    std::int64_t units = 0;
    for (const ShardWorker& wk : workers) units += wk.pool_delta;
    return units;
  }

  // --- The run's features, null when off (always, on plain runs) -------
  // Each kernel reads these into locals at entry and hands the locals to
  // the helpers its cell loop calls: the pools' byte stores may alias the
  // members, so a member read inside that loop would be reloaded on every
  // head.

  /// The fault mask of a faulted run.
  [[nodiscard]] const fault::FaultMask* fault_mask() const noexcept {
    return kFeatures ? mask_ : nullptr;
  }
  /// The credit ledger of a credit run (multipath runs are credit-less).
  [[nodiscard]] CreditLedger* credit_ledger() const noexcept {
    return kFeatures ? credits_ : nullptr;
  }
  /// The observer of a run with any collector enabled.
  [[nodiscard]] obs::Observer* observer() const noexcept {
    return kFeatures ? obs_ : nullptr;
  }
  /// Does the output-port arbitration follow \p policy? Only credit runs
  /// configure it; every other run arbitrates round-robin.
  [[nodiscard]] bool arbitrates(ArbitrationPolicy policy) const noexcept {
    return credit_ledger() != nullptr && credit_config_->arbitration == policy;
  }

  /// The radix, folded to the literal 2 in the binary instantiations so
  /// / and % compile to the historic shift/mask code.
  [[nodiscard]] unsigned radix() const noexcept {
    if constexpr (kBinary) {
      return 2U;
    } else {
      return radix_;
    }
  }

  /// Buffers across the whole fabric (stages * ports * slots).
  [[nodiscard]] std::size_t buffers() const {
    return static_cast<std::size_t>(core_.stages()) * core_.ports() * slots_;
  }

  // --- The logical geometry, folded to constants on binary runs --------

  /// Does the run route over a MultiPathWiring?
  [[nodiscard]] bool multipath() const noexcept {
    if constexpr (kBinary) {
      return false;
    } else {
      return multipath_;
    }
  }
  /// Injection planes (> 1 only on replicated fabrics).
  [[nodiscard]] unsigned planes() const noexcept {
    if constexpr (kBinary) {
      return 1U;
    } else {
      return planes_;
    }
  }
  /// Parallel arcs per logical link (> 1 only on dilated fabrics).
  [[nodiscard]] unsigned dilation() const noexcept {
    if constexpr (kBinary) {
      return 1U;
    } else {
      return dilation_;
    }
  }
  /// The base of terminal addresses: a terminal's logical cell is
  /// t / lradix() and its port there t % lradix().
  [[nodiscard]] unsigned lradix() const noexcept {
    if constexpr (kBinary) {
      return 2U;
    } else {
      return lradix_;
    }
  }
  /// Logical cells per stage (terminals() / lradix()).
  [[nodiscard]] std::uint32_t lcells() const noexcept {
    if constexpr (kBinary) {
      return core_.cells();
    } else {
      return lcells_;
    }
  }

  /// The first-stage input port logical terminal \p t feeds in plane
  /// \p plane: the first arc of port t % lradix() of its logical cell.
  [[nodiscard]] std::size_t inject_port(std::uint64_t t,
                                        unsigned plane) const {
    const unsigned lr = lradix();
    return (static_cast<std::size_t>(plane) * lcells() + t / lr) * radix() +
           static_cast<std::size_t>(t % lr) * dilation();
  }

  // --- Routing: one route step per hop ---------------------------------

  /// One connection's routing registers, read once per stage by the
  /// kernels: signed/unsigned TBAA cannot prove the pool stores don't
  /// alias the Engine's schedule fields, so reading them through the
  /// Engine inside a cell loop would reload them per head.
  struct StageRoute {
    bool ejects = false;  ///< the last stage: the terminal's low digit
    bool free = false;    ///< any out-port reaches the destination
    unsigned shift = 0;   ///< kBinary: the scheduled digit
    unsigned invert = 0;  ///< kBinary: port_of_value[s][0]
    /// lradix^(digit + 1): a destination terminal divided by it and
    /// reduced mod lradix is its scheduled digit.
    std::uint32_t digit_scale = 1;
    const std::uint32_t* port_of_value = nullptr;
    /// The looping settings of a free connection (kLooping runs).
    const std::uint8_t* settings = nullptr;
  };

  [[nodiscard]] StageRoute stage_route(int s) const {
    StageRoute route;
    if (s + 1 == core_.stages()) {
      route.ejects = true;
      return route;
    }
    const auto i = static_cast<std::size_t>(s);
    const min::DigitSchedule& schedule = core_.engine().schedule();
    if constexpr (kBinary) {
      route.shift = static_cast<unsigned>(schedule.digit[i]);
      route.invert = schedule.port_of_value[i][0];
    } else {
      route.digit_scale = core_.engine().route_digit_scale(s);
      route.port_of_value = schedule.port_of_value[i].data();
      if (multipath_) {
        route.free = free_stage_[i] != 0;
        if (route.free && path_policy_ == PathPolicy::kLooping) {
          route.settings = looping_->settings[i].data();
        }
      }
    }
    return route;
  }

  /// The out-ports [base, base + count) that reach logical terminal
  /// \p dest from an inner connection: the whole switch at a free
  /// connection, else the dilation group of the scheduled digit — a
  /// singleton on every unipath hop.
  struct PathGroup {
    unsigned base;
    unsigned count;
  };
  [[nodiscard]] PathGroup path_group(std::uint32_t dest,
                                     const StageRoute& route) const {
    if constexpr (kBinary) {
      return {(((dest >> 1) >> route.shift) & 1U) ^ route.invert, 1U};
    } else {
      if (route.free) return {0U, radix()};
      return {route.port_of_value[(dest / route.digit_scale) % lradix()] *
                  dilation(),
              dilation()};
    }
  }

  // --- The arbitration seam (only credit runs vary it) -----------------
  // Each kernel routes every ready head once per cycle and sets its bit in
  // the request mask of the port (or eject terminal) it asks for: `words`
  // 64-bit words over the port's candidate ring, the radix * slots input
  // buffers of an output port (planes times that at an eject terminal).
  // The port then picks from its mask in its arbiter's probe order.
  // Round-robin and strict priority keep the core's RoundRobin pointer
  // state — priority filters the mask before the pointer ever moves, so
  // uniform weights degrade to plain round-robin byte for byte — while the
  // weighted policy swaps in the quantum WRR state. \p weighted is the
  // kernel's hoisted arbitrates(ArbitrationPolicy::kWeighted).

  [[nodiscard]] unsigned arb_pick(int s, std::size_t out,
                                  const std::uint64_t* requests,
                                  std::size_t words, bool weighted) {
    if (weighted) return weighted_.pick(arb_index(s, out), requests, words);
    return core_.arbiter(s, out).pick(requests, words);
  }

  void arb_grant(int s, std::size_t out, unsigned winner, unsigned vl,
                 bool weighted) {
    if (weighted) {
      weighted_.grant(arb_index(s, out), winner, credit_config_->weight(vl));
      return;
    }
    core_.arbiter(s, out).grant(winner);
  }

  [[nodiscard]] std::size_t arb_index(int s, std::size_t out) const {
    return static_cast<std::size_t>(s) * core_.ports() + out;
  }

  /// Strict priority: clear every requester c of \p requests whose weight
  /// class \p weight_of(c) is below the heaviest requester's.
  template <class WeightOf>
  static void keep_heaviest(std::uint64_t* requests, std::size_t words,
                            WeightOf weight_of) {
    unsigned heaviest = 0;
    util::for_each_set_bit(requests, words, [&](unsigned c) {
      heaviest = std::max(heaviest, weight_of(c));
    });
    util::for_each_set_bit(requests, words, [&](unsigned c) {
      if (weight_of(c) != heaviest) clear_request(requests, c);
    });
  }

  static void set_request(std::uint64_t* mask, unsigned c) noexcept {
    mask[c / 64] |= std::uint64_t{1} << (c % 64);
  }
  static void clear_request(std::uint64_t* mask, unsigned c) noexcept {
    mask[c / 64] &= ~(std::uint64_t{1} << (c % 64));
  }
  [[nodiscard]] static bool any_request(const std::uint64_t* mask,
                                        std::size_t words) noexcept {
    for (std::size_t w = 0; w < words; ++w) {
      if (mask[w] != 0) return true;
    }
    return false;
  }

  /// Zero the \p n words at \p masks. A counted loop, not std::fill: GCC
  /// turns a zero fill of run-time length into a memset call, which cost
  /// the wormhole kernel 10-15% at a few words per cell; the empty asm
  /// hides the induction variable from that pattern match.
  static void clear_words(std::uint64_t* masks, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
      masks[i] = 0;
#if defined(__GNUC__)
      __asm__("" : "+r"(i));
#endif
    }
  }

  /// At least \p n words of worker \p wk's request-mask scratch (grown on
  /// first use, so once per run). The kernels zero the rows they use.
  [[nodiscard]] static std::uint64_t* request_scratch(ShardWorker& wk,
                                                      std::size_t n) {
    if (wk.requests.size() < n) wk.requests.resize(n);
    return wk.requests.data();
  }

  /// Head-of-line blocking over one cell's candidates (measured cycles
  /// only): a head that did not move kept its place, so the blocked heads
  /// are \p ready & ~\p moved (\p ready is overwritten with them). With an
  /// observer, \p attribute(c) charges each blocked candidate to its
  /// recorded StallCause in ascending candidate order, so the per-cause
  /// counters partition hol_blocking_cycles exactly and the stall trace
  /// keeps the buffer order within each (cycle, phase) key.
  template <class Attribute>
  void count_blocked(std::uint64_t* ready, const std::uint64_t* moved,
                     std::size_t words, ShardWorker& wk,
                     Attribute attribute) const {
    for (std::size_t w = 0; w < words; ++w) ready[w] &= ~moved[w];
    std::uint64_t blocked = 0;
    const bool observed = observer() != nullptr;
    util::for_each_set_bit(ready, words, [&](unsigned c) {
      ++blocked;
      if (observed) attribute(c);
    });
    wk.partial.hol_blocking_cycles += blocked;
  }

  /// The degraded-mode route step (fault::FaultedWiring::usable_port with
  /// the policy's folded radix): \p arc_row is the mask bit index of the
  /// switch's port-0 out-arc (FaultMask::arc_index layout). Returns the
  /// scheduled port while its arc survives, else the next surviving port,
  /// else -1 (a dead switch).
  [[nodiscard]] int usable_port(const fault::FaultMask* mask,
                                std::size_t arc_row,
                                unsigned desired) const {
    if (!mask->faulted_index(arc_row + desired)) {
      return static_cast<int>(desired);
    }
    const unsigned r = radix();
    unsigned port = desired;
    for (unsigned step = 1; step < r; ++step) {
      ++port;
      if (port >= r) port -= r;
      if (!mask->faulted_index(arc_row + port)) {
        return static_cast<int>(port);
      }
    }
    return -1;
  }

  // --- Observability (runs with an observer only) ----------------------

  /// One blocked head-cycle of buffer \p b: the per-cause SimResult
  /// counter, the per-stage probe counter, and a stall instant for traced
  /// packets. Called for each blocked head that hol_blocking_cycles
  /// counts, so the per-cause counters partition it exactly.
  void attribute_stall(int s, std::uint64_t cycle, std::size_t b,
                       ShardWorker& wk, std::uint8_t phase) {
    ShardCounters& res = wk.partial;
    const auto cause = static_cast<obs::StallCause>(stall_cause_[b]);
    switch (cause) {
      case obs::StallCause::kLostArbitration:
        ++res.stall_lost_arbitration;
        break;
      case obs::StallCause::kDownstreamFull:
        ++res.stall_downstream_full;
        break;
      case obs::StallCause::kNoFreeLane:
        ++res.stall_no_free_lane;
        break;
      case obs::StallCause::kZeroCredits:
        ++res.stall_zero_credits;
        break;
      case obs::StallCause::kMaskedArc:
        ++res.stall_masked_arc;
        break;
    }
    ++wk.obs_log->hol[static_cast<std::size_t>(s)];
    if (obs_->trace_on()) {
      const BufferHead head = derived().head(b);
      if (head.inject_cycle >= core_.config().warmup_cycles &&
          obs_->traced(head.src, head.inject_cycle)) {
        trace_push(wk, cycle, head.inject_cycle, head.src, head.dst,
                   obs::TraceEventKind::kStall, static_cast<std::uint8_t>(s),
                   static_cast<std::uint8_t>(cause), phase);
      }
    }
  }

  /// Close a probe window (worker 0's sample reduce): fill the observer's scratch with the per-(stage, cell)
  /// buffered units and commit. A cell's buffers are contiguous.
  void commit_probe_window(std::uint64_t cycle) {
    std::vector<std::uint32_t>& scratch = obs_->occupancy_scratch();
    const std::size_t per_cell = static_cast<std::size_t>(radix()) * slots_;
    const std::size_t cells =
        static_cast<std::size_t>(core_.stages()) * core_.cells();
    std::size_t b = 0;
    for (std::size_t c = 0; c < cells; ++c) {
      std::uint32_t occupied = 0;
      for (std::size_t k = 0; k < per_cell; ++k) {
        occupied += derived().buffer_count(b++);
      }
      scratch[c] = occupied;
    }
    obs_->commit_probe(cycle);
  }

  // Phase ordinals (TraceEvent::phase): the sub-phases of one cycle
  // numbered in execution order — eject moves, the per-plane eject HOL
  // scans, then per advance stage s (walked S-2 down to 0) a drain /
  // moves / HOL-scan triple, and injection last — so the (cycle, phase)
  // stable sort over the workers' logs reproduces the emission order of a
  // one-worker run.
  static constexpr std::uint8_t kEjectPhase = 0;
  [[nodiscard]] std::uint8_t eject_stall_phase(unsigned plane) const noexcept {
    return static_cast<std::uint8_t>(1 + plane);
  }
  [[nodiscard]] std::uint8_t drain_phase(int s) const noexcept {
    return static_cast<std::uint8_t>(
        1 + planes() + 3 * static_cast<unsigned>(core_.stages() - 2 - s));
  }
  [[nodiscard]] std::uint8_t advance_phase(int s) const noexcept {
    return static_cast<std::uint8_t>(drain_phase(s) + 1);
  }
  [[nodiscard]] std::uint8_t stall_phase(int s) const noexcept {
    return static_cast<std::uint8_t>(drain_phase(s) + 2);
  }
  [[nodiscard]] std::uint8_t inject_phase() const noexcept {
    return static_cast<std::uint8_t>(
        1 + planes() + 3 * static_cast<unsigned>(core_.stages() - 1));
  }

  FabricCore& core_;
  unsigned radix_;
  std::uint64_t length_;
  std::size_t slots_;
  /// Units (packets or flits) the whole fabric buffers: the occupancy
  /// samples' denominator.
  double total_slots_;
  const fault::FaultMask* mask_;                         // faulted runs
  const CreditConfig* credit_config_ = nullptr;          // credit runs
  CreditLedger* credits_ = nullptr;                      // credit runs
  WeightedRoundRobin weighted_;                          // credit runs
  std::size_t service_levels_ = 1;                       // credit runs
  /// The Engine's logical geometry (read by the general instantiations).
  unsigned lradix_;
  std::uint32_t lcells_;
  unsigned planes_;
  unsigned dilation_;
  PathPolicy path_policy_ = PathPolicy::kHash;           // multipath runs
  bool multipath_ = false;                               // multipath runs
  const multipath::LoopingSettings* looping_ = nullptr;  // multipath runs
  const std::uint8_t* free_stage_ = nullptr;             // multipath runs
  obs::Observer* obs_;                                   // observed runs
  /// Per-buffer StallCause scratch, written by the port loops and read
  /// when the cell's blocked heads are attributed — same writer partition
  /// as the buffers.
  std::vector<std::uint8_t> stall_cause_;  // observed runs
};

// The ladder below takes a discipline as a class whose member template
// Policy names its policy — not the policy template itself: a
// template-template argument from an anonymous namespace gives GCC's
// instantiations vague (COMDAT) linkage, which disables hot/cold
// splitting and moves the kernels out of their TU's text.

/// One policy instantiation's run. Out of line on purpose: inlining all
/// the instantiations into the ladder lets the compiler cross-jump the
/// twin hot loops into shared blocks, costing the binary instantiation
/// measurable time.
template <class Discipline, bool kBinary, bool kFeatures>
#if defined(__GNUC__)
[[gnu::noinline]]
#endif
SimResult
run_policy(FabricCore& core, SimWorkspace& workspace,
           const PolicyArgs& args) {
  typename Discipline::template Policy<kBinary, kFeatures> policy(
      core, workspace, args);
  obs::Observer* const obs = args.obs;
  if (obs != nullptr) {
    // Closed-loop sources route request->reply latencies into the flow
    // recorder's service channel (null and ignored when flows are off).
    core.set_service_recorder(obs->flow_recorder());
  }
  SimResult result = run_switched(core, policy, core.config().sim_threads);
  if (obs != nullptr) {
    result.probes = obs->take_probes();
    if (obs->flows_on()) result.flows = obs->flow_summary();
    result.trace = obs->take_trace();
  }
  return result;
}

/// The instantiation ladder of one discipline: (binary, general) x
/// (plain, featured) — 4 instantiations. A radix-2 unipath banyan takes
/// the binary ones, every other fabric (general radix, or multipath at
/// any radix) the general ones; a run with no fault mask, no credits and
/// no observer takes the plain one.
template <class Discipline>
SimResult run_discipline(FabricCore& core, SimWorkspace& workspace,
                         const PolicyArgs& args) {
  const bool features = args.mask != nullptr ||
                        core.config().credits.enabled || args.obs != nullptr;
  if (core.engine().radix() == 2 && !core.engine().multipath()) {
    return features
               ? run_policy<Discipline, true, true>(core, workspace, args)
               : run_policy<Discipline, true, false>(core, workspace, args);
  }
  return features
             ? run_policy<Discipline, false, true>(core, workspace, args)
             : run_policy<Discipline, false, false>(core, workspace, args);
}

/// The disciplines' ladders (engine.cpp, wormhole.cpp).
SimResult run_store_and_forward(FabricCore& core, SimWorkspace& workspace,
                                const PolicyArgs& args);
SimResult run_wormhole(FabricCore& core, SimWorkspace& workspace,
                       const PolicyArgs& args);

/// The one run dispatcher behind Engine::run and WormholeSimulator::run:
/// validate the config, check the mask, build the observer, configure
/// the looping settings of a multipath run, build the FabricCore, and
/// hand off to \p mode's instantiation ladder.
SimResult run_fabric(const Engine& engine, SwitchingMode mode,
                     Pattern pattern, const SimConfig& config,
                     const fault::FaultMask* mask, SimWorkspace* workspace,
                     const EjectObserver& eject_observer);

}  // namespace mineq::sim
