#include "sim/wormhole.hpp"

#include <algorithm>
#include <vector>

#include "sim/fabric.hpp"
#include "sim/multipath_select.hpp"
#include "sim/policy.hpp"
#include "sim/shard.hpp"

namespace mineq::sim {

namespace {

/// The wormhole discipline as a policy over FabricCore: packets decompose
/// into flits that pipeline through the per-port virtual-channel lanes of
/// a LanePool. The head flit claims an idle downstream lane and advances
/// as soon as it wins output-port arbitration, copying the worm's record
/// into that lane; body and tail flits follow through the reserved lane
/// as counter updates (LanePool::move); the tail releases each lane as it
/// passes. One flit crosses each link per cycle. Flits are built only
/// where one is read: at ejection and in the dead-switch drain. The
/// template switches and the shared plumbing are PolicyBase's
/// (policy.hpp); what the run's features mean here, each tested at run
/// time on the featured instantiation:
///  - a fault mask: every worm's out-port resolves through the degraded
///    route step (PolicyBase::usable_port) when its head is accepted —
///    following the schedule while its arc survives, detouring through
///    the next surviving port otherwise, and marking the lane *dropping*
///    when the switch is dead so the worm (and every flit still following
///    its reservation) drains into the dropped-at-fault counters instead
///    of wedging the buffer;
///  - credits: one credit per downstream lane slot, consumed per flit
///    accepted, returned per flit popped with the configured latency.
///    With a non-empty SL->VL map, worms travel in their fixed virtual
///    lane vl_of_sl(sl) at every hop instead of claiming the first idle
///    lane;
///  - an observer: per-stage probe counters (per-flit hops here), trace
///    events keyed by (cycle, intra-cycle phase), flow records at tail
///    ejection, and a StallCause per blocked lane-cycle.
/// Multipath fabrics: a head's route step (select_next_port) chooses its
/// next out-port within the fabric's equivalent-path group (free Benes
/// connection, dilation group) under the configured PathPolicy,
/// injection picks a plane on replicated fabrics, and each logical
/// terminal's eject arbiter spans planes * radix * lanes candidate lanes.
/// Unipath fabrics run the same kernels with one plane and singleton
/// groups.
template <bool kBinary, bool kFeatures>
class WormholePolicy
    : public PolicyBase<WormholePolicy<kBinary, kFeatures>, kBinary,
                        kFeatures> {
  using Base = PolicyBase<WormholePolicy, kBinary, kFeatures>;
  friend Base;
  using Base::core_, Base::length_, Base::total_slots_, Base::credit_config_,
      Base::service_levels_, Base::path_policy_, Base::stall_cause_,
      Base::fault_mask, Base::credit_ledger, Base::observer, Base::arbitrates,
      Base::radix, Base::multipath, Base::planes, Base::lradix, Base::lcells,
      Base::inject_port, Base::stage_route, Base::path_group, Base::arb_pick,
      Base::arb_grant, Base::keep_heaviest, Base::set_request,
      Base::clear_request, Base::any_request, Base::clear_words,
      Base::request_scratch, Base::count_blocked, Base::usable_port,
      Base::pooled_units, Base::commit_probe_window, Base::kEjectPhase,
      Base::eject_stall_phase, Base::drain_phase, Base::advance_phase,
      Base::stall_phase, Base::inject_phase;
  using StageRoute = typename Base::StageRoute;
  using PathGroup = typename Base::PathGroup;

 public:
  WormholePolicy(FabricCore& core, SimWorkspace& workspace,
                 const PolicyArgs& args)
      : Base(core, workspace, args),
        observer_(*args.eject_observer),
        lanes_(core.config().lanes),
        pool_(workspace.lane_pool(
            static_cast<std::size_t>(core.stages()) * core.ports() * lanes_,
            core.config().lane_depth, core.config().packet_length)),
        sources_(core.terminals()) {
    if (fault_mask() != nullptr) {
      dropping_.assign(
          static_cast<std::size_t>(core.stages()) * core.ports() * lanes_, 0);
    }
  }

  /// The pool's units are flits.
  [[nodiscard]] std::uint64_t buffered_flits(std::int64_t flits) const {
    return static_cast<std::uint64_t>(flits);
  }

  /// Worker 0 only: the order-sensitive occupancy adds over pool-wide
  /// totals summed from the workers' deltas and per-VL counts.
  void shard_sample_reduce(std::uint64_t cycle,
                           std::vector<ShardWorker>& workers) {
    core_.result.lane_occupancy.add(
        static_cast<double>(pooled_units(workers)) / total_slots_);
    if (credit_ledger() != nullptr) {
      if (core_.result.vl_occupancy.empty()) {
        core_.result.vl_occupancy.resize(lanes_);
      }
      const double slots_per_vl = total_slots_ / static_cast<double>(lanes_);
      for (std::size_t vl = 0; vl < lanes_; ++vl) {
        std::uint64_t flits = 0;
        for (const ShardWorker& wk : workers) flits += wk.vl_flits[vl];
        core_.result.vl_occupancy[vl].add(static_cast<double>(flits) /
                                          slots_per_vl);
      }
    }
    obs::Observer* const obs = observer();
    if (obs != nullptr && obs->want_probe(cycle)) commit_probe_window(cycle);
  }

  /// Injection, at most one flit per terminal per cycle: logical terminal
  /// t feeds the first arc of port t % lr of its logical cell t / lr (on
  /// a unipath fabric, input slot t % r of cell t / r), in the plane the
  /// path policy picks on replicated fabrics — hash of the destination,
  /// or the plane with the emptiest injection lanes. A terminal
  /// mid-packet keeps serializing into the lane it claimed; an idle
  /// terminal draws the Bernoulli gate (bursty-OFF terminals skip the
  /// attempt) and its head needs an idle lane or the packet is refused at
  /// the source. Unipath runs claim the lane before drawing the packet;
  /// multipath runs draw first, because the hashed plane pick keys on the
  /// destination, and a refused attempt discards its draw. Runs on worker
  /// 0, \p wk.
  void inject(std::uint64_t cycle, bool measuring, ShardWorker& wk) {
    const fault::FaultMask* const mask = fault_mask();
    CreditLedger* const credits = credit_ledger();
    obs::Observer* const obs = observer();
    const unsigned r = radix();
    const StageRoute route = stage_route(0);
    const std::uint32_t* down_next =
        route.ejects ? nullptr : core_.wiring().down_stage(0).data();
    for (std::uint64_t t = 0; t < core_.terminals(); ++t) {
      SourceState& src = sources_[t];
      if (src.remaining > 0) {
        const std::size_t l =
            lane_index(0, src.port, static_cast<std::size_t>(src.lane));
        bool room;
        if (credits != nullptr) {
          room = credits->available(l);
          if (!room && measuring) {
            ++core_.result.credit_stall_cycles;
            if (obs != nullptr) ++wk.obs_log->credit[0];
          }
        } else {
          room = pool_.has_space(l);
        }
        if (room) {
          ++wk.pool_delta;
          pool_.accept_next(l);
          if (credits != nullptr) credits->consume(l);
          --src.remaining;
          if (measuring) ++core_.result.flits_injected;
        }
        continue;  // the source link is busy with the current packet
      }
      if (!core_.attempt(cycle, static_cast<std::uint32_t>(t))) continue;
      if (measuring) ++core_.result.offered;
      unsigned sl = 0;
      workload::Injection packet;
      std::size_t port = t;
      int lane = -1;
      if (multipath()) {
        packet = core_.draw(cycle, static_cast<std::uint32_t>(t));
        if (path_policy_ == PathPolicy::kAdaptive) {
          std::size_t best = 0;
          for (unsigned plane = 0; plane < planes(); ++plane) {
            const std::size_t candidate = inject_port(t, plane);
            const int idle =
                pool_.find_idle_lane(lane_index(0, candidate, 0), lanes_);
            if (idle < 0) continue;
            std::size_t occupancy = 0;
            for (std::size_t ln = 0; ln < lanes_; ++ln) {
              occupancy += pool_.count(lane_index(0, candidate, ln));
            }
            if (lane < 0 || occupancy < best) {
              best = occupancy;
              port = candidate;
              lane = idle;
            }
          }
        } else {
          const auto plane = static_cast<unsigned>(
              path_mix(packet.dest, cycle, t) % planes());
          port = inject_port(t, plane);
          lane = pool_.find_idle_lane(lane_index(0, port, 0), lanes_);
        }
        if (lane < 0) continue;  // refused at source
      } else {
        if (credits != nullptr) {
          sl = static_cast<unsigned>(t % service_levels_);
          if (!credit_config_->sl_map.empty()) {
            // Fixed virtual lane per service level.
            lane = static_cast<int>(credit_config_->vl_of_sl(sl));
            if (!pool_.idle(lane_index(0, t, static_cast<std::size_t>(lane)))) {
              continue;  // refused at source: its lane is held
            }
          } else {
            lane = pool_.find_idle_lane(lane_index(0, t, 0), lanes_);
            if (lane < 0) continue;  // refused at source
          }
          if (!credits->available(
                  lane_index(0, t, static_cast<std::size_t>(lane)))) {
            if (measuring) {
              ++core_.result.credit_stall_cycles;
              if (obs != nullptr) ++wk.obs_log->credit[0];
            }
            continue;  // lane free, credits not returned yet
          }
        } else {
          lane = pool_.find_idle_lane(lane_index(0, t, 0), lanes_);
          if (lane < 0) continue;  // refused at source
        }
        packet = core_.draw(cycle, static_cast<std::uint32_t>(t));
      }
      const std::uint32_t dest = packet.dest;
      const std::uint32_t id = next_packet_id_++;
      const Flit head = make_flit(id, dest, static_cast<std::uint32_t>(t),
                                  cycle, 0, length_, sl, packet.tag);
      const std::size_t l = lane_index(0, port, static_cast<std::size_t>(lane));
      int reroute_kind = 0;
      accept_head(
          l, head, 0, static_cast<std::uint32_t>(port / r),
          select_next_port(route, 0, static_cast<std::uint32_t>(port), head,
                           down_next, mask, reroute_kind),
          measuring, wk, cycle, inject_phase(), mask, obs);
      if (reroute_kind == 1 && measuring &&
          cycle >= core_.config().warmup_cycles) {
        ++core_.result.path_reroutes;
        if (obs != nullptr) {
          ++wk.obs_log->reroute[0];
          if (obs->traced(static_cast<std::uint32_t>(t), cycle)) {
            trace_push(wk, cycle, cycle, static_cast<std::uint32_t>(t), dest,
                       obs::TraceEventKind::kReroute, 0, 0, inject_phase());
          }
        }
      }
      if (credits != nullptr) credits->consume(l);
      core_.commit(cycle, static_cast<std::uint32_t>(t), packet);
      src.remaining = length_ - 1;
      src.lane = lane;
      src.port = port;
      if (measuring) {
        ++core_.result.injected;
        ++core_.result.flits_injected;
        if (obs != nullptr && obs->traced(static_cast<std::uint32_t>(t), cycle)) {
          trace_push(wk, cycle, cycle, static_cast<std::uint32_t>(t), dest,
                     obs::TraceEventKind::kPacketBegin, 0, 0, inject_phase());
          trace_push(wk, cycle, cycle, static_cast<std::uint32_t>(t), dest,
                     obs::TraceEventKind::kStageBegin, 0, 0, inject_phase());
        }
      }
    }
  }

 private:
  /// The eject kernel over logical cells [lx0, lx1): one flit per
  /// terminal per cycle, granted by the terminal's arbiter among the
  /// planes * radix * lanes last-stage lanes of its logical cell (a worm
  /// may arrive on any arc of its dilation group and in any plane; on a
  /// unipath fabric, the radix * lanes lanes of the cell). One pass per
  /// cell sets each occupied lane's bit in its worm's terminal mask; each
  /// terminal then picks from its mask. Ejection links are terminal
  /// attachments, not wiring arcs, so they cannot fault. A logical-cell
  /// range owns one contiguous physical run per plane, so the workers'
  /// ranges stay single-writer. Every order-sensitive sink — the observer
  /// call, the Welford latency adds, the per-SL latency, the workload
  /// delivery — defers into the worker's event buffers for worker 0's
  /// replay; order-independent counters accumulate into the worker's
  /// partial.
  void eject_impl(std::uint64_t cycle, bool measuring, std::uint32_t lx0,
                  std::uint32_t lx1, ShardWorker& wk) {
    const fault::FaultMask* const mask = fault_mask();
    CreditLedger* const credits = credit_ledger();
    obs::Observer* const obs = observer();
    const bool weighted = arbitrates(ArbitrationPolicy::kWeighted);
    const bool priority = arbitrates(ArbitrationPolicy::kPriority);
    const int last = core_.stages() - 1;
    const unsigned r = radix();
    const unsigned lr = lradix();
    ShardCounters& res = wk.partial;
    const auto per_cell =
        static_cast<unsigned>(static_cast<std::size_t>(r) * lanes_);
    const std::size_t words =
        (static_cast<std::size_t>(planes()) * per_cell + 63) / 64;
    // Rows 0 .. lr - 1 hold each terminal's requesters, then come the
    // cell's occupied lanes and the lanes that ejected.
    const std::size_t rows = static_cast<std::size_t>(lr) + 2;
    std::uint64_t* const requests = request_scratch(wk, rows * words);
    std::uint64_t* const occupied =
        requests + static_cast<std::size_t>(lr) * words;
    std::uint64_t* const moved = occupied + words;
    // The first lane of logical cell lx's copy in plane \p plane; eject
    // candidate c is lane c % per_cell of plane c / per_cell.
    const auto plane_lanes = [&](std::uint32_t lx, unsigned plane) {
      return lane_index(
          last, (static_cast<std::size_t>(plane) * lcells() + lx) * r, 0);
    };
    const auto eject_lane = [&](std::uint32_t lx, unsigned c) {
      if (planes() == 1) return plane_lanes(lx, 0) + c;
      return plane_lanes(lx, c / per_cell) + c % per_cell;
    };
    for (std::uint32_t lx = lx0; lx < lx1; ++lx) {
      clear_words(requests, rows * words);
      for (unsigned plane = 0; plane < planes(); ++plane) {
        const std::size_t first = plane_lanes(lx, plane);
        for (unsigned k = 0; k < per_cell; ++k) {
          const unsigned c = plane * per_cell + k;
          const std::uint64_t bit = std::uint64_t{!pool_.empty(first + k)}
                                    << (c % 64);
          occupied[c / 64] |= bit;
          requests[pool_.out_port(first + k) * words + c / 64] |= bit;
        }
      }
      for (unsigned j = 0; j < lr; ++j) {
        const std::uint32_t term = lx * lr + j;
        std::uint64_t* const candidates = requests + j * words;
        if (!any_request(candidates, words)) continue;
        if (priority) {
          keep_heaviest(candidates, words, [&](unsigned c) {
            return flit_weight(eject_lane(lx, c));
          });
        }
        const unsigned c = arb_pick(last, term, candidates, words, weighted);
        const std::size_t l = eject_lane(lx, c);
        unsigned vl = 0;
        if (credits != nullptr) {
          vl = credit_config_->vl_of_sl(
              static_cast<unsigned>(pool_.worm(l).sl));
        }
        const Flit flit = shard_pop(l, wk);
        if (credits != nullptr) credits->give_back(l, cycle);
        arb_grant(last, term, c, vl, weighted);
        set_request(moved, c);
        const bool counted =
            measuring && flit.inject_cycle >= core_.config().warmup_cycles;
        if (counted) ++res.flits_delivered;
        if (obs != nullptr) {
          if (measuring) {
            ++wk.obs_log->hops[static_cast<std::size_t>(last)];
          }
          if (flit.inject_cycle >= core_.config().warmup_cycles &&
              obs->traced(static_cast<std::uint32_t>(flit.src),
                          flit.inject_cycle)) {
            // Follow the head: its eject closes the last stage slice;
            // the tail's eject completes the packet.
            if (flit.is_head()) {
              trace_push(wk, cycle, flit.inject_cycle,
                         static_cast<std::uint32_t>(flit.src),
                         flit.dest_terminal, obs::TraceEventKind::kStageEnd,
                         static_cast<std::uint8_t>(last), 0, kEjectPhase);
            }
            if (flit.is_tail()) {
              trace_push(wk, cycle, flit.inject_cycle,
                         static_cast<std::uint32_t>(flit.src),
                         flit.dest_terminal, obs::TraceEventKind::kPacketEnd,
                         0, 0, kEjectPhase);
            }
          }
        }
        // A detoured worm ejects at whatever terminal the surviving
        // route reached; count the miss.
        if (mask != nullptr && counted && flit.is_tail() &&
            (flit.dest_terminal / lr) != lx) {
          ++res.packets_misdelivered;
        }
        if (flit.is_tail() && core_.wants_deliveries()) {
          // Tail ejection completes the packet: feed the workload
          // source, warmup included (see workload::Delivery). Built
          // here because the ejection terminal is not derivable from
          // the flit alone on faulted detours.
          const workload::Delivery delivery{
              static_cast<std::uint32_t>(flit.src), flit.dest_terminal,
              term, flit.inject_cycle, cycle + 1,
              static_cast<std::uint8_t>(flit.tag), counted};
          wk.wl_events.push_back(delivery);
        }
        // Defer for the replay: every flit if an observer watches, else
        // just the tails that complete a measured delivery.
        if (observer_ || (counted && flit.is_tail())) {
          wk.wh_events.push_back(flit);
        }
      }
      if (measuring) {
        count_blocked(occupied, moved, words, wk, [&](unsigned c) {
          this->attribute_stall(last, cycle, eject_lane(lx, c), wk,
                                eject_stall_phase(c / per_cell));
        });
      }
    }
  }

  /// The advance kernel over cells [x0, x1) of stage \p s: one flit per
  /// output link per cycle; heads claim an idle downstream lane and
  /// resolve their stage-(s+1) out-port by the route step
  /// (select_next_port), body/tail flits follow the reservation. One pass
  /// per cell sets each occupied lane's bit in its worm's out-port mask,
  /// radix * lanes bits wide; each port then tries its requesters in its
  /// arbiter's probe order until one can move. A worm keeps one out-port,
  /// so a port's requesters never change within the phase, but two lanes
  /// of one input port can each send a flit in the same cycle through
  /// different out-ports. Safe to shard by cell ranges: a worker pushes
  /// only into stage-(s+1) lanes reached through its own cells' arcs, and
  /// the perfect-matching property makes each of those lanes
  /// single-writer for the whole phase.
  void advance_stage_impl(int s, std::uint64_t cycle, bool measuring,
                          std::uint32_t x0, std::uint32_t x1,
                          ShardWorker& wk) {
    const fault::FaultMask* const mask = fault_mask();
    CreditLedger* const credits = credit_ledger();
    obs::Observer* const obs = observer();
    const bool weighted = arbitrates(ArbitrationPolicy::kWeighted);
    const bool priority = arbitrates(ArbitrationPolicy::kPriority);
    // Credit runs with an SL->VL map pin each worm to its virtual lane.
    const bool fixed_lanes =
        credits != nullptr && !credit_config_->sl_map.empty();
    const unsigned r = radix();
    ShardCounters& res = wk.partial;
    const auto down = core_.wiring().down_stage(s);
    // Routing registers for the target stage s + 1, where an advancing
    // head resolves its next out-port (the ejection port when s + 1 is
    // the last stage), and the child records the adaptive metric reads.
    const StageRoute route = stage_route(s + 1);
    const std::uint32_t* down_next =
        route.ejects ? nullptr : core_.wiring().down_stage(s + 1).data();
    if (mask != nullptr) {
      drain_dropping(s, cycle, measuring, x0, x1, wk);
    }
    if (obs != nullptr) {
      // Stall causes default to lost-arbitration; the port loop below
      // overwrites the specific causes it detects.
      const std::size_t sfirst = lane_index(s, 0, 0);
      std::fill(
          stall_cause_.begin() + sfirst + static_cast<std::size_t>(x0) * r *
                                              lanes_,
          stall_cause_.begin() + sfirst + static_cast<std::size_t>(x1) * r *
                                              lanes_,
          0);
    }
    const auto per_cell =
        static_cast<unsigned>(static_cast<std::size_t>(r) * lanes_);
    const std::size_t words = (static_cast<std::size_t>(per_cell) + 63) / 64;
    // Rows 0 .. r - 1 hold each out-port's requesters, then come the
    // cell's occupied lanes and the lanes that moved.
    const std::size_t rows = static_cast<std::size_t>(r) + 2;
    std::uint64_t* const requests = request_scratch(wk, rows * words);
    std::uint64_t* const occupied =
        requests + static_cast<std::size_t>(r) * words;
    std::uint64_t* const moved = occupied + words;
    for (std::uint32_t x = x0; x < x1; ++x) {
      // Candidate c of the cell's ports is lane c of its lane run.
      const std::size_t l0 = lane_index(s, x * r, 0);
      clear_words(requests, rows * words);
      for (unsigned c = 0; c < per_cell; ++c) {
        // Branch-free: an empty lane ORs a zero bit into the row of its
        // last worm's out-port (an idle lane keeps a valid row index).
        const std::uint64_t bit =
            std::uint64_t{!pool_.empty(l0 + c)} << (c % 64);
        occupied[c / 64] |= bit;
        requests[pool_.out_port(l0 + c) * words + c / 64] |= bit;
      }
      for (unsigned port = 0; port < r; ++port) {
        std::uint64_t* const candidates = requests + port * words;
        if (!any_request(candidates, words)) continue;
        if (priority) {
          keep_heaviest(candidates, words,
                        [&](unsigned c) { return flit_weight(l0 + c); });
        }
        // One packed read gives the child cell and its input slot —
        // the record value r * child + slot IS the downstream
        // port-slot index.
        const std::uint32_t record = down[x * r + port];
        const std::size_t target_first = lane_index(s + 1, record, 0);
        while (any_request(candidates, words)) {
          const unsigned c =
              arb_pick(s, x * r + port, candidates, words, weighted);
          clear_request(candidates, c);
          const std::size_t l = l0 + c;
          unsigned vl = 0;
          if (credits != nullptr) {
            vl = credit_config_->vl_of_sl(
                static_cast<unsigned>(pool_.worm(l).sl));
          }
          if (pool_.front_is_head(l)) {
            // The head claims a downstream lane: its fixed virtual lane
            // when an SL->VL map is configured, the first idle lane
            // otherwise.
            int down_lane;
            if (fixed_lanes) {
              down_lane = static_cast<int>(vl);
              if (!pool_.idle(target_first +
                              static_cast<std::size_t>(down_lane))) {
                down_lane = -1;  // blocked: its lane is held by another worm
              }
            } else {
              down_lane = pool_.find_idle_lane(target_first, lanes_);
            }
            if (down_lane < 0) {
              if (obs != nullptr) {
                stall_cause_[l] =
                    static_cast<std::uint8_t>(obs::StallCause::kNoFreeLane);
              }
              continue;  // blocked: no free lane
            }
            if (credits != nullptr &&
                !credits->available(target_first +
                                    static_cast<std::size_t>(down_lane))) {
              // Lane is free but its credits have not returned yet.
              stall_on_credits(s, l, measuring, obs, wk);
              continue;
            }
            const Flit flit = shard_pop(l, wk);
            if (credits != nullptr) credits->give_back(l, cycle);
            if (!flit.is_tail()) pool_.set_downstream(l, down_lane);
            int reroute_kind = 0;
            accept_head(
                target_first + static_cast<std::size_t>(down_lane), flit,
                s + 1, record / r,
                select_next_port(route, s + 1, record, flit, down_next, mask,
                                 reroute_kind),
                measuring, wk, cycle, advance_phase(s), mask, obs);
            if (obs != nullptr &&
                flit.inject_cycle >= core_.config().warmup_cycles &&
                obs->traced(static_cast<std::uint32_t>(flit.src),
                            flit.inject_cycle)) {
              trace_push(wk, cycle, flit.inject_cycle,
                         static_cast<std::uint32_t>(flit.src),
                         flit.dest_terminal, obs::TraceEventKind::kStageEnd,
                         static_cast<std::uint8_t>(s), 0, advance_phase(s));
              trace_push(wk, cycle, flit.inject_cycle,
                         static_cast<std::uint32_t>(flit.src),
                         flit.dest_terminal, obs::TraceEventKind::kStageBegin,
                         static_cast<std::uint8_t>(s + 1), 0,
                         advance_phase(s));
            }
            if (reroute_kind == 1 && measuring &&
                flit.inject_cycle >= core_.config().warmup_cycles) {
              ++res.path_reroutes;
              if (obs != nullptr) {
                ++wk.obs_log->reroute[static_cast<std::size_t>(s)];
                if (obs->traced(static_cast<std::uint32_t>(flit.src),
                                flit.inject_cycle)) {
                  trace_push(wk, cycle, flit.inject_cycle,
                             static_cast<std::uint32_t>(flit.src),
                             flit.dest_terminal,
                             obs::TraceEventKind::kReroute,
                             static_cast<std::uint8_t>(s), 0,
                             advance_phase(s));
                }
              }
            }
            if (credits != nullptr) {
              credits->consume(target_first +
                               static_cast<std::size_t>(down_lane));
            }
          } else {
            // Body/tail flits follow through the reserved lane: counter
            // updates on the two lanes, no flit built.
            const std::size_t down_l =
                target_first + static_cast<std::size_t>(pool_.downstream(l));
            if (credits != nullptr) {
              if (!credits->available(down_l)) {
                stall_on_credits(s, l, measuring, obs, wk);
                continue;
              }
            } else if (!pool_.has_space(down_l)) {
              if (obs != nullptr) {
                stall_cause_[l] = static_cast<std::uint8_t>(
                    obs::StallCause::kDownstreamFull);
              }
              continue;  // blocked: full
            }
            pool_.move(l, down_l);
            if (credits != nullptr) {
              credits->give_back(l, cycle);
              credits->consume(down_l);
            }
          }
          arb_grant(s, x * r + port, c, vl, weighted);
          set_request(moved, c);
          if (measuring) {
            ++wk.link_counter;
            if (obs != nullptr) {
              ++wk.obs_log->hops[static_cast<std::size_t>(s)];
            }
          }
          break;
        }
      }
      if (measuring) {
        count_blocked(occupied, moved, words, wk, [&](unsigned c) {
          this->attribute_stall(s, cycle, l0 + c, wk, stall_phase(s));
        });
      }
    }
  }

  /// A candidate of stage \p s whose downstream lane \p l's sender is out
  /// of credits: one credit stall, and its cause when observed.
  void stall_on_credits(int s, std::size_t l, bool measuring,
                        obs::Observer* obs, ShardWorker& wk) {
    if (measuring) {
      ++wk.partial.credit_stall_cycles;
      if (obs != nullptr) {
        ++wk.obs_log->credit[static_cast<std::size_t>(s)];
      }
    }
    if (obs != nullptr) {
      stall_cause_[l] =
          static_cast<std::uint8_t>(obs::StallCause::kZeroCredits);
    }
  }

  /// The route step: the out-port the head entering stage \p next_s on
  /// record \p record (cell * r + input slot) will take — the terminal's
  /// low digit at the ejection stage, the scheduled port of a singleton
  /// group (every hop of a unipath fabric), else a member of the
  /// equivalent-path group chosen by the configured policy. With a fault
  /// \p mask, a masked choice re-selects among the surviving group
  /// members (\p reroute_kind = 1); a fully-masked group returns its
  /// scheduled base and lets accept_head run the unipath out-of-group
  /// detour (or the dead-switch drop).
  [[nodiscard]] unsigned select_next_port(const StageRoute& route,
                                          int next_s, std::uint32_t record,
                                          const Flit& flit,
                                          const std::uint32_t* down_next,
                                          const fault::FaultMask* mask,
                                          int& reroute_kind) {
    reroute_kind = 0;
    if (route.ejects) return flit.dest_terminal % lradix();
    const PathGroup group = path_group(flit.dest_terminal, route);
    if (group.count == 1) return group.base;
    const unsigned r = radix();
    const std::uint32_t y = record / r;
    const std::size_t arc_row =
        static_cast<std::size_t>(next_s) * core_.ports() + y * r;
    if (path_policy_ == PathPolicy::kAdaptive) {
      // Least-occupancy: the group member whose downstream lanes hold
      // the fewest flits (ties to the lowest port). Masked arcs are not
      // candidates — adaptivity subsumes in-group re-selection.
      int chosen = -1;
      std::size_t best = 0;
      for (unsigned k = 0; k < group.count; ++k) {
        const unsigned p = group.base + k;
        if (mask != nullptr && mask->faulted_index(arc_row + p)) continue;
        std::size_t occupancy = 0;
        const std::size_t down_first =
            lane_index(next_s + 1, down_next[y * r + p], 0);
        for (std::size_t ln = 0; ln < lanes_; ++ln) {
          occupancy += pool_.count(down_first + ln);
        }
        if (chosen < 0 || occupancy < best) {
          best = occupancy;
          chosen = static_cast<int>(p);
        }
      }
      if (chosen >= 0) return static_cast<unsigned>(chosen);
      return group.base;  // whole group masked: accept_head detours or drops
    }
    unsigned desired;
    if (route.settings != nullptr) {
      desired = route.settings[static_cast<std::size_t>(y) * lradix() +
                               record % r];
    } else {
      desired = group.base +
                static_cast<unsigned>(
                    path_mix(flit.dest_terminal, flit.inject_cycle,
                             static_cast<std::uint64_t>(next_s)) %
                    group.count);
    }
    if (mask != nullptr && mask->faulted_index(arc_row + desired)) {
      const int member = surviving_group_member(*mask, arc_row, group.base,
                                                group.count, desired);
      if (member >= 0) {
        reroute_kind = 1;
        return static_cast<unsigned>(member);
      }
    }
    return desired;
  }

  /// The sample kernel over worker \p w's share of the lane links: on
  /// credit runs it audits the credit invariant and counts per-VL flits
  /// into the worker's buffer. The occupancy adds (order-sensitive Welford
  /// updates over the pool-wide totals) are shard_sample_reduce's.
  void sample_impl(std::uint64_t /*cycle*/, std::size_t w, std::size_t n,
                   ShardWorker& wk) {
    if (const CreditLedger* const credits = credit_ledger()) {
      const std::size_t lane_links =
          static_cast<std::size_t>(core_.stages()) * core_.ports() * lanes_;
      const std::uint64_t depth = credits->capacity();
      const auto [lo, hi] = shard_range(lane_links, w, n);
      wk.vl_flits.assign(lanes_, 0);
      for (std::size_t l = lo; l < hi; ++l) {
        const std::uint64_t held = credits->credits(l);
        if (held > depth ||
            held + credits->in_flight(l) + pool_.count(l) != depth) {
          ++wk.partial.credit_violations;
        }
        wk.vl_flits[l % lanes_] += pool_.count(l);
      }
    }
  }

  /// Replay one worker's deferred ejections (worker 0's serial phase, in
  /// ascending-worker = ascending-cell order): the observer call and the
  /// order-sensitive latency adds of every tail that completes a
  /// measured delivery.
  void replay_ejects(std::uint64_t cycle, bool measuring, ShardWorker& wk) {
    const bool credits = credit_ledger() != nullptr;
    obs::Observer* const obs = observer();
    for (const Flit& flit : wk.wh_events) {
      if (observer_) observer_(flit, cycle);
      if (measuring && flit.inject_cycle >= core_.config().warmup_cycles &&
          flit.is_tail()) {
        const double latency =
            static_cast<double>(cycle - flit.inject_cycle + 1);
        core_.record_packet_delivered(latency);
        if (credits) {
          core_.result.sl_latency[static_cast<unsigned>(flit.sl)].add(
              latency);
        }
        if (obs != nullptr && obs->flows_on()) {
          obs->record_flow(static_cast<std::uint32_t>(flit.src),
                           flit.dest_terminal,
                           static_cast<unsigned>(flit.sl), latency);
        }
      }
    }
    wk.wh_events.clear();
  }

  [[nodiscard]] BufferHead head(std::size_t l) const {
    const Flit& worm = pool_.worm(l);
    return {static_cast<std::uint64_t>(worm.inject_cycle),
            static_cast<std::uint32_t>(worm.src), worm.dest_terminal};
  }
  [[nodiscard]] std::uint32_t buffer_count(std::size_t l) const {
    return pool_.count(l);
  }

  /// Pool mutations that count into worker \p wk's pool delta (a body
  /// hop, LanePool::move, leaves the delta as it is).
  Flit shard_pop(std::size_t l, ShardWorker& wk) {
    --wk.pool_delta;
    return pool_.pop(l);
  }

  void shard_accept_head(std::size_t l, const Flit& head, unsigned out_port,
                         ShardWorker& wk) {
    ++wk.pool_delta;
    pool_.accept_head(l, head, out_port);
  }

  /// Per-terminal injection state: the flits of the current packet still
  /// to serialize, and the first-stage input port and lane its worm
  /// claimed (the lane holds the packet's fields).
  struct SourceState {
    std::uint64_t remaining = 0;
    int lane = -1;
    std::size_t port = 0;
  };

  [[nodiscard]] std::size_t lane_index(int s, std::size_t port_index,
                                       std::size_t lane) const {
    return (static_cast<std::size_t>(s) * core_.ports() + port_index) *
               lanes_ +
           lane;
  }

  /// Weight class of the worm at the head of lane \p l (credit runs only).
  [[nodiscard]] unsigned flit_weight(std::size_t l) const {
    return credit_config_->weight(credit_config_->vl_of_sl(
        static_cast<unsigned>(pool_.worm(l).sl)));
  }

  /// Accept \p head into lane \p l of cell \p y at stage \p s with the
  /// caller-resolved scheduled out-port \p desired (callers hoist the
  /// schedule reads per stage). Without a fault \p mask the port is taken
  /// as is. With one, interior stages take the degraded route step —
  /// scheduled port, next surviving port (counted as a reroute), or a
  /// dead switch, which puts the lane in dropping mode so the worm drains
  /// into the fault counters. Last-stage out-ports are ejection ports and
  /// cannot fault.
  void accept_head(std::size_t l, const Flit& head, int s, std::uint32_t y,
                   unsigned desired, bool measuring, ShardWorker& wk,
                   std::uint64_t cycle, std::uint8_t phase,
                   const fault::FaultMask* mask, obs::Observer* obs) {
    if (mask != nullptr && s + 1 < core_.stages()) {
      const int port = usable_port(
          mask,
          static_cast<std::size_t>(s) * core_.ports() +
              static_cast<std::size_t>(y) * radix(),
          desired);
      if (port < 0) {
        // Dead switch: park the worm in dropping mode; drain_dropping
        // discards it (and its following flits) next cycle.
        shard_accept_head(l, head, 0, wk);
        dropping_[l] = 1;
        return;
      }
      if (static_cast<unsigned>(port) != desired && measuring &&
          head.inject_cycle >= core_.config().warmup_cycles) {
        ++wk.partial.packets_rerouted;
        if (obs != nullptr) {
          // Charged to the stage whose out-port detoured (the one the
          // head just entered); the trace event carries the same stage.
          ++wk.obs_log->reroute[static_cast<std::size_t>(s)];
          if (obs->traced(static_cast<std::uint32_t>(head.src),
                          head.inject_cycle)) {
            trace_push(wk, cycle, head.inject_cycle,
                       static_cast<std::uint32_t>(head.src),
                       head.dest_terminal, obs::TraceEventKind::kReroute,
                       static_cast<std::uint8_t>(s), 0, phase);
          }
        }
      }
      shard_accept_head(l, head, static_cast<unsigned>(port), wk);
      return;
    }
    shard_accept_head(l, head, desired, wk);
  }

  /// Discard every buffered flit of the dropping-mode lanes of cells
  /// [x0, x1) of stage \p s. Popping the tail resets the lane to idle
  /// (via LanePool) and ends dropping mode; until then, flits still
  /// following the worm's reservation keep arriving and are drained on
  /// their next turn. Dropping flags for a lane are set by the upstream
  /// arc's owner in an earlier (barriered) phase and cleared here by the
  /// lane's owner, so sharding never races on them.
  void drain_dropping(int s, std::uint64_t cycle, bool measuring,
                      std::uint32_t x0, std::uint32_t x1, ShardWorker& wk) {
    CreditLedger* const credits = credit_ledger();
    obs::Observer* const obs = observer();
    const std::size_t first = lane_index(s, 0, 0);
    const std::size_t lo = first + static_cast<std::size_t>(x0) * radix() *
                                       lanes_;
    const std::size_t hi = first + static_cast<std::size_t>(x1) * radix() *
                                       lanes_;
    ShardCounters& res = wk.partial;
    for (std::size_t l = lo; l < hi; ++l) {
      if (dropping_[l] == 0) continue;
      while (!pool_.empty(l)) {
        const Flit flit = shard_pop(l, wk);
        // A drained flit returns its credit like any other pop, so the
        // ledger closes exactly even across dead switches.
        if (credits != nullptr) credits->give_back(l, cycle);
        if (measuring && flit.inject_cycle >= core_.config().warmup_cycles) {
          ++res.flits_dropped_faulted;
          if (flit.is_head()) ++res.packets_dropped_faulted;
          if (obs != nullptr && flit.is_head() &&
              obs->traced(static_cast<std::uint32_t>(flit.src),
                          flit.inject_cycle)) {
            const std::uint8_t phase = drain_phase(s);
            const auto src = static_cast<std::uint32_t>(flit.src);
            trace_push(wk, cycle, flit.inject_cycle, src, flit.dest_terminal,
                       obs::TraceEventKind::kStageEnd,
                       static_cast<std::uint8_t>(s), 0, phase);
            trace_push(wk, cycle, flit.inject_cycle, src, flit.dest_terminal,
                       obs::TraceEventKind::kDrop,
                       static_cast<std::uint8_t>(s), 0, phase);
            trace_push(wk, cycle, flit.inject_cycle, src, flit.dest_terminal,
                       obs::TraceEventKind::kPacketEnd, 0, 0, phase);
          }
        }
        if (flit.is_tail()) dropping_[l] = 0;
      }
    }
  }

  const EjectObserver& observer_;
  std::size_t lanes_;
  LanePool& pool_;
  std::vector<SourceState> sources_;
  std::uint32_t next_packet_id_ = 0;
  std::vector<std::uint8_t> dropping_;  // faulted runs only
};

/// The discipline as the ladder's argument (see run_policy).
struct Wormhole {
  template <bool kBinary, bool kFeatures>
  using Policy = WormholePolicy<kBinary, kFeatures>;
};

}  // namespace

SimResult run_wormhole(FabricCore& core, SimWorkspace& workspace,
                       const PolicyArgs& args) {
  return run_discipline<Wormhole>(core, workspace, args);
}

SimResult WormholeSimulator::run(Pattern pattern,
                                 const SimConfig& config) const {
  return run(pattern, config, EjectObserver());
}

SimResult WormholeSimulator::run(Pattern pattern, const SimConfig& config,
                                 const EjectObserver& observer) const {
  return run(pattern, config, observer, nullptr, nullptr);
}

SimResult WormholeSimulator::run(Pattern pattern, const SimConfig& config,
                                 const EjectObserver& observer,
                                 const fault::FaultMask* mask,
                                 SimWorkspace* workspace) const {
  return run_fabric(engine_, SwitchingMode::kWormhole, pattern, config, mask,
                    workspace, observer);
}

}  // namespace mineq::sim
