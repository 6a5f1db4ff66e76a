#include "sim/fabric.hpp"

#include <algorithm>
#include <stdexcept>

namespace mineq::sim {

void WeightedRoundRobin::reset(std::size_t arbiters, unsigned size) {
  if (size == 0) {
    throw std::invalid_argument(
        "WeightedRoundRobin: candidate ring must be non-empty");
  }
  size_ = size;
  next_.assign(arbiters, 0);
  served_.assign(arbiters, 0);
}

void WeightedRoundRobin::grant(std::size_t a, unsigned winner,
                               unsigned weight) {
  if (winner >= size_) {
    throw std::logic_error("WeightedRoundRobin::grant: winner out of range");
  }
  if (winner != next_[a]) {
    // A new holder starts its quantum (the old one was not ready).
    next_[a] = winner;
    served_[a] = 0;
  }
  if (++served_[a] >= weight) {
    next_[a] = winner + 1 == size_ ? 0 : winner + 1;
    served_[a] = 0;
  }
}

void CreditLedger::reset(std::size_t links, std::uint32_t capacity,
                         std::uint64_t latency) {
  if (capacity == 0) {
    throw std::invalid_argument("CreditLedger: capacity must be positive");
  }
  capacity_ = capacity;
  latency_ = latency;
  links_ = links;
  credits_.assign(links, capacity);
  pending_.assign(links, 0);
  ring_.assign(links * static_cast<std::size_t>(latency), 0);
}

void CreditLedger::give_back(std::size_t link, std::uint64_t cycle) {
  if (credits_[link] + pending_[link] >= capacity_) {
    throw std::logic_error("CreditLedger: credit return exceeds capacity");
  }
  if (latency_ == 0) {
    ++credits_[link];
    return;
  }
  // Arrival at cycle + latency lands in slot (cycle + latency) % latency
  // == cycle % latency — the slot deliver() just harvested this cycle,
  // so the ring never collides with itself.
  ++pending_[link];
  ++ring_[(cycle % latency_) * links_ + link];
}

void CreditLedger::deliver(std::uint64_t cycle) {
  deliver_range(cycle, 0, links_);
}

void CreditLedger::deliver_range(std::uint64_t cycle, std::size_t lo,
                                 std::size_t hi) {
  if (latency_ == 0) return;
  const std::size_t row = (cycle % latency_) * links_;
  for (std::size_t link = lo; link < hi; ++link) {
    const std::uint32_t arrived = ring_[row + link];
    if (arrived == 0) continue;
    credits_[link] += arrived;
    pending_[link] -= arrived;
    ring_[row + link] = 0;
  }
}

PacketRing::PacketRing(std::size_t queues, std::size_t capacity)
    : capacity_(capacity),
      head_(queues, 0),
      count_(queues, 0),
      dest_(queues * capacity, 0),
      src_(queues * capacity, 0),
      inject_(queues * capacity, 0),
      arrival_(queues * capacity, 0),
      sl_(queues * capacity, 0),
      tag_(queues * capacity, 0) {
  if (capacity == 0) {
    throw std::invalid_argument("PacketRing: capacity must be positive");
  }
}

void PacketRing::reset(std::size_t queues, std::size_t capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("PacketRing: capacity must be positive");
  }
  capacity_ = capacity;
  head_.assign(queues, 0);
  count_.assign(queues, 0);
  dest_.assign(queues * capacity, 0);
  src_.assign(queues * capacity, 0);
  inject_.assign(queues * capacity, 0);
  arrival_.assign(queues * capacity, 0);
  sl_.assign(queues * capacity, 0);
  tag_.assign(queues * capacity, 0);
}

void PacketRing::push(std::size_t q, std::uint32_t dest, std::uint32_t src,
                      std::uint64_t inject_cycle,
                      std::uint64_t arrival_complete, unsigned sl,
                      unsigned tag) {
  if (full(q)) {
    throw std::logic_error("PacketRing: push into a full queue");
  }
  const std::size_t at = q * capacity_ + wrap(head_[q] + count_[q]);
  dest_[at] = dest;
  src_[at] = src;
  inject_[at] = inject_cycle;
  arrival_[at] = arrival_complete;
  sl_[at] = static_cast<std::uint8_t>(sl);
  tag_[at] = static_cast<std::uint8_t>(tag);
  ++count_[q];
}

void PacketRing::pop(std::size_t q) {
  if (empty(q)) {
    throw std::logic_error("PacketRing: pop from an empty queue");
  }
  head_[q] = static_cast<std::uint32_t>(wrap(head_[q] + std::size_t{1}));
  --count_[q];
}

LanePool::LanePool(std::size_t lane_count, std::size_t depth)
    : depth_(depth),
      slots_(lane_count * depth),
      head_(lane_count, 0),
      count_(lane_count, 0),
      busy_(lane_count, 0),
      tail_in_(lane_count, 0),
      out_port_(lane_count, 0),
      downstream_(lane_count, -1) {
  if (depth == 0) {
    throw std::invalid_argument("LanePool: depth must be positive");
  }
}

void LanePool::reset(std::size_t lane_count, std::size_t depth) {
  if (depth == 0) {
    throw std::invalid_argument("LanePool: depth must be positive");
  }
  depth_ = depth;
  slots_.assign(lane_count * depth, Flit{});
  head_.assign(lane_count, 0);
  count_.assign(lane_count, 0);
  busy_.assign(lane_count, 0);
  tail_in_.assign(lane_count, 0);
  out_port_.assign(lane_count, 0);
  downstream_.assign(lane_count, -1);
}

void LanePool::accept_head(std::size_t l, const Flit& head,
                           unsigned out_port) {
  if (busy_[l] != 0 || !head.is_head()) {
    throw std::logic_error(
        "LanePool::accept_head: lane busy or flit not a head");
  }
  busy_[l] = 1;
  tail_in_[l] = head.is_tail() ? 1 : 0;
  out_port_[l] = static_cast<std::uint8_t>(out_port);
  downstream_[l] = -1;
  slots_[l * depth_ + wrap(head_[l] + count_[l])] = head;
  ++count_[l];
}

void LanePool::accept(std::size_t l, const Flit& flit) {
  if (busy_[l] == 0 || tail_in_[l] != 0 || flit.is_head()) {
    throw std::logic_error(
        "LanePool::accept: flit does not continue the worm");
  }
  if (!has_space(l)) {
    throw std::logic_error("LanePool::accept: lane full");
  }
  tail_in_[l] = flit.is_tail() ? 1 : 0;
  slots_[l * depth_ + wrap(head_[l] + count_[l])] = flit;
  ++count_[l];
}

Flit LanePool::pop(std::size_t l) {
  if (count_[l] == 0) {
    throw std::logic_error("LanePool::pop: lane empty");
  }
  const Flit flit = slots_[l * depth_ + head_[l]];
  head_[l] = static_cast<std::uint32_t>(wrap(head_[l] + std::size_t{1}));
  --count_[l];
  if (flit.is_tail()) {
    // The worm has fully left: release the lane and its allocation.
    busy_[l] = 0;
    tail_in_[l] = 0;
    downstream_[l] = -1;
  }
  return flit;
}

int LanePool::find_idle_lane(std::size_t first,
                             std::size_t lanes) const noexcept {
  for (std::size_t i = 0; i < lanes; ++i) {
    if (busy_[first + i] == 0) return static_cast<int>(i);
  }
  return -1;
}

FabricCore::FabricCore(const Engine& engine, Pattern pattern,
                       const SimConfig& config, unsigned arbiter_candidates)
    : engine_(engine),
      config_(config),
      stages_(engine.wiring().stages()),
      cells_(engine.wiring().cells_per_stage()),
      terminals_(engine.terminals()),
      ports_(static_cast<std::size_t>(engine.wiring().radix()) *
             engine.wiring().cells_per_stage()),
      arbiters_(static_cast<std::size_t>(stages_) * ports_,
                RoundRobin(arbiter_candidates)) {
  // The last stage's arbiters eject: a logical terminal picks among the
  // matching buffers of every plane.
  std::fill(arbiters_.end() - static_cast<std::ptrdiff_t>(ports_),
            arbiters_.end(),
            RoundRobin(static_cast<unsigned>(engine.planes()) *
                       arbiter_candidates));
  // Injection is delegated to a workload source (src/workload/). The
  // historic RNG stream layout — split 0 feeds the traffic source,
  // split 1 the injection gate, split 2 the bursty modulator — now
  // lives inside the sources, byte-identical for the open-loop kind.
  // Sources address *logical* terminals — identical to the physical
  // geometry on unipath engines. The dominant open-loop case is
  // devirtualized AND stored inline: the hot inject loop checks one
  // predicted pointer and finds the gate state in this object's own
  // cache lines, matching the pre-seam direct-member cost.
  if (config.workload.kind == workload::Kind::kOpen) {
    synthetic_ = &synthetic_store_.emplace(pattern, engine.address_digits(),
                                           engine.logical_radix(), config,
                                           engine.terminals());
    workload_ = synthetic_;
  } else {
    owned_workload_ = workload::make_source(
        pattern, config, engine.address_digits(), engine.logical_radix(),
        engine.terminals(),
        latency_histogram_buckets(config, engine.wiring().stages()));
    workload_ = owned_workload_.get();
  }
  wants_deliveries_ = workload_->wants_deliveries();
  recording_ = config.workload.record;
  // Shape the latency histogram to this run instead of the historic
  // fixed 1024-cycle ceiling, which deep or credit-throttled fabrics
  // saturate (silently clamping p99 at the overflow edge). Bucket width
  // stays 1 cycle; runs whose latencies fit the old ceiling keep the old
  // shape, so their quantiles are unchanged.
  result.latency_histogram =
      Histogram(1.0, latency_histogram_buckets(config, stages_));
}

void FabricCore::finalize(std::uint64_t link_counter) {
  // measure_cycles > 0: SimConfig::validate rejects a run without one.
  result.throughput =
      static_cast<double>(result.delivered) /
      (static_cast<double>(config_.measure_cycles) *
       static_cast<double>(terminals_));
  // Physical links per inter-stage gap is ports_ (== terminals_ on a
  // unipath fabric, wider on a multipath one).
  result.link_utilization =
      static_cast<double>(link_counter) /
      (static_cast<double>(stages_ - 1) * static_cast<double>(ports_) *
       static_cast<double>(config_.measure_cycles));
  // An idle point (rate 0, all-OFF bursty, dead fabric) offered nothing;
  // report 0 like every other ratio so reports never carry nan/inf or a
  // vacuous 1.0.
  result.acceptance =
      result.offered == 0
          ? 0.0
          : static_cast<double>(result.injected) /
                static_cast<double>(result.offered);
  // The rate the workload actually asked for, per terminal per cycle.
  // Open-loop sources pin this at the configured rate; a closed-loop
  // source at saturation offers *less* (its window throttles it), which
  // is the self-throttling signature the sweep reports surface.
  result.offered_rate_effective =
      static_cast<double>(result.offered) /
      (static_cast<double>(config_.measure_cycles) *
       static_cast<double>(terminals_));
  // Let the source contribute its own counters (reply latency, window
  // stalls, orphans) before the result is read out.
  workload_->finish(result);
  if (recording_) {
    result.workload_trace = std::move(recorded_);
    recorded_.clear();
  }
}

}  // namespace mineq::sim
