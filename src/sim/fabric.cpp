#include "sim/fabric.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <new>
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

namespace {

/// Begin the lifetimes of \p n zeroed Ts at byte \p offset of \p block.
template <class T>
T* zeroed_array(std::byte* block, std::size_t offset, std::size_t n) {
  T* const first = reinterpret_cast<T*>(block + offset);
  std::uninitialized_value_construct_n(first, n);
  return std::launder(first);
}

}  // namespace

void PacketRing::reset(std::size_t queues, std::size_t capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("PacketRing: capacity must be positive");
  }
  capacity_ = capacity;
  const std::size_t slots = queues * capacity;
  // Byte offset of each field array in the block, each on its own line.
  std::size_t size = 0;
  const auto carve = [&size](std::size_t bytes) {
    const std::size_t at = size;
    size += (bytes + 63) & ~std::size_t{63};
    return at;
  };
  const std::size_t head = carve(queues * sizeof(std::uint32_t));
  const std::size_t count = carve(queues * sizeof(std::uint32_t));
  const std::size_t dest = carve(slots * sizeof(std::uint32_t));
  const std::size_t src = carve(slots * sizeof(std::uint32_t));
  const std::size_t inject = carve(slots * sizeof(std::uint64_t));
  const std::size_t arrival = carve(slots * sizeof(std::uint64_t));
  const std::size_t sl = carve(slots);
  const std::size_t tag = carve(slots);
  if (size + 63 > block_bytes_) {
    block_.reset();
    block_bytes_ = 0;
    block_ = std::make_unique_for_overwrite<std::byte[]>(size + 63);
    block_bytes_ = size + 63;
  }
  const auto address = reinterpret_cast<std::uintptr_t>(block_.get());
  std::byte* const base = block_.get() + (64 - address % 64) % 64;
  head_ = zeroed_array<std::uint32_t>(base, head, queues);
  count_ = zeroed_array<std::uint32_t>(base, count, queues);
  dest_ = zeroed_array<std::uint32_t>(base, dest, slots);
  src_ = zeroed_array<std::uint32_t>(base, src, slots);
  inject_ = zeroed_array<std::uint64_t>(base, inject, slots);
  arrival_ = zeroed_array<std::uint64_t>(base, arrival, slots);
  sl_ = zeroed_array<std::uint8_t>(base, sl, slots);
  tag_ = zeroed_array<std::uint8_t>(base, tag, slots);
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

void LanePool::reset(std::size_t lane_count, std::size_t depth,
                     std::size_t length) {
  if (depth == 0) {
    throw std::invalid_argument("LanePool: depth must be positive");
  }
  if (length == 0) {
    throw std::invalid_argument("LanePool: length must be positive");
  }
  depth_ = std::min<std::size_t>(depth,
                                 std::numeric_limits<std::uint32_t>::max());
  length_ = length;
  lanes_.assign(lane_count, Lane{});
}

void LanePool::fail(const char* what) { throw std::logic_error(what); }

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
