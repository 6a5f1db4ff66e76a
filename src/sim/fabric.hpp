/// \file fabric.hpp
/// \brief FabricCore: the shared substrate of both switching disciplines.
///
/// Store-and-forward and wormhole switching differ only in how payload
/// advances through a switch; everything else — the stage-packed wiring
/// (min::FlatWiring), the per-output-port round-robin arbiters, the
/// pluggable workload source behind the attempt/draw/commit seam
/// (workload/workload.hpp), the result counters and their finalization —
/// is one substrate, owned by FabricCore. Each discipline is a *policy*
/// (engine.cpp, wormhole.cpp, over the shared PolicyBase of policy.hpp)
/// that implements the four per-cycle phases over the core; one driver,
/// run_switched() in shard.hpp, sequences them identically for both, on
/// one worker or a team:
///
///   eject -> advance stages (last-1 .. 0) -> inject -> sample
///
/// Payload lives in two pools of one allocation each, not a deque per
/// queue, so a run allocates O(1) blocks and the hot loops stream over
/// flat memory. PacketRing holds the whole-packet FIFOs as fixed-capacity
/// rings over struct-of-arrays fields. LanePool holds one record per
/// virtual-channel lane: a worm's flits differ only in their index, so a
/// lane keeps the worm's head flit and two counters, never flit copies.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/flit.hpp"
#include "sim/traffic.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace mineq::sim {

/// Rotating-priority pointer over a fixed candidate ring. A caller
/// collects the candidates that request service this round as a bit mask
/// over the ring, pick()s one and grant()s it, which moves the winner to
/// lowest priority for the next round. The shared fairness primitive of
/// both switching disciplines.
class RoundRobin {
 public:
  /// \throws std::invalid_argument on an empty candidate ring — a
  /// size-0 arbiter has nothing to grant, and silently clamping it to 1
  /// (the historic behavior) masked the caller's geometry bug.
  explicit RoundRobin(unsigned size = 1) : size_(size) {
    if (size == 0) {
      throw std::invalid_argument(
          "RoundRobin: candidate ring must be non-empty");
    }
  }

  /// The requester to serve: the first set bit of the \p words-word
  /// mask \p requests (bit c = candidate c; at least one set) at or after
  /// the pointer, wrapping to the lowest — the requester a probe of
  /// candidates pointer, pointer + 1, ... (mod size) would meet first.
  [[nodiscard]] unsigned pick(const std::uint64_t* requests,
                              std::size_t words = 1) const noexcept {
    return util::first_set_from(requests, words, next_);
  }

  /// Record that \p winner was served; it now has lowest priority.
  /// \throws std::logic_error on a winner outside the candidate ring
  /// (granting it would desynchronize the pointer silently).
  void grant(unsigned winner) {
    if (winner >= size_) {
      throw std::logic_error("RoundRobin::grant: winner out of range");
    }
    next_ = (winner + 1) % size_;
  }

  [[nodiscard]] unsigned size() const noexcept { return size_; }

 private:
  unsigned size_;
  unsigned next_ = 0;
};

/// Quantum-weighted round-robin pointers, one per output port, flat over
/// the whole fabric. pick() matches RoundRobin's (the first requester
/// from the pointer); the difference is the grant rule: a winner keeps
/// top priority until it has taken \p weight consecutive grants (its
/// quantum), then the pointer rotates past it. With every weight equal
/// to 1 the grant sequence reduces to RoundRobin's exactly.
class WeightedRoundRobin {
 public:
  /// Re-shape to \p arbiters pointers over \p size candidates each and
  /// reset all quanta.
  void reset(std::size_t arbiters, unsigned size);

  /// Pointer \p a's pick among the set bits of \p requests (see
  /// RoundRobin::pick).
  [[nodiscard]] unsigned pick(std::size_t a, const std::uint64_t* requests,
                              std::size_t words = 1) const noexcept {
    return util::first_set_from(requests, words, next_[a]);
  }

  /// Record that \p winner was served with quantum \p weight (>= 1).
  void grant(std::size_t a, unsigned winner, unsigned weight);

 private:
  unsigned size_ = 1;
  std::vector<unsigned> next_;
  std::vector<unsigned> served_;  ///< consecutive grants to next_[a]
};

/// Per-link credit counters with a configurable return latency — the
/// loss-free link-level flow control both disciplines run when
/// SimConfig::credits is enabled. The receiver end of every downstream
/// buffer grants its capacity in credits up front; senders consume one
/// per unit pushed and stall at zero; every pop schedules the credit
/// back through a small ring of in-flight credit messages that delivers
/// it \p latency cycles later (latency 0 returns it immediately, which
/// the phase order makes byte-identical to direct occupancy probes).
/// Conservation holds cycle for cycle:
///   credits(l) + in_flight(l) + occupancy(l) == capacity.
class CreditLedger {
 public:
  /// Re-shape to \p links counters of \p capacity credits each with
  /// \p latency-cycle returns, retaining allocations when large enough.
  void reset(std::size_t links, std::uint32_t capacity,
             std::uint64_t latency);

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool available(std::size_t link) const noexcept {
    return credits_[link] != 0;
  }
  [[nodiscard]] std::uint32_t credits(std::size_t link) const noexcept {
    return credits_[link];
  }
  /// Credit-return messages still in flight toward \p link's sender.
  [[nodiscard]] std::uint32_t in_flight(std::size_t link) const noexcept {
    return pending_[link];
  }

  /// Spend one credit of \p link; it must be available().
  void consume(std::size_t link) noexcept { --credits_[link]; }

  /// Schedule one credit of \p link back to its sender, arriving at
  /// cycle + latency (immediately for latency 0).
  void give_back(std::size_t link, std::uint64_t cycle);

  /// Start-of-cycle harvest: every credit scheduled to arrive at
  /// \p cycle lands. Call once per cycle, before any give_back of that
  /// cycle.
  void deliver(std::uint64_t cycle);

  /// deliver() restricted to links [\p lo, \p hi) — the driver's harvest
  /// phase, the first of each cycle, partitioned into disjoint ranges
  /// across the workers (per-link state is independent, so a range
  /// partition is exact).
  void deliver_range(std::uint64_t cycle, std::size_t lo, std::size_t hi);

 private:
  std::uint32_t capacity_ = 0;
  std::uint64_t latency_ = 0;
  std::size_t links_ = 0;
  std::vector<std::uint32_t> credits_;
  std::vector<std::uint32_t> pending_;  ///< per-link in-flight total
  /// Slot-major in-flight ring, slot = arrival cycle % latency:
  /// ring_[slot * links + link] credits land together.
  std::vector<std::uint32_t> ring_;
};

/// Every store-and-forward input FIFO of the fabric as one
/// struct-of-arrays ring pool: queue q occupies slots [q * capacity,
/// (q+1) * capacity) of the parallel field arrays. The per-queue and
/// per-slot arrays are carved out of one allocation (see SimWorkspace),
/// each starting on a 64-byte line.
class PacketRing {
 public:
  PacketRing(std::size_t queues, std::size_t capacity) {
    reset(queues, capacity);
  }
  // The field pointers point into block_.
  PacketRing(const PacketRing&) = delete;
  PacketRing& operator=(const PacketRing&) = delete;

  /// Re-shape to (queues, capacity) and clear every queue, retaining the
  /// underlying allocations when they are large enough — the
  /// SimWorkspace arena path for sweeps that run many points per thread.
  void reset(std::size_t queues, std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty(std::size_t q) const noexcept {
    return count_[q] == 0;
  }
  [[nodiscard]] bool full(std::size_t q) const noexcept {
    return count_[q] == capacity_;
  }
  /// Packets currently buffered in queue \p q.
  [[nodiscard]] std::uint32_t count(std::size_t q) const noexcept {
    return count_[q];
  }

  /// Append a packet; the queue must not be full. \p sl is the packet's
  /// service level (0 outside credit-mode runs), \p src its source
  /// terminal (carried for flow attribution and packet tracing), \p tag
  /// its workload tag (request/reply; 0 outside closed-loop runs).
  void push(std::size_t q, std::uint32_t dest, std::uint32_t src,
            std::uint64_t inject_cycle, std::uint64_t arrival_complete,
            unsigned sl = 0, unsigned tag = 0);

  /// Head-of-line packet fields; the queue must not be empty.
  [[nodiscard]] std::uint32_t front_dest(std::size_t q) const {
    return dest_[front_slot(q)];
  }
  [[nodiscard]] std::uint32_t front_src(std::size_t q) const {
    return src_[front_slot(q)];
  }
  [[nodiscard]] std::uint64_t front_inject(std::size_t q) const {
    return inject_[front_slot(q)];
  }
  [[nodiscard]] std::uint64_t front_arrival(std::size_t q) const {
    return arrival_[front_slot(q)];
  }
  [[nodiscard]] unsigned front_sl(std::size_t q) const {
    return sl_[front_slot(q)];
  }
  [[nodiscard]] unsigned front_tag(std::size_t q) const {
    return tag_[front_slot(q)];
  }

  /// Drop the head-of-line packet; the queue must not be empty.
  void pop(std::size_t q);

 private:
  // head_[q] stays < capacity_ by construction, so ring wrap-around is a
  // compare-and-subtract, never a (hardware-division) modulo — these run
  // once per packet per cycle in the store-and-forward hot loop.
  [[nodiscard]] std::size_t front_slot(std::size_t q) const {
    return q * capacity_ + head_[q];
  }
  [[nodiscard]] std::size_t wrap(std::size_t i) const {
    return i >= capacity_ ? i - capacity_ : i;
  }

  std::size_t capacity_ = 1;
  /// Storage for the field arrays below, which reset() begins in it; one
  /// line longer than they need, so the first can start on a line.
  std::unique_ptr<std::byte[]> block_;
  std::size_t block_bytes_ = 0;
  std::uint32_t* head_ = nullptr;
  std::uint32_t* count_ = nullptr;
  std::uint32_t* dest_ = nullptr;
  std::uint32_t* src_ = nullptr;
  std::uint64_t* inject_ = nullptr;
  std::uint64_t* arrival_ = nullptr;
  std::uint8_t* sl_ = nullptr;
  std::uint8_t* tag_ = nullptr;
};

/// Every wormhole virtual channel of the fabric as one pool of 32-byte
/// lane records. A lane holds flits of at most one packet (one worm) at a
/// time, and the index-th flit of a worm is make_flit(its header, index,
/// L), so a lane stores no flits: it keeps its worm's head flit once, the
/// index of its front flit and the number of flits buffered, plus the
/// worm's out-port and the downstream lane it reserved. Everything else
/// is derived from the two counters:
///  - the lane is idle (free for a new worm) when both are 0: before its
///    first worm, and again once the tail has left;
///  - the worm's tail is in when front index + count == L;
///  - the front flit is the head when the front index is 0.
/// A head claims an idle lane (accept_head), the next flit of a worm
/// arrives from its source (accept_next) or hops from the upstream lane
/// (move: two counter updates, no flit built), and popping the tail
/// returns the lane to idle. A Flit is built only where one is read
/// (pop). The pool keeps no pool-wide count: workers mutate
/// disjoint lane ranges concurrently, so each counts its own pushes and
/// pops. The same holds for PacketRing.
///
/// Both counters are 32-bit and exact for every packet length
/// SimConfig::validate accepts: the front index never holds L (a tail
/// pop resets it to 0), a lane pops at most once per cycle, and a run is
/// at most 2^32 cycles. The count stays at or below the depth, which
/// reset() caps at 2^32 - 1 (a lane fills by one flit per cycle, so only
/// the last cycle of a 2^32-cycle run could tell).
class LanePool {
 public:
  LanePool(std::size_t lane_count, std::size_t depth, std::size_t length) {
    reset(lane_count, depth, length);
  }

  /// Re-shape to \p lane_count lanes of \p depth flits for worms of
  /// \p length flits and reset every lane to idle, retaining the
  /// allocation when it is large enough.
  void reset(std::size_t lane_count, std::size_t depth, std::size_t length);

  [[nodiscard]] std::size_t depth() const noexcept { return depth_; }

  /// Free for a new worm: no worm claimed it, or its tail has left.
  [[nodiscard]] bool idle(std::size_t l) const noexcept {
    return lanes_[l].front == 0 && lanes_[l].count == 0;
  }
  [[nodiscard]] bool empty(std::size_t l) const noexcept {
    return lanes_[l].count == 0;
  }
  /// Room for one more flit of the current worm.
  [[nodiscard]] bool has_space(std::size_t l) const noexcept {
    return lanes_[l].count < depth_;
  }
  /// Flits currently buffered in lane \p l.
  [[nodiscard]] std::uint32_t count(std::size_t l) const noexcept {
    return lanes_[l].count;
  }

  /// The head flit of the worm holding lane \p l: the packet fields every
  /// flit of the worm shares (id, destination, source, injection cycle,
  /// service level, tag).
  [[nodiscard]] const Flit& worm(std::size_t l) const noexcept {
    return lanes_[l].worm;
  }
  /// Is the front flit of non-empty lane \p l its worm's head?
  [[nodiscard]] bool front_is_head(std::size_t l) const noexcept {
    return lanes_[l].front == 0;
  }

  /// Claim idle lane \p l for a new worm whose head is \p head and which
  /// leaves this buffer through \p out_port.
  /// \throws std::logic_error if the lane is busy or \p head is not a
  /// head flit.
  void accept_head(std::size_t l, const Flit& head, unsigned out_port) {
    Lane& lane = lanes_[l];
    if (!idle(l) || !head.is_head()) {
      fail("LanePool::accept_head: lane busy or flit not a head");
    }
    lane.worm = head;
    lane.count = 1;
    lane.port = static_cast<std::uint8_t>(out_port);
  }

  /// Append the next flit of the worm holding lane \p l (its source
  /// serializing the packet).
  /// \throws std::logic_error if the lane holds no worm or already holds
  /// its tail, or is full.
  void accept_next(std::size_t l) {
    Lane& lane = lanes_[l];
    if (idle(l) || std::uint64_t{lane.front} + lane.count >= length_) {
      fail("LanePool::accept_next: flit does not continue the worm");
    }
    if (lane.count >= depth_) fail("LanePool::accept_next: lane full");
    ++lane.count;
  }

  /// One body or tail hop: pop the front flit of lane \p from and append
  /// it to lane \p to, which the worm reserved downstream. Counter
  /// updates only; no flit is built.
  /// \throws std::logic_error if \p from is empty, the front flit is a
  /// head or is not the next flit \p to expects, or \p to is full.
  void move(std::size_t from, std::size_t to) {
    Lane& src = lanes_[from];
    Lane& dst = lanes_[to];
    if (src.count == 0) fail("LanePool::move: lane empty");
    if (src.front == 0 ||
        std::uint64_t{dst.front} + dst.count != src.front) {
      fail("LanePool::move: flit does not continue the worm");
    }
    if (dst.count >= depth_) fail("LanePool::move: lane full");
    ++dst.count;
    drop_front(src);
  }

  /// Remove and return the front flit. Popping the tail returns the lane
  /// to idle (the worm has fully left).
  /// \throws std::logic_error if the lane is empty.
  Flit pop(std::size_t l) {
    Lane& lane = lanes_[l];
    if (lane.count == 0) fail("LanePool::pop: lane empty");
    // make_flit(..., front index, L): the head flit with its flags reset.
    Flit flit = lane.worm;
    flit.head = lane.front == 0 ? 1 : 0;
    flit.tail = std::uint64_t{lane.front} + 1 == length_ ? 1 : 0;
    drop_front(lane);
    return flit;
  }

  /// Out-port of the worm currently occupying lane \p l.
  [[nodiscard]] unsigned out_port(std::size_t l) const noexcept {
    return lanes_[l].port;
  }

  /// Downstream lane (relative index inside the next buffer) reserved by
  /// the worm, -1 until its head advances.
  [[nodiscard]] int downstream(std::size_t l) const noexcept {
    return lanes_[l].down;
  }
  void set_downstream(std::size_t l, int lane) noexcept {
    lanes_[l].down = lane;
  }

  /// First idle lane of the \p lanes-lane buffer starting at \p first
  /// (relative index), or -1 if every lane is claimed.
  [[nodiscard]] int find_idle_lane(std::size_t first,
                                   std::size_t lanes) const noexcept {
    for (std::size_t i = 0; i < lanes; ++i) {
      if (idle(first + i)) return static_cast<int>(i);
    }
    return -1;
  }

 private:
  struct Lane {
    Flit worm;                ///< the worm's head flit
    std::uint32_t front = 0;  ///< index of the front flit in the worm
    std::uint32_t count = 0;  ///< flits buffered
    std::int32_t down = -1;   ///< reserved downstream lane
    std::uint8_t port = 0;    ///< out-port
  };
  static_assert(sizeof(Lane) == 32);

  /// Throw std::logic_error(\p what); kept out of line so the inlined
  /// pool operations stay small in the kernels' cell loops.
  [[noreturn, gnu::cold, gnu::noinline]] static void fail(const char* what);

  /// Advance \p lane's front past one flit; past the tail the lane is
  /// idle again.
  void drop_front(Lane& lane) noexcept {
    --lane.count;
    if (std::uint64_t{++lane.front} == length_) {
      lane.front = 0;
      lane.down = -1;
    }
  }

  std::size_t depth_ = 1;
  std::uint64_t length_ = 1;
  std::vector<Lane> lanes_;
};

/// Reusable cross-run allocation arena for the payload pools. A sweep
/// worker owns one workspace and passes it to every Engine::run it
/// executes, so million-packet grids re-shape (and usually just clear)
/// the same pool allocations instead of re-allocating them per grid
/// point. Each pool is one block: glibc raises its mmap threshold to the
/// largest block freed and trims its heap only above twice that, so a
/// pool freed as one block stays on the heap for the next workspace to
/// take over, where the same bytes in several blocks would go back to
/// the kernel and fault in again. Pools are fully re-initialized per
/// run, so results are byte-identical with or without a workspace.
class SimWorkspace {
 public:
  /// The store-and-forward FIFO pool, reset to (queues, capacity).
  [[nodiscard]] PacketRing& packet_ring(std::size_t queues,
                                        std::size_t capacity) {
    ring_.reset(queues, capacity);
    return ring_;
  }

  /// The wormhole virtual-channel pool, reset to (lane_count, depth,
  /// length).
  [[nodiscard]] LanePool& lane_pool(std::size_t lane_count,
                                    std::size_t depth, std::size_t length) {
    pool_.reset(lane_count, depth, length);
    return pool_;
  }

  /// The credit-flow-control ledger, reset to (links, capacity,
  /// latency). Like the pools, fully re-initialized per run.
  [[nodiscard]] CreditLedger& credit_ledger(std::size_t links,
                                            std::uint32_t capacity,
                                            std::uint64_t latency) {
    ledger_.reset(links, capacity, latency);
    return ledger_;
  }

 private:
  PacketRing ring_{0, 1};
  LanePool pool_{0, 1, 1};
  CreditLedger ledger_;
};

/// The per-run state shared by both switching policies: geometry, RNG
/// streams, arbiters, traffic, result counters and their finalization.
class FabricCore {
 public:
  /// \p arbiter_candidates is the candidate-ring size of every
  /// output-port arbiter (radix input slots for store-and-forward,
  /// radix * lanes for wormhole). The last stage's arbiters eject, one
  /// per logical terminal, over the matching buffers of every plane:
  /// planes * arbiter_candidates candidates each. \p config must already
  /// be validated.
  FabricCore(const Engine& engine, Pattern pattern, const SimConfig& config,
             unsigned arbiter_candidates);

  [[nodiscard]] const Engine& engine() const noexcept { return engine_; }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }
  [[nodiscard]] const min::FlatWiring& wiring() const noexcept {
    return engine_.wiring();
  }

  [[nodiscard]] int stages() const noexcept { return stages_; }
  [[nodiscard]] std::uint32_t cells() const noexcept { return cells_; }
  [[nodiscard]] std::uint64_t terminals() const noexcept {
    return terminals_;
  }
  /// Input ports (= input slots = terminal links) per stage:
  /// radix * cells.
  [[nodiscard]] std::size_t ports() const noexcept { return ports_; }
  [[nodiscard]] std::uint64_t total_cycles() const noexcept {
    return config_.warmup_cycles + config_.measure_cycles;
  }

  /// The arbiter of output port / candidate ring \p i at stage \p s
  /// (of logical terminal i at the last stage).
  [[nodiscard]] RoundRobin& arbiter(int s, std::size_t i) {
    return arbiters_[static_cast<std::size_t>(s) * ports_ + i];
  }

  // --- The workload seam (workload/workload.hpp). Injection decisions
  // --- live behind WorkloadSource; the open-loop SyntheticSource is
  // --- devirtualized through a concrete fast-path pointer, so the
  // --- historic hot loops pay one predicted branch per call, not a
  // --- virtual dispatch. Every call below runs in the serial (worker-0)
  // --- phase of the cycle.

  /// Does terminal \p t want to inject this cycle? (Replaces the
  /// historic `terminal_active(t) && gate()` pair, draw for draw.)
  [[nodiscard]] bool attempt(std::uint64_t cycle, std::uint32_t t) {
    if (synthetic_ != nullptr) [[likely]] {
      return synthetic_->attempt_fast(t);
    }
    return workload_->attempt(cycle, t);
  }

  /// Destination + tag of the packet terminal \p t would inject. No
  /// source state changes yet — the policy may still refuse the packet.
  [[nodiscard]] workload::Injection draw(std::uint64_t cycle,
                                         std::uint32_t t) {
    if (synthetic_ != nullptr) [[likely]] {
      return synthetic_->draw_fast(t);
    }
    return workload_->draw(cycle, t);
  }

  /// The policy accepted the drawn packet: commit source state and, when
  /// recording, capture the injection into the trace. Always inlined:
  /// the inject loops call it per accepted packet, and GCC's size limits
  /// otherwise out-line it from the large store-and-forward driver loop
  /// (measured 10-20% slower on small fabrics).
  [[gnu::always_inline]] void commit(std::uint64_t cycle, std::uint32_t t,
                                     const workload::Injection& injection) {
    if (recording_) [[unlikely]] record(cycle, t, injection);
    if (synthetic_ == nullptr) workload_->commit(cycle, t, injection);
  }

  /// Advance per-cycle workload state (bursty modulator, all-to-all
  /// phase, closed-loop measurement flag); runs once per cycle before
  /// injection. (Replaces the historic advance_burst().)
  void workload_tick(std::uint64_t cycle, bool measuring) {
    if (synthetic_ != nullptr) [[likely]] {
      synthetic_->tick_fast();
      return;
    }
    workload_->tick(cycle, measuring);
  }

  /// Does the workload need delivery callbacks? Cached so the policies'
  /// ejection paths pay one predictable branch when it is off.
  [[nodiscard]] bool wants_deliveries() const noexcept {
    return wants_deliveries_;
  }

  /// Feed one delivered packet back into the workload (closed-loop
  /// replies depend on it). Call for every tail ejection — warmup
  /// included — in ejection (ascending-cell) order.
  void workload_delivered(const workload::Delivery& delivery) {
    workload_->deliver(delivery);
  }

  /// Route closed-loop request→reply latencies into the observability
  /// flow recorder's service channel (observed flow_stats runs only).
  void set_service_recorder(obs::FlowRecorder* recorder) {
    workload_->set_service_recorder(recorder);
  }

  /// delivered += 1 plus the latency statistics, shared by both
  /// disciplines' ejection paths.
  void record_packet_delivered(double cycles_in_flight) {
    ++result.delivered;
    result.latency.add(cycles_in_flight);
    result.latency_histogram.add(cycles_in_flight);
  }

  /// Derive throughput, acceptance and link utilization from the
  /// accumulated counters; \p link_counter is the policy's busy-link
  /// (store-and-forward) or flit-hop (wormhole) total.
  void finalize(std::uint64_t link_counter);

  /// Counters accumulated by the policy during the run.
  SimResult result;

 private:
  const Engine& engine_;
  const SimConfig& config_;
  int stages_;
  std::uint32_t cells_;
  std::uint64_t terminals_;
  std::size_t ports_;
  /// Open-loop runs store the SyntheticSource INLINE so the per-attempt
  /// gate state (RNG cursor, rate) lives in FabricCore's own cache
  /// lines — the locality the pre-seam direct members had; other kinds
  /// are heap-owned. FabricCore is a stack local for the duration of a
  /// run and never moves, so the aliasing pointers below stay valid.
  std::optional<workload::SyntheticSource> synthetic_store_;
  std::unique_ptr<workload::WorkloadSource> owned_workload_;
  /// The run's workload source (never null after construction; points
  /// at synthetic_store_ or owned_workload_).
  workload::WorkloadSource* workload_ = nullptr;
  /// Devirtualization fast path: non-null exactly when the workload is
  /// the open-loop SyntheticSource (aliases workload_).
  workload::SyntheticSource* synthetic_ = nullptr;
  bool wants_deliveries_ = false;
  bool recording_ = false;
  /// Accepted injections captured when SimConfig::workload.record is set
  /// (moved into SimResult::workload_trace by finalize()).
  std::vector<workload::TraceRecord> recorded_;

  /// commit's recording branch, kept out of line: inlined, the vector's
  /// growth path lands in every policy's hot driver body.
  [[gnu::cold, gnu::noinline]] void record(
      std::uint64_t cycle, std::uint32_t t,
      const workload::Injection& injection) {
    recorded_.push_back({cycle, t, injection.dest,
                         static_cast<std::uint32_t>(config_.packet_length),
                         injection.tag, 0});
  }
  std::vector<RoundRobin> arbiters_;
};

}  // namespace mineq::sim
