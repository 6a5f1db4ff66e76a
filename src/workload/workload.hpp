/// \file workload.hpp
/// \brief The WorkloadSource seam: injection lifted out of FabricCore.
///
/// FabricCore drives one source per run through a three-step protocol
/// that mirrors how the switching policies already sequence injection —
/// chosen so the open-loop SyntheticSource consumes its RNG streams in
/// EXACTLY the historic order (the PR 2–9 goldens pin it byte for byte):
///
///   attempt(cycle, t)  "does terminal t want to inject this cycle?"
///                      Consumes the gate draw; the policy may still
///                      refuse (source busy, no lane, no credits).
///   draw(cycle, t)     destination + tag. Consumes the destination
///                      draw; MUST NOT change logical source state —
///                      the multipath policies draw before they know
///                      whether a plane can accept.
///   commit(cycle, t)   the fabric accepted the packet. State changes
///                      (window consume, reply dequeue, trace cursor,
///                      recording) happen here and only here.
///
/// tick(cycle) runs once per cycle before injection, in the driver's
/// worker-0 serial phase, and deliveries are replayed there in ejection
/// (ascending-cell) order, so every source is byte-deterministic at any
/// sim_threads.

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"
#include "workload/spec.hpp"

namespace mineq::obs {
class FlowRecorder;
}  // namespace mineq::obs

namespace mineq::workload {

/// The seam. One instance per run, owned by FabricCore; every call runs
/// in the serial (worker-0) phase of the cycle, so implementations need
/// no synchronization.
class WorkloadSource {
 public:
  virtual ~WorkloadSource() = default;

  /// Once per cycle, before injection (replaces the hardwired bursty
  /// advance). \p measuring gates stall accounting.
  virtual void tick(std::uint64_t cycle, bool measuring);

  /// Does terminal \p t want to inject at \p cycle? May consume RNG.
  [[nodiscard]] virtual bool attempt(std::uint64_t cycle,
                                     std::uint32_t terminal) = 0;

  /// The packet terminal \p t would inject. May consume RNG; must not
  /// change logical source state (the fabric may still refuse).
  [[nodiscard]] virtual Injection draw(std::uint64_t cycle,
                                       std::uint32_t terminal) = 0;

  /// The fabric accepted the drawn packet.
  virtual void commit(std::uint64_t cycle, std::uint32_t terminal,
                      const Injection& injection);

  /// Does this source need deliver() callbacks? (FabricCore caches the
  /// answer so delivery-indifferent runs pay one predictable branch per
  /// ejection, nothing more.)
  [[nodiscard]] virtual bool wants_deliveries() const;

  /// One delivered packet, in serial ejection order (tail ejections
  /// only for wormhole; warmup included — see workload::Delivery).
  virtual void deliver(const Delivery& delivery);

  /// Route request->reply end-to-end latencies into the observability
  /// flow recorder's service channel (no-op for sources without one).
  virtual void set_service_recorder(obs::FlowRecorder* recorder);

  /// End of run: fold source-side statistics into the result
  /// (window stalls, reply latency, orphans).
  virtual void finish(sim::SimResult& result);
};

/// The historic open-loop engine behind the seam: Bernoulli gate +
/// Pattern address transform + bursty on/off modulator, with the RNG
/// stream layout FabricCore always used (split 0 traffic, split 1 gate,
/// split 2 burst) reproduced draw for draw. FabricCore keeps a raw
/// pointer to this concrete type and calls the *_fast methods inline,
/// so open-loop runs pay a predicted branch, not a virtual dispatch.
class SyntheticSource final : public WorkloadSource {
 public:
  SyntheticSource(sim::Pattern pattern, int address_digits, int radix,
                  const sim::SimConfig& config, std::uint64_t terminals)
      : source_(pattern, address_digits, radix,
                util::SplitMix64(config.seed).split(0),
                pattern == sim::Pattern::kPermutation
                    ? config.permutation
                    : std::vector<std::uint32_t>{}),
        inject_rng_(util::SplitMix64(config.seed).split(1)),
        rate_num_(
            static_cast<std::uint64_t>(config.injection_rate * 65536.0)) {
    if (pattern == sim::Pattern::kBursty) {
      burst_.emplace(terminals, util::SplitMix64(config.seed).split(2),
                     config.burst);
    }
  }

  /// Gate draw consumed only when the terminal is ON — the historic
  /// `terminal_active -> gate` short-circuit, byte for byte.
  [[nodiscard]] bool attempt_fast(std::uint32_t terminal) {
    return (!burst_.has_value() || burst_->on(terminal)) &&
           (inject_rng_.next() & 0xFFFF) < rate_num_;
  }
  [[nodiscard]] Injection draw_fast(std::uint32_t terminal) {
    return {source_.destination(terminal), kTagNone};
  }
  void tick_fast() {
    if (burst_.has_value()) burst_->advance();
    source_.tick();
  }

  void tick(std::uint64_t cycle, bool measuring) override;
  [[nodiscard]] bool attempt(std::uint64_t cycle,
                             std::uint32_t terminal) override;
  [[nodiscard]] Injection draw(std::uint64_t cycle,
                               std::uint32_t terminal) override;

 private:
  sim::TrafficSource source_;
  util::SplitMix64 inject_rng_;
  std::uint64_t rate_num_;
  std::optional<sim::BurstModulator> burst_;
};

/// Request–reply clients with a bounded outstanding-request window.
/// Each terminal is both a client (gated Bernoulli request generation,
/// destinations drawn from the run's Pattern so traffic crossing stays
/// meaningful) and a server (a delivered request enqueues one reply back
/// to its requester; the reply injects as soon as the server's turn
/// comes, bypassing the gate). A client at its window emits nothing —
/// the gate draw is consumed but the attempt is suppressed and counted
/// into window_stall_cycles, so offered load self-throttles under
/// congestion and `offered_rate_effective` reports the divergence
/// honestly. Reply end-to-end latency (reply ejection cycle minus the
/// ORIGINAL request's injection cycle) feeds SimResult::reply_latency
/// and, when flow stats are on, the FlowRecorder service channel.
class ClosedLoopSource final : public WorkloadSource {
 public:
  ClosedLoopSource(sim::Pattern pattern, int address_digits, int radix,
                   const sim::SimConfig& config, std::uint64_t terminals,
                   std::size_t reply_histogram_buckets);

  void tick(std::uint64_t cycle, bool measuring) override;
  [[nodiscard]] bool attempt(std::uint64_t cycle,
                             std::uint32_t terminal) override;
  [[nodiscard]] Injection draw(std::uint64_t cycle,
                               std::uint32_t terminal) override;
  void commit(std::uint64_t cycle, std::uint32_t terminal,
              const Injection& injection) override;
  [[nodiscard]] bool wants_deliveries() const override;
  void deliver(const Delivery& delivery) override;
  void set_service_recorder(obs::FlowRecorder* recorder) override;
  void finish(sim::SimResult& result) override;

 private:
  /// A reply waiting at a server: who to answer, and when the request
  /// that caused it was injected (the e2e latency anchor).
  struct PendingReply {
    std::uint32_t client = 0;
    std::uint64_t request_inject = 0;
  };

  static std::uint64_t pair_key(std::uint32_t server,
                                std::uint32_t client) noexcept {
    return (static_cast<std::uint64_t>(server) << 32) | client;
  }

  sim::TrafficSource source_;  ///< request destinations (split 0)
  util::SplitMix64 gate_rng_;  ///< request gate (split 1)
  std::uint64_t rate_num_;
  unsigned window_;
  std::vector<unsigned> outstanding_;  ///< per client
  std::vector<std::deque<PendingReply>> replies_;  ///< per server
  /// Request-inject anchors of replies in flight, FIFO per
  /// (server, client) pair. Wormhole worms between one pair can reorder
  /// across lanes; the FIFO pairing keeps attribution deterministic
  /// (it only ever swaps latencies within the same pair).
  std::unordered_map<std::uint64_t, std::deque<std::uint64_t>> in_flight_;
  std::uint64_t window_stalls_ = 0;
  std::uint64_t orphans_ = 0;
  bool measuring_ = false;
  sim::RunningStats reply_stats_;
  sim::Histogram reply_histogram_;
  obs::FlowRecorder* service_ = nullptr;
};

/// Trace replay: each terminal injects its recorded packets in file
/// order, at record.cycle / time_compression at the earliest — a record
/// the fabric refuses (full queue, no lane) stays pending and retries
/// every cycle, so backpressure delays but never drops replayed load.
class TraceSource final : public WorkloadSource {
 public:
  /// Validates every record against the run's geometry, naming the
  /// offending trace line: terminals must be in range and sizes must
  /// equal the run's packet_length (the disciplines serialize packets
  /// at one fixed length per run).
  /// \throws std::invalid_argument
  TraceSource(const Spec& spec, std::uint64_t terminals,
              std::size_t packet_length);

  [[nodiscard]] bool attempt(std::uint64_t cycle,
                             std::uint32_t terminal) override;
  [[nodiscard]] Injection draw(std::uint64_t cycle,
                               std::uint32_t terminal) override;
  void commit(std::uint64_t cycle, std::uint32_t terminal,
              const Injection& injection) override;

 private:
  struct Entry {
    std::uint64_t due = 0;  ///< record cycle / time_compression
    std::uint32_t dest = 0;
    std::uint8_t tag = kTagNone;
  };
  std::vector<std::vector<Entry>> per_terminal_;
  std::vector<std::size_t> cursor_;
};

/// Build the configured source for a run. \p reply_histogram_buckets
/// shapes the closed-loop reply-latency histogram (the caller passes the
/// same bucket count as the run's latency histogram).
[[nodiscard]] std::unique_ptr<WorkloadSource> make_source(
    sim::Pattern pattern, const sim::SimConfig& config, int address_digits,
    int radix, std::uint64_t terminals, std::size_t reply_histogram_buckets);

}  // namespace mineq::workload
