/// \file flow.hpp
/// \brief Exact per-(source, destination) and per-service-level latency
/// recording.
///
/// The recorder keeps one integer-count latency histogram per flow
/// (bucket width 1 cycle, the same resolution and quantile convention as
/// sim::Histogram), so the summary's p50/p99/p999 columns are exact over
/// the recorded population, not sketches. Flow adds are replayed by
/// worker 0 in cell order — the same path the global latency
/// accumulators use — so the summary is byte-identical at every thread
/// count.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mineq::obs {

/// One measured flow (or one service level, in FlowSummary::per_sl,
/// where src carries the SL index and dst is unused).
struct FlowStat {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

/// The rendered flow table: every flow that delivered at least one
/// measured packet, in (src, dst) ascending order. Closed-loop workload
/// runs additionally carry a service table — request->reply end-to-end
/// latency per (client, server) pair — in `services`, populated through
/// record_service; worst_p99 keeps its historic flows-only meaning.
struct FlowSummary {
  std::uint32_t terminals = 0;
  std::vector<FlowStat> flows;
  std::vector<FlowStat> per_sl;  ///< src = service level, dst unused
  /// src = client, dst = server; request injection to reply ejection.
  std::vector<FlowStat> services;
  double worst_p99 = 0.0;        ///< max p99 over flows
  std::uint32_t worst_src = 0;   ///< source of the worst-p99 flow
  std::uint32_t worst_dst = 0;   ///< destination of the worst-p99 flow
  double worst_service_p99 = 0.0;  ///< max p99 over services

  [[nodiscard]] bool empty() const noexcept {
    return flows.empty() && per_sl.empty() && services.empty();
  }
  /// CSV export: kind,src,dst,count,latency_mean,latency_p50,
  /// latency_p99,latency_p999 — flow rows, then sl rows, then service
  /// rows (closed-loop runs only).
  [[nodiscard]] std::string csv() const;
};

/// Accumulates per-flow and per-SL latency histograms. Histogram storage
/// is allocated lazily per active flow, so a sparse traffic matrix costs
/// only its live flows.
class FlowRecorder {
 public:
  FlowRecorder() = default;

  /// Shape for \p terminals logical terminals with \p buckets 1-cycle
  /// latency buckets per histogram (the SimResult histogram's shape, so
  /// per-flow quantiles clamp exactly where the aggregate ones do).
  void reset(std::uint32_t terminals, std::size_t buckets,
             std::size_t service_levels);

  void record(std::uint32_t src, std::uint32_t dst, unsigned sl,
              double latency);

  /// Request->reply end-to-end latency for one completed exchange
  /// (closed-loop workloads). The service grid allocates on first use,
  /// so open-loop runs pay nothing for the channel's existence.
  void record_service(std::uint32_t client, std::uint32_t server,
                      double latency);

  /// Render the summary (pure; the recorder keeps accumulating).
  [[nodiscard]] FlowSummary summary() const;

 private:
  struct Acc {
    std::uint64_t count = 0;
    double sum = 0.0;
    std::uint32_t overflow = 0;
    std::vector<std::uint32_t> hist;  ///< lazily sized to buckets_
  };

  void add(Acc& acc, double latency);
  [[nodiscard]] FlowStat stat_of(const Acc& acc) const;

  std::uint32_t terminals_ = 0;
  std::size_t buckets_ = 0;
  std::vector<Acc> flows_;     ///< [src * terminals_ + dst]
  std::vector<Acc> sls_;       ///< [service level]
  std::vector<Acc> services_;  ///< [client * terminals_ + server], lazy
};

}  // namespace mineq::obs
