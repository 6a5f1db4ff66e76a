#include "exp/report.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/format.hpp"
#include "workload/spec.hpp"

namespace mineq::exp {

namespace {

/// Semicolon-joined decimal list (CSV cells cannot hold commas); empty
/// vectors render as the empty string.
std::string join_unsigned(const std::vector<unsigned>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ';';
    out += std::to_string(values[i]);
  }
  return out;
}

std::string join_stat_means(const std::vector<sim::RunningStats>& stats,
                            int digits) {
  std::string out;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (i > 0) out += ';';
    out += util::fixed(stats[i].mean(), digits);
  }
  return out;
}

/// The per-point scalar fields shared by both emitters, as (name, value)
/// strings with deterministic formatting.
std::vector<std::pair<std::string, std::string>> point_fields(
    const SweepPoint& p) {
  const sim::SimResult& r = p.result;
  return {
      {"network", min::network_token(p.network)},
      {"pattern", sim::pattern_name(p.pattern)},
      {"mode", sim::switching_mode_name(p.mode)},
      {"lanes", std::to_string(p.lanes)},
      {"rate", util::fixed(p.rate, 4)},
      {"stages", std::to_string(p.stages)},
      {"seed", std::to_string(p.seed)},
      {"radix", std::to_string(p.radix)},
      {"fabric", min::multipath_kind_name(p.fabric)},
      {"paths", std::to_string(p.paths)},
      {"path_policy", sim::path_policy_name(p.path_policy)},
      {"fault_kind", fault::fault_kind_name(p.fault.kind)},
      {"fault_rate", util::fixed(p.fault.rate, 4)},
      {"fault_seed", std::to_string(p.fault.seed)},
      {"burst_on_off", util::fixed(p.burst.on_to_off, 6)},
      {"burst_off_on", util::fixed(p.burst.off_to_on, 6)},
      {"credits", p.credits.enabled ? "1" : "0"},
      {"credit_latency", std::to_string(p.credits.return_latency)},
      {"arbitration",
       std::string(sim::arbitration_policy_name(p.credits.arbitration))},
      {"vl_weights", join_unsigned(p.credits.weights)},
      {"sl_map", join_unsigned(p.credits.sl_map)},
      {"offered", std::to_string(r.offered)},
      {"injected", std::to_string(r.injected)},
      {"delivered", std::to_string(r.delivered)},
      {"throughput", util::fixed(r.throughput, 6)},
      {"acceptance", util::fixed(r.acceptance, 6)},
      {"delivered_fraction", util::fixed(r.delivered_fraction(), 6)},
      {"latency_mean", util::fixed(r.latency.mean(), 4)},
      {"latency_p50", util::fixed(r.latency_histogram.quantile(0.5), 1)},
      {"latency_p99", util::fixed(r.latency_histogram.quantile(0.99), 1)},
      {"latency_max", util::fixed(r.latency.max(), 1)},
      {"flits_injected", std::to_string(r.flits_injected)},
      {"flits_delivered", std::to_string(r.flits_delivered)},
      {"flits_in_flight", std::to_string(r.flits_in_flight)},
      {"link_utilization", util::fixed(r.link_utilization, 6)},
      {"lane_occupancy", util::fixed(r.lane_occupancy.mean(), 6)},
      {"vl_occupancy", join_stat_means(r.vl_occupancy, 6)},
      {"sl_latency_mean", join_stat_means(r.sl_latency, 4)},
      {"hol_blocking_cycles", std::to_string(r.hol_blocking_cycles)},
      {"credit_stall_cycles", std::to_string(r.credit_stall_cycles)},
      {"credit_violations", std::to_string(r.credit_violations)},
      {"packets_dropped_faulted", std::to_string(r.packets_dropped_faulted)},
      {"packets_rerouted", std::to_string(r.packets_rerouted)},
      {"packets_misdelivered", std::to_string(r.packets_misdelivered)},
      {"flits_dropped_faulted", std::to_string(r.flits_dropped_faulted)},
      // Multipath outputs: the fabric's path multiplicity, in-group path
      // re-selections under faults, and the precomputed surviving-path
      // floor (unipath points report full_access as 1/0 here).
      {"paths_available", std::to_string(r.paths_available)},
      {"path_reroutes", std::to_string(r.path_reroutes)},
      {"min_path_diversity", std::to_string(p.min_path_diversity)},
      // Survivor-topology classification, constant across the points of
      // one {network, fault spec} pair. Booleans render as 0/1 so both
      // emitters stay numeric.
      {"full_access", p.survivor.full_access ? "1" : "0"},
      {"survivor_banyan", p.survivor.banyan ? "1" : "0"},
      {"surviving_arcs", std::to_string(p.survivor.surviving_arcs)},
      // Observability outputs. The stall split sums exactly to
      // hol_blocking_cycles on observed runs and is all-zero otherwise;
      // stall_top_cause is a cause token (never numeric, so the JSON
      // emitter quotes it without an exception entry; "top", not
      // "dominant" — that word contains the literal "nan" the artifact
      // poison checks reject). flow_worst_p99 is 0 unless per-flow
      // recording ran.
      {"stall_lost_arb", std::to_string(r.stall_lost_arbitration)},
      {"stall_downstream_full", std::to_string(r.stall_downstream_full)},
      {"stall_no_free_lane", std::to_string(r.stall_no_free_lane)},
      {"stall_zero_credits", std::to_string(r.stall_zero_credits)},
      {"stall_masked_arc", std::to_string(r.stall_masked_arc)},
      {"stall_top_cause", obs::stall_cause_name(r.dominant_stall_cause())},
      {"latency_overflow_fraction",
       util::fixed(r.latency_overflow_fraction(), 6)},
      {"flow_count", std::to_string(r.flows.flows.size())},
      {"flow_worst_p99", util::fixed(r.flows.worst_p99, 1)},
      // Workload block: the source kind driving injection and its
      // request–reply window, then the attempt rate the source ACTUALLY
      // presented — offered_rate_effective dropping below the configured
      // rate with window_stall_cycles > 0 is the closed-loop
      // self-throttling signature — and the request→reply service tail.
      {"workload", workload::kind_name(p.workload.kind)},
      {"rr_window", std::to_string(p.workload.rr_window)},
      {"offered_rate_effective", util::fixed(r.offered_rate_effective, 6)},
      {"reply_latency_p99",
       util::fixed(r.reply_latency_histogram.quantile(0.99), 1)},
      {"window_stall_cycles", std::to_string(r.window_stall_cycles)},
  };
}

bool is_number(const std::string& value) {
  if (value.empty()) return false;
  for (const char c : value) {
    if ((c < '0' || c > '9') && c != '.' && c != '-') return false;
  }
  return true;
}

}  // namespace

std::string sweep_csv(const SweepResult& sweep) {
  std::ostringstream out;
  bool header_done = false;
  for (const SweepPoint& point : sweep.points) {
    const auto fields = point_fields(point);
    if (!header_done) {
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) out << ',';
        out << fields[i].first;
      }
      out << '\n';
      header_done = true;
    }
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out << ',';
      out << fields[i].second;
    }
    out << '\n';
  }
  return out.str();
}

std::string sweep_json(const SweepResult& sweep) {
  std::ostringstream out;
  out << "{\n  \"stages\": " << sweep.grid.stages
      << ",\n  \"points\": [\n";
  for (std::size_t pi = 0; pi < sweep.points.size(); ++pi) {
    const auto fields = point_fields(sweep.points[pi]);
    out << "    {";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out << ", ";
      out << '"' << fields[i].first << "\": ";
      // Tokens contain no characters needing JSON escapes. Seeds are
      // full 64-bit values beyond double precision, so a bare JSON
      // number would silently round them — emit as a string. The
      // semicolon-joined per-lane lists stay strings even when a single
      // entry happens to look numeric, so their JSON type is stable.
      if (is_number(fields[i].second) && fields[i].first != "seed" &&
          fields[i].first != "fault_seed" && fields[i].first != "vl_weights" &&
          fields[i].first != "sl_map" && fields[i].first != "vl_occupancy" &&
          fields[i].first != "sl_latency_mean") {
        out << fields[i].second;
      } else {
        out << '"' << fields[i].second << '"';
      }
    }
    out << (pi + 1 < sweep.points.size() ? "},\n" : "}\n");
  }
  out << "  ]\n}\n";
  return out.str();
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("write_text_file: cannot open " + path);
  }
  out << content;
  if (!out) {
    throw std::runtime_error("write_text_file: write failed for " + path);
  }
}

}  // namespace mineq::exp
