#include "min/equivalence.hpp"

#include <stdexcept>

#include "graph/isomorphism.hpp"
#include "min/banyan.hpp"
#include "min/independence.hpp"
#include "min/properties.hpp"

namespace mineq::min {

namespace {

/// The characterization of a network with valid degrees, over either
/// representation, fail-fast. Source 0's growth probe rejects most
/// non-Banyan networks after one source's paths. One prefix DSU sweep
/// then decides P(1,*) and, under it, the Banyan property (the prefix
/// lemma in properties.hpp); outside P(1,*) only the path-count kernel
/// can decide Banyan. The report reads as if Banyan were checked first:
/// p1_star is set only once Banyan holds.
template <typename Network>
EquivalenceReport characterize(const Network& net) {
  EquivalenceReport report;
  report.valid_degrees = true;
  if (passes_banyan_probe(net)) {
    const PrefixSweep prefix = prefix_sweep(net);
    report.banyan = prefix.p1_star ? prefix.parents_distinct : is_banyan(net);
    report.p1_star = report.banyan && prefix.p1_star;
  }
  if (!report.banyan) {
    report.failure = "banyan";
    return report;
  }
  if (!report.p1_star) {
    report.failure = "P(1,*)";
    return report;
  }
  report.p_star_n = satisfies_p_star_n(net);
  if (!report.p_star_n) {
    report.failure = "P(*,n)";
    return report;
  }
  report.equivalent = true;
  return report;
}

}  // namespace

EquivalenceReport check_baseline_equivalence(const FlatWiring& w) {
  return characterize(w);  // representable in the IR == valid degrees
}

EquivalenceReport check_baseline_equivalence(const MIDigraph& g) {
  if (!g.is_valid()) {
    EquivalenceReport report;
    report.failure = "degrees";
    return report;
  }
  return characterize(g);
}

bool is_baseline_equivalent(const MIDigraph& g) {
  return check_baseline_equivalence(g).equivalent;
}

bool is_baseline_equivalent(const FlatWiring& w) {
  return check_baseline_equivalence(w).equivalent;
}

bool is_baseline_equivalent_via_independence(const MIDigraph& g) {
  for (const Connection& conn : g.connections()) {
    if (!conn.is_valid_stage()) return false;
    if (!is_independent(conn)) return false;
  }
  return is_banyan(g);
}

FaultedClassification classify_faulted(const FlatWiring& w,
                                       const fault::FaultMask& mask) {
  if (!mask.matches(w)) {
    throw std::invalid_argument(
        "classify_faulted: fault mask geometry does not match the wiring");
  }
  FaultedClassification out;
  out.total_arcs = mask.total_arcs();
  out.surviving_arcs = mask.surviving_arcs();
  if (mask.none()) {
    // Pristine fast path: a Banyan fabric has exactly one path per pair,
    // so full access is implied, and the characterization also decides
    // baseline equivalence.
    const EquivalenceReport pristine = check_baseline_equivalence(w);
    out.banyan = pristine.banyan;
    out.baseline_equivalent = pristine.equivalent;
    if (pristine.banyan) {
      out.full_access = true;
      return out;
    }
    // Not Banyan: parallel paths may still cover every pair.
  }
  const SurvivingPaths paths = surviving_paths(w, mask);
  out.full_access = paths.full_access;
  if (!mask.none()) {
    out.banyan = paths.unique;
    // Removing any arc from a full-access fabric with unique paths
    // severs at least one (source, sink) pair, so only the unmasked
    // fabric can still be an (intact, baseline-equivalent) MI-digraph.
    out.baseline_equivalent = false;
  }
  return out;
}

bool are_topologically_equivalent(const MIDigraph& a, const MIDigraph& b,
                                  std::uint64_t fallback_budget) {
  if (a.stages() != b.stages()) return false;
  const bool a_base = is_baseline_equivalent(a);
  const bool b_base = is_baseline_equivalent(b);
  if (a_base || b_base) return a_base && b_base;
  // Neither is baseline-equivalent: they may still be isomorphic to each
  // other (e.g. two scrambled copies of the same non-Banyan digraph).
  graph::SearchStats stats;
  const auto mapping = graph::find_layered_isomorphism(
      a.to_layered(), b.to_layered(), &stats, fallback_budget);
  if (!mapping.has_value() && stats.budget_exhausted) {
    throw std::runtime_error(
        "are_topologically_equivalent: isomorphism search budget exhausted");
  }
  return mapping.has_value();
}

}  // namespace mineq::min
