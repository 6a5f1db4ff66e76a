/// \file equivalence.hpp
/// \brief The paper's "easy characterization": deciding Baseline
/// equivalence from three structural properties.
///
/// Theorem (Section 2, from [12]): all n-stage MI-digraphs satisfying the
/// Banyan property, P(*, n) and P(1, *) are isomorphic — and the Baseline
/// network satisfies all three, so satisfying them is equivalent to being
/// topologically equivalent to Baseline.
///
/// Theorem 3 (main): a Banyan MI-digraph built with independent
/// connections is isomorphic to the Baseline MI-digraph. The decision
/// procedure here also exposes the Theorem-3 fast path: if every stage is
/// an independent connection and the digraph is Banyan, equivalence holds
/// with no component counting at all.
///
/// Cost: near-linear in the arcs. Source 0's growth probe (banyan.hpp)
/// costs one source's paths and rejects most non-Banyan networks. The
/// Banyan property is then decided inside the P(1,*) sweep, for one DSU
/// find per cell per stage: under P(1,*), a valid network is Banyan iff
/// every cell's parents lie in distinct components of the prefix above
/// it (the prefix lemma, proved in properties.hpp). P(*,n) is one more
/// DSU sweep. Only a network that passes the probe but not P(1,*) pays
/// for the path-count kernel, O(stages * cells^2 * radix / 64) word
/// operations, because outside P(1,*) the lemma does not apply.

#pragma once

#include <cstdint>
#include <string>

#include "fault/fault_mask.hpp"
#include "min/flat_wiring.hpp"
#include "min/mi_digraph.hpp"

namespace mineq::min {

/// Full decision transcript for one network.
struct EquivalenceReport {
  bool valid_degrees = false;  ///< every stage has all in-degrees == 2
  bool banyan = false;         ///< unique first-to-last paths
  bool p1_star = false;        ///< P(1, j) for every j
  bool p_star_n = false;       ///< P(i, n) for every i
  bool equivalent = false;     ///< all of the above
  /// First failed check, or "" when equivalent ("degrees", "banyan",
  /// "P(1,*)", "P(*,n)").
  std::string failure;
};

/// Run the full characterization check (degree validity, Banyan, both
/// component profiles), fail-fast, and report as if in that order. The
/// order of work is: the degree scan, source 0's Banyan probe, one
/// prefix DSU sweep deciding P(1,*) and (under it) Banyan, then the
/// P(*,n) sweep; is_banyan's path-count kernel runs only for a network
/// that passes the probe but fails P(1,*). Everything runs straight off
/// the image tables, at every size.
[[nodiscard]] EquivalenceReport check_baseline_equivalence(const MIDigraph& g);

/// Same checks, in the same order, over a prebuilt wiring IR at any
/// radix — the path for callers that already hold the FlatWiring
/// (sweeps, repeated classification). The prefix sweep compares parents
/// through the up records. A constructible FlatWiring is valid by
/// definition, so valid_degrees is always true here.
[[nodiscard]] EquivalenceReport check_baseline_equivalence(
    const FlatWiring& w);

[[nodiscard]] bool is_baseline_equivalent(const FlatWiring& w);

/// Short-circuit decision.
[[nodiscard]] bool is_baseline_equivalent(const MIDigraph& g);

/// Theorem-3 fast path: every connection independent + Banyan. Sound
/// (implies is_baseline_equivalent) but not complete: a Banyan digraph can
/// be baseline-equivalent without any stage being independent (relabel a
/// baseline with arbitrary per-stage permutations). Exposed separately so
/// benchmarks can compare the costs.
[[nodiscard]] bool is_baseline_equivalent_via_independence(const MIDigraph& g);

/// Classification of a fault-degraded fabric: the survivor topology of
/// (wiring minus masked arcs), decided over the same packed IR the
/// simulators route (no explicit sub-digraph is rebuilt).
struct FaultedClassification {
  std::size_t total_arcs = 0;
  std::size_t surviving_arcs = 0;
  /// Every first-stage cell still reaches every last-stage cell through
  /// surviving arcs — the fault literature's "full access" property.
  bool full_access = false;
  /// The survivor has exactly one surviving path per (source, sink)
  /// pair: the Banyan property of the degraded fabric (implies
  /// full_access).
  bool banyan = false;
  /// The fabric is still an intact baseline-equivalent MI-digraph: no
  /// arc is masked (removing any arc from a Banyan fabric breaks full
  /// access, so degrees must be whole) and the paper's characterization
  /// holds on the wiring.
  bool baseline_equivalent = false;
};

/// Classify the faulted fabric (w, mask). Counts surviving paths with
/// banyan.hpp's surviving_paths (the batched kernel, 64 sources per
/// word): full access is "every pair has a path", Banyan is "every pair
/// has exactly one". An empty mask takes check_baseline_equivalence
/// first, and only a non-Banyan wiring then counts paths for full
/// access; the verdicts coincide with is_banyan /
/// check_baseline_equivalence (asserted in the tests).
/// \throws std::invalid_argument if the mask geometry does not match.
[[nodiscard]] FaultedClassification classify_faulted(
    const FlatWiring& w, const fault::FaultMask& mask);

/// Are two MI-digraphs topologically equivalent? Decided without search
/// when at least one is baseline-equivalent; otherwise falls back to the
/// general isomorphism search with the given node-expansion budget.
/// \throws std::runtime_error if the fallback search exhausts its budget
/// (answer unknown).
[[nodiscard]] bool are_topologically_equivalent(
    const MIDigraph& a, const MIDigraph& b,
    std::uint64_t fallback_budget = 50'000'000);

}  // namespace mineq::min
