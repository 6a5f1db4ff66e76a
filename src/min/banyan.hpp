/// \file banyan.hpp
/// \brief The Banyan property: unique paths from first to last stage.
///
/// Paper: "We say that a network has the Banyan property if and only if
/// for any input and any output there exists a unique path connecting
/// them." Since inputs/outputs attach to first/last-stage cells in pairs,
/// this is equivalent to: for every first-stage cell u and last-stage cell
/// v there is exactly one directed u -> v path (parallel arcs count as
/// distinct paths — which is precisely how Fig. 5's double links break the
/// property).
///
/// The checks here count paths, so they need no degree condition: a
/// digraph whose in-degrees are not all 2 can still be Banyan.

#pragma once

#include <cstdint>
#include <optional>

#include "fault/fault_mask.hpp"
#include "min/flat_wiring.hpp"
#include "min/mi_digraph.hpp"

namespace mineq::min {

/// A witness that the Banyan property fails.
struct BanyanFailure {
  std::uint32_t source = 0;       ///< first-stage cell
  std::uint32_t sink = 0;         ///< last-stage cell
  std::uint64_t path_count = 0;   ///< number of u->v paths (0 or >= 2)
};

/// Check the Banyan property. First a fail-fast probe: source 0 must
/// reach every sink exactly once, i.e. the set it reaches must grow
/// r-fold at every stage (see is_banyan_doubling), which rejects most
/// non-Banyan networks after one source's paths. Then the word-parallel
/// path-count kernel decides every source: 64 sources ride in the bits
/// of a uint64_t, and each cell holds a ">= 1 path" plane. A batch costs
/// (stages - 1) * cells * radix word updates, so the whole check is
/// O(stages * cells^2 * radix / 64). The probe has shown r^(stages-1) ==
/// cells, so every source has exactly as many paths as there are sinks,
/// and reaching every sink means reaching each once: the check accepts
/// when every sink is reached by all of its sources, and stops at the
/// first batch where one is not. \p threads splits the batches (0 =
/// hardware concurrency, 1 = sequential).
[[nodiscard]] bool is_banyan(const MIDigraph& g, std::size_t threads = 1);

/// The same check over the stage-packed down records, at any radix.
[[nodiscard]] bool is_banyan(const FlatWiring& w, std::size_t threads = 1);

/// is_banyan's fail-fast probe alone: source 0 reaches every last-stage
/// cell exactly once, its reached set growing radix-fold at every stage.
/// Necessary for the Banyan property, and passing it pins cells ==
/// radix^(stages-1). check_baseline_equivalence runs it first: it
/// rejects most non-Banyan networks after one source's paths, and the
/// survivors take their Banyan verdict from the P(1,*) sweep
/// (properties.hpp's prefix lemma), or from is_banyan outside P(1,*).
[[nodiscard]] bool passes_banyan_probe(const MIDigraph& g);
[[nodiscard]] bool passes_banyan_probe(const FlatWiring& w);

/// First failure witness found, or nullopt if the property holds.
/// Sequential and deterministic: the per-source path_counts_from DP.
[[nodiscard]] std::optional<BanyanFailure> banyan_failure(const MIDigraph& g);

/// The probe's growth criterion for every source, one at a time: the
/// reachable set must double at every stage (2^s paths reach 2^s
/// distinct cells exactly when no two of them meet), until it covers
/// all 2^(n-1) last-stage cells. A word-wide reachability bitset per
/// source: O(cells / 64) words per stage plus one visit per reached
/// cell, so O(stages * cells^2 / 64 + cells^2) in all. Same verdict as
/// is_banyan by a different algorithm, which is why the tests and the
/// benchmark's batch builder use it as the reference.
[[nodiscard]] bool is_banyan_doubling(const MIDigraph& g);

/// Path-count DP from one source to all last-stage cells, saturated at
/// \p cap: (stages - 1) * cells * radix saturating adds. The per-source
/// reference the tests, banyan_failure and the figure benches use.
[[nodiscard]] std::vector<std::uint64_t> path_counts_from(
    const MIDigraph& g, std::uint32_t source, std::uint64_t cap = 4);

[[nodiscard]] std::vector<std::uint64_t> path_counts_from(
    const FlatWiring& w, std::uint32_t source, std::uint64_t cap = 4);

/// Path-count DP over the *surviving* arcs of a fault-masked wiring:
/// arcs with a set mask bit carry no paths.
/// \throws std::invalid_argument if the mask geometry does not match.
[[nodiscard]] std::vector<std::uint64_t> path_counts_from(
    const FlatWiring& w, const fault::FaultMask& mask, std::uint32_t source,
    std::uint64_t cap = 4);

/// The surviving paths of a fault-masked wiring, over every (first-stage
/// cell, last-stage cell) pair.
struct SurvivingPaths {
  bool full_access = false;  ///< every pair keeps >= 1 surviving path
  bool unique = false;       ///< every pair keeps exactly one
};

/// Decide SurvivingPaths with the masked instantiation of is_banyan's
/// probe and kernel, dead arcs skipped: source 0 must reach every sink,
/// then the batches of 64 sources run. Masking breaks the growth
/// criterion (out-degrees drop below r), so coverage no longer implies
/// unique paths and the kernel also carries a ">= 2 paths" plane; the
/// sweep returns at the first batch without full access. Full access is
/// judged per physical cell pair, so a wiring of disjoint planes (a
/// replicated fabric) never has it. equivalence.hpp's classify_faulted
/// reads its verdicts from here.
/// \throws std::invalid_argument if the mask geometry does not match.
[[nodiscard]] SurvivingPaths surviving_paths(const FlatWiring& w,
                                             const fault::FaultMask& mask);

}  // namespace mineq::min
