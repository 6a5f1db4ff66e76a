/// \file properties.hpp
/// \brief The P(i,j) component-counting properties (Section 2).
///
/// Paper: "an MI-digraph with n stages satisfies the P(i,j) property for
/// 1 <= i <= j <= n iff the subdigraph (G)_{i,j} has exactly
/// 2^{n-1-(j-i)} connected components"; P(1,*) means P(1,j) for all j and
/// P(*,n) means P(i,n) for all i. Together with the Banyan property these
/// characterize the networks topologically equivalent to Baseline.
///
/// Stage indices here are 0-based: our satisfies_p(g, lo, hi) is the
/// paper's P(lo+1, hi+1), and the expected component count is
/// 2^{(stages-1) - (hi-lo)}. At radix r the count is r^{(stages-1) -
/// (hi-lo)}: P(1,*) and P(*,n) also pin cells == r^(stages-1), since the
/// one-stage range is the isolated cells and the full range is one
/// component.
///
/// Banyan from the component sweeps. Let G be a valid radix-r MI-digraph
/// (every in- and out-degree r) with stages 0..n-1, and count arcs with
/// multiplicity (a double link puts two arcs between one pair of cells).
///
///   Lemma, prefix form. If G satisfies P(1,*), G is Banyan iff for every
///   stage j >= 1, the r in-arcs of each stage-j cell come from r
///   distinct components of the prefix (G)_{0..j-1}.
///
///   Lemma, suffix form. If G satisfies P(*,n), G is Banyan iff for every
///   stage i <= n-2, the r out-arcs of each stage-i cell land in r
///   distinct components of the suffix (G)_{i+1..n-1}.
///
/// The suffix form is the prefix form applied to the reverse digraph
/// G^{-1}: reversal keeps the degrees, swaps in- with out-arcs and
/// prefixes with suffixes (so P(1,*) with P(*,n)), and keeps the Banyan
/// property, because it reverses every path.
///
/// Proof of the prefix form. Call the components of (G)_{0..j} the level-j
/// blocks; P(1,*) says there are r^(n-1-j) of them. Every node of
/// (G)_{0..j-1} reaches stage j-1 along out-arcs inside the prefix, and
/// the stage-(j-1) cells have out-arcs into stage j, so each level-j
/// block is a union of level-(j-1) blocks joined through its stage-j
/// cells, and it holds at least one stage-j cell.
///
///   (if) Say the in-arcs of every stage-j cell come from r distinct
///   level-(j-1) blocks. Then a level-j block B holds a stage-j cell, and
///   hence at least r level-(j-1) blocks. The r^(n-j) level-(j-1) blocks
///   fill the r^(n-1-j) level-j blocks, so each B holds exactly r, and
///   every stage-j cell of B has one in-arc from each of them. Now show by
///   induction on j that every stage-j cell y has exactly one path from
///   each first-stage cell of its level-j block and none from outside it.
///   At j = 0 the block is y itself. For j >= 1, the paths into y split by
///   y's in-arc: one arc from each level-(j-1) block of B, whose
///   first-stage cells partition those of B, and each such block carries
///   one path from each of its own first-stage cells. At j = n-1 there is
///   one block, so every first-stage cell reaches every last-stage cell
///   exactly once: G is Banyan.
///
///   (only if) Say G is Banyan. A stage-j cell y has r^j backward paths to
///   stage 0, and they end at r^j distinct first-stage cells: two ending
///   at one cell u would give u two paths to every last-stage cell that y
///   reaches. So every level-j block holds at least r^j first-stage cells,
///   and since the r^(n-1-j) blocks share the r^(n-1) first-stage cells,
///   each holds exactly r^j: every stage-j cell is reached from every
///   first-stage cell of its block. If two in-arcs of a stage-j cell y
///   came from cells p and p' (p == p' allowed) of one level-(j-1) block
///   K, every first-stage cell of K would reach both p and p', hence y
///   along two paths that differ in their last arc, and so would have two
///   paths to every last-stage cell y reaches. G would not be Banyan. QED
///
/// Both halves need the hypothesis: outside P(1,*) some Banyan networks
/// have two in-arcs from one prefix component (the tests pin such
/// networks), and some non-Banyan wirings pass the check (disjoint
/// planes, whose final prefix has several components). prefix_sweep
/// runs the check inside the P(1,*) sweep for one find per cell per
/// stage; check_baseline_equivalence takes its Banyan verdict from there
/// when P(1,*) holds and from is_banyan (banyan.hpp) otherwise.

#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_mask.hpp"
#include "min/flat_wiring.hpp"
#include "min/mi_digraph.hpp"

namespace mineq::min {

/// Number of connected components (of the undirected underlying graph) of
/// the sub-digraph spanned by stages lo..hi inclusive.
[[nodiscard]] std::size_t component_count_range(const MIDigraph& g, int lo,
                                                int hi);

/// The expected component count for P(lo, hi): 2^{(stages-1)-(hi-lo)}.
[[nodiscard]] std::size_t expected_components(const MIDigraph& g, int lo,
                                              int hi);

/// Does G satisfy P(lo, hi)?
[[nodiscard]] bool satisfies_p(const MIDigraph& g, int lo, int hi);

/// Component counts of the prefix subgraphs (G)_{0..j} for j = 0..n-1,
/// computed with one incremental DSU sweep (O(nodes + arcs) alpha).
[[nodiscard]] std::vector<std::size_t> prefix_component_profile(
    const MIDigraph& g);

/// Component counts of the suffix subgraphs (G)_{i..n-1} for i = 0..n-1
/// (index i of the result corresponds to suffix starting at stage i).
[[nodiscard]] std::vector<std::size_t> suffix_component_profile(
    const MIDigraph& g);

/// P(1,*) of the paper: every prefix has the expected component count.
[[nodiscard]] bool satisfies_p1_star(const MIDigraph& g);

/// P(*,n) of the paper: every suffix has the expected component count.
[[nodiscard]] bool satisfies_p_star_n(const MIDigraph& g);

/// FlatWiring fast paths: the same incremental DSU sweeps over the
/// stage-packed down records, at any radix. P(1,*) and P(*,n) expect
/// radix^(stages-1-j) and radix^i components, so a wiring whose cells
/// are not radix^(stages-1) (a Benes, dilated or replicated fabric)
/// satisfies neither.
[[nodiscard]] std::vector<std::size_t> prefix_component_profile(
    const FlatWiring& w);
[[nodiscard]] std::vector<std::size_t> suffix_component_profile(
    const FlatWiring& w);
[[nodiscard]] bool satisfies_p1_star(const FlatWiring& w);
[[nodiscard]] bool satisfies_p_star_n(const FlatWiring& w);
[[nodiscard]] std::size_t component_count_range(const FlatWiring& w, int lo,
                                                int hi);

/// The verdicts of one prefix DSU sweep.
struct PrefixSweep {
  /// P(1,*); the same bit as satisfies_p1_star.
  bool p1_star = false;
  /// Before each stage j >= 1 joins the prefix, the radix in-arcs of every
  /// stage-j cell come from radix distinct components of (G)_{0..j-1}.
  /// Under p1_star this is the Banyan property (the prefix lemma above);
  /// without it, it decides nothing.
  bool parents_distinct = false;
};

/// P(1,*) and the prefix lemma's check in the sweep satisfies_p1_star
/// runs: before each stage's unions, one find per cell snapshots the
/// roots its children's parents are compared by. The tables overload
/// needs valid degrees (every in-degree 2); check_baseline_equivalence
/// calls it only after its degree check.
[[nodiscard]] PrefixSweep prefix_sweep(const MIDigraph& g);
[[nodiscard]] PrefixSweep prefix_sweep(const FlatWiring& w);

/// Component count of the *survivor* sub-digraph of stages lo..hi under a
/// fault mask: masked arcs contribute no unions, so switches isolated by
/// faults count as singleton components. With an empty mask this equals
/// the unmasked overload (cross-checked in the tests against a DSU over
/// the explicitly pruned arc list).
/// \throws std::invalid_argument on a bad range or a mask geometry
/// mismatch.
[[nodiscard]] std::size_t component_count_range(const FlatWiring& w,
                                                const fault::FaultMask& mask,
                                                int lo, int hi);

/// Lemma 2 structure report for the suffix (G)_{from..n-1}: component
/// count plus, per component, its intersection size with every stage.
/// For a Banyan digraph built from independent connections the paper
/// proves each component meets each stage in the same number of cells.
struct SuffixStructure {
  std::size_t component_count = 0;
  /// intersections[c][s] = |component c  ∩  stage (from + s)|.
  std::vector<std::vector<std::size_t>> intersections;
};

[[nodiscard]] SuffixStructure suffix_component_structure(const MIDigraph& g,
                                                         int from);

}  // namespace mineq::min
