/// \file sweep.hpp
/// \brief Parallel experiment sweeps over {network x radix x pattern x
/// mode x lanes x faults x injection rate} grids.
///
/// A SweepGrid is the cartesian product of its axes; run_sweep fans the
/// grid across util::parallel_for with one deterministic RNG stream per
/// task (derived from the base seed and the task's grid index), so the
/// result — and any CSV/JSON rendered from it (report.hpp) — is
/// byte-identical regardless of thread count.
///
/// The fault axis (fault/fault_model.hpp) adds resilience studies: one
/// FaultMask is built per {network, fault spec} and shared read-only by
/// every grid point simulating that pair, and the survivor topology is
/// classified once (full access, surviving Banyan property, surviving
/// arc count — min::classify_faulted) so each point reports degraded
/// performance next to what is left of the fabric's structure.

#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_model.hpp"
#include "min/equivalence.hpp"
#include "min/networks.hpp"
#include "multipath/multipath_wiring.hpp"
#include "sim/engine.hpp"
#include "workload/spec.hpp"

namespace mineq::exp {

/// One multipath-fabric axis value: a fabric family composed over a base
/// banyan with a path-multiplicity parameter (`paths` is the dilation of
/// a dilated fabric or the plane count of a replicated one; a Benes
/// fixes its own multiplicity at radix^(stages-1) and ignores it).
struct FabricSpec {
  min::MultiPathKind kind = min::MultiPathKind::kBenes;
  min::NetworkKind base = min::NetworkKind::kOmega;
  int paths = 2;
};

/// The axes of one sweep. Fixed (non-swept) simulation parameters ride in
/// `base`, whose injection_rate, mode, lanes, burst and seed are
/// overridden per grid point (the per-point seed is derived from
/// base.seed and the grid index).
struct SweepGrid {
  std::vector<min::NetworkKind> networks;
  /// Switch-radix axis; the default single radix 2 reproduces the binary
  /// sweep bit for bit. Radices > 2 run the k-ary constructions
  /// (min::build_kary_network — omega, flip and baseline have closed
  /// forms; other kinds are rejected at validation).
  std::vector<int> radices = {2};
  std::vector<sim::Pattern> patterns;
  std::vector<sim::SwitchingMode> modes;
  std::vector<std::size_t> lane_counts;
  /// Fault-injection axis; the default single no-fault spec reproduces
  /// the pristine sweep.
  std::vector<fault::FaultSpec> faults = {fault::FaultSpec{}};
  /// Bursty-modulator axis (two-state Markov on/off probabilities); only
  /// Pattern::kBursty expands it — other patterns ignore the modulator,
  /// so they contribute one variant.
  std::vector<sim::BurstParams> bursts = {sim::BurstParams{}};
  /// Flow-control axis (credit return latency, arbitration policy, VL
  /// weights, SL->VL map); the default single disabled config reproduces
  /// the idealized-handshake sweep bit for bit.
  std::vector<sim::CreditConfig> credits = {sim::CreditConfig{}};
  std::vector<double> rates;
  /// Multipath-fabric axis; the default empty axis reproduces the
  /// unipath sweep bit for bit. Fabric points are appended AFTER every
  /// unipath point (task order, seeds, and output of the unipath prefix
  /// are unchanged by adding fabrics) and expand over {radices, patterns,
  /// bursts, modes, lanes, path_policies, faults, rates} — the credit
  /// axis is skipped (multipath fabrics are credit-less).
  std::vector<FabricSpec> fabrics;
  /// Path-selection axis for the fabric points (unipath points have no
  /// path choice and ignore it). PathPolicy::kLooping needs a fixed
  /// permutation and is rejected here — sweeps run random patterns.
  std::vector<sim::PathPolicy> path_policies = {sim::PathPolicy::kHash};
  /// Workload axis (workload/spec.hpp): open-loop synthetic, closed-loop
  /// request–reply, or trace replay. The default single open spec
  /// reproduces the pre-workload sweep bit for bit, and the axis is the
  /// OUTERMOST enumeration level: the entire grid of workloads[0] (the
  /// unipath block and its fabric block) is emitted before any point of
  /// workloads[1], so appending a workload value never perturbs the task
  /// indices, per-point seeds or output bytes of the existing prefix.
  std::vector<workload::Spec> workloads = {workload::Spec{}};
  int stages = 6;
  sim::SimConfig base;

  /// Number of grid points: the product of the axis sizes, except that
  /// a store-and-forward mode contributes one lane variant (lanes only
  /// shape the wormhole discipline) and a non-bursty pattern contributes
  /// one burst variant; plus the appended multipath-fabric block; the
  /// whole grid repeated once per workload-axis value.
  [[nodiscard]] std::size_t size() const noexcept;
};

/// One grid point with its simulation result.
struct SweepPoint {
  min::NetworkKind network = min::NetworkKind::kOmega;
  int radix = 2;  ///< the radix-axis value simulated
  sim::Pattern pattern = sim::Pattern::kUniform;
  sim::SwitchingMode mode = sim::SwitchingMode::kStoreAndForward;
  std::size_t lanes = 1;
  fault::FaultSpec fault;     ///< the fault-axis value simulated
  sim::BurstParams burst;     ///< the burst-axis value simulated
  sim::CreditConfig credits;  ///< the flow-control-axis value simulated
  double rate = 0.0;
  int stages = 0;
  std::uint64_t seed = 0;  ///< the derived per-point seed actually used
  /// Multipath-fabric family of the point (kUnipath for the classic
  /// single-path points of the networks axis).
  min::MultiPathKind fabric = min::MultiPathKind::kUnipath;
  /// The FabricSpec::paths parameter simulated (1 on unipath points).
  int paths = 1;
  sim::PathPolicy path_policy = sim::PathPolicy::kHash;
  /// The workload-axis value simulated (kOpen on the historic points).
  workload::Spec workload;
  /// Worst-case surviving path count over all (source, dest) pairs under
  /// this point's fault mask (multipath::min_path_diversity). Unipath
  /// points report full_access ? 1 : 0.
  std::uint64_t min_path_diversity = 1;
  /// Survivor-topology classification of (network, fault) — shared by
  /// every point of the pair, computed once per mask.
  min::FaultedClassification survivor;
  sim::SimResult result;
};

/// All grid points in deterministic order (network-major, then radix,
/// pattern, burst, mode, lanes, credits, fault, rate innermost).
struct SweepResult {
  SweepGrid grid;
  std::vector<SweepPoint> points;
};

/// Run every grid point, fanned across \p threads workers (0 = hardware
/// concurrency). One Engine — and with it one min::FlatWiring — is
/// precomputed per {network, radix, stages} and shared read-only across
/// all grid points, one FaultMask (+ survivor classification) per
/// {network, radix, fault spec} likewise, and each worker thread reuses one
/// sim::SimWorkspace payload-pool arena across all its points, so no
/// point pays topology re-derivation or pool re-allocation; each point
/// derives an independent seed from (grid.base.seed, index), so results
/// are identical for any thread count. When grid.base.sim_threads > 1
/// each point additionally shards its own cycle kernels (still
/// byte-identical — see SimConfig::sim_threads); the "0 = hardware"
/// default then divides the sweep fan-out by the per-point team size so
/// the two levels never oversubscribe the machine, while an explicit
/// \p threads is honored as given up to the bound below.
/// \throws std::invalid_argument if \p threads x grid.base.sim_threads
/// exceeds SimConfig::kMaxSimThreads (each worker runs its own team), on
/// an empty axis, an out-of-range rate,
/// an invalid fault spec or burst parameter set, or a pattern/stage-count
/// mismatch (transpose needs even stages).
[[nodiscard]] SweepResult run_sweep(const SweepGrid& grid,
                                    std::size_t threads = 0);

}  // namespace mineq::exp
