/// \file wormhole.hpp
/// \brief Flit-level wormhole switching over an Engine's network.
///
/// Packets decompose into flits (flit.hpp) that pipeline through per-port
/// multi-lane buffers (the LanePool of fabric.hpp): the head flit claims
/// an idle lane at the next switch and advances as soon as it wins
/// output-port arbitration; body and tail flits follow through the
/// reserved lanes; the tail releases each lane as it passes. One flit
/// crosses each link per cycle. A lane stores its worm once (head flit,
/// front index, count), so a body or tail hop moves counters, not
/// flits; flits are built where they are read, as at ejection.
/// Deterministic given the seed, like the store-and-forward path.
/// WormholeSimulator::run and Engine::run with SimConfig::mode kWormhole
/// go through the same dispatcher (run_fabric, policy.hpp); both
/// disciplines are policies over the shared FabricCore (fabric.hpp).

#pragma once

#include <cstdint>
#include <functional>

#include "sim/engine.hpp"
#include "sim/flit.hpp"

namespace mineq::sim {

/// Called for every flit ejected at the last stage, in ejection order.
/// Tests use this to check worm invariants (head first, tail last, one
/// flit per packet per cycle).
using EjectObserver = std::function<void(const Flit&, std::uint64_t cycle)>;

/// The wormhole discipline, borrowing the Engine's verified network,
/// schedule and wiring. Cheap to construct; the referenced Engine must
/// outlive it.
class WormholeSimulator {
 public:
  explicit WormholeSimulator(const Engine& engine) : engine_(engine) {}

  /// Run one wormhole simulation (SimConfig::mode is ignored).
  [[nodiscard]] SimResult run(Pattern pattern, const SimConfig& config) const;

  /// Same, reporting every ejected flit to \p observer.
  SimResult run(Pattern pattern, const SimConfig& config,
                const EjectObserver& observer) const;

  /// Full form: optional fault mask (degraded-mode routing over the
  /// surviving arcs; null or all-clear runs unmasked) and
  /// optional reusable payload-pool workspace. Semantics match
  /// Engine::run's four-argument form.
  SimResult run(Pattern pattern, const SimConfig& config,
                const EjectObserver& observer, const fault::FaultMask* mask,
                SimWorkspace* workspace = nullptr) const;

 private:
  const Engine& engine_;
};

}  // namespace mineq::sim
