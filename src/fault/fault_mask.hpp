/// \file fault_mask.hpp
/// \brief FaultMask: a bitset over FlatWiring's packed arc records, plus
/// the FaultedWiring view both switching policies route through.
///
/// The fault literature on banyan MINs asks which links and switches may
/// die before the fabric loses full access, and what degradation looks
/// like under load. Because every layer of this codebase consumes one
/// stage-packed topology IR (min::FlatWiring), a fault is representable
/// as a single bit per packed down record — at any radix r: arc index
///
///   s * links_per_stage + r * x + port
///
/// names the port-`port` out-link of cell `x` at stage `s` — the same
/// index the down record occupies, so a mask built once is consistent
/// across the equivalence checks, both simulator policies and the sweep
/// layer. (Every arc also has an up record; up-side queries translate
/// through the wiring's parent tables to the same bit.)
///
/// A masked arc never accepts payload. Degraded-mode routing on top of
/// the mask is the FaultedWiring view: a packet whose scheduled out-port
/// is masked reroutes through the next surviving port of its switch when
/// one exists (misrouting it — a banyan has unique paths, so the detour
/// cannot reach the original destination terminal) and is dropped at a
/// switch whose out-ports are all dead. At r = 2 "next surviving port"
/// is exactly the historic sibling (port ^ 1), pinned in the tests.

#pragma once

#include <cstdint>
#include <vector>

#include "min/flat_wiring.hpp"

namespace mineq::fault {

/// A bitset over the packed arc records of one FlatWiring geometry.
/// Default construction gives the empty geometry (no arcs, no faults).
class FaultMask {
 public:
  FaultMask() = default;

  /// All-clear mask over the arcs of \p w.
  explicit FaultMask(const min::FlatWiring& w);

  [[nodiscard]] int stages() const noexcept { return stages_; }
  [[nodiscard]] int radix() const noexcept { return radix_; }
  [[nodiscard]] std::uint32_t cells_per_stage() const noexcept {
    return cells_;
  }
  /// Arc records per inter-stage connection: radix * cells_per_stage().
  [[nodiscard]] std::size_t links_per_stage() const noexcept {
    return static_cast<std::size_t>(radix_) * cells_;
  }
  /// Total maskable arcs: (stages - 1) * links_per_stage().
  [[nodiscard]] std::size_t total_arcs() const noexcept { return arcs_; }

  /// True when no arc is faulted — the simulators' fast-path test.
  [[nodiscard]] bool none() const noexcept { return faulted_ == 0; }

  [[nodiscard]] std::size_t faulted_count() const noexcept {
    return faulted_;
  }
  [[nodiscard]] std::size_t surviving_arcs() const noexcept {
    return arcs_ - faulted_;
  }

  /// Packed arc index of the port-\p port out-link of cell \p x at
  /// stage \p s (the down-record index).
  [[nodiscard]] std::size_t arc_index(int s, std::uint32_t x,
                                      unsigned port) const noexcept {
    return static_cast<std::size_t>(s) * links_per_stage() +
           static_cast<std::size_t>(radix_) * x + port;
  }

  /// \pre arc < total_arcs() — i.e. the stage of an (s, x, port) query
  /// must satisfy s < stages() - 1 (last-stage cells have no out-arcs).
  [[nodiscard]] bool faulted_index(std::size_t arc) const noexcept {
    return (words_[arc >> 6] >> (arc & 63)) & 1U;
  }
  [[nodiscard]] bool faulted(int s, std::uint32_t x,
                             unsigned port) const noexcept {
    return faulted_index(arc_index(s, x, port));
  }

  /// Mark one arc faulted (idempotent).
  void set_index(std::size_t arc);
  void set(int s, std::uint32_t x, unsigned port) {
    set_index(arc_index(s, x, port));
  }

  /// Does this mask describe the geometry of \p w?
  [[nodiscard]] bool matches(const min::FlatWiring& w) const noexcept {
    return stages_ == w.stages() && cells_ == w.cells_per_stage() &&
           radix_ == w.radix();
  }

  friend bool operator==(const FaultMask&, const FaultMask&) = default;

 private:
  int stages_ = 1;
  int radix_ = 2;
  std::uint32_t cells_ = 0;
  std::size_t arcs_ = 0;
  std::size_t faulted_ = 0;
  std::vector<std::uint64_t> words_;
};

/// The degraded-mode routing view over (wiring, mask): the reference for
/// the switching policies' folded-radix route step
/// (sim::PolicyBase::usable_port), and the dead-switch test the
/// store-and-forward policy builds its drain list with. Default
/// construction gives a null view.
class FaultedWiring {
 public:
  FaultedWiring() = default;
  FaultedWiring(const min::FlatWiring& wiring, const FaultMask& mask)
      : wiring_(&wiring), mask_(&mask) {}

  [[nodiscard]] const min::FlatWiring& wiring() const noexcept {
    return *wiring_;
  }
  [[nodiscard]] const FaultMask& mask() const noexcept { return *mask_; }

  /// May the port-\p port out-link of cell \p x at stage \p s carry
  /// payload this cycle (i.e. is the arc unmasked)?
  [[nodiscard]] bool arc_ok(int s, std::uint32_t x,
                            unsigned port) const noexcept {
    return !mask_->faulted(s, x, port);
  }

  /// Degraded-mode adaptive routing at switch (s, x): the scheduled
  /// \p desired port when its arc survives, otherwise the *next
  /// surviving port* scanning (desired + 1) % r, (desired + 2) % r, ...
  /// over all r ports, or -1 when every out-arc is dead and the packet
  /// must be dropped. At r = 2 the scan visits exactly the historic
  /// sibling desired ^ 1 (pinned as a regression in the tests); the old
  /// `desired ^ 1` formula is meaningless for r > 2.
  [[nodiscard]] int usable_port(int s, std::uint32_t x,
                                unsigned desired) const noexcept {
    if (!mask_->faulted(s, x, desired)) return static_cast<int>(desired);
    const auto radix = static_cast<unsigned>(mask_->radix());
    unsigned port = desired;
    for (unsigned step = 1; step < radix; ++step) {
      ++port;
      if (port >= radix) port -= radix;  // wrap without a division
      if (!mask_->faulted(s, x, port)) return static_cast<int>(port);
    }
    return -1;
  }

  /// Is switch (s, x) dead for forwarding (all out-arcs masked)?
  /// Last-stage cells have no out-arcs — they eject through terminal
  /// links, which are not maskable — so they are never dead.
  [[nodiscard]] bool dead_switch(int s, std::uint32_t x) const noexcept {
    if (s + 1 >= mask_->stages()) return false;  // no out-arcs to mask
    const auto radix = static_cast<unsigned>(mask_->radix());
    for (unsigned port = 0; port < radix; ++port) {
      if (!mask_->faulted(s, x, port)) return false;
    }
    return true;
  }

 private:
  const min::FlatWiring* wiring_ = nullptr;
  const FaultMask* mask_ = nullptr;
};

}  // namespace mineq::fault
