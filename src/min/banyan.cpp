#include "min/banyan.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/parallel.hpp"

namespace mineq::min {

namespace {

/// Per-stage arc accessors for the topology representations, so every
/// sweep below is written once. An accessor exposes the out-degree, the
/// child of the t-th out-arc of cell x, and whether that arc carries
/// paths (only a fault mask kills arcs, and kMasked says whether it can).
struct TableChildren {
  static constexpr bool kMasked = false;
  std::span<const std::uint32_t> f;
  std::span<const std::uint32_t> g;
  [[nodiscard]] static constexpr unsigned degree() noexcept { return 2; }
  [[nodiscard]] std::uint32_t child(std::uint32_t x, unsigned t) const {
    return t == 0 ? f[x] : g[x];
  }
  [[nodiscard]] static constexpr bool alive(std::uint32_t /*x*/,
                                            unsigned /*t*/) noexcept {
    return true;
  }
};

[[nodiscard]] inline TableChildren stage_children(const MIDigraph& g, int s) {
  const Connection& conn = g.connection(s);
  return {conn.f_table(), conn.g_table()};
}

/// Packed-record accessor over one unpacker (UnpackBinary keeps the
/// radix-2 shift/mask code generation; UnpackRadix divides).
template <typename Unpack>
struct PackedChildren {
  static constexpr bool kMasked = false;
  std::span<const std::uint32_t> down;
  Unpack unpack;
  [[nodiscard]] unsigned degree() const noexcept { return unpack.radix(); }
  [[nodiscard]] std::uint32_t child(std::uint32_t x, unsigned t) const {
    return unpack.cell(down[x * unpack.radix() + t]);
  }
  [[nodiscard]] static constexpr bool alive(std::uint32_t /*x*/,
                                            unsigned /*t*/) noexcept {
    return true;
  }
};

/// The same records with the arcs of a fault mask dead. The arc bit index
/// is the stage base plus the record's own array offset
/// (FaultMask::arc_index's layout), so the binary instantiation stays
/// shift-indexed.
template <typename Unpack>
struct MaskedChildren : PackedChildren<Unpack> {
  static constexpr bool kMasked = true;
  const fault::FaultMask* mask;
  std::size_t stage_base;
  [[nodiscard]] bool alive(std::uint32_t x, unsigned t) const {
    return !mask->faulted_index(stage_base + x * this->unpack.radix() + t);
  }
};

/// A FlatWiring bound to one unpacker, so the sweeps can dispatch on
/// radix() == 2 without being written twice.
template <typename Unpack>
struct WiringView {
  const FlatWiring* w;
  Unpack unpack;
  [[nodiscard]] int stages() const noexcept { return w->stages(); }
  [[nodiscard]] std::uint32_t cells_per_stage() const noexcept {
    return w->cells_per_stage();
  }
};

template <typename Unpack>
[[nodiscard]] inline PackedChildren<Unpack> stage_children(
    const WiringView<Unpack>& v, int s) {
  return {v.w->down_stage(s), v.unpack};
}

template <typename Unpack>
struct MaskedView : WiringView<Unpack> {
  const fault::FaultMask* mask;
};

template <typename Unpack>
[[nodiscard]] inline MaskedChildren<Unpack> stage_children(
    const MaskedView<Unpack>& v, int s) {
  return {{v.w->down_stage(s), v.unpack},
          v.mask,
          static_cast<std::size_t>(s) * v.mask->links_per_stage()};
}

/// Call \p fn with the unpacker of \p w's radix.
template <typename Fn>
decltype(auto) with_unpacker(const FlatWiring& w, const Fn& fn) {
  if (w.radix() == 2) return fn(UnpackBinary{});
  return fn(UnpackRadix{static_cast<unsigned>(w.radix())});
}

/// The saturating path-count DP from one source to every last-stage cell.
template <typename Network>
std::vector<std::uint64_t> source_path_counts(const Network& net,
                                              std::uint32_t source,
                                              std::uint64_t cap) {
  const std::uint32_t cells = net.cells_per_stage();
  if (source >= cells) {
    throw std::invalid_argument("path_counts_from: source out of range");
  }
  std::vector<std::uint64_t> counts(cells, 0);
  std::vector<std::uint64_t> next(cells, 0);
  counts[source] = 1;
  for (int s = 0; s + 1 < net.stages(); ++s) {
    const auto children = stage_children(net, s);
    std::fill(next.begin(), next.end(), 0);
    for (std::uint32_t x = 0; x < cells; ++x) {
      const std::uint64_t c = counts[x];
      if (c == 0) continue;
      for (unsigned t = 0; t < children.degree(); ++t) {
        if (!children.alive(x, t)) continue;  // dead arcs carry no paths
        auto& n = next[children.child(x, t)];
        n = std::min(cap, n + c);
      }
    }
    counts.swap(next);
  }
  return counts;
}

/// Whether a network's accessor can kill arcs (a fault mask).
template <typename Network>
constexpr bool kMaskedNetwork = decltype(stage_children(
    std::declval<const Network&>(), 0))::kMasked;

/// Word-bitset reachability from one source: does it reach every
/// last-stage cell through live arcs? On an intact network the answer
/// is sharpened to "once each": with out-degree r there are r^s paths
/// from the source to stage s, and they reach r^s distinct cells — the
/// reached set grows r-fold at every stage — exactly when no two of them
/// meet, so the sweep returns false at the first stage that does not
/// grow. A parallel arc out of a reached cell stops the growth like any
/// other collision. Scratch is caller-provided so a sweep over all
/// sources reuses it.
template <typename Network>
bool source_reaches_all(const Network& net, std::uint32_t source,
                        std::vector<std::uint64_t>& reach,
                        std::vector<std::uint64_t>& next) {
  const std::size_t words = reach.size();
  std::fill(reach.begin(), reach.end(), 0);
  reach[source >> 6] = std::uint64_t{1} << (source & 63);
  std::size_t size = 1;
  for (int s = 0; s + 1 < net.stages(); ++s) {
    const auto children = stage_children(net, s);
    std::fill(next.begin(), next.end(), 0);
    for (std::size_t i = 0; i < words; ++i) {
      std::uint64_t bits = reach[i];
      while (bits != 0) {
        const auto x = static_cast<std::uint32_t>(
            i * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
        for (unsigned t = 0; t < children.degree(); ++t) {
          if (!children.alive(x, t)) continue;
          const std::uint32_t c = children.child(x, t);
          next[c >> 6] |= std::uint64_t{1} << (c & 63);
        }
      }
    }
    std::size_t next_size = 0;
    for (const std::uint64_t word : next) {
      next_size += static_cast<std::size_t>(std::popcount(word));
    }
    if (!kMaskedNetwork<Network> && next_size != children.degree() * size) {
      return false;
    }
    size = next_size;
    reach.swap(next);
  }
  return size == net.cells_per_stage();
}

template <typename Network>
std::vector<std::uint64_t> reach_scratch(const Network& net) {
  return std::vector<std::uint64_t>(
      (static_cast<std::size_t>(net.cells_per_stage()) + 63) / 64);
}

/// The bit-planes of one batch of up to 64 sources: bit i of one[x] /
/// two[x] is set when source first + i has at least one / at least two
/// paths to cell x. Only masked sweeps store `two` (see batch_paths).
struct PathPlanes {
  PathPlanes(std::uint32_t cells, bool masked)
      : one(cells), two(masked ? cells : 0) {}
  std::vector<std::uint64_t> one;
  std::vector<std::uint64_t> two;
};

/// The word-parallel path-count kernel: sources first .. first + 63 ride
/// in the bits of the planes, and each live arc from x (planes o, t)
/// into c updates c's planes as `two |= t | (one & o); one |= o` — c
/// gains a second path where it already had one. A batch costs
/// (stages - 1) * cells * radix word updates, and the result is the
/// batch's SurvivingPaths.
///
/// An intact network needs only the one-plane: once the source-0 probe
/// has passed, r^(stages-1) == cells, so every source has exactly as many
/// paths as there are sinks, and reaching every sink means reaching each
/// once. Under a fault mask that count drops, so the masked
/// instantiation carries the two-plane. \p cur and \p next are
/// caller-provided scratch.
template <typename Network>
SurvivingPaths batch_paths(const Network& net, std::uint32_t first,
                           PathPlanes& cur, PathPlanes& next) {
  const std::uint32_t cells = net.cells_per_stage();
  const std::uint32_t width = std::min<std::uint32_t>(64, cells - first);
  std::fill(cur.one.begin(), cur.one.end(), 0);
  std::fill(cur.two.begin(), cur.two.end(), 0);
  for (std::uint32_t i = 0; i < width; ++i) {
    cur.one[first + i] = std::uint64_t{1} << i;
  }
  for (int s = 0; s + 1 < net.stages(); ++s) {
    const auto children = stage_children(net, s);
    std::fill(next.one.begin(), next.one.end(), 0);
    std::fill(next.two.begin(), next.two.end(), 0);
    // Only the batch's own cells carry paths out of the first stage.
    const std::uint32_t lo = s == 0 ? first : 0;
    const std::uint32_t hi = s == 0 ? first + width : cells;
    for (std::uint32_t x = lo; x < hi; ++x) {
      const std::uint64_t o = cur.one[x];
      for (unsigned t = 0; t < children.degree(); ++t) {
        if (!children.alive(x, t)) continue;
        const std::uint32_t c = children.child(x, t);
        if constexpr (kMaskedNetwork<Network>) {
          next.two[c] |= cur.two[x] | (next.one[c] & o);
        }
        next.one[c] |= o;
      }
    }
    std::swap(cur, next);
  }
  const std::uint64_t all = width == 64 ? ~std::uint64_t{0}
                                        : (std::uint64_t{1} << width) - 1;
  SurvivingPaths out{true, true};
  for (const std::uint64_t one : cur.one) {
    out.full_access = out.full_access && one == all;
  }
  for (const std::uint64_t two : cur.two) {
    out.unique = out.unique && two == 0;
  }
  out.unique = out.unique && out.full_access;
  return out;
}

/// Source 0's reachability probe: most failing networks fail it within a
/// few stages, at the cost of one source's paths.
template <typename Network>
bool probe_source_zero(const Network& net) {
  std::vector<std::uint64_t> reach = reach_scratch(net);
  std::vector<std::uint64_t> next = reach_scratch(net);
  return source_reaches_all(net, 0, reach, next);
}

/// Every source's paths: the source-0 probe first, then every batch of 64
/// sources through the kernel, split across \p threads by batch. Returns
/// at the first batch without full access.
template <typename Network>
SurvivingPaths all_paths(const Network& net, std::size_t threads) {
  constexpr bool kMasked = kMaskedNetwork<Network>;
  if (!probe_source_zero(net)) return {};
  const std::uint32_t cells = net.cells_per_stage();
  const std::uint32_t batches = (cells + 63) / 64;
  if (threads == 1 || batches == 1) {
    PathPlanes cur(cells, kMasked);
    PathPlanes next(cells, kMasked);
    SurvivingPaths out{true, true};
    for (std::uint32_t b = 0; b < batches; ++b) {
      const SurvivingPaths p = batch_paths(net, b * 64, cur, next);
      if (!p.full_access) return {};
      out.unique = out.unique && p.unique;
    }
    return out;
  }
  std::atomic<bool> full_access(true);
  std::atomic<bool> unique(true);
  util::parallel_for(
      0, batches,
      [&](std::size_t b) {
        if (!full_access.load(std::memory_order_relaxed)) return;
        PathPlanes cur(cells, kMasked);
        PathPlanes next(cells, kMasked);
        const SurvivingPaths p =
            batch_paths(net, static_cast<std::uint32_t>(b) * 64, cur, next);
        if (!p.full_access) full_access.store(false, std::memory_order_relaxed);
        if (!p.unique) unique.store(false, std::memory_order_relaxed);
      },
      threads);
  if (!full_access.load()) return {};
  return {true, unique.load()};
}

}  // namespace

std::vector<std::uint64_t> path_counts_from(const MIDigraph& g,
                                            std::uint32_t source,
                                            std::uint64_t cap) {
  return source_path_counts(g, source, cap);
}

std::vector<std::uint64_t> path_counts_from(const FlatWiring& w,
                                            std::uint32_t source,
                                            std::uint64_t cap) {
  return with_unpacker(w, [&](auto unpack) {
    return source_path_counts(WiringView{&w, unpack}, source, cap);
  });
}

std::vector<std::uint64_t> path_counts_from(const FlatWiring& w,
                                            const fault::FaultMask& mask,
                                            std::uint32_t source,
                                            std::uint64_t cap) {
  if (!mask.matches(w)) {
    throw std::invalid_argument(
        "path_counts_from: fault mask geometry does not match the wiring");
  }
  return with_unpacker(w, [&](auto unpack) {
    using Unpack = decltype(unpack);
    return source_path_counts(MaskedView<Unpack>{{&w, unpack}, &mask},
                              source, cap);
  });
}

bool is_banyan(const MIDigraph& g, std::size_t threads) {
  return all_paths(g, threads).unique;
}

bool is_banyan(const FlatWiring& w, std::size_t threads) {
  return with_unpacker(w, [&](auto unpack) {
    return all_paths(WiringView{&w, unpack}, threads).unique;
  });
}

bool passes_banyan_probe(const MIDigraph& g) { return probe_source_zero(g); }

bool passes_banyan_probe(const FlatWiring& w) {
  return with_unpacker(w, [&](auto unpack) {
    return probe_source_zero(WiringView{&w, unpack});
  });
}

SurvivingPaths surviving_paths(const FlatWiring& w,
                               const fault::FaultMask& mask) {
  if (!mask.matches(w)) {
    throw std::invalid_argument(
        "surviving_paths: fault mask geometry does not match the wiring");
  }
  return with_unpacker(w, [&](auto unpack) {
    using Unpack = decltype(unpack);
    return all_paths(MaskedView<Unpack>{{&w, unpack}, &mask}, 1);
  });
}

std::optional<BanyanFailure> banyan_failure(const MIDigraph& g) {
  const std::uint32_t cells = g.cells_per_stage();
  for (std::uint32_t u = 0; u < cells; ++u) {
    const auto counts = path_counts_from(g, u, /*cap=*/1000000);
    for (std::uint32_t v = 0; v < cells; ++v) {
      if (counts[v] != 1) {
        return BanyanFailure{u, v, counts[v]};
      }
    }
  }
  return std::nullopt;
}

bool is_banyan_doubling(const MIDigraph& g) {
  std::vector<std::uint64_t> reach = reach_scratch(g);
  std::vector<std::uint64_t> next = reach_scratch(g);
  for (std::uint32_t u = 0; u < g.cells_per_stage(); ++u) {
    if (!source_reaches_all(g, u, reach, next)) return false;
  }
  return true;
}

}  // namespace mineq::min
