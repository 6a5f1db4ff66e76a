#include "min/properties.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "graph/dsu.hpp"

namespace mineq::min {

namespace {

void check_range(const MIDigraph& g, int lo, int hi) {
  if (lo < 0 || hi >= g.stages() || lo > hi) {
    throw std::invalid_argument("P(i,j): bad stage range");
  }
}

/// Do the counts read 1, radix, radix^2, ... in iteration order? P(*,n)
/// reads a suffix profile forwards and P(1,*) a prefix profile backwards:
/// one component at the full range, radix times more per stage dropped.
/// A mismatch returns before \p expected can outgrow the 32-bit counts
/// by more than one factor of radix, so it cannot wrap.
template <typename It>
bool reads_powers(It first, It last, std::size_t radix) {
  std::size_t expected = 1;
  for (; first != last; ++first) {
    if (*first != expected) return false;
    expected *= radix;
  }
  return true;
}

}  // namespace

std::size_t component_count_range(const MIDigraph& g, int lo, int hi) {
  check_range(g, lo, hi);
  const std::uint32_t cells = g.cells_per_stage();
  const std::size_t span = static_cast<std::size_t>(hi - lo + 1);
  graph::DSU dsu(span * cells);
  for (int s = lo; s < hi; ++s) {
    const Connection& conn = g.connection(s);
    const std::uint32_t base = static_cast<std::uint32_t>(s - lo) * cells;
    for (std::uint32_t x = 0; x < cells; ++x) {
      dsu.unite(base + x, base + cells + conn.f_table()[x]);
      dsu.unite(base + x, base + cells + conn.g_table()[x]);
    }
  }
  return dsu.components();
}

std::size_t expected_components(const MIDigraph& g, int lo, int hi) {
  check_range(g, lo, hi);
  return std::size_t{1} << (g.width() - (hi - lo));
}

bool satisfies_p(const MIDigraph& g, int lo, int hi) {
  return component_count_range(g, lo, hi) == expected_components(g, lo, hi);
}

namespace {

constexpr std::uint32_t kNoRoot = ~std::uint32_t{0};

/// The prefix DSU sweep over the image tables: the component counts of
/// (G)_{0..j} for j = 0..n-1. With a non-null \p parents_distinct it also
/// runs the prefix lemma's check (properties.hpp): before each stage's
/// unions it takes one find per cell and records, per child, the root of
/// its first parent; the second parent must have another root. The
/// check needs valid degrees (two parents per child).
std::vector<std::size_t> table_prefix_profile(const MIDigraph& g,
                                              bool* parents_distinct) {
  const std::uint32_t cells = g.cells_per_stage();
  // One DSU over the whole digraph; after wiring stage s-1 -> s, the
  // component count over stages 0..s equals the full-DSU count minus the
  // (stages-1-s) * cells untouched singleton nodes.
  graph::DSU dsu(static_cast<std::size_t>(g.stages()) * cells);
  std::vector<std::size_t> profile;
  profile.reserve(static_cast<std::size_t>(g.stages()));
  profile.push_back(cells);  // (G)_{0..0}: isolated cells
  bool distinct = parents_distinct != nullptr;
  std::vector<std::uint32_t> first_root(distinct ? cells : 0);
  for (int s = 0; s + 1 < g.stages(); ++s) {
    const Connection& conn = g.connection(s);
    const std::vector<std::uint32_t>& f = conn.f_table();
    const std::vector<std::uint32_t>& h = conn.g_table();
    const std::uint32_t base = static_cast<std::uint32_t>(s) * cells;
    if (distinct) {
      std::fill(first_root.begin(), first_root.end(), kNoRoot);
      for (std::uint32_t x = 0; x < cells && distinct; ++x) {
        const std::uint32_t root = dsu.find(base + x);
        for (const std::uint32_t child : {f[x], h[x]}) {
          if (first_root[child] == kNoRoot) {
            first_root[child] = root;
          } else if (first_root[child] == root) {
            distinct = false;
          }
        }
      }
    }
    for (std::uint32_t x = 0; x < cells; ++x) {
      dsu.unite(base + x, base + cells + f[x]);
      dsu.unite(base + x, base + cells + h[x]);
    }
    const std::size_t untouched =
        static_cast<std::size_t>(g.stages() - 2 - s) * cells;
    profile.push_back(dsu.components() - untouched);
  }
  if (parents_distinct != nullptr) *parents_distinct = distinct;
  return profile;
}

}  // namespace

std::vector<std::size_t> prefix_component_profile(const MIDigraph& g) {
  return table_prefix_profile(g, nullptr);
}

std::vector<std::size_t> suffix_component_profile(const MIDigraph& g) {
  const std::uint32_t cells = g.cells_per_stage();
  graph::DSU dsu(static_cast<std::size_t>(g.stages()) * cells);
  std::vector<std::size_t> profile(static_cast<std::size_t>(g.stages()));
  profile[static_cast<std::size_t>(g.stages() - 1)] = cells;
  for (int s = g.stages() - 2; s >= 0; --s) {
    const Connection& conn = g.connection(s);
    const std::uint32_t base = static_cast<std::uint32_t>(s) * cells;
    for (std::uint32_t x = 0; x < cells; ++x) {
      dsu.unite(base + x, base + cells + conn.f_table()[x]);
      dsu.unite(base + x, base + cells + conn.g_table()[x]);
    }
    const std::size_t untouched = static_cast<std::size_t>(s) * cells;
    profile[static_cast<std::size_t>(s)] = dsu.components() - untouched;
  }
  return profile;
}

bool satisfies_p1_star(const MIDigraph& g) {
  const auto profile = prefix_component_profile(g);
  return reads_powers(profile.rbegin(), profile.rend(), 2);
}

bool satisfies_p_star_n(const MIDigraph& g) {
  const auto profile = suffix_component_profile(g);
  return reads_powers(profile.begin(), profile.end(), 2);
}

PrefixSweep prefix_sweep(const MIDigraph& g) {
  PrefixSweep out;
  const auto profile = table_prefix_profile(g, &out.parents_distinct);
  out.p1_star = reads_powers(profile.rbegin(), profile.rend(), 2);
  return out;
}

namespace {

/// DSU union of one packed connection, templated on the record unpacker
/// (flat_wiring.hpp): the radix-2 instantiation keeps its historic
/// shift/mask code generation, general radices divide.
template <typename Unpack>
void unite_stage(const FlatWiring& w, const Unpack unpack, int s,
                 std::uint32_t base, graph::DSU& dsu) {
  const std::uint32_t cells = w.cells_per_stage();
  const auto down = w.down_stage(s);
  for (std::uint32_t x = 0; x < cells; ++x) {
    for (unsigned port = 0; port < unpack.radix(); ++port) {
      dsu.unite(base + x,
                base + cells + unpack.cell(down[x * unpack.radix() + port]));
    }
  }
}

/// The prefix DSU sweep over the packed records, the radix-r form of
/// table_prefix_profile: with a non-null \p parents_distinct, before each
/// stage's unions it snapshots one root per cell and checks every
/// child's radix parents (its up records) for a repeated root.
template <typename Unpack>
std::vector<std::size_t> wiring_prefix_profile(const FlatWiring& w,
                                               const Unpack unpack,
                                               bool* parents_distinct) {
  const std::uint32_t cells = w.cells_per_stage();
  const unsigned radix = unpack.radix();
  graph::DSU dsu(static_cast<std::size_t>(w.stages()) * cells);
  std::vector<std::size_t> profile;
  profile.reserve(static_cast<std::size_t>(w.stages()));
  profile.push_back(cells);  // (G)_{0..0}: isolated cells
  bool distinct = parents_distinct != nullptr;
  std::vector<std::uint32_t> root(distinct ? cells : 0);
  for (int s = 0; s + 1 < w.stages(); ++s) {
    const std::uint32_t base = static_cast<std::uint32_t>(s) * cells;
    if (distinct) {
      for (std::uint32_t x = 0; x < cells; ++x) root[x] = dsu.find(base + x);
      const auto up = w.up_stage(s);
      for (std::uint32_t y = 0; y < cells && distinct; ++y) {
        const std::uint32_t* in = up.data() + std::size_t{radix} * y;
        for (unsigned a = 1; a < radix; ++a) {
          for (unsigned b = 0; b < a; ++b) {
            if (root[unpack.cell(in[a])] == root[unpack.cell(in[b])]) {
              distinct = false;
            }
          }
        }
      }
    }
    unite_stage(w, unpack, s, base, dsu);
    const std::size_t untouched =
        static_cast<std::size_t>(w.stages() - 2 - s) * cells;
    profile.push_back(dsu.components() - untouched);
  }
  if (parents_distinct != nullptr) *parents_distinct = distinct;
  return profile;
}

template <typename Unpack>
std::vector<std::size_t> wiring_suffix_profile(const FlatWiring& w,
                                               const Unpack unpack) {
  const std::uint32_t cells = w.cells_per_stage();
  graph::DSU dsu(static_cast<std::size_t>(w.stages()) * cells);
  std::vector<std::size_t> profile(static_cast<std::size_t>(w.stages()));
  profile[static_cast<std::size_t>(w.stages() - 1)] = cells;
  for (int s = w.stages() - 2; s >= 0; --s) {
    unite_stage(w, unpack, s, static_cast<std::uint32_t>(s) * cells, dsu);
    const std::size_t untouched = static_cast<std::size_t>(s) * cells;
    profile[static_cast<std::size_t>(s)] = dsu.components() - untouched;
  }
  return profile;
}

/// Dispatch wiring_prefix_profile on the wiring's radix.
std::vector<std::size_t> packed_prefix_profile(const FlatWiring& w,
                                               bool* parents_distinct) {
  if (w.radix() == 2) {
    return wiring_prefix_profile(w, UnpackBinary{}, parents_distinct);
  }
  return wiring_prefix_profile(
      w, UnpackRadix{static_cast<unsigned>(w.radix())}, parents_distinct);
}

}  // namespace

std::vector<std::size_t> prefix_component_profile(const FlatWiring& w) {
  return packed_prefix_profile(w, nullptr);
}

std::vector<std::size_t> suffix_component_profile(const FlatWiring& w) {
  if (w.radix() == 2) return wiring_suffix_profile(w, UnpackBinary{});
  return wiring_suffix_profile(
      w, UnpackRadix{static_cast<unsigned>(w.radix())});
}

bool satisfies_p1_star(const FlatWiring& w) {
  // Read from the last prefix up, so the geometry itself is checked: the
  // last prefix is one component and the first has radix^(stages-1)
  // cells. Disjoint planes (p * radix^(stages-1) cells) end at p.
  const auto profile = prefix_component_profile(w);
  return reads_powers(profile.rbegin(), profile.rend(),
                      static_cast<std::size_t>(w.radix()));
}

bool satisfies_p_star_n(const FlatWiring& w) {
  const auto profile = suffix_component_profile(w);
  return reads_powers(profile.begin(), profile.end(),
                      static_cast<std::size_t>(w.radix()));
}

PrefixSweep prefix_sweep(const FlatWiring& w) {
  PrefixSweep out;
  const auto profile = packed_prefix_profile(w, &out.parents_distinct);
  out.p1_star = reads_powers(profile.rbegin(), profile.rend(),
                             static_cast<std::size_t>(w.radix()));
  return out;
}

std::size_t component_count_range(const FlatWiring& w, int lo, int hi) {
  if (lo < 0 || hi >= w.stages() || lo > hi) {
    throw std::invalid_argument("P(i,j): bad stage range");
  }
  const std::uint32_t cells = w.cells_per_stage();
  const std::size_t span = static_cast<std::size_t>(hi - lo + 1);
  graph::DSU dsu(span * cells);
  const auto unite_range = [&](const auto unpack) {
    for (int s = lo; s < hi; ++s) {
      unite_stage(w, unpack, s, static_cast<std::uint32_t>(s - lo) * cells,
                  dsu);
    }
  };
  if (w.radix() == 2) {
    unite_range(UnpackBinary{});
  } else {
    unite_range(UnpackRadix{static_cast<unsigned>(w.radix())});
  }
  return dsu.components();
}

std::size_t component_count_range(const FlatWiring& w,
                                  const fault::FaultMask& mask, int lo,
                                  int hi) {
  if (lo < 0 || hi >= w.stages() || lo > hi) {
    throw std::invalid_argument("P(i,j): bad stage range");
  }
  if (!mask.matches(w)) {
    throw std::invalid_argument(
        "component_count_range: fault mask geometry does not match");
  }
  const std::uint32_t cells = w.cells_per_stage();
  const auto radix = static_cast<unsigned>(w.radix());
  const std::size_t span = static_cast<std::size_t>(hi - lo + 1);
  graph::DSU dsu(span * cells);
  for (int s = lo; s < hi; ++s) {
    const auto down = w.down_stage(s);
    const std::uint32_t base = static_cast<std::uint32_t>(s - lo) * cells;
    for (std::uint32_t x = 0; x < cells; ++x) {
      for (unsigned port = 0; port < radix; ++port) {
        if (mask.faulted(s, x, port)) continue;  // severed by the fault
        dsu.unite(base + x,
                  base + cells + w.unpack_cell(down[x * radix + port]));
      }
    }
  }
  return dsu.components();
}

SuffixStructure suffix_component_structure(const MIDigraph& g, int from) {
  check_range(g, from, g.stages() - 1);
  const std::uint32_t cells = g.cells_per_stage();
  const int span = g.stages() - from;
  graph::DSU dsu(static_cast<std::size_t>(span) * cells);
  for (int s = from; s + 1 < g.stages(); ++s) {
    const Connection& conn = g.connection(s);
    const std::uint32_t base = static_cast<std::uint32_t>(s - from) * cells;
    for (std::uint32_t x = 0; x < cells; ++x) {
      dsu.unite(base + x, base + cells + conn.f_table()[x]);
      dsu.unite(base + x, base + cells + conn.g_table()[x]);
    }
  }
  SuffixStructure out;
  std::unordered_map<std::uint32_t, std::size_t> root_index;
  for (int s = 0; s < span; ++s) {
    for (std::uint32_t x = 0; x < cells; ++x) {
      const std::uint32_t node = static_cast<std::uint32_t>(s) * cells + x;
      const std::uint32_t root = dsu.find(node);
      const auto [it, inserted] =
          root_index.emplace(root, root_index.size());
      if (inserted) {
        out.intersections.emplace_back(static_cast<std::size_t>(span), 0);
      }
      ++out.intersections[it->second][static_cast<std::size_t>(s)];
    }
  }
  out.component_count = root_index.size();
  return out;
}

}  // namespace mineq::min
