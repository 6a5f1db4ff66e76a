/// \file routing.hpp
/// \brief Path extraction and bit-directed routing on Banyan MI-digraphs.
///
/// The paper's closing remark motivates PIPID designs: "these permutations
/// are associated to a very simple bit directed routing". In a Banyan
/// network the path from a first-stage cell to a last-stage cell is
/// unique; for PIPID-built networks the out-port taken at stage s is a
/// fixed bit of the destination cell label (possibly a different bit per
/// stage). This module extracts unique paths generically and recovers the
/// per-stage destination-bit schedule when one exists.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "min/flat_wiring.hpp"
#include "min/mi_digraph.hpp"

namespace mineq::min {

/// A source-to-sink route: the cell visited at every stage plus the
/// out-port (0 = f, 1 = g) taken at every hop.
struct Route {
  std::vector<std::uint32_t> cells;   ///< stages() entries
  std::vector<unsigned> ports;        ///< stages()-1 entries
};

/// The unique route from first-stage cell \p source to last-stage cell
/// \p sink, or nullopt if none exists. O(stages * cells) via one backward
/// reachability sweep. (If multiple paths exist — non-Banyan graphs — the
/// lexicographically first by port choice is returned.)
[[nodiscard]] std::optional<Route> find_route(const MIDigraph& g,
                                              std::uint32_t source,
                                              std::uint32_t sink);

/// A destination-bit routing schedule: at stage s, take the port equal to
/// bit `bit[s]` of the destination cell label, xor `invert[s]`.
struct BitSchedule {
  std::vector<int> bit;         ///< stages()-1 entries
  std::vector<unsigned> invert; ///< stages()-1 entries
};

/// Recover the destination-bit schedule valid for *all* (source, sink)
/// pairs, or nullopt if the network has none: the r = 2 reading of
/// find_digit_schedule over FlatWiring::from_digraph(g), with bit = digit
/// and invert = port_of_value[s][0]. O(stages * cells). A graph with a
/// cell whose in-degree is not 2 (!g.is_valid()) returns nullopt, even
/// where its unique paths would follow a bit schedule: FlatWiring cannot
/// hold it.
[[nodiscard]] std::optional<BitSchedule> find_bit_schedule(const MIDigraph& g);

/// Apply a schedule: route from \p source to \p sink by reading ports off
/// the destination bits. Returns the cells visited.
[[nodiscard]] Route route_with_schedule(const MIDigraph& g,
                                        const BitSchedule& schedule,
                                        std::uint32_t source,
                                        std::uint32_t sink);

/// Check a schedule delivers every pair (exhaustive).
[[nodiscard]] bool verify_bit_schedule(const MIDigraph& g,
                                       const BitSchedule& schedule);

/// The radix-r generalization of BitSchedule: at stage s, take the port
/// port_of_value[s][v] where v is base-r digit `digit[s]` of the
/// destination cell label. The binary schedule is the r = 2 special case
/// (invert == 0 maps to the identity value map, invert == 1 to the
/// swap). Recovered from a FlatWiring of any radix, so the k-ary
/// simulators route with the same destination-tag discipline the binary
/// engine always used.
struct DigitSchedule {
  int radix = 2;
  std::vector<int> digit;  ///< stages()-1 entries (digit index per stage)
  /// stages()-1 maps from digit value (0..r-1) to out-port; each is a
  /// bijection of {0..r-1}.
  std::vector<std::vector<unsigned>> port_of_value;

  friend bool operator==(const DigitSchedule&, const DigitSchedule&) = default;
};

/// radix^digit: the divisor that extracts base-radix digit \p digit of a
/// cell label, (label / scale) % radix. Terminal labels carry one more
/// (low) digit, so their scale is this times the radix.
[[nodiscard]] constexpr std::uint32_t digit_scale(unsigned radix,
                                                  int digit) noexcept {
  std::uint32_t scale = 1;
  for (int i = 0; i < digit; ++i) scale *= radix;
  return scale;
}

/// Recover the destination-digit schedule valid for *all* (source, sink)
/// pairs of \p w, or nullopt if none exists. One backward pass over the
/// stages, O(stages * cells * radix):
///  - every cell carries the set of sinks it reaches as a label: the
///    sinks agreeing with it on the digits no later stage schedules
///    (Patel's delta-network cylinder; scheduled digits are zeroed);
///  - at stage s, every cell's radix children must agree on all digits
///    but one, d, and take every value there. d and its value -> port
///    map must be the same for the whole stage; the cell's label is its
///    children's with d zeroed.
/// Exact: from one source, distinct sinks need distinct port sequences,
/// and there are radix^(stages-1) of each, so a schedule that routes
/// every pair makes the network Banyan. Its digit and value map per stage
/// are then unique, every map is a bijection, and the pass finds them.
/// Wirings with cells_per_stage() != radix^(stages-1) (the Benes and
/// dilated multipath wirings among them) return nullopt, even where a
/// schedule whose value maps are not bijections would route every pair.
[[nodiscard]] std::optional<DigitSchedule> find_digit_schedule(
    const FlatWiring& w);

/// Apply a digit schedule over the wiring: the cells visited from
/// \p source routing toward \p sink.
/// \throws std::invalid_argument if the schedule's radix or length does
/// not match \p w.
[[nodiscard]] std::vector<std::uint32_t> route_with_digit_schedule(
    const FlatWiring& w, const DigitSchedule& schedule, std::uint32_t source,
    std::uint32_t sink);

/// Check a digit schedule delivers every (source, sink) pair
/// (exhaustive, O(cells^2 * stages)).
/// \throws std::invalid_argument as route_with_digit_schedule does.
[[nodiscard]] bool verify_digit_schedule(const FlatWiring& w,
                                         const DigitSchedule& schedule);

}  // namespace mineq::min
