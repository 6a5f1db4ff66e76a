#include "min/routing.hpp"

#include <numeric>
#include <stdexcept>

#include "util/bitops.hpp"

namespace mineq::min {

std::optional<Route> find_route(const MIDigraph& g, std::uint32_t source,
                                std::uint32_t sink) {
  const std::uint32_t cells = g.cells_per_stage();
  if (source >= cells || sink >= cells) {
    throw std::invalid_argument("find_route: endpoint out of range");
  }
  const int n = g.stages();
  // Backward sweep: can_reach[s][x] = does x at stage s reach sink?
  std::vector<std::vector<char>> can_reach(
      static_cast<std::size_t>(n), std::vector<char>(cells, 0));
  can_reach[static_cast<std::size_t>(n - 1)][sink] = 1;
  for (int s = n - 2; s >= 0; --s) {
    const Connection& conn = g.connection(s);
    for (std::uint32_t x = 0; x < cells; ++x) {
      can_reach[static_cast<std::size_t>(s)][x] =
          can_reach[static_cast<std::size_t>(s + 1)][conn.f_table()[x]] ||
          can_reach[static_cast<std::size_t>(s + 1)][conn.g_table()[x]];
    }
  }
  if (!can_reach[0][source]) return std::nullopt;

  Route route;
  route.cells.push_back(source);
  std::uint32_t x = source;
  for (int s = 0; s + 1 < n; ++s) {
    const Connection& conn = g.connection(s);
    const std::uint32_t via_f = conn.f_table()[x];
    if (can_reach[static_cast<std::size_t>(s + 1)][via_f]) {
      route.ports.push_back(0);
      x = via_f;
    } else {
      route.ports.push_back(1);
      x = conn.g_table()[x];
    }
    route.cells.push_back(x);
  }
  return route;
}

std::optional<BitSchedule> find_bit_schedule(const MIDigraph& g) {
  if (!g.is_valid()) return std::nullopt;
  const auto digits = find_digit_schedule(FlatWiring::from_digraph(g));
  if (!digits.has_value()) return std::nullopt;
  BitSchedule schedule;
  schedule.bit = digits->digit;
  for (const std::vector<unsigned>& map : digits->port_of_value) {
    schedule.invert.push_back(map[0]);
  }
  return schedule;
}

Route route_with_schedule(const MIDigraph& g, const BitSchedule& schedule,
                          std::uint32_t source, std::uint32_t sink) {
  const int n = g.stages();
  if (schedule.bit.size() != static_cast<std::size_t>(n - 1) ||
      schedule.invert.size() != static_cast<std::size_t>(n - 1)) {
    throw std::invalid_argument("route_with_schedule: schedule arity");
  }
  Route route;
  route.cells.push_back(source);
  std::uint32_t x = source;
  for (int s = 0; s + 1 < n; ++s) {
    const unsigned port =
        util::get_bit(sink, schedule.bit[static_cast<std::size_t>(s)]) ^
        schedule.invert[static_cast<std::size_t>(s)];
    route.ports.push_back(port);
    const Connection& conn = g.connection(s);
    x = port == 0 ? conn.f_table()[x] : conn.g_table()[x];
    route.cells.push_back(x);
  }
  return route;
}

bool verify_bit_schedule(const MIDigraph& g, const BitSchedule& schedule) {
  const std::uint32_t cells = g.cells_per_stage();
  for (std::uint32_t src = 0; src < cells; ++src) {
    for (std::uint32_t dst = 0; dst < cells; ++dst) {
      const Route route = route_with_schedule(g, schedule, src, dst);
      if (route.cells.back() != dst) return false;
    }
  }
  return true;
}

std::optional<DigitSchedule> find_digit_schedule(const FlatWiring& w) {
  const auto radix = static_cast<unsigned>(w.radix());
  const std::uint32_t cells = w.cells_per_stage();
  const int n = w.stages();
  // One sink per port sequence: with more sinks, each source misses
  // some; with fewer, two sequences share a sink and the map cannot be
  // a bijection.
  std::uint64_t sequences = 1;
  for (int s = 0; s + 1 < n && sequences <= cells; ++s) sequences *= radix;
  if (sequences != cells) return std::nullopt;

  DigitSchedule schedule;
  schedule.radix = w.radix();
  schedule.digit.resize(static_cast<std::size_t>(n - 1));
  schedule.port_of_value.resize(static_cast<std::size_t>(n - 1));
  // label[x]: the sinks cell x reaches, as the cylinder of sink labels
  // that agree with label[x] on every digit no later stage schedules
  // (those digits are zero in label[x]). Stage n - 1 reaches itself.
  std::vector<std::uint32_t> label(cells);
  std::vector<std::uint32_t> next(cells);
  std::iota(label.begin(), label.end(), 0U);
  for (int s = n - 2; s >= 0; --s) {
    // Cell 0's first two children name the stage's digit: the lowest one
    // they differ in (any other difference fails the per-cell check).
    const std::uint32_t first = label[w.child(s, 0, 0)];
    const std::uint32_t second = label[w.child(s, 0, 1)];
    if (first == second) return std::nullopt;
    int digit = 0;
    while ((first / digit_scale(radix, digit)) % radix ==
           (second / digit_scale(radix, digit)) % radix) {
      ++digit;
    }
    const std::uint32_t scale = digit_scale(radix, digit);
    std::vector<unsigned> value_of_port(radix);
    std::vector<unsigned> port_of_value(radix, radix);
    for (unsigned t = 0; t < radix; ++t) {
      const unsigned value = (label[w.child(s, 0, t)] / scale) % radix;
      if (port_of_value[value] != radix) return std::nullopt;
      port_of_value[value] = t;
      value_of_port[t] = value;
    }
    // Every cell's children must agree off the digit and take cell 0's
    // value per port on it; the cell reaches their union.
    for (std::uint32_t x = 0; x < cells; ++x) {
      const std::uint32_t any = label[w.child(s, x, 0)];
      const std::uint32_t rest = any - (any / scale) % radix * scale;
      for (unsigned t = 0; t < radix; ++t) {
        if (label[w.child(s, x, t)] != rest + value_of_port[t] * scale) {
          return std::nullopt;
        }
      }
      next[x] = rest;
    }
    label.swap(next);
    schedule.digit[static_cast<std::size_t>(s)] = digit;
    schedule.port_of_value[static_cast<std::size_t>(s)] =
        std::move(port_of_value);
  }
  return schedule;
}

namespace {

/// The out-port toward \p sink at every stage. A destination-tag
/// schedule reads it off the sink alone, whatever cell a packet is in.
std::vector<unsigned> ports_toward(const FlatWiring& w,
                                   const DigitSchedule& schedule,
                                   std::uint32_t sink) {
  const auto hops = static_cast<std::size_t>(w.stages() - 1);
  if (schedule.radix != w.radix() || schedule.digit.size() != hops ||
      schedule.port_of_value.size() != hops) {
    throw std::invalid_argument(
        "digit schedule does not match the wiring's radix or stages");
  }
  const auto radix = static_cast<unsigned>(w.radix());
  std::vector<unsigned> ports(hops);
  for (std::size_t s = 0; s < hops; ++s) {
    const unsigned value =
        (sink / digit_scale(radix, schedule.digit[s])) % radix;
    ports[s] = schedule.port_of_value[s][value];
  }
  return ports;
}

}  // namespace

std::vector<std::uint32_t> route_with_digit_schedule(
    const FlatWiring& w, const DigitSchedule& schedule, std::uint32_t source,
    std::uint32_t sink) {
  const std::vector<unsigned> ports = ports_toward(w, schedule, sink);
  std::vector<std::uint32_t> cells_visited = {source};
  for (std::size_t s = 0; s < ports.size(); ++s) {
    cells_visited.push_back(
        w.child(static_cast<int>(s), cells_visited.back(), ports[s]));
  }
  return cells_visited;
}

bool verify_digit_schedule(const FlatWiring& w,
                           const DigitSchedule& schedule) {
  const std::uint32_t cells = w.cells_per_stage();
  for (std::uint32_t sink = 0; sink < cells; ++sink) {
    const std::vector<unsigned> ports = ports_toward(w, schedule, sink);
    for (std::uint32_t source = 0; source < cells; ++source) {
      std::uint32_t x = source;
      for (std::size_t s = 0; s < ports.size(); ++s) {
        x = w.child(static_cast<int>(s), x, ports[s]);
      }
      if (x != sink) return false;
    }
  }
  return true;
}

}  // namespace mineq::min
