/// \file exact_oracle_test.cpp
/// \brief An oracle for the simulator whose expected values do not come
/// from the simulator: contention-free runs with closed-form counters.
///
/// In a Banyan network, fixed switch settings (each switch a bijection
/// of its input slots onto its out-ports) route every terminal along its
/// unique path, and those paths are link-disjoint: every link carries
/// exactly one of them. So the permutation the settings realize, offered
/// at injection rate 1, never makes a packet wait. A rearrangeable Benes
/// fabric under PathPolicy::kLooping realizes any permutation the same
/// way. Every counter of such a run has a closed form in the stage count
/// S, the packet length L, the warmup W and the measured cycles M, over
/// N terminals (W >= S, so the pipeline is full when measurement
/// starts):
///
///  - Store-and-forward, L = 1. Every terminal injects each cycle, and a
///    packet injected at cycle c leaves stage k at cycle c + k + 1 and
///    ejects at c + S. Latency is S + 1 (the eject adds the link's one
///    flit), for every packet. offered = injected = flits_injected =
///    N * M; a measured packet is delivered iff c + S <= W + M - 1, so
///    delivered = flits_delivered = N * (M - S). At the end S packets
///    per terminal are in flight, one per stage; every inter-stage link
///    is busy in every measured cycle (link utilization 1); the sampled
///    occupancy is N * S packets over S * N * Q slots, 1 / Q.
///  - Wormhole, L flits, any lane count and depth. A terminal draws a new
///    packet every L cycles (cycles 0, L, 2L, ...) and serializes one flit
///    per cycle, so flits_injected = N * M; offered = injected = N times the
///    multiples of L in [W, W + M). Flit i of a packet injected at c
///    ejects at c + i + S, so latency is S + L; the packet is delivered
///    iff its tail ejects by W + M - 1, and flit i is counted iff it
///    does. Each flit spends S cycles in the fabric: N * S flits are in
///    flight at the end, one flit sits in one lane of every input port
///    (occupancy 1 / (lanes * depth)), and every inter-stage link moves
///    a flit in every cycle (utilization 1).
///  - Both: no head ever waits, so hol_blocking_cycles and every stall
///    counter are 0, with or without observers, at any sim_threads.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "min/flat_wiring.hpp"
#include "min/kary.hpp"
#include "min/networks.hpp"
#include "multipath/multipath_wiring.hpp"
#include "perm/permutation.hpp"
#include "sim/engine.hpp"
#include "sim/perm_routing.hpp"
#include "test_seed.hpp"

namespace mineq::sim {
namespace {

constexpr std::uint64_t kMeasure = 64;

/// The permutation random switch settings realize on \p wiring: each
/// switch maps its input slots onto its out-ports by a random bijection,
/// traced from every terminal through the packed down records.
std::vector<std::uint32_t> random_settings_permutation(
    const min::FlatWiring& wiring, util::SplitMix64& rng) {
  const auto r = static_cast<unsigned>(wiring.radix());
  const std::uint32_t cells = wiring.cells_per_stage();
  std::vector<std::vector<unsigned>> port_of_slot(
      static_cast<std::size_t>(wiring.stages()) * cells,
      std::vector<unsigned>(r));
  for (std::vector<unsigned>& bijection : port_of_slot) {
    std::iota(bijection.begin(), bijection.end(), 0U);
    for (unsigned i = r - 1; i > 0; --i) {
      std::swap(bijection[i], bijection[rng.below(i + 1)]);
    }
  }
  std::vector<std::uint32_t> image(static_cast<std::size_t>(r) * cells);
  for (std::uint32_t t = 0; t < image.size(); ++t) {
    std::uint32_t cell = t / r;
    unsigned slot = t % r;
    for (int s = 0;; ++s) {
      const unsigned port =
          port_of_slot[static_cast<std::size_t>(s) * cells + cell][slot];
      if (s + 1 == wiring.stages()) {
        image[t] = cell * r + port;
        break;
      }
      const std::uint32_t record = wiring.down_stage(s)[cell * r + port];
      cell = wiring.unpack_cell(record);
      slot = wiring.unpack_slot(record);
    }
  }
  return image;
}

/// The closed-form counters of a contention-free run (file comment).
struct Expected {
  std::uint64_t offered = 0, delivered = 0;
  std::uint64_t flits_injected = 0, flits_delivered = 0, flits_in_flight = 0;
  double latency = 0, lane_occupancy = 0;
};

Expected expected(const SimConfig& config, std::uint64_t terminals,
                  int stages) {
  const std::uint64_t w = config.warmup_cycles;
  const std::uint64_t end = w + config.measure_cycles;  // first unrun cycle
  const auto s = static_cast<std::uint64_t>(stages);
  const std::uint64_t l = config.packet_length;
  Expected e;
  e.flits_injected = terminals * config.measure_cycles;
  e.flits_in_flight = terminals * s * l;
  if (config.mode == SwitchingMode::kStoreAndForward) {
    e.offered = terminals * config.measure_cycles;
    e.delivered = terminals * (config.measure_cycles - s);
    e.flits_delivered = e.delivered;
    e.latency = static_cast<double>(s + 1);
    e.lane_occupancy = 1.0 / static_cast<double>(config.queue_capacity);
    return e;
  }
  for (std::uint64_t c = 0; c < end; c += l) {
    if (c < w) continue;
    ++e.offered;
    if (c + l - 1 + s <= end - 1) ++e.delivered;
    for (std::uint64_t i = 0; i < l; ++i) {
      if (c + i + s <= end - 1) ++e.flits_delivered;
    }
  }
  e.offered *= terminals;
  e.delivered *= terminals;
  e.flits_delivered *= terminals;
  e.flits_in_flight = terminals * s;
  e.latency = static_cast<double>(s + l);
  e.lane_occupancy =
      1.0 / static_cast<double>(config.lanes * config.lane_depth);
  return e;
}

void expect_exact(const SimResult& r, const Expected& e) {
  EXPECT_EQ(r.offered, e.offered);
  EXPECT_EQ(r.injected, e.offered);
  EXPECT_EQ(r.delivered, e.delivered);
  EXPECT_EQ(r.flits_injected, e.flits_injected);
  EXPECT_EQ(r.flits_delivered, e.flits_delivered);
  EXPECT_EQ(r.flits_in_flight, e.flits_in_flight);
  EXPECT_EQ(r.latency.count(), e.delivered);
  EXPECT_EQ(r.latency.mean(), e.latency);
  EXPECT_EQ(r.latency.max(), e.latency);
  EXPECT_EQ(r.link_utilization, 1.0);
  EXPECT_EQ(r.lane_occupancy.mean(), e.lane_occupancy);
  EXPECT_EQ(r.hol_blocking_cycles, 0U);
  EXPECT_EQ(r.credit_stall_cycles, 0U);
  EXPECT_EQ(r.stall_lost_arbitration, 0U);
  EXPECT_EQ(r.stall_downstream_full, 0U);
  EXPECT_EQ(r.stall_no_free_lane, 0U);
  EXPECT_EQ(r.stall_zero_credits, 0U);
  EXPECT_EQ(r.stall_masked_arc, 0U);
  EXPECT_EQ(r.path_reroutes, 0U);
  EXPECT_EQ(r.packets_rerouted, 0U);
}

/// Run \p permutation on \p engine at rate 1 in both disciplines, with
/// one- and two-unit buffers, single-flit and multi-flit worms over lanes
/// 1 and 2, sim_threads 1 and 4, observers off and on, and check every
/// run against the closed forms.
void check_permutation(const Engine& engine,
                       const std::vector<std::uint32_t>& permutation,
                       PathPolicy policy) {
  const int stages = engine.wiring().stages();
  struct Shape {
    SwitchingMode mode;
    std::size_t packet_length, lanes;
    std::size_t depth;  ///< queue_capacity or lane_depth
  };
  for (const Shape shape : {Shape{SwitchingMode::kStoreAndForward, 1, 1, 2},
                            Shape{SwitchingMode::kStoreAndForward, 1, 1, 1},
                            Shape{SwitchingMode::kWormhole, 1, 1, 1},
                            Shape{SwitchingMode::kWormhole, 3, 1, 2},
                            Shape{SwitchingMode::kWormhole, 4, 2, 2},
                            Shape{SwitchingMode::kWormhole, 5, 2, 1}}) {
    for (const std::size_t threads : {1U, 4U}) {
      for (const bool observed : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << switching_mode_name(shape.mode) << " L "
                     << shape.packet_length << " lanes " << shape.lanes
                     << " depth " << shape.depth << " threads " << threads
                     << " observed " << observed);
        SimConfig config;
        config.mode = shape.mode;
        config.injection_rate = 1.0;
        config.packet_length = shape.packet_length;
        config.lanes = shape.lanes;
        config.lane_depth = shape.depth;
        config.queue_capacity = shape.depth;
        config.warmup_cycles = 2 * static_cast<std::uint64_t>(stages) + 1;
        config.measure_cycles = kMeasure;
        config.sim_threads = threads;
        config.path_policy = policy;
        config.permutation = permutation;
        if (observed) {
          config.obs.probe_stride = 20;
          config.obs.trace_sample = 3;
        }
        const SimResult r = engine.run(Pattern::kPermutation, config);
        expect_exact(r, expected(config, engine.terminals(), stages));
      }
    }
  }
}

TEST(ExactOracleTest, RadixTwoSwitchSettingsAreContentionFree) {
  MINEQ_SEEDED_RNG(rng, 1);
  for (const min::NetworkKind kind : min::all_network_kinds()) {
    for (const int n : {3, 4}) {
      SCOPED_TRACE(testing::Message()
                   << min::network_name(kind) << " n " << n);
      const min::MIDigraph g = min::build_network(kind, n);
      SwitchSettings settings(static_cast<std::size_t>(n));
      for (std::vector<std::uint8_t>& stage : settings) {
        stage.resize(g.cells_per_stage());
        for (std::uint8_t& bit : stage) {
          bit = static_cast<std::uint8_t>(rng.below(2));
        }
      }
      check_permutation(Engine(g), settings_permutation(g, settings).image(),
                        PathPolicy::kHash);
    }
  }
}

TEST(ExactOracleTest, GeneralRadixSwitchSettingsAreContentionFree) {
  MINEQ_SEEDED_RNG(rng, 2);
  for (const min::NetworkKind kind :
       {min::NetworkKind::kOmega, min::NetworkKind::kFlip,
        min::NetworkKind::kBaseline}) {
    for (const auto& [n, radix] :
         {std::pair{3, 3}, std::pair{4, 3}, std::pair{3, 4}}) {
      SCOPED_TRACE(testing::Message() << min::network_name(kind) << " n "
                                      << n << " radix " << radix);
      const Engine engine(min::build_kary_network(kind, n, radix));
      check_permutation(engine,
                        random_settings_permutation(engine.wiring(), rng),
                        PathPolicy::kHash);
    }
  }
}

TEST(ExactOracleTest, BenesLoopingIsContentionFree) {
  MINEQ_SEEDED_RNG(rng, 3);
  for (const auto& [n, radix] :
       {std::pair{3, 2}, std::pair{4, 2}, std::pair{3, 3}}) {
    SCOPED_TRACE(testing::Message() << "benes n " << n << " radix " << radix);
    const Engine engine{min::MultiPathWiring::benes(n, radix)};
    const perm::Permutation pi =
        perm::Permutation::random(engine.terminals(), rng);
    check_permutation(engine, pi.image(), PathPolicy::kLooping);
  }
}

}  // namespace
}  // namespace mineq::sim
