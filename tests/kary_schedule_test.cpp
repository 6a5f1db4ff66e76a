/// \file kary_schedule_test.cpp
/// \brief Closed-form digit schedules for the built-in k-ary
/// constructions: equivalence to the recovered schedule at small sizes,
/// schedule attachment plumbing, and Engine construction far above 4096
/// cells per stage, the size at which schedule recovery used to stop,
/// with the schedule attached or recovered.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "min/flat_wiring.hpp"
#include "min/kary.hpp"
#include "min/networks.hpp"
#include "min/routing.hpp"
#include "schedule_reference.hpp"
#include "sim/engine.hpp"

namespace mineq::min {
namespace {

constexpr NetworkKind kKaryKinds[] = {
    NetworkKind::kOmega, NetworkKind::kFlip, NetworkKind::kBaseline};

/// The hand-derived schedules must be exactly what the exhaustive
/// all-pairs recovery finds (the schedule of a Banyan digit-routable
/// fabric is unique: unique paths determine every port).
TEST(KaryScheduleTest, ClosedFormEqualsRecoveredSchedule) {
  for (const NetworkKind kind : kKaryKinds) {
    for (const int radix : {2, 3, 4}) {
      for (const int stages : {2, 3, 4}) {
        SCOPED_TRACE(network_name(kind) + " r=" + std::to_string(radix) +
                     " n=" + std::to_string(stages));
        const KaryMIDigraph g = build_kary_network(kind, stages, radix);
        const FlatWiring w = FlatWiring::from_kary(g);
        const DigitSchedule closed =
            kary_network_schedule(kind, stages, radix);
        EXPECT_TRUE(verify_digit_schedule(w, closed));
        const auto recovered = find_digit_schedule(w);
        ASSERT_TRUE(recovered.has_value());
        EXPECT_EQ(closed, *recovered);
      }
    }
  }
}

TEST(KaryScheduleTest, BuildersAttachTheirSchedule) {
  for (const NetworkKind kind : kKaryKinds) {
    const KaryMIDigraph g = build_kary_network(kind, 4, 3);
    ASSERT_TRUE(g.schedule().has_value());
    EXPECT_EQ(*g.schedule(), kary_network_schedule(kind, 4, 3));
  }
  EXPECT_THROW(
      (void)kary_network_schedule(NetworkKind::kIndirectBinaryCube, 4, 3),
      std::invalid_argument);
}

TEST(KaryScheduleTest, AttachRejectsMismatchedShapes) {
  KaryMIDigraph g = build_kary_network(NetworkKind::kOmega, 4, 3);
  // Wrong radix.
  EXPECT_THROW(
      g.attach_schedule(kary_network_schedule(NetworkKind::kOmega, 4, 4)),
      std::invalid_argument);
  // Wrong stage count.
  EXPECT_THROW(
      g.attach_schedule(kary_network_schedule(NetworkKind::kOmega, 3, 3)),
      std::invalid_argument);
}

/// attach_schedule checks only the shape (correctness is the attacher's
/// contract) — but Engine's adoption still rejects a value map that is
/// not a port bijection, the cheap structural part of that contract.
TEST(KaryScheduleTest, EngineRejectsCorruptAttachedSchedule) {
  KaryMIDigraph g = build_kary_network(NetworkKind::kOmega, 3, 3);
  DigitSchedule bad = kary_network_schedule(NetworkKind::kOmega, 3, 3);
  bad.port_of_value[0] = {0, 0, 1};  // not a bijection
  g.attach_schedule(bad);
  EXPECT_THROW(sim::Engine{g}, std::invalid_argument);

  KaryMIDigraph g2 = build_kary_network(NetworkKind::kOmega, 3, 3);
  DigitSchedule out_of_range = kary_network_schedule(NetworkKind::kOmega, 3, 3);
  out_of_range.digit[0] = 5;  // reads past the cell label
  g2.attach_schedule(out_of_range);
  EXPECT_THROW(sim::Engine{g2}, std::invalid_argument);
}

/// Every engine routes by one digit schedule. Over a binary MI-digraph
/// it is recovered by find_digit_schedule — and must be exactly what the
/// tests' per-sink reference fit finds, for every classical kind
/// (find_bit_schedule reads the same pass, so it cannot be the oracle).
/// A radix-2 KaryMIDigraph adopts its construction's schedule instead:
/// same schedule, same wiring, and byte-identical runs.
TEST(KaryScheduleTest, RadixTwoAdoptionMatchesBinaryEngine) {
  for (const NetworkKind kind : all_network_kinds()) {
    for (int stages = 3; stages <= 9; ++stages) {
      SCOPED_TRACE(network_name(kind) + " n=" + std::to_string(stages));
      const MIDigraph g = build_network(kind, stages);
      const auto reference =
          test::reference_digit_schedule(FlatWiring::from_digraph(g));
      ASSERT_TRUE(reference.has_value());
      EXPECT_EQ(sim::Engine(g).schedule(), *reference);
    }
  }
  for (const NetworkKind kind : kKaryKinds) {
    const sim::Engine binary(build_network(kind, 5));
    const sim::Engine kary(build_kary_network(kind, 5, 2));
    ASSERT_EQ(binary.schedule(), kary.schedule()) << network_name(kind);
    ASSERT_EQ(binary.wiring(), kary.wiring()) << network_name(kind);
    sim::SimConfig config;
    config.injection_rate = 0.6;
    config.packet_length = 3;
    config.warmup_cycles = 50;
    config.measure_cycles = 300;
    const sim::SimResult a = binary.run(sim::Pattern::kUniform, config);
    const sim::SimResult b = kary.run(sim::Pattern::kUniform, config);
    EXPECT_EQ(a.injected, b.injected) << network_name(kind);
    EXPECT_EQ(a.delivered, b.delivered) << network_name(kind);
    EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean())
        << network_name(kind);
  }
}

/// The payoff: fabrics far above the old 4096-cell recovery budget
/// construct in linear time off the attached schedule and simulate end
/// to end. Radix 2 at 14 stages is 8192 cells per stage (the all-pairs
/// bit-schedule recovery would grind for minutes); radix 4 at 8 stages
/// is 16384 cells, which the cap used to reject outright.
TEST(KaryScheduleTest, AboveCapNetworksSimulateEndToEnd) {
  struct Case {
    int stages;
    int radix;
  };
  for (const Case c : {Case{14, 2}, Case{8, 4}}) {
    SCOPED_TRACE("r=" + std::to_string(c.radix) +
                 " n=" + std::to_string(c.stages));
    const sim::Engine engine(
        build_kary_network(NetworkKind::kOmega, c.stages, c.radix));
    EXPECT_GT(engine.wiring().cells_per_stage(), 4096U);
    sim::SimConfig config;
    config.injection_rate = 0.3;
    config.packet_length = 2;
    config.warmup_cycles = 0;  // exact flit ledger
    // Enough cycles for two-flit packets to cross 14 stages and eject.
    config.measure_cycles = 36;
    const sim::SimResult r = engine.run(sim::Pattern::kUniform, config);
    EXPECT_GT(r.delivered, 0U);
    EXPECT_EQ(r.flits_injected, r.flits_delivered + r.flits_in_flight);
  }
}

/// Wirings without an attached schedule recover one at any size: the
/// bare 16384-cell radix-4 omega recovers exactly its closed-form
/// schedule, and the n = 14 cube (8192 cells per stage, no closed form)
/// builds an Engine whose schedule delivers a sample of pairs.
TEST(KaryScheduleTest, UnknownWiringsRecoverAboveCap) {
  const KaryMIDigraph built =
      build_kary_network(NetworkKind::kOmega, 8, 4);
  std::vector<KaryConnection> connections;
  for (int s = 0; s + 1 < built.stages(); ++s) {
    connections.push_back(built.connection(s));
  }
  const KaryMIDigraph bare(8, 4, std::move(connections));
  ASSERT_FALSE(bare.schedule().has_value());
  EXPECT_EQ(sim::Engine{bare}.schedule(),
            kary_network_schedule(NetworkKind::kOmega, 8, 4));

  const MIDigraph cube = build_network(NetworkKind::kIndirectBinaryCube, 14);
  const sim::Engine engine(cube);
  const FlatWiring& w = engine.wiring();
  ASSERT_EQ(w.cells_per_stage(), 8192U);
  for (std::uint32_t source = 0; source < 8192; source += 1021) {
    for (std::uint32_t sink = 0; sink < 8192; sink += 617) {
      EXPECT_EQ(
          route_with_digit_schedule(w, engine.schedule(), source, sink).back(),
          sink);
    }
  }
}

}  // namespace
}  // namespace mineq::min
