// Gating-churn stress: cores randomly gate and un-gate while traffic is
// live. This drives every handshake race at once — drain/wakeup crossings,
// arbitration, re-sleep cycles, credit handovers mid-traffic — and checks
// the global invariants: no deadlock, no flit loss, eventual delivery.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "flov/flov_network.hpp"
#include "traffic/traffic_pattern.hpp"

namespace flov {
namespace {

using Param = std::tuple<FlovMode, int /*seed*/>;

class GatingChurn : public ::testing::TestWithParam<Param> {};

TEST_P(GatingChurn, SurvivesRandomToggleStorm) {
  const FlovMode mode = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());

  NocParams p;
  p.width = 6;
  p.height = 6;
  p.drain_idle_threshold = 8;
  FlovNetwork sys(p, mode, EnergyParams{});
  const MeshGeometry& g = sys.network().geom();

  std::uint64_t delivered = 0;
  sys.network().set_eject_callback(
      [&](const PacketRecord&) { ++delivered; });

  Rng rng(1000 + seed);
  UniformPattern pattern(g);
  std::vector<bool> gated(g.num_nodes(), false);
  std::uint64_t generated = 0;
  Cycle now = 0;
  Cycle last_delivery_check = 0;
  std::uint64_t last_delivered = 0;

  for (int step = 0; step < 30000; ++step) {
    // Random gating toggles: roughly one event every ~150 cycles.
    if (rng.next_bool(1.0 / 150.0)) {
      const NodeId n = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      gated[n] = !gated[n];
      sys.set_core_gated(n, gated[n], now);
    }
    // Traffic between currently active cores.
    std::vector<bool> mask(g.num_nodes());
    for (NodeId n = 0; n < g.num_nodes(); ++n) mask[n] = !gated[n];
    const ActiveCores active(mask);
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      if (gated[s] || !rng.next_bool(0.01)) continue;
      const NodeId d = pattern.dest(s, active, rng);
      if (d == kInvalidNode) continue;
      PacketDescriptor pd;
      pd.src = s;
      pd.dest = d;
      pd.size_flits = 4;
      pd.gen_cycle = now;
      sys.network().enqueue(pd);
      ++generated;
    }
    sys.step(now++);

    // Progress watchdog: deliveries must keep flowing.
    if (now - last_delivery_check >= 8000) {
      if (!sys.network().in_flight_empty()) {
        ASSERT_GT(delivered, last_delivered)
            << "no deliveries for 8000 cycles at " << now;
      }
      last_delivered = delivered;
      last_delivery_check = now;
    }
  }

  // Quiesce: stop gating changes and traffic; wake everything up.
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (gated[n]) sys.set_core_gated(n, false, now);
  }
  for (int i = 0; i < 20000 && !sys.network().idle(); ++i) sys.step(now++);
  EXPECT_TRUE(sys.network().idle());
  EXPECT_EQ(sys.network().total_injected_flits(),
            sys.network().total_ejected_flits());
  EXPECT_EQ(delivered, generated);

  // After quiescing with all cores on, every router must be Active again.
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_EQ(sys.hsc(n).state(), PowerState::kActive) << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Storms, GatingChurn,
    ::testing::Combine(::testing::Values(FlovMode::kRestricted,
                                         FlovMode::kGeneralized),
                       ::testing::Values(1, 2, 3, 4, 5)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(std::get<0>(info.param) == FlovMode::kRestricted
                             ? "rFLOV"
                             : "gFLOV") +
             "_s" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace flov
