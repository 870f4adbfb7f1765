// Gating-churn stress: cores randomly gate and un-gate while traffic is
// live. This drives every handshake race at once — drain/wakeup crossings,
// arbitration, re-sleep cycles, credit handovers mid-traffic — and checks
// the global invariants: no deadlock, no flit loss, eventual delivery.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "flov/flov_network.hpp"
#include "sim/builder.hpp"
#include "traffic/gating_scenario.hpp"
#include "traffic/synthetic_traffic.hpp"
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

// Each router keeps one bitmask plane per non-idle VC state and a ready
// plane (kActive, a flit buffered, a credit left), and every pipeline
// stage walks only its plane: a plane that misses a change silently
// starves or double-serves a VC. Escape timeouts run from a per-router
// deadline instead of every cycle: a deadline past an eligible VC's
// timeout silently delays a diversion. These tests run RP
// (reconfigurations) and FLOV (sleeps, wakeups, credit handovers) under
// gating churn with a short deadlock timeout, so escape diversions move
// kActive VCs back to kWaitVc too, and hard router deaths take RP routers
// through the dying and kDead paths (and delayed flits spill channel
// queues to the heap). They check each router after every cycle, in every
// build type, unlike the Debug-only checks. (RP routes up*/down*, which is
// deadlock-free, so it never diverts.)
struct ChurnSeen {
  bool gated = false;
  bool dead = false;
  std::uint64_t ejected = 0;
  std::uint64_t diversions = 0;
};

template <typename Check>
ChurnSeen run_churn(Scheme scheme, Check&& check) {
  NocParams p;
  p.width = 8;
  p.height = 8;
  p.deadlock_timeout = 12;
  p.drain_idle_threshold = 8;
  p.reliable = true;
  FaultParams faults;
  faults.hard_router_pct = 0.05;
  faults.hard_at_cycle = 2200;
  faults.flit_delay_rate = 0.01;
  BuiltSystem built = build_system(scheme, p, EnergyParams{}, {}, faults,
                                   FabricManagerConfig{.phase1_latency = 50});
  NocSystem& sys = *built.system;
  Network& net = sys.network();
  const MeshGeometry& g = net.geom();
  UniformPattern pattern(g);
  SyntheticTraffic traffic(&sys, &pattern, 0.25, 4, 77);
  const std::vector<Cycle> changes = {500, 1200, 1900, 2600, 3300};
  GatingScenario scenario = GatingScenario::epochs(g, 0.5, changes, 3);
  ChurnSeen seen;
  for (Cycle now = 0; now < 4000; ++now) {
    scenario.apply(sys, now);
    traffic.step(now);
    sys.step(now);
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      const Router& r = net.router(n);
      check(r, n, now);
      if (::testing::Test::HasFatalFailure()) return seen;
      seen.gated = seen.gated || r.mode() != RouterMode::kPipeline;
      seen.dead = seen.dead || r.mode() == RouterMode::kDead;
    }
  }
  seen.ejected = net.total_ejected_flits();
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    seen.diversions += net.router(n).escape_diversions();
  }
  return seen;
}

class VcPlanes : public ::testing::TestWithParam<Scheme> {};

TEST_P(VcPlanes, MatchTheVcStatesEveryCycleUnderChurn) {
  const ChurnSeen seen =
      run_churn(GetParam(), [](const Router& r, NodeId n, Cycle now) {
        ASSERT_TRUE(r.vc_planes_match_vc_states())
            << "router " << n << " cycle " << now;
      });
  EXPECT_TRUE(seen.gated) << "no router was ever gated";
  EXPECT_GT(seen.ejected, 0u);
  if (GetParam() == Scheme::kRp) {
    EXPECT_TRUE(seen.dead) << "no router died";
  } else {
    EXPECT_GT(seen.diversions, 0u) << "no escape diversion fired";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, VcPlanes, ::testing::Values(Scheme::kRp, Scheme::kGFlov),
    [](const ::testing::TestParamInfo<Scheme>& info) {
      return std::string(info.param == Scheme::kRp ? "RP" : "gFLOV");
    });

class TimeoutDeadline : public ::testing::TestWithParam<Scheme> {};

TEST_P(TimeoutDeadline, NeverPassesAnEligibleVcUnderChurn) {
  const ChurnSeen seen =
      run_churn(GetParam(), [](const Router& r, NodeId n, Cycle now) {
        ASSERT_TRUE(r.timeout_deadline_holds())
            << "router " << n << " cycle " << now;
      });
  EXPECT_TRUE(seen.gated) << "no router was ever gated";
  EXPECT_GT(seen.diversions, 0u) << "no escape diversion fired";
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, TimeoutDeadline,
    ::testing::Values(Scheme::kRFlov, Scheme::kGFlov),
    [](const ::testing::TestParamInfo<Scheme>& info) {
      return std::string(info.param == Scheme::kRFlov ? "rFLOV" : "gFLOV");
    });

}  // namespace
}  // namespace flov
