// Power/energy model tests: event energies, leakage modes, the tracker's
// window arithmetic, and the Section V-A overhead model.
#include <gtest/gtest.h>

#include "power/energy_model.hpp"
#include "power/overhead_model.hpp"
#include "power/power_tracker.hpp"

namespace flov {
namespace {

TEST(EnergyModel, DefaultsMatchTableI) {
  EnergyParams p;
  EXPECT_DOUBLE_EQ(p.pg_transition_pj, 17.7);  // Table I gating overhead
  EXPECT_DOUBLE_EQ(p.clock_freq_ghz, 2.0);     // Table I clock
}

TEST(EnergyModel, EventEnergiesPositiveAndOrdered) {
  EnergyParams p;
  for (int e = 0; e < kNumEnergyEvents; ++e) {
    EXPECT_GT(p.event_pj(static_cast<EnergyEvent>(e)), 0.0);
  }
  // A fly-over hop (latch) must cost far less than a pipeline pass.
  const double pipeline = p.event_pj(EnergyEvent::kBufferWrite) +
                          p.event_pj(EnergyEvent::kBufferRead) +
                          p.event_pj(EnergyEvent::kVcArb) +
                          p.event_pj(EnergyEvent::kSwArb) +
                          p.event_pj(EnergyEvent::kCrossbar);
  EXPECT_LT(p.event_pj(EnergyEvent::kFlovLatch), pipeline / 3);
}

TEST(EnergyModel, LeakageModes) {
  EnergyParams p;
  const double on = p.router_leak(RouterPowerMode::kOn, false);
  const double flov_on = p.router_leak(RouterPowerMode::kOn, true);
  const double sleep = p.router_leak(RouterPowerMode::kFlovSleep, true);
  const double parked = p.router_leak(RouterPowerMode::kRpParked, false);
  EXPECT_GT(flov_on, on);       // FLOV hardware pays a small overhead
  EXPECT_LT(sleep, on * 0.10);  // gating removes nearly all leakage
  EXPECT_LT(parked, sleep);     // full park beats FLOV sleep residual
}

TEST(EnergyModel, LinkLeakFollowsDriverState) {
  EnergyParams p;
  EXPECT_DOUBLE_EQ(p.link_leak(RouterPowerMode::kOn), p.link_leak_mw);
  // FLOV keeps links alive while sleeping; RP parks them.
  EXPECT_DOUBLE_EQ(p.link_leak(RouterPowerMode::kFlovSleep), p.link_leak_mw);
  EXPECT_LT(p.link_leak(RouterPowerMode::kRpParked), p.link_leak_mw);
}

TEST(EnergyModel, ConfigOverrides) {
  Config c;
  c.set("energy.link_pj", 9.5);
  c.set("energy.router_leak_mw", 3.25);
  const EnergyParams p = EnergyParams::from_config(c, {});
  EXPECT_DOUBLE_EQ(p.link_pj, 9.5);
  EXPECT_DOUBLE_EQ(p.router_leak_mw, 3.25);
  EXPECT_DOUBLE_EQ(p.pg_transition_pj, 17.7);  // untouched default
}

TEST(EnergyModel, LeakEnergyConversion) {
  EnergyParams p;  // 2 GHz: 1 mW over 2000 cycles = 1e-3 W * 1e-6 s = 1 nJ
  EXPECT_DOUBLE_EQ(p.leak_energy_pj(1.0, 2000), 1000.0);
}

TEST(PowerTracker, StaticEnergyIntegratesModes) {
  MeshGeometry g(2, 2);
  EnergyParams p;
  p.router_leak_mw = 2.0;
  p.link_leak_mw = 0.0;
  p.flov_active_overhead_fraction = 0.0;
  p.rp_park_leak_fraction = 0.0;
  PowerTracker t(g, p, /*flov_hardware=*/false);
  // 4 routers at 2 mW for 1000 cycles @2GHz: E = 4*2*1000/2 = 4000 pJ.
  const auto r = t.report(1000);
  EXPECT_DOUBLE_EQ(r.static_energy_pj, 4000.0);
  EXPECT_DOUBLE_EQ(r.static_mw, 8.0);
}

TEST(PowerTracker, ModeChangeSplitsIntegration) {
  MeshGeometry g(2, 2);
  EnergyParams p;
  p.router_leak_mw = 2.0;
  p.link_leak_mw = 0.0;
  p.flov_active_overhead_fraction = 0.0;
  p.rp_park_leak_fraction = 0.0;
  PowerTracker t(g, p, false);
  t.set_mode(0, RouterPowerMode::kRpParked, 500);  // off for half the window
  const auto r = t.report(1000);
  // Routers 1..3: 2mW*1000cyc; router 0: 2mW*500cyc.
  EXPECT_DOUBLE_EQ(r.static_energy_pj, (3 * 1000 + 500) * 1.0);
}

TEST(PowerTracker, DynamicEventsAccumulate) {
  MeshGeometry g(2, 2);
  EnergyParams p;
  PowerTracker t(g, p, false);
  t.count(EnergyEvent::kLinkTraversal, 10);
  t.count(EnergyEvent::kPgTransition, 2);
  const auto r = t.report(100);
  EXPECT_DOUBLE_EQ(r.dynamic_energy_pj, 10 * p.link_pj + 2 * 17.7);
  EXPECT_EQ(t.event_count(EnergyEvent::kLinkTraversal), 10u);
}

TEST(PowerTracker, WindowResetsCounts) {
  MeshGeometry g(2, 2);
  EnergyParams p;
  PowerTracker t(g, p, false);
  t.count(EnergyEvent::kCrossbar, 100);
  t.begin_window(500);
  t.count(EnergyEvent::kCrossbar, 1);
  const auto r = t.report(600);
  EXPECT_DOUBLE_EQ(r.dynamic_energy_pj, p.crossbar_pj);
  EXPECT_EQ(r.cycles, 100u);
}

TEST(PowerTracker, FlovHardwarePaysOverheadWhenOn) {
  MeshGeometry g(2, 2);
  EnergyParams p;
  p.link_leak_mw = 0.0;
  PowerTracker flov(g, p, true);
  PowerTracker base(g, p, false);
  EXPECT_GT(flov.report(1000).static_energy_pj,
            base.report(1000).static_energy_pj);
}

TEST(OverheadModel, MatchesPaperSectionVA) {
  const OverheadReport r = compute_overhead(OverheadInputs{});
  // 2 sets x 4 entries x 2 bits = 16 PSR bits.
  EXPECT_EQ(r.psr_bits, 16);
  // 6 control wires to each adjacent neighbor.
  EXPECT_EQ(r.hsc_wires_per_neighbor, 6);
  // ~2.8e-3 mm^2 total, ~3% of the baseline router.
  EXPECT_NEAR(r.total_overhead_mm2, 2.8e-3, 0.4e-3);
  EXPECT_NEAR(r.overhead_fraction, 0.03, 0.01);
}

TEST(OverheadModel, ScalesWithFlitWidth) {
  OverheadInputs narrow;
  narrow.flit_width_bits = 64;
  const auto wide = compute_overhead(OverheadInputs{});
  const auto half = compute_overhead(narrow);
  EXPECT_LT(half.latch_area_mm2, wide.latch_area_mm2);
  EXPECT_EQ(half.psr_bits, wide.psr_bits);  // PSRs independent of width
}

}  // namespace
}  // namespace flov
