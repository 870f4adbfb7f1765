// End-to-end integration tests: synthetic traffic over every scheme with
// power-gated cores. Parameterized sweeps check delivery, conservation,
// deadlock-freedom, and the scheme-specific invariants the paper relies on.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "flov/flov_network.hpp"
#include "rp/rp_network.hpp"
#include "sim/experiment.hpp"
#include "traffic/gating_scenario.hpp"
#include "traffic/traffic_pattern.hpp"

namespace flov {
namespace {

SyntheticExperimentConfig base_config() {
  SyntheticExperimentConfig c;
  c.noc.width = 8;
  c.noc.height = 8;
  c.warmup = 2000;
  c.measure = 6000;
  c.inj_rate_flits = 0.02;
  c.watchdog = 30000;
  return c;
}

using SweepParam = std::tuple<Scheme, double /*gated*/, int /*seed*/>;

class SchemeGatingSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SchemeGatingSweep, DeliversEverythingWithoutDeadlock) {
  auto [scheme, gated, seed] = GetParam();
  SyntheticExperimentConfig c = base_config();
  c.scheme = scheme;
  c.gated_fraction = gated;
  c.seed = seed;
  const RunResult r = run_synthetic(c);
  EXPECT_GT(r.packets_generated, 0u);
  // Conservation: every injected flit was ejected or is still in flight in
  // a live network; after the run most traffic must be through (>=95%).
  EXPECT_GE(r.ejected_flits + 200, r.injected_flits);
  EXPECT_GT(r.packets_measured, 0u);
  EXPECT_GT(r.avg_latency, 0.0);
  // No breakdown component exceeds the total.
  EXPECT_LE(r.breakdown.router, r.avg_latency + 1e-6);
  EXPECT_LE(r.breakdown.contention, r.avg_latency + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchemeGatingSweep,
    ::testing::Combine(::testing::Values(Scheme::kBaseline, Scheme::kRp,
                                         Scheme::kRFlov, Scheme::kGFlov),
                       ::testing::Values(0.0, 0.2, 0.5, 0.8),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_g" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100)) +
             "_s" + std::to_string(std::get<2>(info.param));
    });

class PatternSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(PatternSweep, GFlovDeliversAllPatterns) {
  SyntheticExperimentConfig c = base_config();
  c.scheme = Scheme::kGFlov;
  c.pattern = GetParam();
  c.gated_fraction = 0.4;
  const RunResult r = run_synthetic(c);
  EXPECT_GT(r.packets_measured, 0u);
  EXPECT_GE(r.ejected_flits + 200, r.injected_flits);
}

INSTANTIATE_TEST_SUITE_P(Patterns, PatternSweep,
                         ::testing::Values("uniform", "tornado", "transpose",
                                           "bitcomplement", "neighbor",
                                           "hotspot"));

TEST(Integration, FlovLatencyBeatsRpUnderGating) {
  // The paper's headline latency claim at a moderate gating fraction.
  SyntheticExperimentConfig c = base_config();
  c.measure = 20000;
  c.gated_fraction = 0.4;
  c.scheme = Scheme::kRp;
  const double rp = run_synthetic(c).avg_latency;
  c.scheme = Scheme::kGFlov;
  const double gflov = run_synthetic(c).avg_latency;
  c.scheme = Scheme::kRFlov;
  const double rflov = run_synthetic(c).avg_latency;
  EXPECT_LT(gflov, rp);
  EXPECT_LT(rflov, rp);
}

TEST(Integration, GFlovStaticPowerBelowRpAndBaseline) {
  SyntheticExperimentConfig c = base_config();
  c.measure = 20000;
  c.gated_fraction = 0.5;
  c.scheme = Scheme::kBaseline;
  const double base = run_synthetic(c).power.static_mw;
  c.scheme = Scheme::kRp;
  const double rp = run_synthetic(c).power.static_mw;
  c.scheme = Scheme::kGFlov;
  const double gflov = run_synthetic(c).power.static_mw;
  EXPECT_LT(gflov, rp);
  EXPECT_LT(rp, base);
}

TEST(Integration, GFlovGatesEveryNonAonGatedCore) {
  SyntheticExperimentConfig c = base_config();
  c.gated_fraction = 0.5;
  c.scheme = Scheme::kGFlov;
  c.inj_rate_flits = 0.0;  // quiet network gates everything promptly
  const RunResult r = run_synthetic(c);
  // 32 gated cores; only those in the AON column cannot gate.
  const GatingScenario s = GatingScenario::uniform_fraction(
      MeshGeometry(8, 8), 0.5, c.seed);
  int expected = 0;
  MeshGeometry g(8, 8);
  for (NodeId n = 0; n < 64; ++n) {
    if (s.events()[0].gated[n] && !g.is_aon_column(n)) ++expected;
  }
  EXPECT_EQ(r.gated_routers_end, expected);
}

TEST(Integration, RFlovNeverSleepsAdjacentRouters) {
  NocParams p;
  p.width = 8;
  p.height = 8;
  FlovNetwork sys(p, FlovMode::kRestricted, EnergyParams{});
  MeshGeometry g(8, 8);
  const auto scen = GatingScenario::uniform_fraction(g, 0.7, 3);
  for (NodeId n = 0; n < 64; ++n) {
    if (scen.events()[0].gated[n]) sys.set_core_gated(n, true, 0);
  }
  Cycle now = 0;
  for (int i = 0; i < 5000; ++i) {
    sys.step(now++);
    if (i % 64 != 0) continue;
    for (NodeId n = 0; n < 64; ++n) {
      if (sys.hsc(n).state() != PowerState::kSleep) continue;
      for (Direction d : kMeshDirections) {
        const NodeId nb = g.neighbor(n, d);
        if (nb == kInvalidNode) continue;
        ASSERT_NE(sys.hsc(nb).state(), PowerState::kSleep)
            << "adjacent sleepers " << n << "," << nb << " at " << now;
      }
    }
  }
}

TEST(Integration, CreditConservationAfterDrainGFlov) {
  // After traffic drains, every powered router's output credits must be
  // back at full availability w.r.t. its logical neighbor's buffers.
  NocParams p;
  p.width = 8;
  p.height = 8;
  FlovNetwork sys(p, FlovMode::kGeneralized, EnergyParams{});
  MeshGeometry g(8, 8);
  const auto scen = GatingScenario::uniform_fraction(g, 0.4, 5);
  for (NodeId n = 0; n < 64; ++n) {
    if (scen.events()[0].gated[n]) sys.set_core_gated(n, true, 0);
  }
  Cycle now = 0;
  auto run = [&](int k) {
    for (int i = 0; i < k; ++i) sys.step(now++);
  };
  run(2000);
  // Random traffic burst.
  Rng rng(9);
  std::vector<bool> mask(64);
  for (NodeId n = 0; n < 64; ++n) mask[n] = !sys.core_gated(n);
  const ActiveCores active(mask);
  UniformPattern pat(g);
  for (int i = 0; i < 500; ++i) {
    const NodeId s = rng.next_below(64);
    if (!active[s]) continue;
    const NodeId d = pat.dest(s, active, rng);
    if (d == kInvalidNode) continue;
    PacketDescriptor pd;
    pd.src = s;
    pd.dest = d;
    pd.size_flits = 4;
    sys.network().enqueue(pd);
  }
  run(8000);
  ASSERT_TRUE(sys.network().idle());
  // Check: every pipeline router's mesh output credits equal the logical
  // downstream's buffer depth (all buffers empty when idle).
  for (NodeId n = 0; n < 64; ++n) {
    const Router& r = sys.network().router(n);
    if (r.mode() != RouterMode::kPipeline) continue;
    for (Direction d : kMeshDirections) {
      if (r.view().logical[dir_index(d)] == kInvalidNode) continue;
      // Skip if the logical neighbor is mid-transition.
      if (sys.hsc(r.view().logical[dir_index(d)]).state() !=
          PowerState::kActive) {
        continue;
      }
      const OutputPort& port = r.output_port(d);
      for (int v = 0; v < port.vcs.size(); ++v) {
        EXPECT_EQ(port.credits[v], p.buffer_depth)
            << "router " << n << " dir " << to_string(d);
        EXPECT_FALSE(port.vcs[v].allocated);
      }
    }
  }
}

TEST(Integration, Fig10TimelineShowsRpSpikesAndNotGFlov) {
  SyntheticExperimentConfig c = base_config();
  c.measure = 38000;
  c.gated_fraction = 0.1;
  c.gating_changes = {20000, 30000};
  c.timeline_window = 1000;
  c.scheme = Scheme::kRp;
  const RunResult rp = run_synthetic(c);
  c.scheme = Scheme::kGFlov;
  const RunResult gf = run_synthetic(c);
  const auto peak = [](const RunResult& r) {
    double p = 0;
    for (const auto& pt : r.metrics->all_series().at("latency.timeline")
                              .points()) {
      p = std::max(p, pt.mean);
    }
    return p;
  };
  const double rp_peak = peak(rp);
  const double gf_peak = peak(gf);
  ASSERT_GT(gf_peak, 0.0);
  // RP's reconfiguration stall produces a queuing spike well above
  // anything gFLOV experiences.
  EXPECT_GT(rp_peak, 2.0 * gf_peak);
}

}  // namespace
}  // namespace flov
