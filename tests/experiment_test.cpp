// Experiment-harness tests: determinism, configuration plumbing, builder
// behaviour, and cross-metric consistency of RunResult.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "flov/flov_network.hpp"
#include "sim/experiment.hpp"

namespace flov {
namespace {

SyntheticExperimentConfig quick() {
  SyntheticExperimentConfig c;
  c.warmup = 1000;
  c.measure = 5000;
  c.inj_rate_flits = 0.02;
  c.gated_fraction = 0.3;
  return c;
}

TEST(Builder, ProducesEverySchemeWithPowerTracker) {
  for (Scheme s : kAllSchemes) {
    BuiltSystem b = build_system(s, NocParams{}, EnergyParams{});
    ASSERT_NE(b.system, nullptr);
    ASSERT_NE(b.power, nullptr);
    EXPECT_STREQ(b.system->name(), to_string(s));
  }
}

// NocSystem::power_state is the harness's one view of a scheme's power FSM:
// empty where there is none, the HSC's state on FLOV — checked every cycle
// while every core gates and half of them wake again.
TEST(Builder, PowerStateIsEmptyWithoutAnFsmAndTheHscStateOnFlov) {
  NocParams p;
  p.width = 4;
  p.height = 4;
  for (Scheme s : kAllSchemes) {
    SCOPED_TRACE(to_string(s));
    BuiltSystem b = build_system(s, p, EnergyParams{});
    NocSystem& sys = *b.system;
    const auto* flov = dynamic_cast<const FlovNetwork*>(&sys);
    const int n = sys.network().num_nodes();
    int not_active = 0;
    for (Cycle now = 0; now < 400; ++now) {
      for (NodeId id = 0; id < n; ++id) {
        if (now == 10) sys.set_core_gated(id, true, now);
        if (now == 200 && id % 2 == 0) sys.set_core_gated(id, false, now);
      }
      sys.step(now);
      for (NodeId id = 0; id < n; ++id) {
        const std::optional<PowerState> ps = sys.power_state(id);
        if (flov == nullptr) {
          ASSERT_FALSE(ps.has_value()) << "router " << id;
          continue;
        }
        ASSERT_TRUE(ps.has_value()) << "router " << id;
        ASSERT_EQ(*ps, flov->hsc(id).state()) << "router " << id;
        not_active += *ps != PowerState::kActive;
      }
    }
    if (flov != nullptr) {
      EXPECT_GT(not_active, 0);
    } else {
      EXPECT_EQ(sys.gated_router_count(), 0);
    }
  }
}

TEST(Builder, SchemeNamesRoundTrip) {
  for (Scheme s : kAllSchemes) {
    EXPECT_EQ(scheme_from_string(to_string(s)), s);
  }
  EXPECT_EQ(scheme_from_string("gflov"), Scheme::kGFlov);
  EXPECT_THROW(scheme_from_string("nope"), std::logic_error);
}

TEST(Experiment, DeterministicPerSeed) {
  SyntheticExperimentConfig c = quick();
  c.scheme = Scheme::kGFlov;
  const RunResult a = run_synthetic(c);
  const RunResult b = run_synthetic(c);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_DOUBLE_EQ(a.avg_latency, b.avg_latency);
  EXPECT_DOUBLE_EQ(a.power.total_energy_pj, b.power.total_energy_pj);
  c.seed = 99;
  const RunResult d = run_synthetic(c);
  EXPECT_NE(a.packets_measured, d.packets_measured);
}

TEST(Experiment, ZeroGatingMatchesSchemesOnLatency) {
  // Without gating, rFLOV/gFLOV behave as the baseline network (plus the
  // inert FLOV hardware); their latencies must match Baseline exactly
  // under the same seed.
  SyntheticExperimentConfig c = quick();
  c.gated_fraction = 0.0;
  c.scheme = Scheme::kBaseline;
  const double base = run_synthetic(c).avg_latency;
  c.scheme = Scheme::kGFlov;
  EXPECT_DOUBLE_EQ(run_synthetic(c).avg_latency, base);
  c.scheme = Scheme::kRFlov;
  EXPECT_DOUBLE_EQ(run_synthetic(c).avg_latency, base);
}

TEST(Experiment, BreakdownSumsToAverageLatency) {
  SyntheticExperimentConfig c = quick();
  for (Scheme s : kAllSchemes) {
    c.scheme = s;
    const RunResult r = run_synthetic(c);
    EXPECT_NEAR(r.breakdown.total(), r.avg_latency, 1e-6) << to_string(s);
  }
}

TEST(Experiment, HigherInjectionRaisesDynamicPower) {
  SyntheticExperimentConfig c = quick();
  c.scheme = Scheme::kBaseline;
  c.inj_rate_flits = 0.02;
  const double low = run_synthetic(c).power.dynamic_mw;
  c.inj_rate_flits = 0.08;
  const double high = run_synthetic(c).power.dynamic_mw;
  EXPECT_GT(high, 2.5 * low);
}

TEST(Experiment, StaticPowerIndependentOfInjectionForGFlov) {
  SyntheticExperimentConfig c = quick();
  c.scheme = Scheme::kGFlov;
  c.measure = 15000;
  c.inj_rate_flits = 0.02;
  const double a = run_synthetic(c).power.static_mw;
  c.inj_rate_flits = 0.08;
  const double b = run_synthetic(c).power.static_mw;
  // The gated-router set depends only on the gating configuration
  // (paper: "injection rate and workload independent"); tiny deviations
  // come from wakeup transients only.
  EXPECT_NEAR(a, b, 0.05 * a);
}

TEST(Experiment, NocParamsFromConfigRoundTrip) {
  Config cfg;
  cfg.set("noc.width", 6ll);
  cfg.set("noc.height", 4ll);
  cfg.set("noc.buffer_depth", 8ll);
  cfg.set("noc.packet_size", 2ll);
  cfg.set("noc.deadlock_timeout", 64ll);
  const NocParams p = NocParams::from_config(cfg, {});
  EXPECT_EQ(p.width, 6);
  EXPECT_EQ(p.height, 4);
  EXPECT_EQ(p.buffer_depth, 8);
  EXPECT_EQ(p.packet_size, 2);
  EXPECT_EQ(p.deadlock_timeout, 64u);
  EXPECT_EQ(p.vcs_per_vnet, 4);  // untouched default
}

// On an empty Config, from_config returns a binary's defaults unchanged.
// The config fingerprint covers every field but the energy model and
// the volatile step/trace knobs, which are checked directly.
TEST(Experiment, FromConfigOnEmptyConfigReturnsTheDefaults) {
  SyntheticExperimentConfig d = quick();
  d.noc.width = 6;
  d.noc.reliable = true;
  d.noc.step_threads = 3;
  d.energy.link_pj = 9.5;
  d.gating_changes = {300, 400};
  d.drain_max = 789;
  d.faults.seed = 17;
  d.verifier.fatal = false;
  d.telemetry.trace_mask = 5;
  const auto r = SyntheticExperimentConfig::from_config(Config{}, d);
  EXPECT_EQ(sweep_point_fingerprint(r), sweep_point_fingerprint(d));
  EXPECT_EQ(r.energy.link_pj, 9.5);
  EXPECT_EQ(r.noc.step_threads, 3);
  EXPECT_EQ(r.telemetry.trace_mask, 5u);
}

// The shared keys land in their fields, and a manifest's config drops the
// plumbing keys and echoes every resolved fault knob.
TEST(Experiment, FromConfigReadsTheSharedKeys) {
  const char* argv[] = {"prog", "threads=2", "cycles=20", "changes=12,15",
                        "fault.seed=8", "jobs=4", "scheme=rp",
                        "pattern=tornado", "inj=0.07", "gated=0.25",
                        "seed=9"};
  Config cfg;
  cfg.parse_args(11, const_cast<char**>(argv));
  const auto r = SyntheticExperimentConfig::from_config(cfg, {});
  EXPECT_EQ(cfg.unread_keys(), std::vector<std::string>{"jobs"});
  EXPECT_EQ(r.noc.step_threads, 2);
  EXPECT_EQ(r.measure, 20u);
  EXPECT_EQ(r.gating_changes, (std::vector<Cycle>{12, 15}));
  EXPECT_EQ(r.scheme, Scheme::kRp);
  EXPECT_EQ(r.pattern, "tornado");
  EXPECT_EQ(r.inj_rate_flits, 0.07);
  EXPECT_EQ(r.gated_fraction, 0.25);
  EXPECT_EQ(r.seed, 9u);
  const Config m = manifest_config(cfg, r);
  // changes, cycles, the five axes + 14 fault knobs
  EXPECT_EQ(m.keys().size(), 21u);
  EXPECT_EQ(m.get_int("fault.seed"), 8);
}

// sim.max_cycles_hard stops the run at the cap with one hard_cycle_cap
// incident, whether the cap falls in the measurement window or the drain.
TEST(Experiment, HardCycleCapFiresInMeasureAndDrain) {
  for (const Cycle cap : {Cycle{300}, Cycle{501}}) {
    SyntheticExperimentConfig c = quick();
    c.noc.width = 4;
    c.noc.height = 4;
    c.inj_rate_flits = 0.1;  // flits still in flight when the window ends
    c.warmup = 100;
    c.measure = 400;  // the drain starts at cycle 500
    c.drain_max = 1000;
    c.max_cycles_hard = cap;
    const RunResult r = run_synthetic(c);
    SCOPED_TRACE(cap);
    EXPECT_TRUE(r.aborted);
    EXPECT_EQ(r.cycles_run, cap);
    ASSERT_TRUE(r.incidents);
    ASSERT_EQ(r.incidents->records().size(), 1u);
    const std::string& rec = r.incidents->records()[0];
    EXPECT_NE(rec.find("\"kind\":\"hard_cycle_cap\""), std::string::npos)
        << rec;
    EXPECT_NE(rec.find("\"cycle\":" + std::to_string(cap)), std::string::npos)
        << rec;
  }
}

TEST(Experiment, InvalidNocParamsRejected) {
  Config cfg;
  cfg.set("noc.width", 1ll);
  EXPECT_THROW(NocParams::from_config(cfg, {}), std::logic_error);
  Config cfg2;
  cfg2.set("noc.escape_vc", 9ll);
  EXPECT_THROW(NocParams::from_config(cfg2, {}), std::logic_error);
  // Buffer lengths and credits are one-byte cells.
  Config deep;
  deep.set("noc.buffer_depth", 128ll);
  EXPECT_THROW(NocParams::from_config(deep, {}), std::logic_error);
  deep.set("noc.buffer_depth", 127ll);
  EXPECT_EQ(NocParams::from_config(deep, {}).buffer_depth, 127);
}

TEST(Experiment, TimelineOnlyWhenRequested) {
  SyntheticExperimentConfig c = quick();
  const RunResult off = run_synthetic(c);
  EXPECT_EQ(off.metrics->all_series().count("latency.timeline"), 0u);
  c.timeline_window = 500;
  const RunResult on = run_synthetic(c);
  const TimeSeries& ts = on.metrics->all_series().at("latency.timeline");
  EXPECT_EQ(ts.window(), 500u);
  EXPECT_FALSE(ts.points().empty());
}

TEST(Experiment, GatedRoutersMonotoneInFractionForGFlov) {
  SyntheticExperimentConfig c = quick();
  c.scheme = Scheme::kGFlov;
  int prev = -1;
  for (double f : {0.0, 0.3, 0.6}) {
    c.gated_fraction = f;
    const RunResult r = run_synthetic(c);
    EXPECT_GE(r.gated_routers_end, prev);
    prev = r.gated_routers_end;
  }
}

}  // namespace
}  // namespace flov
