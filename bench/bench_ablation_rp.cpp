// Router Parking ablations: parking policy (aggressive vs conservative)
// and Phase-I reconfiguration latency (how much of RP's Fig.-10 spike is
// the stall itself).
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/config.hpp"
#include "rp/rp_network.hpp"
#include "sim/latency_stats.hpp"
#include "sim/sweep.hpp"
#include "traffic/gating_scenario.hpp"
#include "traffic/synthetic_traffic.hpp"
#include "traffic/traffic_pattern.hpp"

namespace {

using namespace flov;

struct RpRun {
  double avg_latency = 0.0;
  double peak_window = 0.0;
  double static_mw = 0.0;
  int parked = 0;
};

RpRun run_rp(FabricManagerConfig fm, double gated, Cycle measure,
             const std::vector<Cycle>& changes) {
  NocParams p;
  RpNetwork sys(p, EnergyParams{}, fm);
  MeshGeometry g(p.width, p.height);
  auto pattern = TrafficPattern::create("uniform", g);
  SyntheticTraffic traffic(&sys, pattern.get(), 0.02, p.packet_size, 77);
  GatingScenario scen =
      changes.empty() ? GatingScenario::uniform_fraction(g, gated, 5)
                      : GatingScenario::epochs(g, gated, changes, 5);
  LatencyStats stats(3, 1000);
  stats.set_measure_from(10000);
  sys.network().set_eject_callback(
      [&](const PacketRecord& r) { stats.record(r); });
  const Cycle total = 10000 + measure;
  for (Cycle now = 0; now < total; ++now) {
    scen.apply(sys, now);
    traffic.step(now);
    sys.step(now);
    if (now == 10000) sys.power().begin_window(now);
  }
  RpRun out;
  out.avg_latency = stats.avg_latency();
  if (const TimeSeries* ts = stats.timeline()) {
    for (const auto& pt : ts->points()) {
      out.peak_window = std::max(out.peak_window, pt.mean);
    }
  }
  out.static_mw = sys.power().report(total).static_mw;
  out.parked = sys.parked_router_count();
  return out;
}

void print_header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flov;
  Config cfg;
  cfg.parse_args(argc, argv);
  const Cycle measure = cfg.get_int("cycles", 40000);
  const int jobs = static_cast<int>(cfg.get_int("jobs", 0));
  reject_unread_keys(cfg);

  // Each run builds its own RpNetwork, so the cells are independent; run
  // them all on the pool, print in order afterwards.
  const RpPolicy policies[] = {RpPolicy::kAggressive, RpPolicy::kConservative};
  const Cycle phase1s[] = {200, 750, 1500, 3000};
  std::vector<RpRun> runs(2 + 4);
  parallel_run(static_cast<int>(runs.size()), jobs, [&](int i) {
    FabricManagerConfig fm;
    if (i < 2) {
      fm.policy = policies[i];
      runs[i] = run_rp(fm, 0.5, measure, {});
    } else {
      fm.phase1_latency = phase1s[i - 2];
      runs[i] = run_rp(fm, 0.1, measure, {20000, 30000});
    }
  });

  print_header("RP ablation — parking policy at 50% gated cores");
  std::printf("%-14s %12s %12s %8s\n", "policy", "avg latency", "static mW",
              "parked");
  for (int i = 0; i < 2; ++i) {
    const RpRun& r = runs[i];
    std::printf("%-14s %12.2f %12.2f %8d\n",
                policies[i] == RpPolicy::kAggressive ? "aggressive"
                                                     : "conservative",
                r.avg_latency, r.static_mw, r.parked);
  }

  print_header("RP ablation — Phase-I latency vs reconfiguration spike");
  std::printf("%-14s %12s %14s\n", "phase1", "avg latency", "peak window");
  for (int i = 0; i < 4; ++i) {
    const RpRun& r = runs[2 + i];
    std::printf("%-14llu %12.2f %14.2f\n",
                static_cast<unsigned long long>(phase1s[i]), r.avg_latency,
                r.peak_window);
  }
  return 0;
}
