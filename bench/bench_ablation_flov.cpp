// Ablation studies for the FLOV design choices DESIGN.md calls out:
//   (a) wakeup latency (Table I: 10 cycles) under reconfiguration churn,
//   (b) deadlock-recovery timeout (escape-VC diversion threshold),
//   (c) escape sub-network disabled entirely (expected: possible deadlock,
//       caught by the harness watchdog — demonstrating why Duato recovery
//       is part of the design),
//   (d) input buffer depth,
//   (e) drain idle threshold (how eagerly routers chase their gated cores).
#include <exception>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace flov;
  using namespace flov::bench;
  SyntheticExperimentConfig defaults;
  defaults.measure = 30000;
  BenchArgs args(argc, argv, defaults);
  reject_unread_keys(args.cfg);
  SyntheticExperimentConfig base = args.ex;
  base.scheme = Scheme::kGFlov;
  base.pattern = "uniform";
  base.inj_rate_flits = 0.04;
  base.gated_fraction = 0.5;

  const Cycle wakeups[] = {5, 10, 20, 50};
  const Cycle timeouts[] = {16, 64, 128, 512};
  const int depths[] = {2, 4, 6, 8};
  const Cycle thresholds[] = {4, 16, 64, 256};

  // Ablations (a), (b), (d), (e) are one pooled sweep; (c) stays apart —
  // it EXPECTS a watchdog abort, and the point-order-deterministic rethrow
  // would otherwise mask or reorder that failure against real ones.
  std::vector<SyntheticExperimentConfig> points;
  for (Cycle w : wakeups) {
    SyntheticExperimentConfig c = base;
    c.noc.wakeup_latency = w;
    c.gating_changes = {15000, 20000, 25000, 30000};
    points.push_back(c);
  }
  for (Cycle t : timeouts) {
    SyntheticExperimentConfig c = base;
    c.noc.deadlock_timeout = t;
    c.inj_rate_flits = 0.08;
    c.gated_fraction = 0.6;
    points.push_back(c);
  }
  for (int d : depths) {
    SyntheticExperimentConfig c = base;
    c.noc.buffer_depth = d;
    points.push_back(c);
  }
  for (Cycle t : thresholds) {
    SyntheticExperimentConfig c = base;
    c.noc.drain_idle_threshold = t;
    points.push_back(c);
  }
  const std::vector<RunResult> results = run_sweep(points, args.sweep);
  std::size_t idx = 0;

  print_header("Ablation (a) — wakeup latency, gFLOV with gating churn");
  std::printf("%-16s %12s %12s\n", "wakeup (cycles)", "avg latency",
              "total mW");
  for (Cycle w : wakeups) {
    const RunResult& r = results[idx++];
    std::printf("%-16llu %12.2f %12.2f\n",
                static_cast<unsigned long long>(w), r.avg_latency,
                r.power.total_mw);
  }

  print_header("Ablation (b) — deadlock-recovery timeout (escape threshold)");
  std::printf("%-16s %12s %14s\n", "timeout", "avg latency", "escape pkts");
  for (Cycle t : timeouts) {
    const RunResult& r = results[idx++];
    std::printf("%-16llu %12.2f %14llu\n",
                static_cast<unsigned long long>(t), r.avg_latency,
                static_cast<unsigned long long>(r.escape_packets));
  }

  print_header("Ablation (c) — escape sub-network disabled");
  {
    SyntheticExperimentConfig c = base;
    c.noc.enable_escape_diversion = false;
    c.inj_rate_flits = 0.10;
    c.gated_fraction = 0.7;
    c.noc.buffer_depth = 2;
    c.watchdog = 20000;
    try {
      const RunResult r = run_synthetic(c);
      std::printf("survived without escape: latency %.2f (load too light "
                  "to deadlock this seed)\n",
                  r.avg_latency);
    } catch (const std::exception& e) {
      std::printf("DEADLOCK detected by watchdog, as expected — the escape "
                  "sub-network is load-bearing.\n  (%s)\n", e.what());
    }
  }

  print_header("Ablation (d) — input buffer depth");
  std::printf("%-16s %12s %12s\n", "depth (flits)", "avg latency",
              "static mW");
  for (int d : depths) {
    const RunResult& r = results[idx++];
    std::printf("%-16d %12.2f %12.2f\n", d, r.avg_latency,
                r.power.static_mw);
  }

  print_header("Ablation (e) — drain idle threshold");
  std::printf("%-16s %12s %12s %8s\n", "threshold", "avg latency",
              "static mW", "gated");
  for (Cycle t : thresholds) {
    const RunResult& r = results[idx++];
    std::printf("%-16llu %12.2f %12.2f %8d\n",
                static_cast<unsigned long long>(t), r.avg_latency,
                r.power.static_mw, r.gated_routers_end);
  }
  return 0;
}
