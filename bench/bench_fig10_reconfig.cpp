// Reproduces Figure 10: average packet latency across the execution
// timeline when the power-gating configuration changes at 50,000 and
// 60,000 cycles (Uniform Random, 0.02 flits/node/cycle, 10% cores gated).
// RP must show reconfiguration stalls (>700-cycle Phase I, seen as queuing
// spikes at the change points); gFLOV reconfigures distributedly and shows
// no such spikes.
#include <algorithm>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace flov;
  using namespace flov::bench;
  SyntheticExperimentConfig defaults;
  defaults.measure = 80000;  // total 90k: changes at 50k and 60k are inside
  defaults.gating_changes = {50000, 60000};
  defaults.timeline_window = 1000;
  BenchArgs args(argc, argv, defaults);
  reject_unread_keys(args.cfg);
  SyntheticExperimentConfig ex = args.ex;
  ex.pattern = "uniform";
  ex.inj_rate_flits = 0.02;
  ex.gated_fraction = 0.10;

  std::vector<SyntheticExperimentConfig> points;
  ex.scheme = Scheme::kRp;
  points.push_back(ex);
  ex.scheme = Scheme::kGFlov;
  points.push_back(ex);
  const std::vector<RunResult> results = run_sweep(points, args.sweep);
  const RunResult& rp = results[0];
  const RunResult& gf = results[1];

  print_header(
      "Fig. 10 — latency timeline around reconfigurations (changes at 50k, "
      "60k)");
  std::printf("%-12s %12s %12s\n", "cycle", "RP", "gFLOV");
  // Merge the two (identically windowed) series.
  std::size_t i = 0, j = 0;
  while (i < rp.timeline.size() || j < gf.timeline.size()) {
    const Cycle ci =
        i < rp.timeline.size() ? rp.timeline[i].window_start : kNeverCycle;
    const Cycle cj =
        j < gf.timeline.size() ? gf.timeline[j].window_start : kNeverCycle;
    const Cycle c = std::min(ci, cj);
    std::printf("%-12llu", static_cast<unsigned long long>(c));
    if (ci == c) {
      std::printf(" %12.2f", rp.timeline[i++].mean);
    } else {
      std::printf(" %12s", "-");
    }
    if (cj == c) {
      std::printf(" %12.2f", gf.timeline[j++].mean);
    } else {
      std::printf(" %12s", "-");
    }
    std::printf("\n");
  }

  double rp_peak = 0, gf_peak = 0;
  for (const auto& p : rp.timeline) rp_peak = std::max(rp_peak, p.mean);
  for (const auto& p : gf.timeline) gf_peak = std::max(gf_peak, p.mean);
  std::printf("\npeak windowed latency: RP %.1f cycles vs gFLOV %.1f cycles\n",
              rp_peak, gf_peak);
  std::printf("(RP Phase-I reconfiguration stall is >700 cycles; packets "
              "generated during the stall show it as queuing delay)\n");
  return 0;
}
