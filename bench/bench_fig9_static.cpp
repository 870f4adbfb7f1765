// Reproduces Figure 9: static power consumption vs the fraction of
// power-gated cores. Static power is workload-independent for rFLOV/gFLOV
// (the gated-router set depends only on the gating configuration and the
// protocol restrictions) and we compare against RP's aggressive policy, as
// the paper does. Expected shape: gFLOV lowest and diverging from RP as
// gating grows; rFLOV saturates (adjacency restriction) and crosses ABOVE
// RP at high fractions; Baseline flat.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace flov;
  using namespace flov::bench;
  // Static power does not depend on traffic; a light load and a shorter
  // default window settle the handshakes and keep this bench fast.
  SyntheticExperimentConfig defaults;
  defaults.measure = 30000;
  BenchArgs args(argc, argv, defaults);
  CsvSink csv(args.cfg, kCsvHeader);
  reject_unread_keys(args.cfg);
  SyntheticExperimentConfig ex = args.ex;
  ex.pattern = "uniform";
  ex.inj_rate_flits = 0.005;

  const auto fractions = gating_fractions();
  std::vector<SyntheticExperimentConfig> points;
  for (double f : fractions) {
    ex.gated_fraction = f;
    for (int si = 0; si < 4; ++si) {
      ex.scheme = kAllSchemes[si];
      points.push_back(ex);
    }
  }
  const std::vector<RunResult> results = run_sweep(points, args.sweep);

  print_header("Fig. 9 — static power (mW) vs fraction of power-gated cores");
  std::printf("%-8s %10s %10s %10s %10s | %s\n", "gated%", "Baseline", "RP",
              "rFLOV", "gFLOV", "gated routers (RP/rFLOV/gFLOV)");
  for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
    const double f = fractions[fi];
    double vals[4];
    int gated[4];
    for (int si = 0; si < 4; ++si) {
      const RunResult& r = results[fi * 4 + si];
      csv_run_row(csv, "fig9", ex.pattern.c_str(), ex.inj_rate_flits, f, r);
      vals[si] = r.power.static_mw;
      gated[si] = r.gated_routers_end;
    }
    std::printf("%-8.0f %10.2f %10.2f %10.2f %10.2f | %d / %d / %d\n",
                f * 100, vals[0], vals[1], vals[2], vals[3], gated[1],
                gated[2], gated[3]);
  }
  return 0;
}
