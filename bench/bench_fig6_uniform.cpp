// Reproduces Figure 6: average latency, dynamic power, and total power for
// Uniform Random traffic at injection rates 0.02 and 0.08 flits/node/cycle,
// sweeping the fraction of power-gated cores from 0% to 80%, for
// Baseline / RP / rFLOV / gFLOV on the Table-I 8x8 mesh.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace flov;
  using namespace flov::bench;
  BenchArgs args(argc, argv);
  args.ex.pattern = "uniform";
  CsvSink csv(args.cfg, kCsvHeader);
  ManifestSink manifest(args, "fig6");
  reject_unread_keys(args.cfg);
  std::vector<SyntheticExperimentConfig> points;
  std::vector<RunResult> results;
  run_load_figure(args.ex, "fig6", "fig6 — uniform traffic", csv, args.sweep,
                  &points, &results);
  manifest.write(points, results);
  return 0;
}
