// Reproduces Figure 7: the Fig. 6 panels under Tornado traffic. The paper's
// key observation here: rFLOV/gFLOV *beat even the Baseline* because a large
// share of tornado traffic travels within a row and FLOV links replace the
// 3-cycle router pipeline with a 1-cycle latch at gated intermediates.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace flov;
  using namespace flov::bench;
  BenchArgs args(argc, argv);
  args.ex.pattern = "tornado";
  CsvSink csv(args.cfg, kCsvHeader);
  reject_unread_keys(args.cfg);
  run_load_figure(args.ex, "fig7", "Fig. 7 — Tornado traffic", csv,
                  args.sweep, nullptr, nullptr);
  return 0;
}
