// Reproduces Figure 8(a,b): average packet latency broken into accumulated
// router latency (hops x 3-cycle pipeline), link latency, serialization,
// contention, and FLOV latency (latch hops), for Uniform Random and Tornado
// traffic as the fraction of power-gated cores grows.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace flov;
  using namespace flov::bench;
  BenchArgs args(argc, argv);
  reject_unread_keys(args.cfg);
  SyntheticExperimentConfig ex = args.ex;
  ex.inj_rate_flits = 0.02;
  const double fractions[] = {0.2, 0.4, 0.6, 0.8};

  for (const char* pattern : {"uniform", "tornado"}) {
    ex.pattern = pattern;
    std::vector<SyntheticExperimentConfig> points;
    for (Scheme s : kAllSchemes) {
      ex.scheme = s;
      for (double f : fractions) {
        ex.gated_fraction = f;
        points.push_back(ex);
      }
    }
    const std::vector<RunResult> results = run_sweep(points, args.sweep);

    char title[160];
    std::snprintf(title, sizeof(title),
                  "Fig. 8(%s) — latency breakdown, %s traffic, inj 0.02",
                  std::string(pattern) == "uniform" ? "a" : "b", pattern);
    print_header(title);
    std::printf("%-10s %-8s | %8s %8s %8s %8s %8s | %8s\n", "scheme",
                "gated%", "router", "link", "serial", "content", "flov",
                "total");
    std::size_t idx = 0;
    for (Scheme s : kAllSchemes) {
      (void)s;
      for (double f : fractions) {
        const RunResult& r = results[idx++];
        const LatencyBreakdown& b = r.breakdown;
        std::printf("%-10s %-8.0f | %8.2f %8.2f %8.2f %8.2f %8.2f | %8.2f\n",
                    r.scheme.c_str(), f * 100, b.router, b.link,
                    b.serialization, b.contention, b.flov, r.avg_latency);
      }
      std::printf("\n");
    }
  }
  return 0;
}
