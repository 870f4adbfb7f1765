// Power-management design-space exploration: sweep the power-gated core
// fraction for one scheme/pattern and report latency, latency breakdown,
// power, and how many routers the scheme actually managed to gate.
//
// Usage: gating_sweep [scheme=gflov] [pattern=uniform] [inj=0.02]
//                     [steps=9] [seed=1]
#include <cstdio>

#include "common/config.hpp"
#include "common/log.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace flov;
  Config cfg;
  cfg.parse_args(argc, argv);

  if (cfg.has("gated")) {
    fatal(__FILE__, __LINE__,
          "gating_sweep sweeps the gated fraction itself; use steps=");
  }
  SyntheticExperimentConfig defaults;
  defaults.measure = 40000;
  defaults.scheme = Scheme::kGFlov;
  SyntheticExperimentConfig ex =
      SyntheticExperimentConfig::from_config(cfg, defaults);
  const int steps = static_cast<int>(cfg.get_int("steps", 9));
  reject_unread_keys(cfg);

  std::printf("Gating sweep — %s, %s traffic, inj=%.3f flits/node/cycle\n\n",
              to_string(ex.scheme), ex.pattern.c_str(), ex.inj_rate_flits);
  std::printf("%-7s %9s | %7s %7s %7s %7s %7s | %9s %9s %6s %7s\n", "gated%",
              "latency", "router", "link", "serial", "cntn", "flov",
              "static_mW", "total_mW", "gated", "escapes");
  for (int i = 0; i < steps; ++i) {
    ex.gated_fraction = i * 0.1;
    const RunResult r = run_synthetic(ex);
    std::printf(
        "%-7.0f %9.2f | %7.2f %7.2f %7.2f %7.2f %7.2f | %9.2f %9.2f %6d "
        "%7llu\n",
        ex.gated_fraction * 100, r.avg_latency, r.breakdown.router,
        r.breakdown.link, r.breakdown.serialization, r.breakdown.contention,
        r.breakdown.flov, r.power.static_mw, r.power.total_mw,
        r.gated_routers_end,
        static_cast<unsigned long long>(r.escape_packets));
  }
  std::printf("\nColumns: latency breakdown per Fig. 8 (router pipeline, "
              "links incl. NI, serialization, contention, FLOV latches).\n");
  return 0;
}
