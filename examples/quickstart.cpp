// Quickstart: run all four schemes (Baseline, RP, rFLOV, gFLOV) on the
// paper's Table-I 8x8 mesh with uniform-random traffic and 50% of the
// cores power-gated, then print latency and power side by side.
//
// Usage: quickstart [key=value ...]
//   e.g. quickstart inj=0.04 gated=0.3 pattern=tornado cycles=50000
#include <cstdio>

#include "common/config.hpp"
#include "common/log.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace flov;
  Config cfg;
  cfg.parse_args(argc, argv);

  if (cfg.has("scheme")) {
    fatal(__FILE__, __LINE__,
          "quickstart runs every scheme; flov_sim_cli takes scheme=");
  }
  SyntheticExperimentConfig defaults;
  defaults.gated_fraction = 0.5;
  SyntheticExperimentConfig ex =
      SyntheticExperimentConfig::from_config(cfg, defaults);
  reject_unread_keys(cfg);

  std::printf("FLOV quickstart: %dx%d mesh, %s traffic, inj=%.3f "
              "flits/node/cycle, %.0f%% cores gated\n\n",
              ex.noc.width, ex.noc.height, ex.pattern.c_str(),
              ex.inj_rate_flits, 100.0 * ex.gated_fraction);
  std::printf("%-10s %12s %12s %12s %12s %10s %8s\n", "scheme", "avg lat",
              "static mW", "dynamic mW", "total mW", "pkts", "gated");

  for (Scheme s : kAllSchemes) {
    ex.scheme = s;
    const RunResult r = run_synthetic(ex);
    std::printf("%-10s %12.2f %12.2f %12.2f %12.2f %10llu %8d\n",
                r.scheme.c_str(), r.avg_latency, r.power.static_mw,
                r.power.dynamic_mw, r.power.total_mw,
                static_cast<unsigned long long>(r.packets_measured),
                r.gated_routers_end);
  }
  std::printf("\nLatency breakdown (cycles): router / link / serialization / "
              "contention / FLOV — see flov_sweep_cli "
              "spec=experiments/fig8ab.args for the sweep.\n");
  return 0;
}
