// Reproduces Figure 8(c,d): full-system evaluation over the nine
// PARSEC-like benchmark profiles — NoC static/total energy and runtime for
// Baseline / RP / rFLOV / gFLOV, plus the paper's headline averages:
// FLOV ~ -43% static energy vs Baseline, ~ -22% static and ~ -18% total
// energy vs RP, with ~1% performance degradation.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "cmp/cmp_system.hpp"
#include "common/config.hpp"
#include "sim/sweep.hpp"

int main(int argc, char** argv) try {
  using namespace flov;
  Config cfg;
  cfg.parse_args(argc, argv);
  const int jobs = static_cast<int>(cfg.get_int("jobs", 0));

  CmpConfig base;
  base.noc = NocParams::from_config(cfg, {});
  base.energy = EnergyParams::from_config(cfg, {});
  base.seed = cfg.get_int("seed", 1);
  reject_unread_keys(cfg);
  base.validate();

  const auto suite = BenchmarkProfile::parsec_suite();
  std::printf(
      "\n================================================================\n"
      "Fig. 8(c,d) — PARSEC-like full-system: energy & runtime (%dx%d, 3 "
      "vnets, MESI, 4 corner MCs)\n"
      "================================================================\n",
      base.noc.width, base.noc.height);
  std::printf("%-14s %-9s | %10s %12s %12s %9s\n", "benchmark", "scheme",
              "runtime", "static(uJ)", "total(uJ)", "gated@end");

  struct Norm {
    double static_e, total_e, runtime;
  };
  // [benchmark][scheme]
  std::vector<std::vector<Norm>> all;

  // 9 profiles x 4 schemes, each an independent full-system run.
  const int n_schemes = static_cast<int>(std::size(kAllSchemes));
  const int n_runs = static_cast<int>(suite.size()) * n_schemes;
  std::vector<CmpResult> results(static_cast<std::size_t>(n_runs));
  parallel_run(n_runs, jobs, [&](int i) {
    CmpConfig c = base;
    c.profile = suite[static_cast<std::size_t>(i / n_schemes)];
    c.scheme = kAllSchemes[i % n_schemes];
    results[static_cast<std::size_t>(i)] = run_cmp(c);
  });

  int idx = 0;
  for (const auto& prof : suite) {
    all.emplace_back();
    for (Scheme s : kAllSchemes) {
      (void)s;
      const CmpResult& r = results[static_cast<std::size_t>(idx++)];
      std::printf("%-14s %-9s | %10llu %12.2f %12.2f %9d\n",
                  prof.name.c_str(), r.scheme.c_str(),
                  static_cast<unsigned long long>(r.runtime),
                  r.power.static_energy_pj * 1e-6,
                  r.power.total_energy_pj * 1e-6, r.final_gated_cores);
      all.back().push_back(Norm{r.power.static_energy_pj,
                                r.power.total_energy_pj,
                                static_cast<double>(r.runtime)});
    }
    std::printf("\n");
  }

  // Scheme order: 0 Baseline, 1 RP, 2 rFLOV, 3 gFLOV. "FLOV" headline =
  // gFLOV (the paper's full-system FLOV configuration).
  auto geo_mean_ratio = [&](int a, int b, double Norm::*field) {
    double log_sum = 0;
    for (const auto& bench : all) {
      log_sum += std::log(bench[a].*field / bench[b].*field);
    }
    return std::exp(log_sum / all.size());
  };

  std::printf("---- headline averages (geometric mean over %zu benchmarks) "
              "----\n", all.size());
  std::printf("FLOV static energy vs Baseline : %+.1f%%  (paper: -43%%)\n",
              100.0 * (geo_mean_ratio(3, 0, &Norm::static_e) - 1.0));
  std::printf("FLOV static energy vs RP       : %+.1f%%  (paper: -22%%)\n",
              100.0 * (geo_mean_ratio(3, 1, &Norm::static_e) - 1.0));
  std::printf("FLOV total  energy vs RP       : %+.1f%%  (paper: -18%%)\n",
              100.0 * (geo_mean_ratio(3, 1, &Norm::total_e) - 1.0));
  std::printf("FLOV runtime vs Baseline       : %+.1f%%  (paper: ~+1%%)\n",
              100.0 * (geo_mean_ratio(3, 0, &Norm::runtime) - 1.0));
  std::printf("RP   runtime vs Baseline       : %+.1f%%\n",
              100.0 * (geo_mean_ratio(1, 0, &Norm::runtime) - 1.0));
  return 0;
} catch (const std::exception&) {
  return 1;  // flov::fatal already printed the message
}
