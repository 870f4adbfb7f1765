// Full-system example: run one PARSEC-like benchmark profile over the CMP
// substrate (64 cores, MESI directory coherence, 3 vnets, 4 corner MCs) on
// a chosen power-gating scheme, and report runtime / energy / traffic.
//
// Usage: parsec_workload [bench=canneal] [scheme=gflov] [seed=1]
#include <cstdio>

#include "cmp/cmp_system.hpp"
#include "common/config.hpp"

int main(int argc, char** argv) {
  using namespace flov;
  Config cfg;
  cfg.parse_args(argc, argv);

  CmpConfig c;
  c.noc = NocParams::from_config(cfg, {});
  c.energy = EnergyParams::from_config(cfg, {});
  c.profile = BenchmarkProfile::by_name(cfg.get_string("bench", "canneal"));
  c.scheme = scheme_from_string(cfg.get_string("scheme", "gflov"));
  c.seed = cfg.get_int("seed", 1);
  reject_unread_keys(cfg);

  std::printf("Running %s on %s (%dx%d mesh, 3 vnets, 4 corner MCs)...\n",
              c.profile.name.c_str(), to_string(c.scheme), c.noc.width,
              c.noc.height);
  const CmpResult r = run_cmp(c);

  std::printf("\n  runtime          : %llu cycles (drained at %llu)\n",
              (unsigned long long)r.runtime, (unsigned long long)r.drained);
  std::printf("  NoC power        : %.2f mW static, %.2f mW dynamic\n",
              r.power.static_mw, r.power.dynamic_mw);
  std::printf("  NoC energy       : %.2f uJ total (%.2f uJ static)\n",
              r.power.total_energy_pj * 1e-6, r.power.static_energy_pj * 1e-6);
  std::printf("  packets          : %llu, avg latency %.2f cycles\n",
              (unsigned long long)r.packets, r.avg_pkt_latency);
  std::printf("  L1 hits/misses   : %llu / %llu\n",
              (unsigned long long)r.l1_hits, (unsigned long long)r.l1_misses);
  std::printf("  dir transactions : %llu (L2 misses %llu)\n",
              (unsigned long long)r.dir_transactions,
              (unsigned long long)r.l2_misses);
  std::printf("  cores gated at end: %d\n", r.final_gated_cores);
  return 0;
}
