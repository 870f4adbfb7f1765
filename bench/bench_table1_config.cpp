// Prints the simulation testbed parameters (Table I) as realized by the
// default configuration, for verification against the paper.
#include <cstdio>

#include "common/config.hpp"
#include "noc/noc_params.hpp"
#include "power/energy_model.hpp"

int main(int argc, char** argv) {
  using namespace flov;
  Config cfg;
  cfg.parse_args(argc, argv);
  reject_unread_keys(cfg);  // takes no keys: it prints the defaults
  const NocParams p;
  const EnergyParams e;
  std::printf("Table I — simulation testbed parameters\n");
  std::printf("%-28s %dx%d mesh\n", "Network topology", p.width, p.height);
  std::printf("%-28s %d flits\n", "Input buffer depth", p.buffer_depth);
  std::printf("%-28s 3-stage (3 cycles) + 1-cycle link\n", "Router");
  std::printf("%-28s %d regular + %d escape VC per vnet\n", "Virtual channels",
              p.vcs_per_vnet - 1, 1);
  std::printf("%-28s %d (synthetic) / 3 (full-system)\n", "Virtual networks",
              p.num_vnets);
  std::printf("%-28s %d flits/packet (synthetic)\n", "Packet size",
              p.packet_size);
  std::printf("%-28s 32 KB L1, 8 MB L2 (4 corner banks), MESI, 4 MCs\n",
              "Memory hierarchy");
  std::printf("%-28s 32 nm\n", "Technology");
  std::printf("%-28s %.1f GHz\n", "Clock frequency", e.clock_freq_ghz);
  std::printf("%-28s 1 mm, %llu cycle, 16 B width\n", "Link",
              static_cast<unsigned long long>(p.link_latency));
  std::printf("%-28s overhead %.1f pJ, wakeup %llu cycles\n",
              "Power gating", e.pg_transition_pj,
              static_cast<unsigned long long>(p.wakeup_latency));
  std::printf("%-28s YX routing\n", "Baseline routing");
  std::printf("%-28s %llu-cycle head-of-line wait -> escape VC\n",
              "Deadlock recovery",
              static_cast<unsigned long long>(p.deadlock_timeout));
  return 0;
}
