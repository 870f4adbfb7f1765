// Protocol walkthrough in the spirit of the paper's Fig. 3: gate a core on
// a small mesh, trace its router's power-state transitions, the neighbors'
// PSR views, and the credit handover; then wake it with a packet destined
// to the sleeping core and watch the wakeup handshake.
//
// Usage: protocol_trace [mode=gflov|rflov]
#include <cstdio>
#include <string>

#include "common/config.hpp"
#include "flov/flov_network.hpp"

using namespace flov;

namespace {

void print_row(FlovNetwork& sys, Cycle now, NodeId focus) {
  const Router& r = sys.network().router(focus);
  const NeighborhoodView& v = r.view();
  std::printf("cycle %-5llu | router %d: %-8s | west nbr PSR[E]=%s "
              "logical[E]=%d credits[E][vc0]=%d\n",
              static_cast<unsigned long long>(now), focus,
              to_string(sys.hsc(focus).state()),
              to_string(sys.network()
                            .router(focus - 1)
                            .view()
                            .physical[dir_index(Direction::East)]),
              sys.network()
                  .router(focus - 1)
                  .view()
                  .logical[dir_index(Direction::East)],
              sys.network()
                  .router(focus - 1)
                  .output_port(Direction::East)
                  .credits[0]);
  (void)v;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  cfg.parse_args(argc, argv);
  const std::string mode_s = cfg.get_string("mode", "gflov");
  const FlovMode mode =
      mode_s == "rflov" ? FlovMode::kRestricted : FlovMode::kGeneralized;
  reject_unread_keys(cfg);

  NocParams p;
  p.width = 4;
  p.height = 4;
  p.drain_idle_threshold = 8;
  FlovNetwork sys(p, mode, EnergyParams{});
  int delivered = 0;
  sys.network().set_eject_callback([&](const PacketRecord& r) {
    std::printf("            >> packet delivered to node %d (latency %llu, "
                "flov hops %d)\n",
                r.dest, static_cast<unsigned long long>(r.total_latency()),
                r.flov_hops);
    ++delivered;
  });

  const NodeId focus = 5;  // interior router, like Fig. 3's router B
  Cycle now = 0;
  PowerState last = sys.hsc(focus).state();

  std::printf("== %s walkthrough: gating router %d (core goes idle) ==\n",
              mode_s.c_str(), focus);
  sys.set_core_gated(focus, true, now);
  for (int i = 0; i < 120; ++i) {
    sys.step(now++);
    if (sys.hsc(focus).state() != last) {
      last = sys.hsc(focus).state();
      print_row(sys, now, focus);
    }
  }

  std::printf("\n== traffic flying over the sleeping router (4 -> 6) ==\n");
  PacketDescriptor d;
  d.src = 4;
  d.dest = 6;
  d.size_flits = 4;
  d.gen_cycle = now;
  sys.network().enqueue(d);
  for (int i = 0; i < 60; ++i) sys.step(now++);

  std::printf("\n== waking the router with a packet destined to its core "
              "(6 -> 5) ==\n");
  d.src = 6;
  d.dest = focus;
  d.gen_cycle = now;
  sys.network().enqueue(d);
  for (int i = 0; i < 300; ++i) {
    sys.step(now++);
    if (sys.hsc(focus).state() != last) {
      last = sys.hsc(focus).state();
      print_row(sys, now, focus);
    }
  }

  std::printf("\n== core stays off: the router re-drains on its own ==\n");
  for (int i = 0; i < 200; ++i) {
    sys.step(now++);
    if (sys.hsc(focus).state() != last) {
      last = sys.hsc(focus).state();
      print_row(sys, now, focus);
    }
  }

  std::printf("\nrouter %d: %llu sleeps, %llu wakeups, %llu drain aborts; "
              "%d packets delivered\n",
              focus,
              static_cast<unsigned long long>(sys.hsc(focus).sleep_entries()),
              static_cast<unsigned long long>(
                  sys.hsc(focus).wake_completions()),
              static_cast<unsigned long long>(sys.hsc(focus).drain_aborts()),
              delivered);
  return 0;
}
