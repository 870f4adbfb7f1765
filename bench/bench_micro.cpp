// Micro-benchmarks (google-benchmark): simulator throughput and the cost of
// the core building blocks. These are engineering benchmarks for the
// simulator itself, not paper figures, and they time components only:
// whether a change made the simulator faster is answered end to end by
// `benchmark/run.py compare` (docs/PERFORMANCE.md). google-benchmark's
// --benchmark_* flags apply, e.g.
//   bench_micro --benchmark_filter=BM_GFlovCycle --benchmark_min_time=0.5
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "flov/flov_network.hpp"
#include "noc/arbiter.hpp"
#include "noc/network.hpp"
#include "routing/updown.hpp"
#include "routing/yx_routing.hpp"

namespace flov {
namespace {

void BM_RoundRobinArbiter(benchmark::State& state) {
  RoundRobinArbiter arb(static_cast<int>(state.range(0)));
  const std::uint64_t req = (std::uint64_t{1} << state.range(0)) - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arb.arbitrate(req));
  }
}
BENCHMARK(BM_RoundRobinArbiter)->Arg(4)->Arg(16);

void BM_Rng(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_below(64));
  }
}
BENCHMARK(BM_Rng);

void BM_UpDownRouteBuild(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  MeshGeometry g(k, k);
  Rng rng(5);
  std::vector<bool> powered(g.num_nodes(), true);
  for (int i = 0; i < g.num_nodes(); ++i) powered[i] = !rng.next_bool(0.3);
  powered[0] = true;
  for (auto _ : state) {
    UpDownRoutes r(g, powered);
    benchmark::DoNotOptimize(r.root());
  }
}
BENCHMARK(BM_UpDownRouteBuild)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

/// Cycles/second of the whole mesh under load (the headline simulator
/// throughput number): one iteration = one network cycle.
void BM_NetworkCycle(benchmark::State& state) {
  NocParams p;
  p.width = 8;
  p.height = 8;
  MeshGeometry g(8, 8);
  YxRouting routing(g);
  Network net(p, &routing, nullptr);
  net.set_eject_callback([](const PacketRecord&) {});
  Rng rng(3);
  Cycle now = 0;
  for (auto _ : state) {
    // Keep ~0.05 flits/node/cycle of uniform traffic flowing.
    for (NodeId s = 0; s < 64; ++s) {
      if (!rng.next_bool(0.0125)) continue;
      PacketDescriptor d;
      d.src = s;
      d.dest = static_cast<NodeId>(rng.next_below(64));
      if (d.dest == s) continue;
      d.size_flits = 4;
      d.gen_cycle = now;
      net.enqueue(d);
    }
    net.step(now++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkCycle);

/// Full experiment throughput including gating machinery: one iteration =
/// one gFLOV cycle with `gate_pct`% of the cores off. The gated fraction is
/// exactly the population the active-set scheduler skips, so throughput
/// should GROW with the gating level.
void BM_GFlovCycle(benchmark::State& state) {
  const double gated_fraction = static_cast<double>(state.range(0)) / 100.0;
  NocParams p;
  p.width = 8;
  p.height = 8;
  FlovNetwork sys(p, FlovMode::kGeneralized, EnergyParams{});
  MeshGeometry g(8, 8);
  Rng rng(7);
  for (NodeId n = 0; n < 64; ++n) {
    if (rng.next_bool(gated_fraction)) sys.set_core_gated(n, true, 0);
  }
  Cycle now = 0;
  sys.network().set_eject_callback([](const PacketRecord&) {});
  for (auto _ : state) {
    for (NodeId s = 0; s < 64; ++s) {
      if (sys.core_gated(s) || !rng.next_bool(0.005)) continue;
      NodeId d = static_cast<NodeId>(rng.next_below(64));
      if (d == s || sys.core_gated(d)) continue;
      PacketDescriptor pd;
      pd.src = s;
      pd.dest = d;
      pd.size_flits = 4;
      pd.gen_cycle = now;
      sys.network().enqueue(pd);
    }
    sys.step(now++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GFlovCycle)->Arg(40)->Arg(50)->ArgName("gate_pct");

}  // namespace
}  // namespace flov

BENCHMARK_MAIN();
