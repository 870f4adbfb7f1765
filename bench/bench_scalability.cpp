// Scalability study (beyond the paper's 8x8, supporting its Section I/II
// argument): FLOV's distributed handshake reconfigures in O(neighborhood)
// time regardless of mesh size, while RP's centralized fabric manager
// stalls the whole network for a Phase-I that grows with the router count
// (route computation for N routers + table distribution across the mesh).
//
// For each mesh size we apply one gating change mid-run and report:
//   * RP reconfiguration duration and its latency-spike peak,
//   * gFLOV's spike peak (none expected) and its average transition time,
//   * steady-state average latency for both.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "flov/flov_network.hpp"
#include "rp/rp_network.hpp"
#include "traffic/gating_scenario.hpp"
#include "traffic/synthetic_traffic.hpp"
#include "traffic/traffic_pattern.hpp"

namespace {

using namespace flov;

struct Result {
  double avg_latency = 0;
  double peak_window = 0;
  Cycle reconfig_duration = 0;  // RP only
  std::uint64_t packets = 0;    ///< packets in the measurement window
};

/// A latency cell: "empty" when the window measured no packet, so a run
/// that delivered nothing never reads as a latency of 0.00.
std::string latency_cell(const Result& r, double v) {
  if (r.packets == 0) return "empty";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

template <typename System>
Result drive(System& sys, const NocParams& p, Cycle change_at, Cycle total,
             std::uint64_t seed) {
  MeshGeometry g(p.width, p.height);
  auto pattern = TrafficPattern::create("uniform", g);
  SyntheticTraffic traffic(&sys, pattern.get(), 0.02, p.packet_size, seed);
  GatingScenario scen = GatingScenario::epochs(g, 0.15, {change_at}, seed);
  LatencyStats stats(3, 1000);
  stats.set_measure_from(5000);
  sys.network().set_eject_callback(
      [&](const PacketRecord& r) { stats.record(r); });
  for (Cycle now = 0; now < total; ++now) {
    scen.apply(sys, now);
    traffic.step(now);
    sys.step(now);
  }
  Result r;
  r.avg_latency = stats.avg_latency();
  r.packets = stats.packets();
  if (const TimeSeries* ts = stats.timeline()) {
    for (const auto& pt : ts->points()) {
      r.peak_window = std::max(r.peak_window, pt.mean);
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flov::bench;
  Config cfg;
  cfg.parse_args(argc, argv);
  const Cycle total = cfg.get_int("cycles", 30000) + 10000;
  const int jobs = static_cast<int>(cfg.get_int("jobs", 0));
  // sizes= : comma list of mesh edge lengths (the EXPERIMENTS.md rows).
  std::vector<int> sizes;
  for (long long k : cfg.get_int_list("sizes", {4, 8, 12, 16})) {
    sizes.push_back(static_cast<int>(k));
  }
  reject_unread_keys(cfg);
  const int nsizes = static_cast<int>(sizes.size());

  // One pooled task per (mesh size, system) cell; each builds and drives
  // its own network end to end.
  struct Row {
    Result rp, gf;
    Cycle rp_reconfig = 0;
  };
  std::vector<Row> rows(sizes.size());
  parallel_run(2 * nsizes, jobs, [&](int i) {
    const int k = sizes[i / 2];
    NocParams p;
    p.width = k;
    p.height = k;
    if (i % 2 == 0) {
      // RP: Phase-I grows with the router count (route computation at the
      // FM plus per-router table distribution) — c1 + c2 * N.
      FabricManagerConfig fm;
      fm.phase1_latency = 400 + 5 * k * k;
      RpNetwork rp(p, EnergyParams{}, fm);
      rows[i / 2].rp = drive(rp, p, /*change_at=*/20000, total, 11);
      rows[i / 2].rp_reconfig = rp.fabric_manager().last_reconfig_duration();
    } else {
      FlovNetwork gf(p, FlovMode::kGeneralized, EnergyParams{});
      rows[i / 2].gf = drive(gf, p, 20000, total, 11);
    }
  });

  print_header(
      "Scalability — one gating change mid-run, distributed gFLOV vs "
      "centralized RP");
  std::printf("%-8s | %12s %12s %14s | %12s %12s\n", "mesh", "RP latency",
              "RP peak", "RP reconfig", "gFLOV lat", "gFLOV peak");

  for (int i = 0; i < nsizes; ++i) {
    const int k = sizes[i];
    const Result& rp = rows[i].rp;
    const Result& gf = rows[i].gf;
    std::printf("%-8s | %12s %12s %14llu | %12s %12s\n",
                (std::to_string(k) + "x" + std::to_string(k)).c_str(),
                latency_cell(rp, rp.avg_latency).c_str(),
                latency_cell(rp, rp.peak_window).c_str(),
                static_cast<unsigned long long>(rows[i].rp_reconfig),
                latency_cell(gf, gf.avg_latency).c_str(),
                latency_cell(gf, gf.peak_window).c_str());
  }
  std::printf("\nRP's stall (and the latency spike behind it) grows with the "
              "mesh; gFLOV's distributed handshake does not.\n");
  return 0;
}
