// flov_sim_cli — general-purpose simulation driver (BookSim-style).
//
// Runs one fully-configurable synthetic experiment and prints every metric
// the harness collects; optionally emits the latency-vs-time series.
// Example:
//   flov_sim_cli scheme=gflov pattern=tornado inj=0.04 gated=0.6
//                noc.width=16 noc.height=16 warmup=5000 cycles=50000
//                timeline=1000 seed=3
// Run with --help for the full knob list; any other key is a config error.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sim/experiment.hpp"
#include "telemetry/json.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/ops/ops_plane.hpp"

namespace {

/// When the run recorded `drain_exhausted` (flits still in the fabric when
/// the drain budget ran out), prints the end-of-run incidents — that one
/// and every incident recorded after it — by kind and cycle, and returns
/// true.
bool report_undrained(const flov::RunResult& r) {
  if (!r.incidents) return false;
  using flov::telemetry::JsonValue;
  std::vector<JsonValue> incs;
  for (const std::string& rec : r.incidents->records()) {
    incs.push_back(JsonValue::parse(rec));
  }
  const auto kind_of = [](const JsonValue& inc) {
    return inc.has("kind") ? inc.at("kind").str : std::string("?");
  };
  std::size_t first = 0;
  while (first < incs.size() && kind_of(incs[first]) != "drain_exhausted") {
    ++first;
  }
  if (first == incs.size()) return false;
  std::printf("\nRUN DID NOT DRAIN: flits were still in the fabric when the "
              "drain budget ran out\nend-of-run incidents:\n");
  for (std::size_t i = first; i < incs.size(); ++i) {
    const JsonValue& inc = incs[i];
    const std::string kind = kind_of(inc);
    const char* cycle_key = inc.has("cycle") ? "cycle" : "declared_at";
    if (inc.has(cycle_key)) {
      std::printf("  %-22s cycle %.0f\n", kind.c_str(),
                  inc.at(cycle_key).num);
    } else {
      std::printf("  %s\n", kind.c_str());
    }
  }
  return true;
}

void print_usage() {
  std::printf(
      "flov_sim_cli key=value ...\n"
      "\n"
      "Core:\n"
      "  scheme=baseline|rp|rflov|gflov   power-gating scheme (gflov)\n"
      "  pattern=uniform|tornado|...      synthetic traffic pattern\n"
      "  inj=<flits/node/cycle>           injection rate (0.02)\n"
      "  gated=<0..1>                     fraction of gateable routers off\n"
      "  warmup=<cycles> cycles=<cycles>  warm-up / measurement window\n"
      "  seed=<n>  timeline=<window>  changes=<c1,c2,...>\n"
      "  threads=<n>                      intra-run workers, one row band\n"
      "                                   each (volatile)\n"
      "\n"
      "Simulation bounds (PROTOCOL.md \xc2\xa7" "8):\n"
      "  drain=<cycles>             post-run drain budget: keep stepping\n"
      "                             until every reliable flow is acked or\n"
      "                             declared dead (0 = off); running out\n"
      "                             with flits in the fabric exits 2\n"
      "  sim.max_cycles_hard=<n>    hard cycle cap; exceeding it aborts\n"
      "                             with a structured incident + partial\n"
      "                             stats instead of a process abort\n"
      "\n"
      "Reliable delivery (noc.reliable=1, PROTOCOL.md \xc2\xa7" "8):\n"
      "  noc.reliable=0|1           per-flow seq numbers, retransmit\n"
      "                             buffer, ack piggyback + 1-flit acks\n"
      "  noc.retx_timeout=<cycles>  base retransmit timeout (512)\n"
      "  noc.retx_backoff_cap=<n>   retry n waits timeout<<min(n,cap) (3)\n"
      "  noc.retx_limit=<n>         retries before declared dead (4)\n"
      "  noc.ack_delay=<cycles>     piggyback grace before a 1-flit ack "
      "(8)\n"
      "\n"
      "Fault injection (fault.*; all default 0 = fault-free):\n"
      "  fault.signal_drop_rate=<p>     drop a handshake signal per hop\n"
      "  fault.signal_delay_rate=<p>    delay a handshake signal per hop\n"
      "  fault.signal_delay_max=<c>     max extra signal delay (4)\n"
      "  fault.signal_dup_rate=<p>      duplicate a handshake signal\n"
      "  fault.flit_drop_rate=<p>       drop a flit per link traversal\n"
      "  fault.flit_delay_rate=<p>      delay a flit per link traversal\n"
      "  fault.flit_delay_max=<c>       max extra flit delay (4)\n"
      "  fault.spurious_wakeup_rate=<p> spurious WakeupTrigger per cycle\n"
      "  fault.hard_router_pct=<p>      routers that die at hard_at_cycle\n"
      "  fault.hard_link_pct=<p>        directed links that die there\n"
      "  fault.hard_at_cycle=<c>        death cycle (0 disarms hard "
      "faults)\n"
      "  fault.seed=<n>                 fate-hash seed (1)\n"
      "\n"
      "Also accepted: any NocParams (noc.*), EnergyParams (energy.*),\n"
      "VerifierOptions (verify.*) or telemetry (telemetry.*) key. Any\n"
      "other key is a config error (exit 1).\n"
      "\n"
      "Outputs:\n"
      "  telemetry.trace=all trace_out=run.trace.json  Perfetto trace\n"
      "  manifest=run.json             flyover-run-manifest-v1 (resolved\n"
      "                                fault.* knobs echoed into config)\n"
      "  incidents_out=run.incidents.json              incident log\n"
      "\n"
      "Ops plane (docs/OBSERVABILITY.md; never affects results/manifests):\n"
      "  serve=<port>               embedded HTTP server on 127.0.0.1\n"
      "                             (/metrics /snapshot /heatmap /healthz;\n"
      "                             0 = ephemeral, port printed to stderr)\n"
      "  ops_stream=<path>          JSONL flight recorder: one\n"
      "                             flyover-snapshot-v1 object per fold\n"
      "  ops.period=<cycles>        cycles between snapshot folds (4096)\n"
      "  profile=1                  wall-clock phase profiler (needs a\n"
      "                             FLYOVER_PROFILING build; report to\n"
      "                             stderr) profile_out=<path> for JSON\n");
}

}  // namespace

// Exit codes (docs/RELIABILITY.md): 0 = clean run; 1 = usage/config error
// (a malformed value or a key nothing reads) or failure — flov::fatal has
// already printed the cause on stderr; 2 = the post-run drain ran out with
// flits still in the fabric (the end-of-run incidents are printed).
int main(int argc, char** argv) try {
  using namespace flov;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0 || std::strcmp(argv[i], "help") == 0) {
      print_usage();
      return 0;
    }
  }
  Config cfg;
  cfg.parse_args(argc, argv);

  SyntheticExperimentConfig defaults;
  defaults.scheme = Scheme::kGFlov;
  SyntheticExperimentConfig ex =
      SyntheticExperimentConfig::from_config(cfg, defaults);
  const std::string trace_out = cfg.get_string("trace_out", "");
  const std::string manifest_out = cfg.get_string("manifest", "");
  const std::string incidents_out = cfg.get_string("incidents_out", "");
  if (!trace_out.empty() && ex.telemetry.trace_mask == 0) {
    ex.telemetry.trace_mask = telemetry::kTraceAll;  // implied by trace_out=
  }
  const ops::OpsOptions ops_opt = ops::OpsOptions::from_config(cfg);
  reject_unread_keys(cfg);

  // Ops plane: constructed only when requested — the disabled path adds a
  // single null check per cycle inside run_synthetic and nothing else.
  std::unique_ptr<ops::OpsPlane> ops_plane;
  if (ops_opt.any()) {
    ops_plane = std::make_unique<ops::OpsPlane>(ops_opt);
    ex.ops = ops_plane.get();
  }
  // Binds the phase profiler (if any) to this thread for the run; workers
  // inherit it per-domain through Network::step.
  telemetry::ProfileScope profile_scope(
      ops_plane ? ops_plane->profiler() : nullptr, 0);

  std::printf("flov_sim: %s | %dx%d mesh | %s | inj %.4f flits/node/cycle | "
              "%.0f%% gated | seed %llu\n",
              to_string(ex.scheme), ex.noc.width, ex.noc.height,
              ex.pattern.c_str(), ex.inj_rate_flits,
              100 * ex.gated_fraction,
              static_cast<unsigned long long>(ex.seed));

  const auto wall_start = std::chrono::steady_clock::now();
  const RunResult r = run_synthetic(ex);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (ops_plane) ops_plane->finish_profile(stderr);

  std::printf("\npackets measured      : %llu (generated %llu)\n",
              static_cast<unsigned long long>(r.packets_measured),
              static_cast<unsigned long long>(r.packets_generated));
  std::printf("flits injected/ejected: %llu / %llu\n",
              static_cast<unsigned long long>(r.injected_flits),
              static_cast<unsigned long long>(r.ejected_flits));
  if (r.packets_measured == 0) {
    // Nothing was measured: a latency of 0.00 would read as a result.
    std::printf("avg packet latency    : empty (no packet measured)\n");
  } else {
    std::printf("avg packet latency    : %.2f cycles (p50 %.1f, p99 %.1f)\n",
                r.avg_latency, r.p50_latency, r.p99_latency);
  }
  std::printf("  router / link / serial / contention / FLOV = "
              "%.2f / %.2f / %.2f / %.2f / %.2f\n",
              r.breakdown.router, r.breakdown.link, r.breakdown.serialization,
              r.breakdown.contention, r.breakdown.flov);
  std::printf("power                 : %.2f mW static + %.2f mW dynamic = "
              "%.2f mW\n",
              r.power.static_mw, r.power.dynamic_mw, r.power.total_mw);
  std::printf("energy (window)       : %.3f uJ (%.3f uJ static)\n",
              r.power.total_energy_pj * 1e-6, r.power.static_energy_pj * 1e-6);
  std::printf("gated routers         : %d at end, %.2f time-average\n",
              r.gated_routers_end, r.avg_gated_routers);
  if (r.protocol_sleeps || r.protocol_wakeups) {
    std::printf("handshake activity    : %llu sleeps, %llu wakeups\n",
                static_cast<unsigned long long>(r.protocol_sleeps),
                static_cast<unsigned long long>(r.protocol_wakeups));
  }
  if (r.escape_packets) {
    std::printf("escape-network packets: %llu\n",
                static_cast<unsigned long long>(r.escape_packets));
  }
  if (ex.faults.any()) {
    std::printf("fault recovery        : %llu hs resends, %llu trigger "
                "re-fires, %llu watchdog recoveries, %llu self-captures, "
                "%llu flits dropped\n",
                static_cast<unsigned long long>(r.hs_resends),
                static_cast<unsigned long long>(r.trigger_resends),
                static_cast<unsigned long long>(r.watchdog_recoveries),
                static_cast<unsigned long long>(r.self_captures),
                static_cast<unsigned long long>(r.flits_dropped_by_faults));
  }
  if (ex.noc.reliable) {
    std::printf("reliable delivery     : %llu acked, %llu dead, %llu "
                "retransmits, %llu dup-suppressed, %llu purged, %llu "
                "killed-at-source\n",
                static_cast<unsigned long long>(r.packets_acked),
                static_cast<unsigned long long>(r.packets_dead),
                static_cast<unsigned long long>(r.retransmits),
                static_cast<unsigned long long>(r.dup_packets),
                static_cast<unsigned long long>(r.packets_purged),
                static_cast<unsigned long long>(r.killed_at_source));
  }
  if (r.dead_routers || r.dead_links) {
    std::printf("hard faults           : %d dead routers, %d dead links, "
                "%llu wake requests dropped\n",
                r.dead_routers, r.dead_links,
                static_cast<unsigned long long>(r.wake_requests_dropped));
  }
  if (r.aborted) {
    std::printf("ABORTED at cycle %llu (sim.max_cycles_hard); stats are "
                "partial\n",
                static_cast<unsigned long long>(r.cycles_run));
  }
  if (ex.verify) {
    std::printf("invariant verifier    : %llu checks, %llu violations\n",
                static_cast<unsigned long long>(r.verifier_checks),
                static_cast<unsigned long long>(r.verifier_violations));
  }
  if (const auto ts = r.metrics->all_series().find("latency.timeline");
      ts != r.metrics->all_series().end()) {
    std::printf("\nlatency timeline (window %llu):\n",
                static_cast<unsigned long long>(ex.timeline_window));
    for (const auto& p : ts->second.points()) {
      std::printf("  %8llu %10.2f  (%llu pkts)\n",
                  static_cast<unsigned long long>(p.window_start), p.mean,
                  static_cast<unsigned long long>(p.count));
    }
  }

  if (!trace_out.empty()) {
    if (r.trace) {
      r.trace->write_chrome_trace(trace_out);
      std::printf("\ntrace: %llu events -> %s (%llu overwritten)\n",
                  static_cast<unsigned long long>(r.trace->size()),
                  trace_out.c_str(),
                  static_cast<unsigned long long>(r.trace->overwritten()));
    } else {
      std::printf("\ntrace: not recorded (build has FLYOVER_TRACING off "
                  "or telemetry.trace empty)\n");
    }
  }
  if (!incidents_out.empty() && r.incidents) {
    r.incidents->write(incidents_out);
    std::printf("incidents: %llu -> %s\n",
                static_cast<unsigned long long>(r.incidents->size()),
                incidents_out.c_str());
  }
  if (!manifest_out.empty()) {
    telemetry::RunManifest m;
    m.name = "flov_sim_cli";
    m.scheme = r.scheme;
    m.config = manifest_config(cfg, ex.faults);
    m.seed = ex.seed;
    m.wall_seconds = wall_seconds;
    m.trace_path = trace_out;
    m.metrics = r.metrics.get();
    m.incidents = r.incidents.get();
    m.write(manifest_out);
    std::printf("manifest: %s\n", manifest_out.c_str());
  }
  return report_undrained(r) ? 2 : 0;
} catch (const std::exception&) {
  return 1;
}
