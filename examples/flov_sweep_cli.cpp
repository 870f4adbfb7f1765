// flov_sweep_cli — parallel sweep runner.
//
// Runs the cross product of comma-separated lists over one base
// configuration, on a thread pool. Every point is a pure function of its
// config and jobs=N is byte-identical to jobs=1, so a killed sweep
// recovers by being run again (CI diffs the jobs=1 and jobs=2 manifests).
//
//   flov_sweep_cli schemes=baseline,rp,rflov,gflov inj=0.02,0.06
//                  gated=0.0,0.4 cycles=20000 jobs=4 manifest=sweep.json
//
// Keys:
//   schemes=a,b,...  patterns=a,b,...  inj=x,y,...  gated=x,y,...
//   seeds=n,m,...                      (each list defaults to one value;
//                                      every element is type-checked)
//   reps=N seed_base=S                 replication axis: N seeds derived
//                                      from S via derive_replication_seed
//                                      (replaces seeds=; what the certify
//                                      harness builds on)
//   warmup= cycles= (40000) timeline= drain= sim.max_cycles_hard=
//   changes= threads=                  threads= steps each point in that
//                                      many row bands (volatile)
//   jobs=N
//   manifest=path                      flyover-sweep-manifest-v1
//   progress=1                         deterministic stderr progress lines
//                                      (points done/total; off by default)
//   serve=port ops_stream=path         live ops plane (campaign mode; see
//                                      docs/OBSERVABILITY.md) — never
//                                      affects results or the manifest
//   plus any noc.* / energy.* / fault.* / verify.* / telemetry.* key.
// Any other key is a config error. Exit codes: 0 = done; 1 = config error
// or failure (flov::fatal has printed the cause on stderr). A point that
// hit sim.max_cycles_hard ends its row in ABORTED; one whose drain budget
// ran out with flits still in the fabric (flov_sim_cli exits 2 on it) ends
// its row in UNDRAINED. Neither changes the exit code.
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sim/certify.hpp"
#include "sim/sweep.hpp"
#include "telemetry/json.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/ops/ops_plane.hpp"

namespace {

/// True when the run recorded the `drain_exhausted` incident.
bool undrained(const flov::RunResult& r) {
  if (!r.incidents) return false;
  for (const std::string& rec : r.incidents->records()) {
    const auto inc = flov::telemetry::JsonValue::parse(rec);
    if (inc.has("kind") && inc.at("kind").str == "drain_exhausted") {
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace flov;
  Config cfg;
  cfg.parse_args(argc, argv);

  SyntheticExperimentConfig defaults;
  defaults.measure = 40000;
  const SyntheticExperimentConfig base =
      SyntheticExperimentConfig::from_config(cfg, defaults);

  const auto schemes = cfg.get_string_list("schemes", {"gflov"});
  const auto patterns = cfg.get_string_list("patterns", {"uniform"});
  const auto injs = cfg.get_double_list("inj", {0.02});
  const auto gateds = cfg.get_double_list("gated", {0.0});
  // Replication axis: reps=N expands to N seeds derived from seed_base the
  // same way the certification harness derives them — a hand-run sweep
  // over reps= and a certify campaign over the same base hit identical
  // per-replication configs.
  std::vector<std::uint64_t> seeds;
  const auto reps = static_cast<std::uint64_t>(cfg.get_int("reps", 0));
  if (reps > 0) {
    const auto seed_base =
        static_cast<std::uint64_t>(cfg.get_int("seed_base", 1));
    for (std::uint64_t i = 0; i < reps; ++i) {
      seeds.push_back(derive_replication_seed(seed_base, i));
    }
  } else {
    for (long long s : cfg.get_int_list("seeds", {1})) {
      seeds.push_back(static_cast<std::uint64_t>(s));
    }
  }

  std::vector<SyntheticExperimentConfig> points;
  for (const auto& sc : schemes) {
    for (const auto& pat : patterns) {
      for (double inj : injs) {
        for (double gf : gateds) {
          for (std::uint64_t sd : seeds) {
            SyntheticExperimentConfig p = base;
            p.scheme = scheme_from_string(sc);
            p.pattern = pat;
            p.inj_rate_flits = inj;
            p.gated_fraction = gf;
            p.seed = sd;
            points.push_back(std::move(p));
          }
        }
      }
    }
  }

  SweepOptions opts;
  opts.jobs = static_cast<int>(cfg.get_int("jobs", 0));
  const ops::OpsOptions ops_opt = ops::OpsOptions::from_config(cfg);
  const bool show_progress = cfg.get_bool("progress", false);
  const std::string manifest_out = cfg.get_string("manifest", "");
  reject_unread_keys(cfg);

  // Campaign-mode ops plane: /metrics and /snapshot track points folded.
  std::unique_ptr<ops::OpsPlane> ops_plane;
  if (ops_opt.any()) {
    ops_plane = std::make_unique<ops::OpsPlane>(ops_opt);
    ops_plane->begin_campaign("sweep", points.size());
  }
  opts.progress = ops::campaign_progress_fn(ops_plane.get(), show_progress,
                                            "sweep", "points");

  std::printf("flov_sweep: %zu points (%zu schemes x %zu patterns x %zu inj "
              "x %zu gated x %zu seeds)\n",
              points.size(), schemes.size(), patterns.size(), injs.size(),
              gateds.size(), seeds.size());

  const auto wall_start = std::chrono::steady_clock::now();
  const std::vector<RunResult> results = run_sweep(points, opts);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::printf("%-9s %-9s %6s %6s %5s | %9s %9s %9s %6s\n", "scheme",
              "pattern", "inj", "gated", "seed", "latency", "total_mW",
              "pkts", "dead");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    const auto& r = results[i];
    // A window that measured no packet has no latency: "empty", never 0.00.
    char latency[32] = "empty";
    if (r.packets_measured != 0) {
      std::snprintf(latency, sizeof(latency), "%.2f", r.avg_latency);
    }
    std::printf("%-9s %-9s %6.3f %6.2f %5llu | %9s %9.2f %9llu %6llu%s%s\n",
                to_string(p.scheme), p.pattern.c_str(), p.inj_rate_flits,
                p.gated_fraction, static_cast<unsigned long long>(p.seed),
                latency, r.power.total_mw,
                static_cast<unsigned long long>(r.packets_measured),
                static_cast<unsigned long long>(r.packets_dead),
                r.aborted ? " ABORTED" : "", undrained(r) ? " UNDRAINED" : "");
  }

  if (!manifest_out.empty()) {
    telemetry::SweepManifest m;
    m.name = "flov_sweep_cli";
    m.config = manifest_config(cfg, base.faults);
    m.jobs = opts.jobs;
    m.wall_seconds = wall_seconds;
    write_sweep_manifest(std::move(m), manifest_out, points, results);
    std::printf("manifest: %s\n", manifest_out.c_str());
  }
  return 0;
} catch (const std::exception&) {
  return 1;
}
