// flov_sweep_cli — parallel sweep runner, and the front end of every
// synthetic paper figure.
//
// Any key given a comma list is an axis, and the sweep runs the cross
// product of the axes on a thread pool. Every point is a pure function of
// its config and jobs=N is byte-identical to jobs=1, so a killed sweep
// recovers by being run again (CI diffs the jobs=1 and jobs=4 manifests).
//
//   flov_sweep_cli scheme=baseline,rp,rflov,gflov inj=0.02,0.06
//                  gated=0.0,0.4 cycles=20000 jobs=4 manifest=sweep.json
//   flov_sweep_cli spec=experiments/fig6.args manifest=fig6.json
//   python3 scripts/plot_figures.py fig6.json
//
// Keys:
//   spec=file                          sweep blocks, separated by `---`
//                                      lines ("key = value", '#' comments);
//                                      each block is one cross product and
//                                      the points of all blocks run, in
//                                      file order, as one sweep. Every
//                                      other command-line key overrides
//                                      that key in every block.
//   scheme= pattern= inj= gated= seed= (gflov, uniform, 0.02, 0, 1)
//   warmup= cycles= (40000) timeline= drain= sim.max_cycles_hard=
//   changes= threads= plus any noc.* / energy.* / fault.* / verify.* /
//   telemetry.* key. Each one takes a comma list, except the list-valued
//   changes= and telemetry.trace=. Axis order: scheme, pattern, inj,
//   gated, seed, then the others by key; the last varies fastest.
//   threads= steps each point in that many row bands (volatile).
//   reps=N seed_base=S                 replication axis: N seeds derived
//                                      from S via derive_replication_seed
//                                      (replaces seed=; what the certify
//                                      harness builds on)
//   jobs=N
//   manifest=path                      flyover-sweep-manifest-v1; each
//                                      point carries the resolved config
//                                      that reruns it with flov_sim_cli
//   progress=1                         deterministic stderr progress lines
//                                      (points done/total; off by default)
//   serve=port ops_stream=path         live ops plane (campaign mode; see
//                                      docs/OBSERVABILITY.md) — never
//                                      affects results or the manifest
// Any other key is a config error. Exit codes: 0 = done; 1 = config error
// or failure (flov::fatal has printed the cause on stderr). A point that
// hit sim.max_cycles_hard ends its row in ABORTED; one whose drain budget
// ran out with flits still in the fabric (flov_sim_cli exits 2 on it) ends
// its row in UNDRAINED. Neither changes the exit code.
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/log.hpp"
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

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) flov::fatal(__FILE__, __LINE__, "cannot read spec file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace flov;
  Config cfg;
  cfg.parse_args(argc, argv);

  // The sweep's own keys; every key left unread belongs to the points.
  SweepOptions opts;
  opts.jobs = static_cast<int>(cfg.get_int("jobs", 0));
  const ops::OpsOptions ops_opt = ops::OpsOptions::from_config(cfg);
  const bool show_progress = cfg.get_bool("progress", false);
  const std::string manifest_out = cfg.get_string("manifest", "");
  const auto reps = static_cast<std::uint64_t>(cfg.get_int("reps", 0));
  const auto seed_base =
      static_cast<std::uint64_t>(cfg.get_int("seed_base", 1));
  const std::string spec = cfg.get_string("spec", "");
  const std::vector<std::string> overrides = cfg.unread_keys();

  std::vector<Config> blocks = spec.empty()
                                    ? std::vector<Config>(1)
                                    : parse_sweep_spec(read_file(spec));
  // Replication axis: reps=N expands to N seeds derived from seed_base the
  // same way the certification harness derives them — a hand-run sweep
  // over reps= and a certify campaign over the same base hit identical
  // per-replication configs. A seed is written as the signed integer with
  // its bits, which is how seed= reads it back.
  std::string rep_seeds;
  for (std::uint64_t i = 0; i < reps; ++i) {
    rep_seeds += (i ? "," : "") +
                 std::to_string(static_cast<long long>(
                     derive_replication_seed(seed_base, i)));
  }
  Config defaults;
  defaults.set("scheme", std::string("gflov"));
  defaults.set("pattern", std::string("uniform"));
  defaults.set("inj", 0.02);
  defaults.set("gated", 0.0);
  defaults.set("seed", 1ll);
  defaults.set("warmup", 10000ll);
  defaults.set("cycles", 40000ll);

  if (blocks.empty()) {
    fatal(__FILE__, __LINE__, "spec " + spec + " sets no key");
  }
  std::vector<SweepPoint> points;
  for (Config& block : blocks) {
    for (const std::string& k : overrides) block.set(k, cfg.get_string(k));
    if (reps > 0) block.set("seed", rep_seeds);
    std::vector<SweepPoint> block_points = expand_sweep(block, defaults);
    reject_unread_keys(block_points.front().config);
    points.insert(points.end(), block_points.begin(), block_points.end());
  }

  // Campaign-mode ops plane: /metrics and /snapshot track points folded.
  std::unique_ptr<ops::OpsPlane> ops_plane;
  if (ops_opt.any()) {
    ops_plane = std::make_unique<ops::OpsPlane>(ops_opt);
    ops_plane->begin_campaign("sweep", points.size());
  }
  opts.progress = ops::campaign_progress_fn(ops_plane.get(), show_progress,
                                            "sweep", "points");

  std::printf("flov_sweep: %zu points in %zu block(s)\n", points.size(),
              blocks.size());

  std::vector<SyntheticExperimentConfig> experiments;
  for (const SweepPoint& p : points) experiments.push_back(p.experiment);
  const auto wall_start = std::chrono::steady_clock::now();
  const std::vector<RunResult> results = run_sweep(experiments, opts);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::printf("%-9s %-9s %6s %6s %5s | %9s %9s %9s %6s\n", "scheme",
              "pattern", "inj", "gated", "seed", "latency", "total_mW",
              "pkts", "dead");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i].experiment;
    const auto& r = results[i];
    // A window that measured no packet has no latency: "empty", never 0.00.
    char latency[32] = "empty";
    if (r.packets_measured != 0) {
      std::snprintf(latency, sizeof(latency), "%.2f", r.avg_latency);
    }
    std::string axes;
    for (const std::string& k : points[i].extra_axes) {
      axes += " " + k + "=" + points[i].config.get_string(k);
    }
    std::printf("%-9s %-9s %6.3f %6.2f %5llu | %9s %9.2f %9llu %6llu%s%s%s\n",
                to_string(p.scheme), p.pattern.c_str(), p.inj_rate_flits,
                p.gated_fraction, static_cast<unsigned long long>(p.seed),
                latency, r.power.total_mw,
                static_cast<unsigned long long>(r.packets_measured),
                static_cast<unsigned long long>(r.packets_dead), axes.c_str(),
                r.aborted ? " ABORTED" : "", undrained(r) ? " UNDRAINED" : "");
  }

  if (!manifest_out.empty()) {
    telemetry::SweepManifest m;
    // A spec names its sweep (experiments/fig6.args -> "fig6"), which is
    // how scripts/plot_figures.py picks the figure's tables.
    const std::string stem = spec.substr(spec.find_last_of('/') + 1);
    m.name = spec.empty() ? "flov_sweep_cli" : stem.substr(0, stem.find('.'));
    m.config = manifest_config(cfg);
    m.jobs = opts.jobs;
    m.wall_seconds = wall_seconds;
    write_sweep_manifest(std::move(m), manifest_out, points, results);
    std::printf("manifest: %s\n", manifest_out.c_str());
  }
  return 0;
} catch (const std::exception&) {
  return 1;
}
