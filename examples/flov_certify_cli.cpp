// flov_certify_cli — Monte-Carlo reliability certification driver.
//
// Replicates ONE experiment configuration across derived seeds until a
// sequential stopping rule resolves (SPRT against a target reliability
// and/or a CI half-width bound) or the hard replication cap is hit, then
// emits a flyover-certificate-v1 manifest with statistically certified
// bounds ("delivery >= 0.95 at 95% confidence under fault model F"). It
// prints one convergence row per folded batch (running Wilson bound vs
// replications spent) on the way.
//
//   flov_certify_cli scheme=gflov k=8 gated=0.3 inj=0.05
//                    fault.hard_router_pct=0.03 fault.hard_at_cycle=1800
//                    fault.seed=17 vary_faults=0
//                    metric=delivery confidence=0.95 target=0.9
//                    max_reps=200 batch=20 jobs=4 certificate=cert.json
//
// The certificate is a pure function of the config and the stopping
// parameters (jobs= does not change it), so a killed campaign recovers by
// being run again.
//
// Keys:
//   scheme= pattern= inj= gated= k= plus the shared experiment keys:
//   warmup= (500) cycles= (2500) drain= (30000) sim.max_cycles_hard=
//   (200000) timeline= changes= threads= (row-band workers) and any
//   noc.*/energy.*/fault.*/verify.*/telemetry.* key (noc.reliable
//   defaults ON here: delivery certification needs the packet accounting).
//   metric=delivery|clean_delivery|run_survival confidence=0.95
//   target=P indifference=E half_width=W interval=wilson|clopper-pearson
//   min_reps= max_reps= batch= seed_base= vary_faults=0|1
//   jobs=N
//   certificate=path name=...
//   progress=1                  deterministic stderr progress lines (reps
//                               folded / cap; off by default)
//   serve=port ops_stream=path  live ops plane (campaign mode; see
//                               docs/OBSERVABILITY.md) — never affects
//                               results or the certificate
// Any other key is a config error. Exit codes: 0 = done; 1 = config error
// or failure (flov::fatal has printed the cause on stderr).
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>

#include "common/config.hpp"
#include "common/log.hpp"
#include "sim/certify.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/ops/ops_plane.hpp"

int main(int argc, char** argv) try {
  using namespace flov;
  Config cfg;
  cfg.parse_args(argc, argv);

  SyntheticExperimentConfig defaults;
  defaults.warmup = 500;
  defaults.measure = 2500;
  defaults.drain_max = 30000;
  defaults.max_cycles_hard = 200000;
  // Certification is about delivery: the reliable layer's packet
  // accounting (acked/dead/purged) IS the Bernoulli trial. Default it on;
  // an explicit noc.reliable=0 still wins (run_survival campaigns).
  defaults.noc.reliable = true;
  // A fatal verifier would abort the whole campaign on one bad
  // replication; certification counts violations instead.
  defaults.verifier.fatal = false;
  defaults.scheme = Scheme::kGFlov;
  if (cfg.has("seed")) {
    fatal(__FILE__, __LINE__,
          "config key seed is not an option of flov_certify_cli: every "
          "replication's seed derives from seed_base=");
  }
  SyntheticExperimentConfig base =
      SyntheticExperimentConfig::from_config(cfg, defaults);
  if (cfg.has("k")) {
    base.noc.width = static_cast<int>(cfg.get_int("k"));
    base.noc.height = base.noc.width;
  }

  CertifyOptions opts;
  opts.metric = cfg.get_string("metric", "delivery");
  opts.confidence = cfg.get_double("confidence", 0.95);
  opts.target = cfg.get_double("target", 0.0);
  opts.indifference = cfg.get_double("indifference", 0.01);
  opts.half_width_stop = cfg.get_double("half_width", 0.0);
  opts.interval = cfg.get_string("interval", "wilson");
  opts.min_replications =
      static_cast<std::uint64_t>(cfg.get_int("min_reps", 64));
  opts.max_replications =
      static_cast<std::uint64_t>(cfg.get_int("max_reps", 1024));
  if (opts.min_replications > opts.max_replications) {
    opts.min_replications = opts.max_replications;
  }
  opts.batch = static_cast<std::uint64_t>(cfg.get_int("batch", 32));
  opts.seed_base = static_cast<std::uint64_t>(cfg.get_int("seed_base", 1));
  opts.vary_faults = cfg.get_bool("vary_faults", true);
  opts.jobs = static_cast<int>(cfg.get_int("jobs", 1));
  const ops::OpsOptions ops_opt = ops::OpsOptions::from_config(cfg);
  const bool show_progress = cfg.get_bool("progress", false);
  const std::string cert_out = cfg.get_string("certificate", "");
  const std::string cert_name = cfg.get_string("name", "flov_certify_cli");
  reject_unread_keys(cfg);

  // Campaign-mode ops plane: /metrics and /snapshot track replications
  // folded into the stopping rule.
  std::unique_ptr<ops::OpsPlane> ops_plane;
  if (ops_opt.any()) {
    ops_plane = std::make_unique<ops::OpsPlane>(ops_opt);
    ops_plane->begin_campaign("certify", opts.max_replications);
  }
  opts.progress = ops::campaign_progress_fn(ops_plane.get(), show_progress,
                                            "certify", "reps");

  std::printf(
      "flov_certify: metric=%s confidence=%.3f target=%.4f cap=%llu "
      "batch=%llu\n",
      opts.metric.c_str(), opts.confidence, opts.target,
      static_cast<unsigned long long>(opts.max_replications),
      static_cast<unsigned long long>(opts.batch));

  // Convergence: one row per folded batch, the target metric's running
  // Wilson bound against the replications spent so far.
  std::printf("%6s %10s %8s %8s %14s %14s %11s\n", "reps", "successes",
              "trials", "point", "wilson_lower", "wilson_upper",
              "half_width");
  opts.batch_hook = [](std::uint64_t reps, const CertifyEstimate& e) {
    std::printf("%6llu %10llu %8llu %8.5f %14.5f %14.5f %11.5f\n",
                static_cast<unsigned long long>(reps),
                static_cast<unsigned long long>(e.successes),
                static_cast<unsigned long long>(e.trials), e.point,
                e.wilson.lower, e.wilson.upper, e.wilson.half_width());
  };

  const auto wall_start = std::chrono::steady_clock::now();
  const CertifyResult res = run_certification(base, opts);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::printf("%-15s %10s %10s %8s %18s %18s\n", "metric", "successes",
              "trials", "point", "wilson[lo,hi]", "cp[lo,hi]");
  for (const CertifyEstimate& e : res.estimates) {
    std::printf("%-15s %10llu %10llu %8.5f [%.5f, %.5f] [%.5f, %.5f]\n",
                e.metric.c_str(),
                static_cast<unsigned long long>(e.successes),
                static_cast<unsigned long long>(e.trials), e.point,
                e.wilson.lower, e.wilson.upper, e.clopper_pearson.lower,
                e.clopper_pearson.upper);
  }
  std::printf("stop: %s after %llu/%llu replications (%.1fs)\n",
              res.stop_reason.c_str(),
              static_cast<unsigned long long>(res.replications),
              static_cast<unsigned long long>(opts.max_replications),
              wall_seconds);

  if (!cert_out.empty()) {
    telemetry::CertificateManifest m;
    m.name = cert_name;
    // jobs and wall_seconds stay as the schema's dedicated volatile fields.
    m.config = manifest_config(cfg, base);
    char fp[17];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(
                      sweep_point_fingerprint(base)));
    m.config_fingerprint = fp;
    m.seed_base = opts.seed_base;
    m.replications = res.replications;
    m.max_replications = opts.max_replications;
    m.confidence = opts.confidence;
    m.target_metric = opts.metric;
    m.target = opts.target;
    m.stop_reason = res.stop_reason;
    m.jobs = opts.jobs;
    m.wall_seconds = wall_seconds;
    for (const CertifyEstimate& e : res.estimates) {
      telemetry::CertifiedMetric cm;
      cm.name = e.metric;
      cm.successes = e.successes;
      cm.trials = e.trials;
      cm.point = e.point;
      cm.wilson_lower = e.wilson.lower;
      cm.wilson_upper = e.wilson.upper;
      cm.clopper_pearson_lower = e.clopper_pearson.lower;
      cm.clopper_pearson_upper = e.clopper_pearson.upper;
      m.metrics.push_back(cm);
    }
    m.write(cert_out);
    std::printf("certificate: %s\n", cert_out.c_str());
  }
  return 0;
} catch (const std::exception&) {
  return 1;
}
