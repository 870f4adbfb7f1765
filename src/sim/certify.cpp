#include "sim/certify.hpp"

#include <algorithm>
#include <memory>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "sim/sweep.hpp"

namespace flov {

namespace {

/// Raw Bernoulli counts for every certifiable metric, folded across
/// replications in submission order.
struct Counts {
  std::uint64_t delivery_s = 0, delivery_t = 0;
  std::uint64_t clean_s = 0, clean_t = 0;
  std::uint64_t survival_s = 0, survival_t = 0;

  void fold(const RunResult& r) {
    const std::uint64_t settled = r.packets_acked + r.packets_dead +
                                  r.packets_purged + r.killed_at_source;
    delivery_s += r.packets_acked;
    delivery_t += settled;
    // Corrupted packets delivered — subtract them from the clean
    // successes. packets_corrupted counts measured deliveries, so it can
    // never exceed acked on a drained run; clamp anyway so a truncated
    // (aborted) run cannot underflow.
    clean_s += r.packets_acked - std::min(r.packets_corrupted, r.packets_acked);
    clean_t += settled;
    survival_s += (!r.aborted && r.verifier_violations == 0) ? 1u : 0u;
    survival_t += 1;
  }
};

CertifyEstimate make_estimate(const std::string& metric, std::uint64_t s,
                              std::uint64_t t, double confidence) {
  CertifyEstimate e;
  e.metric = metric;
  e.successes = s;
  e.trials = t;
  e.point = t == 0 ? 0.0 : static_cast<double>(s) / static_cast<double>(t);
  e.wilson = wilson_interval(s, t, confidence);
  e.clopper_pearson = clopper_pearson_interval(s, t, confidence);
  return e;
}

std::vector<CertifyEstimate> make_estimates(const Counts& c,
                                            double confidence) {
  return {make_estimate("delivery", c.delivery_s, c.delivery_t, confidence),
          make_estimate("clean_delivery", c.clean_s, c.clean_t, confidence),
          make_estimate("run_survival", c.survival_s, c.survival_t,
                        confidence)};
}

bool known_metric(const std::string& m) {
  return m == "delivery" || m == "clean_delivery" || m == "run_survival";
}

}  // namespace

std::uint64_t derive_replication_seed(std::uint64_t seed_base,
                                      std::uint64_t rep) {
  // Never 0: a zero seed collapses some subsystem RNG streams.
  const std::uint64_t s =
      mix_u64(hash_mix(seed_base * 0x9E3779B97F4A7C15ull + 0x43455254ull,
                       rep));  // "CERT"
  return s == 0 ? 1 : s;
}

SyntheticExperimentConfig replication_config(
    const SyntheticExperimentConfig& base, const CertifyOptions& opts,
    std::uint64_t rep) {
  SyntheticExperimentConfig cfg = base;
  cfg.seed = derive_replication_seed(opts.seed_base, rep);
  if (opts.vary_faults) {
    cfg.faults.seed =
        derive_replication_seed(opts.seed_base ^ 0xFA17FA17FA17FA17ull, rep);
  }
  return cfg;
}

CertifyResult run_certification(const SyntheticExperimentConfig& base,
                                const CertifyOptions& opts) {
  FLOV_CHECK(known_metric(opts.metric),
             "unknown certify metric '" + opts.metric +
                 "' (delivery | clean_delivery | run_survival)");
  FLOV_CHECK(opts.confidence > 0.0 && opts.confidence < 1.0,
             "confidence must be in (0, 1)");
  FLOV_CHECK(opts.batch >= 1, "certify batch must be >= 1");
  FLOV_CHECK(opts.max_replications >= 1, "max_replications must be >= 1");
  FLOV_CHECK(opts.min_replications <= opts.max_replications,
             "min_replications exceeds max_replications");
  FLOV_CHECK(opts.interval == "wilson" || opts.interval == "clopper-pearson",
             "interval must be wilson or clopper-pearson");
  FLOV_CHECK(opts.target == 0.0 ||
                 (opts.target > 0.0 && opts.target < 1.0),
             "SPRT target must be in (0, 1), or 0 to disarm");
  if (opts.metric != "run_survival") {
    FLOV_CHECK(base.noc.reliable,
               "delivery metrics need noc.reliable=1 (packet accounting)");
  }

  // SPRT against the target, indifference region clamped into (0, 1).
  // alpha = beta = 1 - confidence: the certify and refute error rates both
  // match the campaign's confidence level.
  std::unique_ptr<SprtTest> sprt;
  if (opts.target > 0.0) {
    const double eps = 1e-9;
    const double p0 = std::max(eps, opts.target - opts.indifference);
    const double p1 = std::min(1.0 - eps, opts.target + opts.indifference);
    FLOV_CHECK(p0 < p1, "SPRT indifference region collapsed");
    sprt = std::make_unique<SprtTest>(p0, p1, 1.0 - opts.confidence,
                                      1.0 - opts.confidence);
  }

  Counts counts;
  CertifyResult out;
  std::uint64_t completed = 0;
  while (completed < opts.max_replications) {
    const std::uint64_t batch_n =
        std::min(opts.batch, opts.max_replications - completed);
    std::vector<SyntheticExperimentConfig> points;
    points.reserve(static_cast<std::size_t>(batch_n));
    for (std::uint64_t i = 0; i < batch_n; ++i) {
      points.push_back(replication_config(base, opts, completed + i));
    }

    SweepOptions so;
    so.jobs = opts.jobs;
    const std::vector<RunResult> results = run_sweep(points, so);

    // Fold in submission order: the estimator state after this batch is a
    // pure function of (base, opts, completed + batch_n).
    for (const RunResult& r : results) counts.fold(r);
    completed += batch_n;
    if (opts.progress) opts.progress(completed, opts.max_replications);

    // --- sequential stopping, batch boundary only ---
    out.estimates = make_estimates(counts, opts.confidence);
    const CertifyEstimate* target = nullptr;
    for (const CertifyEstimate& e : out.estimates) {
      if (e.metric == opts.metric) target = &e;
    }
    FLOV_CHECK(target != nullptr, "target metric estimate missing");
    if (opts.batch_hook) opts.batch_hook(completed, *target);
    if (completed < opts.min_replications) continue;
    if (sprt && target->trials > 0) {
      const SprtTest::Decision d =
          sprt->decide(target->successes, target->trials);
      if (d == SprtTest::Decision::kAcceptH1) {
        out.stop_reason = "target_certified";
        break;
      }
      if (d == SprtTest::Decision::kAcceptH0) {
        out.stop_reason = "target_refuted";
        break;
      }
    }
    if (opts.half_width_stop > 0.0 && target->trials > 0) {
      const BinomialInterval& ci = opts.interval == "wilson"
                                       ? target->wilson
                                       : target->clopper_pearson;
      if (ci.half_width() <= opts.half_width_stop) {
        out.stop_reason = "half_width";
        break;
      }
    }
  }

  if (out.stop_reason.empty()) {
    out.stop_reason = "max_replications";
  } else {
    out.stopped_early = true;
  }
  out.replications = completed;
  if (out.estimates.empty()) out.estimates = make_estimates(counts, opts.confidence);
  for (const CertifyEstimate& e : out.estimates) {
    if (e.metric == opts.metric) out.target_estimate = e;
  }
  return out;
}

}  // namespace flov
