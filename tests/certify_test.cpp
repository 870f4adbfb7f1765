// Statistical reliability certification (docs/RELIABILITY.md): interval
// and sequential-test numerics against closed-form values, the shared
// backoff helper's overflow edges, jobs-x-threads budgeting, replication
// seed derivation, and the campaign-level determinism contract — the
// folded estimates are byte-identical across jobs=1 vs jobs=N, and the
// sequential rule actually stops before the cap.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/backoff.hpp"
#include "common/stats.hpp"
#include "sim/certify.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"

namespace flov {
namespace {

// --- interval math vs closed-form values --------------------------------

TEST(NormalQuantile, MatchesKnownValues) {
  // Phi^-1 at the standard confidence points (tabulated to 1e-9).
  EXPECT_NEAR(normal_quantile(0.975), 1.959963985, 1e-8);
  EXPECT_NEAR(normal_quantile(0.995), 2.575829304, 1e-8);
  EXPECT_NEAR(normal_quantile(0.841344746068543), 1.0, 1e-8);
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
  // Symmetry: Phi^-1(1-p) == -Phi^-1(p).
  EXPECT_NEAR(normal_quantile(0.025), -normal_quantile(0.975), 1e-12);
  EXPECT_NEAR(normal_quantile(0.01), -normal_quantile(0.99), 1e-12);
}

TEST(WilsonInterval, MatchesClosedForm) {
  // 8 of 10 at 95%: the textbook Wilson interval is [0.49016, 0.94332].
  const BinomialInterval ci = wilson_interval(8, 10, 0.95);
  EXPECT_NEAR(ci.lower, 0.49016, 5e-4);
  EXPECT_NEAR(ci.upper, 0.94332, 5e-4);
  EXPECT_NEAR(ci.half_width(), (ci.upper - ci.lower) / 2.0, 1e-15);
}

TEST(WilsonInterval, EdgesAndMonotonicity) {
  // trials == 0: the vacuous interval.
  const BinomialInterval empty = wilson_interval(0, 0, 0.95);
  EXPECT_EQ(empty.lower, 0.0);
  EXPECT_EQ(empty.upper, 1.0);
  // All-failures / all-successes stay inside [0, 1] and pinned ends.
  const BinomialInterval none = wilson_interval(0, 20, 0.95);
  EXPECT_EQ(none.lower, 0.0);
  EXPECT_GT(none.upper, 0.0);
  EXPECT_LT(none.upper, 1.0);
  const BinomialInterval all = wilson_interval(20, 20, 0.95);
  EXPECT_EQ(all.upper, 1.0);
  EXPECT_GT(all.lower, 0.5);
  // More trials at the same rate tighten the bound.
  EXPECT_LT(wilson_interval(80, 100, 0.95).half_width(),
            wilson_interval(8, 10, 0.95).half_width());
  // Higher confidence widens it.
  EXPECT_GT(wilson_interval(8, 10, 0.99).half_width(),
            wilson_interval(8, 10, 0.95).half_width());
}

TEST(ClopperPearson, MatchesClosedForm) {
  // 8 of 10 at 95%: the exact interval is [0.44390, 0.97479].
  const BinomialInterval ci = clopper_pearson_interval(8, 10, 0.95);
  EXPECT_NEAR(ci.lower, 0.44390, 5e-4);
  EXPECT_NEAR(ci.upper, 0.97479, 5e-4);
  // Conservative: never tighter than Wilson on the same counts.
  const BinomialInterval w = wilson_interval(8, 10, 0.95);
  EXPECT_LE(ci.lower, w.lower + 1e-12);
  EXPECT_GE(ci.upper, w.upper - 1e-12);
}

TEST(ClopperPearson, Edges) {
  const BinomialInterval empty = clopper_pearson_interval(0, 0, 0.95);
  EXPECT_EQ(empty.lower, 0.0);
  EXPECT_EQ(empty.upper, 1.0);
  // s == 0 pins lower to exactly 0; the upper is the exact 1-(alpha/2)
  // bound 1 - (alpha/2)^(1/n): for n=10, 0.30850.
  const BinomialInterval none = clopper_pearson_interval(0, 10, 0.95);
  EXPECT_EQ(none.lower, 0.0);
  EXPECT_NEAR(none.upper, 1.0 - std::pow(0.025, 0.1), 5e-4);
  // s == n mirrors it.
  const BinomialInterval all = clopper_pearson_interval(10, 10, 0.95);
  EXPECT_EQ(all.upper, 1.0);
  EXPECT_NEAR(all.lower, std::pow(0.025, 0.1), 5e-4);
}

TEST(RegularizedBeta, ClosedFormIdentities) {
  // I_x(1, 1) == x.
  EXPECT_NEAR(regularized_beta(1.0, 1.0, 0.3), 0.3, 1e-12);
  // I_x(1, b) == 1 - (1-x)^b.
  EXPECT_NEAR(regularized_beta(1.0, 4.0, 0.2), 1.0 - std::pow(0.8, 4.0),
              1e-12);
  // Symmetry: I_x(a, b) == 1 - I_{1-x}(b, a).
  EXPECT_NEAR(regularized_beta(2.5, 3.5, 0.4),
              1.0 - regularized_beta(3.5, 2.5, 0.6), 1e-12);
  // I_{1/2}(a, a) == 1/2.
  EXPECT_NEAR(regularized_beta(7.0, 7.0, 0.5), 0.5, 1e-12);
}

TEST(Sprt, LlrAndThresholdsMatchHandComputation) {
  // H1 "p >= 0.9" vs H0 "p <= 0.8" at alpha = beta = 0.05.
  const SprtTest t(0.8, 0.9, 0.05, 0.05);
  EXPECT_NEAR(t.accept_threshold(), std::log(0.95 / 0.05), 1e-12);
  EXPECT_NEAR(t.reject_threshold(), std::log(0.05 / 0.95), 1e-12);
  // llr = s ln(p1/p0) + f ln((1-p1)/(1-p0)).
  EXPECT_NEAR(t.llr(10, 12),
              10.0 * std::log(0.9 / 0.8) + 2.0 * std::log(0.1 / 0.2), 1e-12);
  EXPECT_NEAR(t.llr(0, 0), 0.0, 1e-15);
}

TEST(Sprt, DecisionBoundaries) {
  const SprtTest t(0.8, 0.9, 0.05, 0.05);
  // ln(19) / ln(1.125) = 24.999... -> 25 straight successes certify,
  // 24 do not.
  EXPECT_EQ(t.decide(24, 24), SprtTest::Decision::kContinue);
  EXPECT_EQ(t.decide(25, 25), SprtTest::Decision::kAcceptH1);
  // ln(19) / ln(2) = 4.25 -> 5 straight failures refute, 4 do not.
  EXPECT_EQ(t.decide(0, 4), SprtTest::Decision::kContinue);
  EXPECT_EQ(t.decide(0, 5), SprtTest::Decision::kAcceptH0);
  // A mixed stream inside the indifference region keeps sampling.
  EXPECT_EQ(t.decide(17, 20), SprtTest::Decision::kContinue);
}

// --- shared capped exponential backoff ----------------------------------

TEST(BackoffShift, CapsAndSaturates) {
  EXPECT_EQ(backoff_shift(64, 0, 3), 64u);
  EXPECT_EQ(backoff_shift(64, 1, 3), 128u);
  EXPECT_EQ(backoff_shift(64, 3, 3), 512u);
  EXPECT_EQ(backoff_shift(64, 9, 3), 512u);   // capped at shift 3
  EXPECT_EQ(backoff_shift(64, 5, -1), 2048u);  // cap < 0: uncapped
  EXPECT_EQ(backoff_shift(64, -7, 3), 64u);    // negative attempt: shift 0
  EXPECT_EQ(backoff_shift(0, 5, 3), 0u);
  // Saturation instead of UB: shift >= 64 and multiply overflow both pin
  // to the maximum (an effectively-infinite deadline, not a tiny one).
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(backoff_shift(1, 64, -1), kMax);
  EXPECT_EQ(backoff_shift(1, 200, -1), kMax);
  EXPECT_EQ(backoff_shift(std::uint64_t{1} << 63, 1, -1), kMax);
  EXPECT_EQ(backoff_shift(std::uint64_t{3} << 62, 2, -1), kMax);
  static_assert(backoff_shift(64, 2, 10) == 256, "constexpr-evaluable");
}

// --- jobs x threads budgeting -------------------------------------------

TEST(ResolveJobs, ExplicitJobsAlwaysWin) {
  EXPECT_EQ(resolve_jobs(4), 4);
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(3, 8), 3);
  EXPECT_EQ(resolve_jobs(1, 1000), 1);
}

TEST(ResolveJobs, AutoBudgetsAgainstThreadsPerJob) {
  const int hw = resolve_jobs(0);
  ASSERT_GE(hw, 1);
  // threads_per_job == 1 (or nonsense <= 0) reduces to plain auto.
  EXPECT_EQ(resolve_jobs(0, 1), hw);
  EXPECT_EQ(resolve_jobs(0, 0), hw);
  EXPECT_EQ(resolve_jobs(0, -3), hw);
  // The budget divides the machine and never collapses below one job.
  EXPECT_EQ(resolve_jobs(0, 2), hw / 2 < 1 ? 1 : hw / 2);
  EXPECT_EQ(resolve_jobs(0, hw), 1);
  EXPECT_EQ(resolve_jobs(0, hw + 1), 1);
  EXPECT_EQ(resolve_jobs(0, 1 << 20), 1);
}

// --- replication seed derivation ----------------------------------------

TEST(ReplicationSeeds, NonZeroDistinctAndStable) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t rep = 0; rep < 1000; ++rep) {
    const std::uint64_t s = derive_replication_seed(42, rep);
    EXPECT_NE(s, 0u);
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions across the campaign
  // Pure function of (base, rep): stable across calls, distinct across
  // bases.
  EXPECT_EQ(derive_replication_seed(42, 7), derive_replication_seed(42, 7));
  EXPECT_NE(derive_replication_seed(42, 7), derive_replication_seed(43, 7));
}

TEST(ReplicationSeeds, ConfigDerivationRespectsVaryFaults) {
  SyntheticExperimentConfig base;
  base.faults.hard_router_pct = 0.05;
  base.faults.seed = 99;

  CertifyOptions opts;
  opts.seed_base = 7;
  opts.vary_faults = false;
  const SyntheticExperimentConfig pinned = replication_config(base, opts, 3);
  EXPECT_EQ(pinned.seed, derive_replication_seed(7, 3));
  EXPECT_EQ(pinned.faults.seed, 99u);  // "THESE routers die" mode

  opts.vary_faults = true;
  const SyntheticExperimentConfig varied = replication_config(base, opts, 3);
  EXPECT_EQ(varied.seed, pinned.seed);
  EXPECT_NE(varied.faults.seed, 99u);
  // Distinct replications -> distinct config fingerprints (the
  // certificate's config_fingerprint tells campaigns apart the same way).
  EXPECT_NE(sweep_point_fingerprint(replication_config(base, opts, 0)),
            sweep_point_fingerprint(replication_config(base, opts, 1)));
}

// --- campaign-level determinism -----------------------------------------

SyntheticExperimentConfig certify_config(std::uint64_t fault_seed) {
  SyntheticExperimentConfig ex;
  ex.noc.width = 4;
  ex.noc.height = 4;
  ex.scheme = Scheme::kGFlov;
  ex.pattern = "uniform";
  ex.inj_rate_flits = 0.05;
  ex.gated_fraction = 0.3;
  ex.warmup = 200;
  ex.measure = 600;
  ex.noc.reliable = true;
  ex.noc.retx_timeout = 64;
  ex.noc.sleep_reannounce_interval = 128;
  ex.noc.psr_block_timeout = 192;
  ex.drain_max = 20000;
  ex.max_cycles_hard = 100000;
  ex.verifier.fatal = false;
  ex.verifier.settle_window = 512;
  ex.faults.hard_router_pct = 0.06;
  ex.faults.hard_at_cycle = ex.warmup + 200;
  ex.faults.seed = fault_seed;
  return ex;
}

void expect_identical(const CertifyResult& a, const CertifyResult& b) {
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  EXPECT_EQ(a.stopped_early, b.stopped_early);
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (std::size_t i = 0; i < a.estimates.size(); ++i) {
    SCOPED_TRACE(a.estimates[i].metric);
    EXPECT_EQ(a.estimates[i].metric, b.estimates[i].metric);
    EXPECT_EQ(a.estimates[i].successes, b.estimates[i].successes);
    EXPECT_EQ(a.estimates[i].trials, b.estimates[i].trials);
    // Bit-exact, not NEAR: same counts through the same fixed-iteration
    // numerics must yield the same doubles (the certificate is diffed
    // byte-for-byte in CI).
    EXPECT_EQ(a.estimates[i].point, b.estimates[i].point);
    EXPECT_EQ(a.estimates[i].wilson.lower, b.estimates[i].wilson.lower);
    EXPECT_EQ(a.estimates[i].wilson.upper, b.estimates[i].wilson.upper);
    EXPECT_EQ(a.estimates[i].clopper_pearson.lower,
              b.estimates[i].clopper_pearson.lower);
    EXPECT_EQ(a.estimates[i].clopper_pearson.upper,
              b.estimates[i].clopper_pearson.upper);
  }
}

TEST(Certification, EstimatesAreIdenticalAcrossJobCounts) {
  const SyntheticExperimentConfig base = certify_config(11);
  CertifyOptions opts;
  opts.metric = "delivery";
  opts.min_replications = 4;
  opts.max_replications = 8;
  opts.batch = 4;
  opts.seed_base = 5;
  opts.vary_faults = true;

  opts.jobs = 1;
  const CertifyResult serial = run_certification(base, opts);
  opts.jobs = 2;
  const CertifyResult parallel = run_certification(base, opts);
  expect_identical(serial, parallel);

  // Sanity on the folded shape: all three metrics, fixed order, points
  // inside their own intervals, per-packet trials dwarf per-run trials.
  ASSERT_EQ(serial.estimates.size(), 3u);
  EXPECT_EQ(serial.estimates[0].metric, "delivery");
  EXPECT_EQ(serial.estimates[1].metric, "clean_delivery");
  EXPECT_EQ(serial.estimates[2].metric, "run_survival");
  for (const CertifyEstimate& e : serial.estimates) {
    ASSERT_GT(e.trials, 0u);
    EXPECT_GE(e.point, e.wilson.lower);
    EXPECT_LE(e.point, e.wilson.upper);
    EXPECT_GE(e.point, e.clopper_pearson.lower);
    EXPECT_LE(e.point, e.clopper_pearson.upper);
  }
  EXPECT_EQ(serial.estimates[2].trials, serial.replications);
  EXPECT_GT(serial.estimates[0].trials, serial.estimates[2].trials);
  EXPECT_EQ(serial.replications, 8u);
  EXPECT_EQ(serial.stop_reason, "max_replications");
}

TEST(Certification, SequentialRuleStopsBeforeTheCap) {
  // Healthy fabric, modest target: the per-packet SPRT resolves on the
  // first decision boundary, far short of the cap.
  SyntheticExperimentConfig base = certify_config(0);
  base.faults = FaultParams{};
  CertifyOptions opts;
  opts.metric = "delivery";
  opts.target = 0.5;
  opts.indifference = 0.05;
  opts.min_replications = 2;
  opts.max_replications = 50;
  opts.batch = 2;
  opts.jobs = 1;
  const CertifyResult res = run_certification(base, opts);
  EXPECT_TRUE(res.stopped_early);
  EXPECT_EQ(res.stop_reason, "target_certified");
  EXPECT_LT(res.replications, opts.max_replications);
  EXPECT_EQ(res.target_estimate.metric, "delivery");
  EXPECT_GT(res.target_estimate.point, 0.5);
}

TEST(Certification, ImpossibleTargetIsRefutedEarly) {
  // Routers die and the target demands near-perfect delivery: the SPRT
  // must refute, and just as early.
  const SyntheticExperimentConfig base = certify_config(17);
  CertifyOptions opts;
  opts.metric = "delivery";
  opts.target = 0.9995;
  opts.indifference = 0.0004;
  opts.min_replications = 2;
  opts.max_replications = 50;
  opts.batch = 2;
  opts.jobs = 1;
  const CertifyResult res = run_certification(base, opts);
  EXPECT_TRUE(res.stopped_early);
  EXPECT_EQ(res.stop_reason, "target_refuted");
  EXPECT_LT(res.replications, opts.max_replications);
}

TEST(Certification, HalfWidthRuleStopsOnItsOwn) {
  // No SPRT target: the campaign runs until the Wilson half-width on
  // delivery tightens below the bound (per-packet counts get there fast).
  SyntheticExperimentConfig base = certify_config(0);
  base.faults = FaultParams{};
  CertifyOptions opts;
  opts.metric = "delivery";
  opts.half_width_stop = 0.02;
  opts.min_replications = 2;
  opts.max_replications = 50;
  opts.batch = 2;
  opts.jobs = 1;
  const CertifyResult res = run_certification(base, opts);
  EXPECT_TRUE(res.stopped_early);
  EXPECT_EQ(res.stop_reason, "half_width");
  EXPECT_LE(res.target_estimate.wilson.half_width(), 0.02);
}

}  // namespace
}  // namespace flov
