// Statistical reliability certification (ROADMAP "Statistical reliability
// certification"; cf. "Probabilistic Verification for Reliability of a 2x2
// NoC", arXiv 2108.13148).
//
// A certification campaign replicates ONE experiment configuration across
// many derived seeds (via run_sweep, so replications parallelize like any
// sweep), folds each run's delivered/dead/purged packet
// accounting and incident counters into per-metric Bernoulli estimators,
// and turns the counts into confidence intervals (Wilson + Clopper-Pearson)
// with a sequential stopping rule: stop as soon as the CI is tight enough
// or an SPRT against a target reliability resolves, bounded by a hard
// replication cap.
//
// Determinism contract: stopping decisions are made ONLY at batch
// boundaries, and batch results fold in submission order — so the folded
// counts, the stopping cycle and hence the emitted certificate are
// byte-identical across jobs=1 vs jobs=N (modulo the volatile
// jobs/wall_seconds manifest fields). A killed campaign recovers by being
// run again.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "sim/experiment.hpp"

namespace flov {

/// Metrics a campaign can certify. All are Bernoulli proportions:
///   delivery        per-packet: acked / (acked + dead + purged +
///                   killed_at_source) — every settled reliable flow.
///   clean_delivery  delivery AND payload intact (soft-error axis):
///                   corrupted deliveries count as failures.
///   run_survival    per-run: the replication finished without aborting
///                   and with zero invariant violations.
struct CertifyOptions {
  std::string metric = "delivery";  ///< drives the stopping rule
  double confidence = 0.95;

  // --- sequential stopping (evaluated at batch boundaries only) ---
  /// SPRT reliability target (0 = disarmed): certify "p >= target +
  /// indifference" against "p <= target - indifference" with
  /// alpha = beta = 1 - confidence.
  double target = 0.0;
  double indifference = 0.01;
  /// CI half-width stop (0 = disarmed): stop once the chosen interval's
  /// half-width drops to this or below.
  double half_width_stop = 0.0;
  /// Interval family for the half-width rule: "wilson" or
  /// "clopper-pearson". The certificate always carries both.
  std::string interval = "wilson";
  /// No stopping decision before this many replications have folded
  /// (guards against a lucky first batch certifying from nothing).
  std::uint64_t min_replications = 64;
  /// Hard cap: the campaign never runs more replications than this.
  std::uint64_t max_replications = 1024;
  /// Replications per run_sweep batch. Decisions happen only after a full
  /// batch folds, so `batch` trades early-stopping granularity against
  /// sweep-level parallelism.
  std::uint64_t batch = 32;

  // --- seed derivation ---
  std::uint64_t seed_base = 1;
  /// Also vary faults.seed per replication (the usual Monte-Carlo mode).
  /// false pins the fault fates — e.g. "THESE two routers die" — while
  /// traffic seeds still vary.
  bool vary_faults = true;

  // --- sweep plumbing ---
  int jobs = 1;
  /// Overall progress: (replications_folded, max_replications).
  std::function<void(std::uint64_t done, std::uint64_t cap)> progress;
  /// Called after every folded batch with the replication count so far and
  /// the target metric's running estimate (flov_certify_cli prints it).
  std::function<void(std::uint64_t reps, const struct CertifyEstimate& e)>
      batch_hook;
};

/// One metric's folded counts and intervals.
struct CertifyEstimate {
  std::string metric;
  std::uint64_t successes = 0;
  std::uint64_t trials = 0;
  double point = 0.0;  ///< successes / trials (0 when trials == 0)
  BinomialInterval wilson;           ///< at CertifyOptions::confidence
  BinomialInterval clopper_pearson;  ///< at CertifyOptions::confidence
};

struct CertifyResult {
  /// Replications actually folded (== the certified seed range
  /// [seed_base..) length; < max_replications iff stopped early).
  std::uint64_t replications = 0;
  /// "target_certified" | "target_refuted" | "half_width" |
  /// "max_replications".
  std::string stop_reason;
  bool stopped_early = false;
  /// Estimates in fixed order: delivery, clean_delivery, run_survival.
  std::vector<CertifyEstimate> estimates;
  /// The target metric's estimate (also present in `estimates`).
  CertifyEstimate target_estimate;

  const CertifyEstimate* find(const std::string& metric) const {
    for (const CertifyEstimate& e : estimates) {
      if (e.metric == metric) return &e;
    }
    return nullptr;
  }
};

/// Seed for replication `rep` of a campaign rooted at `seed_base`:
/// a splitmix-style hash, so adjacent replications are statistically
/// independent and replication i's seed never depends on how many
/// replications ran before it.
std::uint64_t derive_replication_seed(std::uint64_t seed_base,
                                      std::uint64_t rep);

/// The exact config replication `rep` runs: base with the traffic seed
/// (and, when opts.vary_faults, the fault seed) rederived. Exposed so
/// tests and benchmarks run exactly the campaign's replications.
SyntheticExperimentConfig replication_config(
    const SyntheticExperimentConfig& base, const CertifyOptions& opts,
    std::uint64_t rep);

/// Runs the campaign. The base config's per-run verifier must not be fatal
/// if run_survival is to mean anything (a fatal verifier aborts the
/// process, not the replication).
CertifyResult run_certification(const SyntheticExperimentConfig& base,
                                const CertifyOptions& opts);

}  // namespace flov
