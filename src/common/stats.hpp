// Statistics primitives used by the experiment harness: running accumulators,
// fixed-bin histograms and time-series samplers (for the Fig. 10 latency
// timeline).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace flov {

/// Streaming mean/min/max/variance accumulator (Welford's algorithm).
class StatAccumulator {
 public:
  void add(double x);
  void merge(const StatAccumulator& other);
  void reset();

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  /// Population variance.
  double variance() const;
  double stddev() const;

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Histogram with uniform bins over [lo, hi); out-of-range samples are
/// clamped into the first/last bin AND counted (clamped_low/clamped_high),
/// so saturation is visible instead of silent — a p99 read off a histogram
/// with a non-zero clamped_high() is a lower bound, not an estimate.
/// Percentiles are linear within a bin.
class Histogram {
 public:
  Histogram(double lo, double hi, int bins);

  void add(double x);
  void reset();
  /// Folds `other` (which must have identical bounds/bin count) into this.
  void merge(const Histogram& other);

  std::uint64_t count() const { return total_; }
  double percentile(double p) const;  // p in [0, 100]
  const std::vector<std::uint64_t>& bins() const { return bins_; }
  double bin_low(int i) const { return lo_ + i * width_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  int num_bins() const { return static_cast<int>(bins_.size()); }
  /// Samples clamped into the first/last bin because they fell outside
  /// [lo, hi).
  std::uint64_t clamped_low() const { return clamped_low_; }
  std::uint64_t clamped_high() const { return clamped_high_; }

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t total_ = 0;
  std::uint64_t clamped_low_ = 0;
  std::uint64_t clamped_high_ = 0;
};

/// Buckets samples by time window; used to plot metric-vs-cycle curves
/// (e.g. average packet latency per 1000-cycle window in Fig. 10).
class TimeSeries {
 public:
  explicit TimeSeries(Cycle window) : window_(window) {}

  void add(Cycle when, double value);

  /// Folds `other` (same window width) into this series, merging
  /// overlapping windows via StatAccumulator::merge. Used when combining
  /// per-run metric series across sweep points.
  void merge(const TimeSeries& other);

  struct Point {
    Cycle window_start = 0;
    double mean = 0.0;
    std::uint64_t count = 0;
  };

  /// Windows in increasing time order (empty windows omitted).
  std::vector<Point> points() const;
  Cycle window() const { return window_; }

 private:
  Cycle window_;
  // Sparse: (window index -> accumulator), kept sorted by construction since
  // simulation time is monotone.
  std::vector<std::pair<std::uint64_t, StatAccumulator>> buckets_;
};

/// Formats a double with fixed precision (helper for table printers).
std::string fmt(double v, int precision = 3);

// --- binomial confidence intervals & sequential testing (certification) ---
//
// The reliability-certification harness (src/sim/certify) treats each
// outcome — a packet delivered, a run surviving — as a Bernoulli trial and
// turns Monte-Carlo counts into statistically certified bounds. Everything
// here is closed-form or fixed-iteration numerics: no RNG, no platform-
// dependent iteration counts, so a certificate computed from identical
// counts is byte-identical everywhere the libm is.

/// Standard normal quantile Phi^-1(p), p in (0, 1). Acklam's rational
/// approximation refined with one Halley step (|error| < 1e-15 — far below
/// anything a confidence bound can resolve).
double normal_quantile(double p);

/// Two-sided confidence interval on a binomial proportion.
struct BinomialInterval {
  double lower = 0.0;
  double upper = 1.0;
  double half_width() const { return (upper - lower) / 2.0; }
};

/// Wilson score interval: the default certification bound. Behaves sanely
/// at the extremes (successes == 0 or == trials) where the normal
/// approximation collapses. trials == 0 yields the vacuous [0, 1].
BinomialInterval wilson_interval(std::uint64_t successes,
                                 std::uint64_t trials, double confidence);

/// Clopper-Pearson ("exact") interval: conservative — guaranteed coverage
/// at the cost of width. Computed from the regularized incomplete beta
/// function inverted by fixed-count bisection. trials == 0 yields [0, 1].
BinomialInterval clopper_pearson_interval(std::uint64_t successes,
                                          std::uint64_t trials,
                                          double confidence);

/// Regularized incomplete beta function I_x(a, b) (continued-fraction
/// evaluation); exposed for tests.
double regularized_beta(double a, double b, double x);

/// Wald sequential probability ratio test on a Bernoulli success rate:
/// H1 "p >= p1" (certify) against H0 "p <= p0" (refute), p0 < p1 with an
/// indifference region between. Error rates: alpha = P(accept H1 | H0),
/// beta = P(accept H0 | H1).
class SprtTest {
 public:
  SprtTest(double p0, double p1, double alpha, double beta);

  enum class Decision {
    kContinue = 0,  ///< keep sampling
    kAcceptH1,      ///< certified: p >= p1 at the requested error rates
    kAcceptH0,      ///< refuted: p <= p0 at the requested error rates
  };

  /// Log-likelihood ratio after `successes` of `trials`.
  double llr(std::uint64_t successes, std::uint64_t trials) const;
  Decision decide(std::uint64_t successes, std::uint64_t trials) const;

  double p0() const { return p0_; }
  double p1() const { return p1_; }
  /// Accept H1 once llr >= this (ln((1-beta)/alpha)).
  double accept_threshold() const { return accept_; }
  /// Accept H0 once llr <= this (ln(beta/(1-alpha))).
  double reject_threshold() const { return reject_; }

 private:
  double p0_;
  double p1_;
  double log_success_;  ///< ln(p1/p0)
  double log_failure_;  ///< ln((1-p1)/(1-p0))
  double accept_;
  double reject_;
};

}  // namespace flov
