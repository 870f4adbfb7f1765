#include "common/stats.hpp"

#include <cmath>
#include <cstdio>

#include "common/log.hpp"

namespace flov {

void StatAccumulator::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void StatAccumulator::merge(const StatAccumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void StatAccumulator::reset() { *this = StatAccumulator{}; }

double StatAccumulator::variance() const {
  return count_ ? m2_ / static_cast<double>(count_) : 0.0;
}

double StatAccumulator::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, int bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / bins), bins_(bins, 0) {
  FLOV_CHECK(hi > lo && bins > 0, "bad histogram bounds");
}

void Histogram::add(double x) {
  int idx = static_cast<int>((x - lo_) / width_);
  if (idx < 0) {
    idx = 0;
    ++clamped_low_;
  } else if (idx >= static_cast<int>(bins_.size())) {
    idx = static_cast<int>(bins_.size()) - 1;
    ++clamped_high_;
  }
  ++bins_[idx];
  ++total_;
}

void Histogram::reset() {
  std::fill(bins_.begin(), bins_.end(), 0);
  total_ = 0;
  clamped_low_ = 0;
  clamped_high_ = 0;
}

void Histogram::merge(const Histogram& other) {
  FLOV_CHECK(bins_.size() == other.bins_.size() && lo_ == other.lo_ &&
                 hi_ == other.hi_,
             "merging histograms with different bounds");
  for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
  total_ += other.total_;
  clamped_low_ += other.clamped_low_;
  clamped_high_ += other.clamped_high_;
}

double Histogram::percentile(double p) const {
  if (total_ == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const double next = cum + static_cast<double>(bins_[i]);
    if (next >= target) {
      const double frac =
          bins_[i] ? (target - cum) / static_cast<double>(bins_[i]) : 0.0;
      return bin_low(static_cast<int>(i)) + frac * width_;
    }
    cum = next;
  }
  return hi_;
}

void TimeSeries::add(Cycle when, double value) {
  const std::uint64_t idx = when / window_;
  if (buckets_.empty() || buckets_.back().first < idx) {
    buckets_.emplace_back(idx, StatAccumulator{});
  }
  // Simulation time is monotone, but merged streams may insert into earlier
  // windows; search backward for the right bucket (usually the last one).
  for (auto it = buckets_.rbegin(); it != buckets_.rend(); ++it) {
    if (it->first == idx) {
      it->second.add(value);
      return;
    }
    if (it->first < idx) break;
  }
  // Rare out-of-order insert: create and keep sorted.
  auto pos = std::lower_bound(
      buckets_.begin(), buckets_.end(), idx,
      [](const auto& b, std::uint64_t i) { return b.first < i; });
  pos = buckets_.insert(pos, {idx, StatAccumulator{}});
  pos->second.add(value);
}

void TimeSeries::merge(const TimeSeries& other) {
  FLOV_CHECK(window_ == other.window_,
             "merging time series with different windows");
  for (const auto& [idx, acc] : other.buckets_) {
    auto pos = std::lower_bound(
        buckets_.begin(), buckets_.end(), idx,
        [](const auto& b, std::uint64_t i) { return b.first < i; });
    if (pos == buckets_.end() || pos->first != idx) {
      pos = buckets_.insert(pos, {idx, StatAccumulator{}});
    }
    pos->second.merge(acc);
  }
}

std::vector<TimeSeries::Point> TimeSeries::points() const {
  std::vector<Point> out;
  out.reserve(buckets_.size());
  for (const auto& [idx, acc] : buckets_) {
    out.push_back(Point{idx * window_, acc.mean(), acc.count()});
  }
  return out;
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

// --- binomial confidence intervals & sequential testing ---

namespace {

/// Standard normal CDF via the complementary error function.
double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// Log-gamma (Lanczos, g=7, n=9): |rel error| < 1e-13 for x > 0.
double log_gamma(double x) {
  static const double kCoef[] = {
      0.99999999999980993,  676.5203681218851,   -1259.1392167224028,
      771.32342877765313,   -176.61502916214059, 12.507343278686905,
      -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7};
  if (x < 0.5) {
    // Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x).
    return std::log(M_PI / std::sin(M_PI * x)) - log_gamma(1.0 - x);
  }
  x -= 1.0;
  double a = kCoef[0];
  const double t = x + 7.5;
  for (int i = 1; i < 9; ++i) a += kCoef[i] / (x + static_cast<double>(i));
  return 0.5 * std::log(2.0 * M_PI) + (x + 0.5) * std::log(t) - t +
         std::log(a);
}

/// Continued fraction for the incomplete beta function (Lentz's method,
/// fixed 200-iteration cap; converges in a handful of steps for the
/// argument ranges confidence bounds produce).
double betacf(double a, double b, double x) {
  constexpr int kMaxIter = 200;
  constexpr double kEps = 3e-16;
  constexpr double kFpMin = 1e-300;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    double del = d * c;
    h *= del;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

/// Inverts p = I_x(a, b) by bisection with a fixed iteration count: 100
/// halvings pin x to ~1e-30, far past double resolution, and the fixed
/// count keeps the result schedule- and platform-iteration independent.
double regularized_beta_inv(double a, double b, double p) {
  double lo = 0.0;
  double hi = 1.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (regularized_beta(a, b, mid) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

double regularized_beta(double a, double b, double x) {
  FLOV_CHECK(a > 0.0 && b > 0.0, "regularized_beta needs a, b > 0");
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front = log_gamma(a + b) - log_gamma(a) - log_gamma(b) +
                          a * std::log(x) + b * std::log(1.0 - x);
  // Symmetry: use the continued fraction on whichever tail converges fast.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return std::exp(ln_front) * betacf(a, b, x) / a;
  }
  return 1.0 - std::exp(ln_front) * betacf(b, a, 1.0 - x) / b;
}

double normal_quantile(double p) {
  FLOV_CHECK(p > 0.0 && p < 1.0, "normal_quantile needs p in (0, 1)");
  // Acklam's rational approximation (central + tail regions)...
  static const double A[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double B[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double C[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double D[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double kLow = 0.02425;
  double x;
  if (p < kLow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5]) /
        ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0);
  } else if (p <= 1.0 - kLow) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) *
        q /
        (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q +
          C[5]) /
        ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0);
  }
  // ...refined with one Halley step against the exact CDF.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
  return x - u / (1.0 + x * u / 2.0);
}

BinomialInterval wilson_interval(std::uint64_t successes,
                                 std::uint64_t trials, double confidence) {
  FLOV_CHECK(confidence > 0.0 && confidence < 1.0,
             "confidence must be in (0, 1)");
  FLOV_CHECK(successes <= trials, "more successes than trials");
  if (trials == 0) return {};
  const double z = normal_quantile(0.5 + confidence / 2.0);
  const double n = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (phat + z2 / (2.0 * n)) / denom;
  const double hw =
      z * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom;
  BinomialInterval ci;
  ci.lower = std::max(0.0, center - hw);
  ci.upper = std::min(1.0, center + hw);
  // Pin the degenerate ends exactly: at s == 0 / s == n the true bound is
  // 0 / 1, and float residue there would leak into byte-diffed
  // certificates.
  if (successes == 0) ci.lower = 0.0;
  if (successes == trials) ci.upper = 1.0;
  return ci;
}

BinomialInterval clopper_pearson_interval(std::uint64_t successes,
                                          std::uint64_t trials,
                                          double confidence) {
  FLOV_CHECK(confidence > 0.0 && confidence < 1.0,
             "confidence must be in (0, 1)");
  FLOV_CHECK(successes <= trials, "more successes than trials");
  if (trials == 0) return {};
  const double alpha = 1.0 - confidence;
  const double s = static_cast<double>(successes);
  const double n = static_cast<double>(trials);
  BinomialInterval ci;
  ci.lower = successes == 0
                 ? 0.0
                 : regularized_beta_inv(s, n - s + 1.0, alpha / 2.0);
  ci.upper = successes == trials
                 ? 1.0
                 : regularized_beta_inv(s + 1.0, n - s, 1.0 - alpha / 2.0);
  return ci;
}

SprtTest::SprtTest(double p0, double p1, double alpha, double beta)
    : p0_(p0), p1_(p1) {
  FLOV_CHECK(p0 > 0.0 && p1 < 1.0 && p0 < p1,
             "SPRT needs 0 < p0 < p1 < 1");
  FLOV_CHECK(alpha > 0.0 && alpha < 1.0 && beta > 0.0 && beta < 1.0,
             "SPRT error rates must be in (0, 1)");
  log_success_ = std::log(p1 / p0);
  log_failure_ = std::log((1.0 - p1) / (1.0 - p0));
  accept_ = std::log((1.0 - beta) / alpha);
  reject_ = std::log(beta / (1.0 - alpha));
}

double SprtTest::llr(std::uint64_t successes, std::uint64_t trials) const {
  FLOV_CHECK(successes <= trials, "more successes than trials");
  const double s = static_cast<double>(successes);
  const double f = static_cast<double>(trials - successes);
  return s * log_success_ + f * log_failure_;
}

SprtTest::Decision SprtTest::decide(std::uint64_t successes,
                                    std::uint64_t trials) const {
  const double l = llr(successes, trials);
  if (l >= accept_) return Decision::kAcceptH1;
  if (l <= reject_) return Decision::kAcceptH0;
  return Decision::kContinue;
}

}  // namespace flov
