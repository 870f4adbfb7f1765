// Metrics registry: named counters / gauges / stats / histograms /
// windowed time-series, registered by the simulator's subsystems (Network,
// HSC aggregates, PowerTracker, FabricManager, the escape-VC router path,
// LatencyStats) and merged deterministically across sweep-runner threads.
//
// Determinism contract: iteration is always in sorted-name order
// (std::map), doubles serialize with %.17g, and merge() is a pure fold —
// run_sweep folds per-point registries in SUBMISSION order, so a jobs=N
// sweep produces byte-identical merged output to jobs=1 (the CI manifest
// diff enforces this).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace flov::telemetry {

class JsonWriter;

class MetricsRegistry {
 public:
  /// `series_window`: bucket width for time-series created by series();
  /// 0 defers to the per-series default (1024 cycles).
  explicit MetricsRegistry(Cycle series_window = 0)
      : series_window_(series_window) {}

  /// Monotonic counter (created at 0 on first use).
  std::uint64_t& counter(const std::string& name) { return counters_[name]; }
  /// Point-in-time value (created at 0.0 on first use).
  double& gauge(const std::string& name) { return gauges_[name]; }
  /// Streaming accumulator (mean/min/max/stddev).
  StatAccumulator& stat(const std::string& name) { return stats_[name]; }
  /// Fixed-bin histogram; bounds are fixed on first use and must match on
  /// every later call (and across merged registries).
  Histogram& histogram(const std::string& name, double lo, double hi,
                       int bins);
  /// Windowed time-series; add samples with TimeSeries::add(cycle, value).
  TimeSeries& series(const std::string& name);

  bool has_counter(const std::string& name) const {
    return counters_.count(name) != 0;
  }
  std::uint64_t counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, StatAccumulator>& stats() const {
    return stats_;
  }
  const std::map<std::string, Histogram>& histograms() const {
    return hists_;
  }
  const std::map<std::string, TimeSeries>& all_series() const {
    return series_;
  }

  /// Folds `other` into this registry: counters add, stats/histograms/
  /// time-series merge (StatAccumulator::merge under the hood), and each
  /// of other's GAUGES becomes one sample of this registry's stat of the
  /// same name (a per-run point value aggregates into a distribution —
  /// e.g. 36 runs' "power.total_mw" gauges merge into count/mean/min/max).
  void merge(const MetricsRegistry& other);

  /// Serializes the full registry as one JSON object. A stat with no
  /// samples writes mean/min/max/stddev as null, so an empty measurement
  /// window never reads as a value of 0.
  void write_json(JsonWriter& w) const;

  bool empty() const {
    return counters_.empty() && gauges_.empty() && stats_.empty() &&
           hists_.empty() && series_.empty();
  }

 private:
  Cycle series_window_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, StatAccumulator> stats_;
  std::map<std::string, Histogram> hists_;
  std::map<std::string, TimeSeries> series_;
};

}  // namespace flov::telemetry
