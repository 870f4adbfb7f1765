#include "telemetry/metrics.hpp"

#include "common/log.hpp"
#include "telemetry/json.hpp"

namespace flov::telemetry {

Histogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                      double hi, int bins) {
  auto it = hists_.find(name);
  if (it == hists_.end()) {
    it = hists_.emplace(name, Histogram(lo, hi, bins)).first;
  } else {
    FLOV_CHECK(it->second.bins().size() == static_cast<std::size_t>(bins) &&
                   it->second.bin_low(0) == lo,
               "histogram re-registered with different bounds: " + name);
  }
  return it->second;
}

TimeSeries& MetricsRegistry::series(const std::string& name, Cycle window) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    if (window == 0) window = series_window_ ? series_window_ : 1024;
    it = series_.emplace(name, TimeSeries(window)).first;
  }
  return it->second;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, v] : other.counters_) counters_[name] += v;
  for (const auto& [name, v] : other.gauges_) stats_[name].add(v);
  for (const auto& [name, acc] : other.stats_) stats_[name].merge(acc);
  for (const auto& [name, h] : other.hists_) {
    auto it = hists_.find(name);
    if (it == hists_.end()) {
      hists_.emplace(name, h);
    } else {
      it->second.merge(h);
    }
  }
  for (const auto& [name, ts] : other.series_) {
    auto it = series_.find(name);
    if (it == series_.end()) {
      series_.emplace(name, ts);
    } else if (it->second.window() == ts.window()) {
      it->second.merge(ts);
    }
  }
}

void MetricsRegistry::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, v] : counters_) w.kv(name, v);
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, v] : gauges_) w.kv(name, v);
  w.end_object();
  w.key("stats");
  w.begin_object();
  for (const auto& [name, acc] : stats_) {
    w.key(name);
    w.begin_object();
    w.kv("count", acc.count());
    const std::pair<const char*, double> fields[] = {
        {"mean", acc.mean()},
        {"min", acc.min()},
        {"max", acc.max()},
        {"stddev", acc.stddev()}};
    for (const auto& [field, v] : fields) {
      w.key(field);
      if (acc.count() == 0) {
        w.null();
      } else {
        w.value(v);
      }
    }
    w.end_object();
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : hists_) {
    w.key(name);
    w.begin_object();
    w.kv("lo", h.bin_low(0));
    w.kv("hi", h.bin_low(static_cast<int>(h.bins().size())));
    w.kv("count", h.count());
    w.kv("clamped_low", h.clamped_low());
    w.kv("clamped_high", h.clamped_high());
    w.key("bins");
    w.begin_array();
    // Sparse encoding: [index, count] pairs for non-empty bins only.
    for (std::size_t i = 0; i < h.bins().size(); ++i) {
      if (h.bins()[i] == 0) continue;
      w.begin_array();
      w.value(static_cast<std::uint64_t>(i));
      w.value(h.bins()[i]);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.key("series");
  w.begin_object();
  for (const auto& [name, ts] : series_) {
    w.key(name);
    w.begin_object();
    w.kv("window", static_cast<std::uint64_t>(ts.window()));
    w.key("points");
    w.begin_array();
    for (const TimeSeries::Point& p : ts.points()) {
      w.begin_array();
      w.value(static_cast<std::uint64_t>(p.window_start));
      w.value(p.mean);
      w.value(p.count);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace flov::telemetry
