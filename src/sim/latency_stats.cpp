#include "sim/latency_stats.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"

namespace flov {

LatencyStats::LatencyStats(int router_pipeline_cycles, Cycle timeline_window,
                           Cycle hist_max)
    : pipeline_(router_pipeline_cycles),
      hist_(0, static_cast<double>(hist_max), static_cast<int>(hist_max)),
      timeline_window_(timeline_window),
      timeline_(timeline_window ? timeline_window : 1) {}

void LatencyStats::record(const PacketRecord& rec) {
  if (rec.gen_cycle < measure_from_) return;
  const double total = static_cast<double>(rec.total_latency());
  const double router = pipeline_ * static_cast<double>(rec.router_hops);
  // +2: the injection and ejection NI<->router channel traversals.
  const double link = static_cast<double>(rec.link_hops) + 2.0;
  const double serial = static_cast<double>(rec.size_flits - 1);
  const double flov = static_cast<double>(rec.flov_hops);
  const double contention =
      std::max(0.0, total - router - link - serial - flov);

  latency_.add(total);
  hist_.add(total);
  router_c_.add(router);
  link_c_.add(link);
  serial_c_.add(serial);
  flov_c_.add(flov);
  contention_c_.add(contention);
  hops_.add(static_cast<double>(rec.link_hops));
  flov_hops_.add(static_cast<double>(rec.flov_hops));
  if (rec.used_escape) ++escape_packets_;
  if (timeline_window_) timeline_.add(rec.gen_cycle, total);
}

void LatencyStats::publish_metrics(telemetry::MetricsRegistry& reg) const {
  reg.stat("latency.total").merge(latency_);
  reg.stat("latency.router_component").merge(router_c_);
  reg.stat("latency.link_component").merge(link_c_);
  reg.stat("latency.serialization_component").merge(serial_c_);
  reg.stat("latency.flov_component").merge(flov_c_);
  reg.stat("latency.contention_component").merge(contention_c_);
  reg.stat("latency.link_hops").merge(hops_);
  reg.stat("latency.flov_hops").merge(flov_hops_);
  reg.histogram("latency.histogram", hist_.lo(), hist_.hi(), hist_.num_bins())
      .merge(hist_);
  reg.counter("latency.packets_measured") += latency_.count();
  reg.counter("latency.escape_packets") += escape_packets_;
  reg.counter("latency.hist_overflow") += hist_.clamped_high();
  if (timeline_window_) {
    reg.series("latency.timeline", timeline_window_).merge(timeline_);
  }
}

LatencyBreakdown LatencyStats::avg_breakdown() const {
  LatencyBreakdown b;
  b.router = router_c_.mean();
  b.link = link_c_.mean();
  b.serialization = serial_c_.mean();
  b.flov = flov_c_.mean();
  b.contention = contention_c_.mean();
  return b;
}

}  // namespace flov
