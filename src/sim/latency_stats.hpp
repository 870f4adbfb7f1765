// Packet-latency collection with the paper's five-way breakdown (Fig. 8):
//   router        = powered-router pipeline traversals x 3 cycles
//   link          = link traversals x 1 cycle (+2 cycles NI<->router)
//   serialization = (flits per packet - 1)
//   FLOV          = FLOV latch traversals x 1 cycle
//   contention    = everything else (queuing + blocking)
// Total latency is generation-to-tail-ejection, so source queuing counts
// as contention (this is what makes the Fig. 10 reconfiguration spikes
// visible).
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "noc/network_interface.hpp"

namespace flov {

struct LatencyBreakdown {
  double router = 0.0;
  double link = 0.0;
  double serialization = 0.0;
  double flov = 0.0;
  double contention = 0.0;

  double total() const {
    return router + link + serialization + flov + contention;
  }
};

namespace telemetry {
class MetricsRegistry;
}

class LatencyStats {
 public:
  /// `router_pipeline_cycles`: per-hop pipeline depth (3 in Table I).
  /// `timeline_window`: bucket width for the latency-vs-time series (0
  /// disables the series).
  /// `hist_max`: upper clamp of the percentile histogram (1-cycle bins;
  /// NocParams::latency_hist_max).
  explicit LatencyStats(int router_pipeline_cycles = 3,
                        Cycle timeline_window = 0, Cycle hist_max = 4096);

  /// Records a completed packet (call from the NI ejection callback).
  /// Packets generated before `measure_from` are ignored.
  void record(const PacketRecord& rec);

  void set_measure_from(Cycle c) { measure_from_ = c; }
  Cycle measure_from() const { return measure_from_; }

  std::uint64_t packets() const { return latency_.count(); }
  double avg_latency() const { return latency_.mean(); }
  /// Percentile from a 1-cycle-resolution histogram (clamped at hist_max).
  double latency_percentile(double p) const { return hist_.percentile(p); }
  LatencyBreakdown avg_breakdown() const;
  std::uint64_t escape_packets() const { return escape_packets_; }
  /// Packets whose latency met or exceeded the histogram cap (their
  /// percentile contribution saturates at hist_max - 1).
  std::uint64_t hist_overflow() const { return hist_.clamped_high(); }

  /// Registers/updates this collector's metrics ("latency.*") in `reg`;
  /// the timeline, when on, is the series "latency.timeline".
  void publish_metrics(telemetry::MetricsRegistry& reg) const;

  const TimeSeries* timeline() const {
    return timeline_window_ ? &timeline_ : nullptr;
  }

 private:
  int pipeline_;
  Cycle measure_from_ = 0;
  StatAccumulator latency_;
  StatAccumulator router_c_;
  StatAccumulator link_c_;
  StatAccumulator serial_c_;
  StatAccumulator flov_c_;
  StatAccumulator contention_c_;
  StatAccumulator hops_;
  StatAccumulator flov_hops_;
  std::uint64_t escape_packets_ = 0;
  Histogram hist_;
  Cycle timeline_window_;
  TimeSeries timeline_;
};

}  // namespace flov
