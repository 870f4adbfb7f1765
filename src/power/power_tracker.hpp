// Per-network power accounting.
//
// Tracks, per router tile: the leakage-relevant power mode over time
// (integrated into static energy) and global dynamic event counts
// (converted into dynamic energy). A measurement window can be (re)opened
// with begin_window() so warm-up activity is excluded, matching the paper's
// 10k-warmup / 100k-total methodology.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/geometry.hpp"
#include "common/types.hpp"
#include "power/energy_model.hpp"

namespace flov {

namespace telemetry {
class MetricsRegistry;
}

class PowerTracker {
 public:
  /// `flov_hardware` selects whether routers pay the FLOV area/leakage
  /// overhead (true for rFLOV/gFLOV networks, false for Baseline/RP).
  PowerTracker(const MeshGeometry& geom, const EnergyParams& params,
               bool flov_hardware);

  /// Declares a router's power mode starting at `now` (inclusive).
  void set_mode(NodeId router, RouterPowerMode mode, Cycle now);
  RouterPowerMode mode(NodeId router) const { return modes_[router]; }

  /// Counts `n` dynamic events of class `e` (global cell — control-plane
  /// callers only: signal fabric, HSCs; never from a domain worker).
  void count(EnergyEvent e, std::uint64_t n = 1) {
    event_counts_[static_cast<int>(e)] += n;
  }
  /// Counts `n` dynamic events attributed to `router`'s tile. Routers use
  /// this so domain-parallel stepping writes disjoint per-node cells; the
  /// readers below fold node cells + the global cell in fixed order, so
  /// totals are exact integers independent of the schedule.
  void count_node(NodeId router, EnergyEvent e, std::uint64_t n = 1) {
    node_event_counts_[router].v[static_cast<int>(e)] += n;
  }
  /// `router`'s cell of count_node counters, indexed by EnergyEvent (for
  /// a caller that counts every cycle); valid as long as the tracker.
  std::uint64_t* node_events(NodeId router) {
    return node_event_counts_[router].v.data();
  }
  std::uint64_t event_count(EnergyEvent e) const {
    std::uint64_t n = event_counts_[static_cast<int>(e)];
    for (const auto& cell : node_event_counts_) {
      n += cell.v[static_cast<int>(e)];
    }
    return n;
  }

  /// Starts a fresh measurement window at `now` (drops all prior counts).
  void begin_window(Cycle now);

  struct Report {
    Cycle cycles = 0;            ///< window length
    double static_mw = 0.0;      ///< average leakage power over the window
    double dynamic_mw = 0.0;     ///< average switching power over the window
    double total_mw = 0.0;
    double static_energy_pj = 0.0;
    double dynamic_energy_pj = 0.0;
    double total_energy_pj = 0.0;

    /// The report publish_metrics wrote into `reg` (absent gauges read 0).
    static Report from_metrics(const telemetry::MetricsRegistry& reg);
  };

  /// Computes power/energy over [window_start, now].
  Report report(Cycle now) const;

  /// Registers/updates this tracker's metrics in `reg`: one
  /// "power.events.<name>" counter per dynamic-event class plus the
  /// report(now) power/energy figures as "power.*" gauges.
  void publish_metrics(telemetry::MetricsRegistry& reg, Cycle now) const;

  const EnergyParams& params() const { return params_; }

 private:
  /// Leakage power (mW) of router `r` plus its outgoing link drivers in
  /// mode `m`.
  double tile_leak_mw(NodeId r, RouterPowerMode m) const;

  EnergyParams params_;
  bool flov_hardware_;
  std::vector<RouterPowerMode> modes_;
  std::vector<Cycle> mode_since_;        // cycle at which current mode began
  std::vector<double> static_energy_pj_; // per-router, flushed-to-date
  std::vector<int> out_links_;           // outgoing mesh links per router
  std::array<std::uint64_t, kNumEnergyEvents> event_counts_{};
  /// One router's event cell, padded to whole cache lines (64 matches
  /// every x86-64/AArch64 target this runs on): under domain-parallel
  /// stepping, routers at a tile boundary bump adjacent cells from
  /// different workers every switch traversal — unpadded, the boundary
  /// cells straddle a shared line and ping-pong it.
  struct alignas(64) NodeEventCell {
    std::array<std::uint64_t, kNumEnergyEvents> v{};
    void fill(std::uint64_t x) { v.fill(x); }
  };
  /// Per-router event cells (see count_node).
  std::vector<NodeEventCell> node_event_counts_;
  Cycle window_start_ = 0;
};

}  // namespace flov
