// Deterministic ops snapshot: an immutable, versioned fold of the sim's
// observable state (flyover-snapshot-v1), published at a fixed cycle period
// and double-buffered behind a shared_ptr swap so HTTP readers and the
// JSONL flight recorder never touch live sim state.
//
// Determinism contract: every field is a pure function of (config, seed,
// publish cycle). No wall-clock values, no thread counts, no addresses —
// the final snapshot of a run compares byte-identical across threads=1/N
// and jobs=1/N (ops_test.cpp locks this in). Wall-clock
// facts (uptime, stall detection age) live only in /healthz, which is
// volatile by definition and never diffed.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace flov::ops {

/// One published snapshot. Node arrays are row-major width*height grids
/// (empty in campaign mode, where width == height == 0).
struct OpsSnapshot {
  std::uint64_t seq = 0;    ///< publication counter (1-based)
  std::uint64_t cycle = 0;  ///< sim cycle the fold was taken at
  std::uint64_t total_cycles = 0;
  std::string scheme;
  int width = 0;
  int height = 0;

  // --- fabric globals (run mode) ---
  std::uint64_t injected_flits = 0;
  std::uint64_t ejected_flits = 0;
  std::uint64_t in_network_flits = 0;
  std::uint64_t queued_packets = 0;
  std::uint64_t gated_routers = 0;
  std::uint64_t hist_overflow = 0;  ///< latency.hist_overflow (clamped highs)

  // --- incident counters (from the structured sink) ---
  std::uint64_t incidents_total = 0;
  std::uint64_t incidents_hard_fault = 0;      ///< kind == hard_fault_summary
  std::uint64_t incidents_watchdog_stall = 0;  ///< kind == watchdog_stall

  /// True when ejected_flits made no progress between the two most recent
  /// folds while flits were in the network — the /healthz liveness signal.
  bool stalled = false;
  /// cycle / total_cycles in run mode, points_done / points_total in
  /// campaign mode (0 when the denominator is unknown).
  double progress = 0.0;

  // --- campaign mode (sweep / certify) ---
  bool campaign = false;
  std::uint64_t points_done = 0;
  std::uint64_t points_total = 0;

  // --- per-node grids, indexed by node id (row-major) ---
  std::vector<std::uint8_t> mode;          ///< RouterMode numeric value
  std::vector<std::uint8_t> power_state;   ///< scheme PowerState (0 if N/A)
  std::vector<std::uint32_t> occupancy;    ///< flits resident in the router
  std::vector<std::uint32_t> queued;       ///< packets waiting in the NI
  std::vector<std::uint64_t> ejected_packets;  ///< delivered at this node
  std::vector<std::uint64_t> latency_sum;      ///< sum of total_latency here
  std::vector<std::uint64_t> gated_cycles;     ///< cycles spent non-pipeline

  /// {"schema":"flyover-snapshot-v1", ...} — the /snapshot + JSONL payload.
  std::string to_json() const;
  /// {"schema":"flyover-heatmap-v1", ...} — height x width nested arrays
  /// per grid (mode, occupancy, queued, avg_latency, gated_cycles), the
  /// /heatmap payload consumed by scripts/render_heatmap.py.
  std::string heatmap_json() const;
  /// Prometheus text exposition (flyover_* families) — the /metrics payload.
  std::string prometheus_text() const;
};

/// Double buffer: the sim thread folds into a fresh snapshot and publishes
/// it with a pointer swap; readers take a shared_ptr copy and hold the
/// immutable snapshot for as long as they like.
class SnapshotPublisher {
 public:
  void publish(OpsSnapshot snap) {
    auto p = std::make_shared<const OpsSnapshot>(std::move(snap));
    std::lock_guard<std::mutex> lock(mu_);
    current_ = std::move(p);
  }

  /// Latest snapshot; null before the first publication.
  std::shared_ptr<const OpsSnapshot> current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const OpsSnapshot> current_;
};

}  // namespace flov::ops
