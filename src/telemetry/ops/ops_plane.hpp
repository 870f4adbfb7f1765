// OpsPlane: the live observability surface for runs and campaigns.
//
// Owns the pieces the CLIs wire together: the snapshot publisher (folds
// sim state into immutable flyover-snapshot-v1 documents at a fixed cycle
// period), the embedded HTTP server (/metrics, /snapshot, /heatmap,
// /healthz), the JSONL flight-recorder stream for headless runs, and the
// wall-clock phase profiler.
//
// Invariants (docs/OBSERVABILITY.md, "Ops plane"):
//   * Read-only: the ops plane never mutates sim state, the metrics
//     registry, or anything that lands in a manifest. Manifests are
//     byte-identical with the ops plane on or off (ops_test.cpp).
//   * Deterministic snapshots: folds happen at fixed cycle boundaries and
//     contain no wall-clock values, so the snapshot/JSONL stream of a run
//     is byte-identical across threads=/tiles=/jobs=. Wall-clock facts
//     live only in /healthz and the profile report, both volatile.
//   * Zero overhead when off: a disabled ops plane costs one null-pointer
//     branch per cycle in the run loop; the FLOV_PROFILE hook points are
//     compiled out entirely unless FLYOVER_PROFILING is on.
//
// Threading: begin_run/tick/end_run run on the sim thread between cycle
// barriers, so folds may read network state freely. campaign_progress may
// be called from sweep worker callbacks and takes a lock. The HTTP thread
// only ever touches published (immutable) snapshots.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/types.hpp"
#include "telemetry/ops/http_server.hpp"
#include "telemetry/ops/profile.hpp"
#include "telemetry/ops/snapshot.hpp"

namespace flov {
class Config;
class NocSystem;
namespace telemetry {
class StructuredSink;
}
}  // namespace flov

namespace flov::ops {

struct OpsOptions {
  /// serve=PORT: bind the HTTP server to 127.0.0.1:PORT (0 = ephemeral,
  /// the bound port is printed to stderr); < 0 = no server.
  int serve_port = -1;
  /// ops_stream=PATH: append one snapshot JSON object per fold (JSONL).
  std::string stream_path;
  /// profile=1: enable the phase profiler (needs FLYOVER_PROFILING builds
  /// to produce non-zero numbers; otherwise reports all-zero with a note).
  bool profile = false;
  /// profile_out=PATH: also write the flyover-profile-v1 report here.
  std::string profile_out;
  /// ops.period=N: cycles between snapshot folds.
  std::uint64_t period = 4096;

  /// Reads serve= / ops_stream= / profile= / profile_out= / ops.period=.
  static OpsOptions from_config(const Config& cfg);

  /// True when any surface is requested (the CLIs skip constructing an
  /// OpsPlane entirely otherwise — the disabled path costs nothing).
  bool any() const {
    return serve_port >= 0 || !stream_path.empty() || profile;
  }
};

class OpsPlane {
 public:
  explicit OpsPlane(OpsOptions opt);
  ~OpsPlane();
  OpsPlane(const OpsPlane&) = delete;
  OpsPlane& operator=(const OpsPlane&) = delete;

  const OpsOptions& options() const { return opt_; }

  // --- run mode (wired by run_synthetic via SyntheticExperimentConfig) ---
  struct RunContext {
    NocSystem* sys = nullptr;  ///< borrowed; valid until end_run
    std::string scheme;
    Cycle total_cycles = 0;
    /// latency.hist_overflow reader (LatencyStats); may be null.
    std::function<std::uint64_t()> hist_overflow;
    /// Incident sink to count kinds from; may be null. Borrowed.
    const telemetry::StructuredSink* incidents = nullptr;
  };

  /// Sizes the per-node accumulators and registers a passive ejection
  /// observer on the network (per-node latency/delivery grids).
  void begin_run(const RunContext& ctx);
  /// Cheap per-cycle gate: true when `now` reached the next fold point.
  bool wants_tick(Cycle now) const { return run_active_ && now >= next_fold_; }
  /// Folds a snapshot at cycle `now`, publishes it, appends to the stream.
  void tick(Cycle now);
  /// Final fold at the run's end cycle; detaches from the (about to be
  /// destroyed) system.
  void end_run(Cycle now);

  // --- campaign mode (sweep / certify drivers) ---
  void begin_campaign(const std::string& kind, std::uint64_t points_total,
                      const std::string& checkpoint_path);
  /// Publishes a campaign snapshot; callable from worker callbacks.
  void campaign_progress(std::uint64_t points_done);

  // --- profiler ---
  /// Null unless opt.profile; bind with telemetry::ProfileScope around the
  /// run so the FLOV_PROFILE hook points attribute into it.
  telemetry::PhaseProfiler* profiler() { return profiler_.get(); }
  /// Prints the phase table to `f` and writes profile_out if configured.
  void finish_profile(std::FILE* f);

  // --- introspection (tests) ---
  std::shared_ptr<const OpsSnapshot> snapshot() const {
    return publisher_.current();
  }
  bool serving() const { return server_.running(); }
  std::uint16_t http_port() const { return server_.port(); }
  /// The HTTP dispatch, exposed so tests can exercise endpoint payloads
  /// without sockets.
  HttpResponse handle(const std::string& path) const;

 private:
  void fold(Cycle now);
  void campaign_progress_locked_(std::uint64_t points_done);
  std::string healthz_json() const;

  OpsOptions opt_;
  SnapshotPublisher publisher_;
  HttpServer server_;
  std::unique_ptr<telemetry::PhaseProfiler> profiler_;
  std::FILE* stream_ = nullptr;
  std::uint64_t start_ns_ = 0;  ///< wall clock at construction (/healthz)

  // --- run-mode fold state (sim thread only) ---
  bool run_active_ = false;
  RunContext ctx_;
  Cycle next_fold_ = 0;
  Cycle last_fold_cycle_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t last_ejected_ = 0;
  bool have_last_ejected_ = false;
  std::size_t incidents_seen_ = 0;
  std::uint64_t incidents_hard_fault_ = 0;
  std::uint64_t incidents_watchdog_ = 0;
  /// Per-node accumulators fed by the ejection observer (sim thread).
  std::vector<std::uint64_t> node_latency_sum_;
  std::vector<std::uint64_t> node_ejected_packets_;
  std::vector<std::uint64_t> node_gated_cycles_;

  // --- campaign-mode state (guarded: progress callbacks may be
  // --- concurrent under jobs=N) ---
  std::mutex campaign_mu_;
  bool campaign_active_ = false;
  std::string campaign_kind_;
  std::uint64_t campaign_total_ = 0;
  std::string campaign_checkpoint_;
  std::uint64_t campaign_last_done_ = 0;
};

/// A campaign front end's progress callback: folds each count into `plane`
/// (when non-null) and, with `print`, writes one full stderr line per call,
/// "[<label>] done/total <unit>[ checkpoint=<path>]", identical for a given
/// count so logs diff cleanly across jobs= and kill-and-resume. Empty when
/// there is neither a plane nor printing.
std::function<void(std::uint64_t done, std::uint64_t total)>
campaign_progress_fn(OpsPlane* plane, bool print, std::string label,
                     std::string unit, std::string checkpoint);

}  // namespace flov::ops
