// Parallel sweep runner: executes independent sweep points (full
// simulations) on a fixed-size thread pool.
//
// Every figure reproduction is an embarrassingly parallel grid — schemes x
// injection rates x gated fractions — of completely independent runs (no
// global mutable state anywhere in the simulator; each run owns its
// network, RNGs and verifier). The runner exploits exactly that: results
// land in SUBMISSION order regardless of completion order, every run
// derives its seed from its own config, and jobs=1 degenerates to the
// plain serial loop — so a parallel sweep is bit-identical to a serial
// one, merely faster.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "telemetry/manifest.hpp"

namespace flov {

struct SweepOptions {
  /// Worker threads. 0 = auto (hardware concurrency); 1 = serial in the
  /// calling thread (no pool, the bit-exact reference path).
  int jobs = 0;
  /// Called on the submitting thread granularity-free: progress(done, total)
  /// after each point completes (any worker; serialized). May be null.
  std::function<void(int done, int total)> progress;

  // --- self-healing (sim/checkpoint.hpp) ---
  // A failing point is not retried: a run is a pure function of its config.
  /// JSONL checkpoint: one lossless line appended (and flushed) per
  /// completed point, so a killed sweep can resume. "" = no checkpointing.
  std::string checkpoint_path;
  /// Load checkpoint_path first and skip every intact point whose config
  /// fingerprint still matches; the file keeps growing from there. The
  /// merged metrics of a resumed sweep are byte-identical to an
  /// uninterrupted one.
  bool resume = false;
  /// Always open the checkpoint file in append mode, even when resume
  /// restored nothing. Callers that share one checkpoint file across
  /// several run_sweep invocations over DIFFERENT point slices (the
  /// certification harness's sequential batches) need this: the default
  /// truncates when no line matched, which would erase the other batches'
  /// lines. Fingerprints keep foreign lines harmless — they simply don't
  /// match and are skipped.
  bool checkpoint_append = false;
};

/// `jobs` resolved against the machine: 0 -> hardware_concurrency (>= 1).
int resolve_jobs(int jobs);

/// Jobs x threads budgeting: when each sweep point itself steps its mesh on
/// `threads_per_job` domain workers, auto (jobs=0) resolves to
/// hardware_concurrency / threads_per_job (>= 1) so the total thread count
/// stays near the core count. An explicit jobs > 0 is always respected.
int resolve_jobs(int jobs, int threads_per_job);

/// Runs `fn(i)` for i in [0, n) on `jobs` threads. fn must be safe to call
/// concurrently for distinct i. If any call throws, the exception from the
/// LOWEST index is rethrown on the caller after all workers drained (later
/// points still run; deterministic error reporting).
void parallel_run(int n, int jobs, const std::function<void(int)>& fn);

/// Runs every config and returns results in submission order.
std::vector<RunResult> run_sweep(
    const std::vector<SyntheticExperimentConfig>& points,
    const SweepOptions& opts = {});

/// Folds every point's metrics registry into one merged registry, in
/// SUBMISSION order. Because run_sweep's results vector is ordered by
/// submission index (not completion), the fold — and hence any manifest
/// serialized from it — is byte-identical between jobs=1 and jobs=N.
telemetry::MetricsRegistry merge_sweep_metrics(
    const std::vector<RunResult>& results);

/// Writes `m` (name, config, jobs, wall_seconds set) to `path` with one
/// entry per point, the merged registry and every incident, in submission
/// order; `points` and `results` are index-aligned, as run_sweep returns.
void write_sweep_manifest(telemetry::SweepManifest m, const std::string& path,
                          const std::vector<SyntheticExperimentConfig>& points,
                          const std::vector<RunResult>& results);

}  // namespace flov
