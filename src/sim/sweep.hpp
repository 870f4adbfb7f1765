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
  /// progress(done, total) after each point completes. Called from the
  /// worker that ran the point, under a lock, so calls never overlap; with
  /// jobs > 1, `done` may arrive out of order. May be null.
  std::function<void(int done, int total)> progress;
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

/// One sweep point: the key=value config that reproduces it with
/// flov_sim_cli, and the experiment SyntheticExperimentConfig::from_config
/// built from that config.
struct SweepPoint {
  Config config;
  SyntheticExperimentConfig experiment;
  /// The point's axes beyond bench, scheme, pattern, inj, gated and seed.
  std::vector<std::string> extra_axes;
};

/// Splits a sweep spec into blocks at `---` lines. Each block is parsed
/// with Config::parse_text and checked by reject_removed_keys; a block
/// without keys is dropped.
std::vector<Config> parse_sweep_spec(const std::string& text);

/// The points of one sweep block, in submission order. `defaults` fills
/// each key the block leaves unset, except a synthetic-only key in a CMP
/// block (bench= set). Every key whose value is a comma list is an axis,
/// except the list-valued changes= and telemetry.trace=. The points are
/// the cross product of the axes, ordered bench, scheme, pattern, inj,
/// gated, seed, then the rest by key; the last axis varies fastest. Each
/// point's experiment is read from its own config by from_config, so every
/// list element is type-checked, and its scheme= is rewritten to the
/// scheme's name.
std::vector<SweepPoint> expand_sweep(const Config& block,
                                     const Config& defaults);

/// Writes `m` (name, config, jobs, wall_seconds set) to `path` with one
/// entry per point (its manifest_config and registry), the merged registry
/// and every incident, in submission order; `points` and `results` are
/// index-aligned, as run_sweep returns.
void write_sweep_manifest(telemetry::SweepManifest m, const std::string& path,
                          const std::vector<SweepPoint>& points,
                          const std::vector<RunResult>& results);

}  // namespace flov
