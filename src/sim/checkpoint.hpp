// Lossless sweep checkpoints (self-healing sweeps, PROTOCOL.md §8).
//
// The manifest serialization (MetricsRegistry::write_json) is intentionally
// lossy — stats render as count/mean/min/max/stddev and time-series as
// bucket means — so it cannot reconstruct a registry that merges
// bit-identically to the original. This codec persists the RAW state
// instead: Welford accumulators as (count, sum, min, max, running-mean,
// m2), histograms with their full bin vectors, time-series as raw buckets.
// Doubles render with %.17g and parse back with strtod, which round-trips
// every finite double exactly; counters are exact up to 2^53 (far above
// anything a run produces). A sweep resumed from a checkpoint therefore
// reproduces the uninterrupted sweep's merged metrics — and its manifest —
// byte for byte.
//
// File format: JSON Lines, one object per COMPLETED sweep point:
//   {"schema":"flyover-sweep-checkpoint-v2","index":i,"fp":"<16 hex>",
//    "scheme":"gFLOV","timeline":[[start,mean,count],...],
//    "metrics":{...lossless registry...},"incidents":["<record>",...]}
// The registry plus the incident list is the run's whole result record:
// the line stores no RunResult scalar. Decoding rebuilds every scalar with
// fold_run_result, the same fold run_synthetic uses, so a resumed point
// cannot drift from a fresh one. The timeline (not a registry series)
// rides beside it.
// Lines are appended under a mutex and flushed, so a killed sweep loses at
// most the points that were still in flight. The loader is tolerant: a
// truncated or garbled line (crash mid-write, disk hiccup), a line of an
// older schema, or a number no cast can hold (negative, fractional,
// non-finite or out of range where an integer belongs) is skipped, not
// fatal — the point simply re-runs. The fingerprint ties each line to the
// exact point configuration, so a checkpoint from an edited sweep can never
// leak stale results into the wrong point.
#pragma once

#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace flov {

/// Order- and thread-independent hash of every config field that can
/// influence a point's results (noc/energy/fault/traffic/verifier knobs;
/// noc.step_threads and trace options are volatile and excluded).
std::uint64_t sweep_point_fingerprint(const SyntheticExperimentConfig& cfg);

/// Raw-state registry serialization (see header comment). Restoring the
/// output into a fresh registry yields one that merges and serializes
/// identically to the original.
void write_registry_lossless(telemetry::JsonWriter& w,
                             const telemetry::MetricsRegistry& reg);
/// Inverse of write_registry_lossless; false on malformed input.
bool restore_registry_lossless(const telemetry::JsonValue& v,
                               telemetry::MetricsRegistry* out);

/// One complete checkpoint line (no trailing newline) for point `index`.
std::string encode_sweep_checkpoint_line(int index,
                                         const SyntheticExperimentConfig& cfg,
                                         const RunResult& r);

/// Decodes one line. Returns false (and touches nothing) on any damage:
/// truncation, garbage, wrong schema, missing fields, bad numbers.
bool decode_sweep_checkpoint_line(const std::string& line, int* index,
                                  std::uint64_t* fingerprint, RunResult* out);

/// Loads `path` (missing file = 0 restored) and fills `results[i]` /
/// `have[i]=1` for every intact line whose index is in range and whose
/// fingerprint matches points[i]. Returns the number of points restored.
int load_sweep_checkpoint(const std::string& path,
                          const std::vector<SyntheticExperimentConfig>& points,
                          std::vector<RunResult>* results,
                          std::vector<char>* have);

}  // namespace flov
