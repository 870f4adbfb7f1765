// Structured run manifests: every experiment/bench can emit a JSON
// document describing what ran (config, seed, git describe), what it cost
// (wall time), and what it measured (metric snapshot, trace path,
// incidents) — so sweep outputs are self-describing artifacts that
// scripts/validate_telemetry.py and CI can consume without re-running
// anything.
//
// Two schemas share this writer:
//   flyover-run-manifest-v1    one simulation (flov_sim_cli, experiments)
//   flyover-sweep-manifest-v1  a sweep: per-point entries + merged metrics
//
// Volatile fields (wall_seconds, jobs, trace_path) are the ONLY fields
// allowed to differ between a serial and a parallel sweep of the same
// configuration; scripts/validate_telemetry.py --diff-manifests strips
// exactly those before comparing byte-for-byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/structured_sink.hpp"

namespace flov::telemetry {

/// `git describe` of the build (captured at configure time), or "unknown".
std::string build_git_describe();

struct RunManifest {
  std::string schema = "flyover-run-manifest-v1";
  std::string name;           ///< experiment/bench identifier
  std::string scheme;         ///< Baseline/RP/rFLOV/gFLOV ("" for sweeps)
  Config config;              ///< flat resolved key=value configuration
  std::uint64_t seed = 0;
  double wall_seconds = 0.0;  ///< volatile
  std::string trace_path;     ///< volatile ("" = no trace exported)
  const MetricsRegistry* metrics = nullptr;   ///< borrowed; may be null
  const StructuredSink* incidents = nullptr;  ///< borrowed; may be null

  std::string to_json() const;
  void write(const std::string& path) const;
};

/// One sweep point inside a SweepManifest.
struct SweepPointEntry {
  Config config;  ///< resolved key=value set; flov_sim_cli reruns the point
  const MetricsRegistry* metrics = nullptr;  ///< borrowed; may be null
};

struct SweepManifest {
  std::string schema = "flyover-sweep-manifest-v1";
  std::string name;
  Config config;
  int jobs = 0;               ///< volatile
  double wall_seconds = 0.0;  ///< volatile
  std::vector<SweepPointEntry> points;
  const MetricsRegistry* merged = nullptr;    ///< borrowed; may be null
  const StructuredSink* incidents = nullptr;  ///< borrowed; may be null

  std::string to_json() const;
  void write(const std::string& path) const;
};

/// One certified metric inside a CertificateManifest: the Bernoulli counts
/// it was estimated from plus both interval families (Wilson for the
/// regression gate, Clopper-Pearson for the conservative claim).
struct CertifiedMetric {
  std::string name;
  std::uint64_t successes = 0;
  std::uint64_t trials = 0;
  double point = 0.0;
  double wilson_lower = 0.0;
  double wilson_upper = 1.0;
  double clopper_pearson_lower = 0.0;
  double clopper_pearson_upper = 1.0;
};

/// Certification campaign output (schema flyover-certificate-v1): the
/// statistically certified reliability claim produced by src/sim/certify.
/// Deterministic by construction — every non-volatile field is a pure
/// function of (config, seed_base, stopping parameters), so two campaigns
/// over the same inputs emit byte-identical certificates regardless of
/// jobs= (validate_telemetry.py --diff-manifests strips exactly
/// jobs/wall_seconds before comparing).
struct CertificateManifest {
  std::string schema = "flyover-certificate-v1";
  std::string name;
  Config config;  ///< fully resolved base config (fault knobs echoed)
  /// hex16 sweep_point_fingerprint of the base config.
  std::string config_fingerprint;
  std::uint64_t seed_base = 0;
  std::uint64_t replications = 0;      ///< folded into the estimators
  std::uint64_t max_replications = 0;  ///< the campaign's hard cap
  double confidence = 0.0;
  std::string target_metric;
  double target = 0.0;  ///< SPRT reliability target (0 = none armed)
  std::string stop_reason;
  int jobs = 0;               ///< volatile
  double wall_seconds = 0.0;  ///< volatile
  std::vector<CertifiedMetric> metrics;

  std::string to_json() const;
  void write(const std::string& path) const;
};

}  // namespace flov::telemetry
