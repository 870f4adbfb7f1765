// Synthetic-workload experiment harness shared by benches, examples and
// integration tests. Reproduces the paper's methodology: Table-I network,
// seeded gating scenario, Bernoulli traffic, 10k-cycle warm-up, 100k-cycle
// total run, measurement over the post-warm-up window.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cmp/benchmark_profile.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "fault/fault_model.hpp"
#include "noc/noc_params.hpp"
#include "power/power_tracker.hpp"
#include "sim/builder.hpp"
#include "sim/latency_stats.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/structured_sink.hpp"
#include "telemetry/telemetry_options.hpp"
#include "telemetry/trace.hpp"
#include "verify/invariant_verifier.hpp"

namespace flov::ops {
class OpsPlane;
}

namespace flov {

struct SyntheticExperimentConfig {
  NocParams noc;         ///< Table-I defaults
  EnergyParams energy;   ///< 32 nm / 2 GHz defaults
  Scheme scheme = Scheme::kBaseline;
  /// Router Parking's fabric manager (rp.policy=, rp.phase1_latency=). A
  /// CMP run keeps its own 20000-cycle epoch gap.
  FabricManagerConfig rp;
  std::string pattern = "uniform";
  double inj_rate_flits = 0.02;  ///< flits/cycle/node
  double gated_fraction = 0.0;
  Cycle warmup = 10000;
  Cycle measure = 90000;  ///< total run = warmup + measure (paper: 100k)
  std::uint64_t seed = 1;
  /// Extra gating-set changes mid-run (Fig. 10); empty for the sweeps.
  std::vector<Cycle> gating_changes;
  /// Latency-vs-time bucket width (0 = no timeline).
  Cycle timeline_window = 0;
  /// Watchdog: if no packet makes progress for this long, dump state and
  /// try one scheme-level recovery; abort only if the stall persists
  /// (0 = disabled).
  Cycle watchdog = 50000;
  /// Post-measurement drain budget (0 = none): traffic generation stops at
  /// warmup+measure and the system keeps stepping — at most this many extra
  /// cycles — until the fabric is empty and every reliable NI has settled
  /// all of its flows (acked or declared dead). Running out of budget is
  /// recorded as a structured incident, not an abort.
  Cycle drain_max = 0;
  /// Hard cycle cap (sim.max_cycles_hard; 0 = off): the absolute upper
  /// bound on simulated cycles. Exceeding it — or a watchdog stall that
  /// recovery cannot heal while the cap is set — aborts the run with a
  /// structured incident and partial stats instead of FLOV_CHECK-aborting
  /// the process.
  Cycle max_cycles_hard = 0;
  /// Fault-injection model (all-zero = reliable fabric).
  FaultParams faults;
  /// Run the invariant verifier alongside the simulation.
  bool verify = true;
  VerifierOptions verifier;
  /// Telemetry: event-trace mask/capacity and metric-sampling window.
  telemetry::TelemetryOptions telemetry;
  /// Live ops plane (borrowed; null = disabled, which costs one pointer
  /// check per cycle). When set, run_synthetic publishes periodic
  /// flyover-snapshot-v1 folds through it; nothing the ops plane does can
  /// affect the run's results or its manifest.
  ops::OpsPlane* ops = nullptr;
  /// PARSEC-like profile (bench=<name>). A named profile makes the point a
  /// full-system CMP run (CmpSystem) that reads only scheme, seed, noc.*,
  /// energy.*, rp.* and sim.max_cycles_hard (its cycle bound when set).
  BenchmarkProfile profile;

  bool cmp() const { return !profile.name.empty(); }

  /// The one reader of the keys every front end shares: scheme=, bench=,
  /// pattern=, inj=, gated=, seed=, noc.*, threads=, energy.*, rp.*,
  /// warmup=, cycles=, timeline=, drain=, sim.max_cycles_hard=,
  /// changes=c1,c2,..., fault.*, verify=, verify.* and telemetry.*, each
  /// overriding its field of the binary's `defaults`. A CMP point is fatal
  /// on a synthetic-only key (naming it), an unknown profile or threads>1.
  static SyntheticExperimentConfig from_config(
      const Config& cfg, SyntheticExperimentConfig defaults);
};

/// True for the keys only a synthetic run reads: pattern=, inj=, gated=,
/// warmup=, cycles=, timeline=, drain=, changes=, verify= and every
/// fault.*, verify.* and telemetry.* key.
bool is_synthetic_only_key(const std::string& key);

/// `cfg` minus the keys that cannot change a result (jobs, threads,
/// progress, certificate, the ops plane's and the output paths manifest,
/// trace_out and incidents_out).
Config manifest_config(const Config& cfg);

/// A run's manifest `config`: manifest_config(cfg) plus, for a synthetic
/// run, every resolved fault.* knob, defaulted ones included, so two runs
/// cannot silently differ on one.
Config manifest_config(const Config& cfg, const SyntheticExperimentConfig& ex);

/// Order- and thread-independent hash of every config field that can
/// influence a point's results (noc/energy/fault/traffic/verifier knobs;
/// noc.step_threads and trace options are volatile and excluded).
/// Certificates carry it as config_fingerprint.
std::uint64_t sweep_point_fingerprint(const SyntheticExperimentConfig& cfg);

/// One run's results. `metrics` plus `incidents` is the record; every
/// scalar below is folded from `metrics` at the end of run_synthetic. The
/// latency timeline (timeline=) is the series "latency.timeline"; a CMP
/// run's own figures are the cmp.* counters (CmpSystem::run).
struct RunResult {
  std::string scheme;
  double avg_latency = 0.0;
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  LatencyBreakdown breakdown;
  PowerTracker::Report power;
  std::uint64_t packets_measured = 0;
  std::uint64_t packets_generated = 0;
  std::uint64_t injected_flits = 0;
  std::uint64_t ejected_flits = 0;
  std::uint64_t escape_packets = 0;
  int gated_routers_end = 0;  ///< routers asleep/parked when the run ended
  /// Time-average number of gated routers (FLOV schemes; for RP equals the
  /// end-of-run parked count, which is steady between reconfigurations).
  double avg_gated_routers = 0.0;
  std::uint64_t protocol_sleeps = 0;   ///< FLOV Sleep entries
  std::uint64_t protocol_wakeups = 0;  ///< FLOV completed wakeups
  // --- robustness counters ---
  std::uint64_t watchdog_recoveries = 0;  ///< stalls healed by recovery
  std::uint64_t verifier_violations = 0;  ///< 0 unless verifier.fatal=false
  std::uint64_t verifier_checks = 0;
  std::uint64_t hs_resends = 0;        ///< handshake retries (signal loss)
  std::uint64_t trigger_resends = 0;   ///< re-armed WakeupTriggers
  std::uint64_t self_captures = 0;     ///< bypass self-destined captures
  std::uint64_t flits_dropped_by_faults = 0;
  // --- reliable delivery (noc.reliable; PROTOCOL.md §8) ---
  std::uint64_t packets_acked = 0;     ///< flows confirmed end-to-end
  std::uint64_t packets_dead = 0;      ///< flows declared dead (retries out)
  std::uint64_t packets_purged = 0;    ///< unsequenced queue purges (RP)
  std::uint64_t killed_at_source = 0;  ///< queued at an NI when it died
  std::uint64_t retransmits = 0;
  std::uint64_t dup_packets = 0;       ///< duplicate deliveries suppressed
  // --- soft errors ---
  /// Measured packets DELIVERED with a flipped payload bit (subset of
  /// packets_measured; the certify harness's clean-delivery metric
  /// subtracts these from the delivered count).
  std::uint64_t packets_corrupted = 0;
  std::uint64_t payload_flips = 0;     ///< payload bit flips on the wire
  std::uint64_t psr_flips = 0;         ///< corrupted handshake payloads
  // --- hard faults ---
  int dead_routers = 0;
  int dead_links = 0;                  ///< dead directed links
  std::uint64_t wake_requests_dropped = 0;
  /// True when sim.max_cycles_hard aborted the run (stats are partial).
  bool aborted = false;
  /// Cycles actually simulated (warmup + measure + any drain tail; less
  /// when aborted).
  Cycle cycles_run = 0;
  // --- telemetry (always populated; shared so RunResult stays copyable) ---
  /// Full metrics registry for this run (merged across runs by sweeps).
  std::shared_ptr<telemetry::MetricsRegistry> metrics;
  /// Event tracer; null unless cfg.telemetry.trace_mask was non-zero AND
  /// the build compiled the hook points in (FLYOVER_TRACING).
  std::shared_ptr<telemetry::Tracer> trace;
  /// Structured incident records (verifier violations, watchdog stalls).
  std::shared_ptr<telemetry::StructuredSink> incidents;
};

/// Runs one point, synthetic or CMP (one CmpSystem run, no verifier). A
/// run that reaches its cycle bound records hard_cycle_cap and run.aborted.
RunResult run_synthetic(const SyntheticExperimentConfig& cfg);

}  // namespace flov
