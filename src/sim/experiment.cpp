#include "sim/experiment.hpp"

#include <bit>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "cmp/cmp_system.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "noc/router.hpp"
#include "telemetry/json.hpp"
#include "telemetry/ops/ops_plane.hpp"
#include "traffic/gating_scenario.hpp"
#include "traffic/synthetic_traffic.hpp"
#include "traffic/traffic_pattern.hpp"
#include "verify/invariant_verifier.hpp"

namespace flov {

namespace {

/// Diagnostic dump when flits stop moving — a watchdog stall or an
/// exhausted drain budget, named by `trigger` in the header, then the
/// scheme's own state dump (NocSystem::dump_state). stderr only; the run's
/// record is untouched.
void dump_stall_state(const NocSystem& sys, Cycle now, const char* trigger) {
  std::fprintf(stderr, "[%s] --- %s stuck, state at cycle %llu ---\n",
               trigger, sys.name(), static_cast<unsigned long long>(now));
  sys.dump_state(now);
}

/// Machine-parseable twin of dump_stall_state: one incident object with
/// every router that holds flits or is not plainly powered (coordinates,
/// datapath mode, protocol state, occupancy).
void record_stall_incident(NocSystem& sys, telemetry::StructuredSink& sink,
                           Cycle now, Cycle stalled_for, bool recovered) {
  Network& net = sys.network();
  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("kind", "watchdog_stall");
  w.kv("scheme", sys.name());
  w.kv("cycle", static_cast<std::uint64_t>(now));
  w.kv("stalled_cycles", static_cast<std::uint64_t>(stalled_for));
  w.kv("recovery_attempted", recovered);
  w.key("routers");
  w.begin_array();
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const Router& r = net.router(id);
    const int flits = r.buffered_flits();
    const RouterMode m = r.mode();
    const std::optional<PowerState> ps = sys.power_state(id);
    if (flits == 0 && m == RouterMode::kPipeline &&
        ps.value_or(PowerState::kActive) == PowerState::kActive) {
      continue;
    }
    const Coord c = net.geom().coord(id);
    w.begin_object();
    w.kv("router", id);
    w.kv("x", c.x);
    w.kv("y", c.y);
    w.kv("mode", to_string(m));
    if (ps) w.kv("power_state", to_string(*ps));
    w.kv("buffered_flits", flits);
    w.end_object();
  }
  w.end_array();
  w.kv("queued_packets", net.total_queued_packets());
  w.kv("in_network_flits", net.in_network_flits());
  w.end_object();
  sink.add(w.take());
}

/// Cycle-budget incident ("hard_cycle_cap" when sim.max_cycles_hard fires,
/// "drain_exhausted" when the post-run drain budget runs out): where the
/// run stood when the budget died, so partial stats can be interpreted.
void record_budget_incident(NocSystem& sys, telemetry::StructuredSink& sink,
                            const char* kind, Cycle now, Cycle budget) {
  Network& net = sys.network();
  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("kind", kind);
  w.kv("scheme", sys.name());
  w.kv("cycle", static_cast<std::uint64_t>(now));
  w.kv("budget", static_cast<std::uint64_t>(budget));
  w.kv("queued_packets", net.total_queued_packets());
  w.kv("in_network_flits", net.in_network_flits());
  w.end_object();
  sink.add(w.take());
}

/// One "packet_dead" incident per flow that exhausted its retries, in
/// node-id order (deterministic across thread counts), capped so a run
/// where a hot node's whole neighborhood died cannot bloat the manifest.
/// The aggregate count always lands in run.packets_dead.
void record_dead_packets(Network& net, telemetry::StructuredSink& sink) {
  constexpr std::size_t kMaxDeadIncidents = 200;
  std::size_t emitted = 0;
  std::uint64_t suppressed = 0;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    for (const DeadPacket& d : net.ni(id).dead_log()) {
      if (emitted >= kMaxDeadIncidents) {
        suppressed++;
        continue;
      }
      telemetry::JsonWriter w;
      w.begin_object();
      w.kv("kind", "packet_dead");
      w.kv("src", d.pkt.src);
      w.kv("dest", d.pkt.dest);
      w.kv("seq", static_cast<std::uint64_t>(d.seq));
      w.kv("size_flits", d.pkt.size_flits);
      w.kv("retries", d.retries);
      w.kv("declared_at", static_cast<std::uint64_t>(d.declared_at));
      w.end_object();
      sink.add(w.take());
      emitted++;
    }
  }
  if (suppressed > 0) {
    telemetry::JsonWriter w;
    w.begin_object();
    w.kv("kind", "packet_dead_overflow");
    w.kv("suppressed", suppressed);
    w.end_object();
    sink.add(w.take());
  }
}

/// Post-mortem of the hard-fault wave: which routers died (with
/// coordinates), how many directed links died, and how many wake requests
/// were addressed to a corpse.
void record_hard_fault_summary(const NocSystem& sys,
                               std::uint64_t wake_dropped,
                               telemetry::StructuredSink& sink) {
  const Network& net = sys.network();
  const std::vector<char>& dead_mask = sys.dead_mask();
  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("kind", "hard_fault_summary");
  w.kv("scheme", sys.name());
  w.key("dead_routers");
  w.begin_array();
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (id >= static_cast<NodeId>(dead_mask.size()) || !dead_mask[id]) {
      continue;
    }
    const Coord c = net.geom().coord(id);
    w.begin_object();
    w.kv("router", id);
    w.kv("x", c.x);
    w.kv("y", c.y);
    w.end_object();
  }
  w.end_array();
  w.kv("dead_links", sys.dead_link_count());
  w.kv("wake_requests_dropped", wake_dropped);
  w.end_object();
  sink.add(w.take());
}

/// Drain completion: fabric empty, every NI's queue and open streams gone,
/// and (reliable mode) every flow settled — acked or declared dead.
bool fully_drained(Network& net) {
  if (!net.in_flight_empty()) return false;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    const NetworkInterface& ni = net.ni(id);
    if (!ni.idle() || !ni.reliable_quiescent()) return false;
  }
  return true;
}

std::uint64_t mix_d(std::uint64_t h, double v) {
  return hash_mix(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t mix_s(std::uint64_t h, const std::string& s) {
  h = hash_mix(h, s.size());
  for (char c : s) h = hash_mix(h, static_cast<unsigned char>(c));
  return h;
}

/// Derives every RunResult scalar from a run's metrics registry, the one
/// result record (absent keys read as 0). The telemetry pointers are left
/// to the caller.
RunResult fold_run_result(std::string scheme,
                          const telemetry::MetricsRegistry& reg) {
  const auto count = [&reg](const char* k) { return reg.counter_value(k); };
  const auto gauge = [&reg](const char* k) { return reg.gauge_value(k); };
  const auto mean = [&reg](const char* k) {
    const auto it = reg.stats().find(k);
    return it == reg.stats().end() ? 0.0 : it->second.mean();
  };
  RunResult r;
  r.scheme = std::move(scheme);
  r.avg_latency = mean("latency.total");
  if (const auto h = reg.histograms().find("latency.histogram");
      h != reg.histograms().end()) {
    r.p50_latency = h->second.percentile(50);
    r.p99_latency = h->second.percentile(99);
  }
  r.breakdown.router = mean("latency.router_component");
  r.breakdown.link = mean("latency.link_component");
  r.breakdown.serialization = mean("latency.serialization_component");
  r.breakdown.flov = mean("latency.flov_component");
  r.breakdown.contention = mean("latency.contention_component");
  r.power = PowerTracker::Report::from_metrics(reg);
  r.packets_measured = count("latency.packets_measured");
  r.packets_generated = count("run.packets_generated");
  r.injected_flits = count("net.injected_flits");
  r.ejected_flits = count("net.ejected_flits");
  r.escape_packets = count("latency.escape_packets");
  // Gated routers: FLOV's sleep/wakeup population, or RP's parked set
  // (steady between reconfigurations, so its average is its end value).
  if (reg.gauges().count("flov.gated_routers_end") != 0) {
    r.gated_routers_end = static_cast<int>(gauge("flov.gated_routers_end"));
    r.avg_gated_routers = gauge("flov.avg_gated_routers");
  } else {
    r.gated_routers_end = static_cast<int>(gauge("rp.parked_routers"));
    r.avg_gated_routers = gauge("rp.parked_routers");
  }
  r.protocol_sleeps = count("flov.sleeps");
  r.protocol_wakeups = count("flov.wakeups");
  r.watchdog_recoveries = count("run.watchdog_recoveries");
  r.verifier_violations = count("verify.violations");
  r.verifier_checks = count("verify.checks");
  r.hs_resends = count("flov.hs_resends");
  r.trigger_resends = count("flov.trigger_resends");
  r.self_captures = count("flov.self_captures");
  r.flits_dropped_by_faults = count("fault.flits_dropped");
  r.packets_acked = count("run.packets_acked");
  r.packets_dead = count("run.packets_dead");
  r.packets_purged = count("run.packets_purged");
  r.killed_at_source = count("run.killed_at_source");
  r.retransmits = count("run.retransmits");
  r.dup_packets = count("run.dup_packets");
  r.packets_corrupted = count("run.packets_corrupted");
  r.payload_flips = count("fault.payload_flips");
  r.psr_flips = count("fault.psr_flips");
  r.dead_routers = static_cast<int>(gauge("fault.dead_routers"));
  r.dead_links = static_cast<int>(gauge("fault.dead_links"));
  r.wake_requests_dropped = count("flov.wake_requests_dropped");
  r.aborted = count("run.aborted") != 0;
  r.cycles_run = count("run.cycles");
  return r;
}

/// The CmpSystem run a CMP point (bench= set) stands for.
CmpConfig cmp_config(const SyntheticExperimentConfig& ex) {
  CmpConfig c;
  c.scheme = ex.scheme;
  c.noc = ex.noc;
  c.energy = ex.energy;
  c.profile = ex.profile;
  c.seed = ex.seed;
  c.rp.policy = ex.rp.policy;
  c.rp.phase1_latency = ex.rp.phase1_latency;
  if (ex.max_cycles_hard != 0) c.max_cycles = ex.max_cycles_hard;
  return c;
}

/// A CMP point: one CmpSystem run, whose registry is the point's record.
RunResult run_cmp_point(const SyntheticExperimentConfig& cfg) {
  const CmpConfig cc = cmp_config(cfg);
  CmpSystem cmp(cc);
  auto metrics = std::make_shared<telemetry::MetricsRegistry>();
  auto incidents = std::make_shared<telemetry::StructuredSink>();
  cmp.run(*metrics);
  if (metrics->counter_value("run.aborted") != 0) {
    record_budget_incident(cmp.noc(), *incidents, "hard_cycle_cap",
                           metrics->counter_value("run.cycles"),
                           cc.max_cycles);
  }
  RunResult r = fold_run_result(to_string(cfg.scheme), *metrics);
  r.metrics = std::move(metrics);
  r.incidents = std::move(incidents);
  return r;
}

}  // namespace

bool is_synthetic_only_key(const std::string& key) {
  for (const std::string k : {"pattern", "inj", "gated", "warmup", "cycles",
                              "timeline", "drain", "changes", "verify",
                              "fault.", "verify.", "telemetry."}) {
    if (k.back() == '.' ? key.rfind(k, 0) == 0 : key == k) return true;
  }
  return false;
}

SyntheticExperimentConfig SyntheticExperimentConfig::from_config(
    const Config& cfg, SyntheticExperimentConfig ex) {
  if (cfg.has("scheme")) {
    ex.scheme = scheme_from_string(cfg.get_string("scheme"));
  }
  if (cfg.has("bench")) {
    ex.profile = BenchmarkProfile::by_name(cfg.get_string("bench"));
  }
  ex.seed = static_cast<std::uint64_t>(
      cfg.get_int("seed", static_cast<long long>(ex.seed)));
  ex.noc = NocParams::from_config(cfg, ex.noc);
  // threads= is shorthand for noc.step_threads= (intra-run row-band
  // workers; bit-identical results at any value — see docs/PERFORMANCE.md).
  ex.noc.step_threads =
      static_cast<int>(cfg.get_int("threads", ex.noc.step_threads));
  ex.energy = EnergyParams::from_config(cfg, ex.energy);
  if (cfg.has("rp.policy")) {
    const std::string policy = cfg.get_string("rp.policy");
    FLOV_CHECK(policy == "aggressive" || policy == "conservative",
               "config key rp.policy must be aggressive or conservative "
               "(got " + policy + ")");
    ex.rp.policy = policy == "aggressive" ? RpPolicy::kAggressive
                                          : RpPolicy::kConservative;
  }
  ex.rp.phase1_latency = cfg.get_int("rp.phase1_latency", ex.rp.phase1_latency);
  ex.max_cycles_hard = cfg.get_int("sim.max_cycles_hard", ex.max_cycles_hard);
  if (ex.cmp()) {
    for (const std::string& k : cfg.keys()) {
      FLOV_CHECK(!is_synthetic_only_key(k),
                 "config key " + k + " is not read by a CMP run (bench=" +
                     ex.profile.name + ")");
    }
    ex.verify = false;
    cmp_config(ex).validate();
    return ex;
  }
  ex.pattern = cfg.get_string("pattern", ex.pattern);
  ex.inj_rate_flits = cfg.get_double("inj", ex.inj_rate_flits);
  ex.gated_fraction = cfg.get_double("gated", ex.gated_fraction);
  ex.warmup = cfg.get_int("warmup", ex.warmup);
  ex.measure = cfg.get_int("cycles", ex.measure);
  ex.timeline_window = cfg.get_int("timeline", ex.timeline_window);
  ex.drain_max = cfg.get_int("drain", ex.drain_max);
  if (cfg.has("changes")) {
    const std::vector<long long> c = cfg.get_int_list("changes", {});
    ex.gating_changes.assign(c.begin(), c.end());
  }
  ex.faults = FaultParams::from_config(cfg, ex.faults);
  ex.verify = cfg.get_bool("verify", ex.verify);
  ex.verifier = VerifierOptions::from_config(cfg, ex.verifier);
  ex.telemetry = telemetry::TelemetryOptions::from_config(cfg, ex.telemetry);
  return ex;
}

Config manifest_config(const Config& cfg) {
  Config m = cfg;
  for (const char* k : {"jobs", "threads", "progress", "certificate", "serve",
                        "ops_stream", "profile", "profile_out", "ops.period",
                        "manifest", "trace_out", "incidents_out"}) {
    m.erase(k);
  }
  return m;
}

Config manifest_config(const Config& cfg,
                       const SyntheticExperimentConfig& ex) {
  Config m = manifest_config(cfg);
  if (!ex.cmp()) ex.faults.echo_to_config(m);
  return m;
}

std::uint64_t sweep_point_fingerprint(const SyntheticExperimentConfig& cfg) {
  std::uint64_t h = 0x464c4f56u;  // "FLOV"
  h = hash_mix(h, static_cast<std::uint64_t>(cfg.scheme));
  h = mix_s(h, cfg.pattern);
  h = mix_d(h, cfg.inj_rate_flits);
  h = mix_d(h, cfg.gated_fraction);
  h = hash_mix(h, cfg.warmup);
  h = hash_mix(h, cfg.measure);
  h = hash_mix(h, cfg.seed);
  h = hash_mix(h, cfg.gating_changes.size());
  for (Cycle c : cfg.gating_changes) h = hash_mix(h, c);
  h = hash_mix(h, cfg.timeline_window);
  h = hash_mix(h, cfg.watchdog);
  h = hash_mix(h, cfg.drain_max);
  h = hash_mix(h, cfg.max_cycles_hard);
  h = hash_mix(h, cfg.verify ? 1 : 0);
  h = hash_mix(h, cfg.verifier.check_interval);
  h = hash_mix(h, cfg.verifier.settle_window);
  h = hash_mix(h, (cfg.verifier.check_conservation ? 1 : 0) |
                      (cfg.verifier.check_credits ? 2 : 0) |
                      (cfg.verifier.check_psr ? 4 : 0) |
                      (cfg.verifier.fatal ? 8 : 0));
  h = hash_mix(h, cfg.telemetry.metrics_window);
  h = hash_mix(h, static_cast<std::uint64_t>(cfg.rp.policy));
  h = hash_mix(h, cfg.rp.phase1_latency);
  h = hash_mix(h, cfg.rp.min_epoch_gap);

  const BenchmarkProfile& b = cfg.profile;
  h = mix_s(h, b.name);
  h = mix_d(h, b.mem_access_rate);
  h = mix_d(h, b.write_fraction);
  h = mix_d(h, b.share_fraction);
  h = hash_mix(h, static_cast<std::uint64_t>(b.private_blocks));
  h = hash_mix(h, static_cast<std::uint64_t>(b.shared_blocks));
  h = hash_mix(h, b.base_instructions);
  h = mix_d(h, b.imbalance);
  h = mix_d(h, b.active_fraction);

  // step_threads excluded: a volatile knob — any band count is
  // bit-identical to serial, so threads=8 and threads=1 name the same point.
  const NocParams& n = cfg.noc;
  h = hash_mix(h, static_cast<std::uint64_t>(n.width));
  h = hash_mix(h, static_cast<std::uint64_t>(n.height));
  h = hash_mix(h, static_cast<std::uint64_t>(n.num_vnets));
  h = hash_mix(h, static_cast<std::uint64_t>(n.vcs_per_vnet));
  h = hash_mix(h, static_cast<std::uint64_t>(n.escape_vc + 1));
  h = hash_mix(h, static_cast<std::uint64_t>(n.buffer_depth));
  h = hash_mix(h, static_cast<std::uint64_t>(n.packet_size));
  h = hash_mix(h, n.link_latency);
  h = hash_mix(h, n.deadlock_timeout);
  h = hash_mix(h, n.enable_escape_diversion ? 1 : 0);
  h = hash_mix(h, n.wakeup_latency);
  h = hash_mix(h, n.drain_idle_threshold);
  h = hash_mix(h, n.drain_abort_timeout);
  h = hash_mix(h, n.hs_retry_timeout);
  h = hash_mix(h, static_cast<std::uint64_t>(n.hs_retry_limit));
  h = hash_mix(h, n.trigger_retry_timeout);
  h = hash_mix(h, n.sleep_reannounce_interval);
  h = hash_mix(h, n.psr_block_timeout);
  h = hash_mix(h, n.latency_hist_max);
  h = hash_mix(h, n.reliable ? 1 : 0);
  h = hash_mix(h, n.retx_timeout);
  h = hash_mix(h, static_cast<std::uint64_t>(n.retx_backoff_cap));
  h = hash_mix(h, static_cast<std::uint64_t>(n.retx_limit));
  h = hash_mix(h, n.ack_delay);

  const FaultParams& f = cfg.faults;
  h = mix_d(h, f.signal_drop_rate);
  h = mix_d(h, f.signal_delay_rate);
  h = hash_mix(h, f.signal_delay_max);
  h = mix_d(h, f.signal_dup_rate);
  h = mix_d(h, f.flit_drop_rate);
  h = mix_d(h, f.flit_delay_rate);
  h = hash_mix(h, f.flit_delay_max);
  h = mix_d(h, f.spurious_wakeup_rate);
  h = mix_d(h, f.soft_flit_flip_rate);
  h = mix_d(h, f.soft_psr_flip_rate);
  h = mix_d(h, f.hard_router_pct);
  h = mix_d(h, f.hard_link_pct);
  h = hash_mix(h, f.hard_at_cycle);
  h = hash_mix(h, f.seed);

  const EnergyParams& e = cfg.energy;
  h = mix_d(h, e.buffer_write_pj);
  h = mix_d(h, e.buffer_read_pj);
  h = mix_d(h, e.vc_arb_pj);
  h = mix_d(h, e.sw_arb_pj);
  h = mix_d(h, e.crossbar_pj);
  h = mix_d(h, e.link_pj);
  h = mix_d(h, e.flov_latch_pj);
  h = mix_d(h, e.credit_relay_pj);
  h = mix_d(h, e.handshake_pj);
  h = mix_d(h, e.pg_transition_pj);
  h = mix_d(h, e.router_leak_mw);
  h = mix_d(h, e.link_leak_mw);
  h = mix_d(h, e.flov_sleep_leak_fraction);
  h = mix_d(h, e.rp_park_leak_fraction);
  h = mix_d(h, e.flov_active_overhead_fraction);
  h = mix_d(h, e.clock_freq_ghz);
  return h;
}

RunResult run_synthetic(const SyntheticExperimentConfig& cfg) {
  if (cfg.cmp()) return run_cmp_point(cfg);
  BuiltSystem built = build_system(cfg.scheme, cfg.noc, cfg.energy,
                                   /*always_on=*/{}, cfg.faults, cfg.rp);
  NocSystem& sys = *built.system;
  Network& net = sys.network();
  const bool power_states = sys.power_state(0).has_value();

  auto metrics =
      std::make_shared<telemetry::MetricsRegistry>(cfg.telemetry.metrics_window);
  auto incidents = std::make_shared<telemetry::StructuredSink>();
  std::shared_ptr<telemetry::Tracer> tracer;
#if defined(FLYOVER_TRACING) && FLYOVER_TRACING
  if (cfg.telemetry.trace_mask != 0) {
    tracer = std::make_shared<telemetry::Tracer>(cfg.telemetry.trace_mask,
                                                 cfg.telemetry.trace_capacity);
  }
#endif
  // Binds the tracer to this thread for the whole run; every FLOV_TRACE
  // hook in the subsystems below lands in this ring (or costs one branch
  // when `tracer` is null).
  telemetry::TraceScope trace_scope(tracer.get());

  auto pattern = TrafficPattern::create(cfg.pattern, net.geom());
  SyntheticTraffic traffic(&sys, pattern.get(), cfg.inj_rate_flits,
                           cfg.noc.packet_size, cfg.seed * 7919 + 13);

  GatingScenario scenario =
      cfg.gating_changes.empty()
          ? GatingScenario::uniform_fraction(net.geom(), cfg.gated_fraction,
                                             cfg.seed)
          : GatingScenario::epochs(net.geom(), cfg.gated_fraction,
                                   cfg.gating_changes, cfg.seed);

  // The scheme's armed fault injector (null on a fault-free build): needed
  // before the run loop so the ejection callback can ask about soft-error
  // corruption per delivered packet.
  const FaultInjector* fault = sys.fault_injector();

  LatencyStats stats(/*router_pipeline_cycles=*/3, cfg.timeline_window,
                     cfg.noc.latency_hist_max);
  stats.set_measure_from(cfg.warmup);
  // Corruption probe mirrors LatencyStats' measurement filter (packets
  // generated before warmup are ignored). Ejection callbacks run between
  // step barriers, which publish the domain workers' corrupted-set inserts.
  std::uint64_t packets_corrupted = 0;
  const bool soft_armed = fault && cfg.faults.soft_errors_armed();
  net.set_eject_callback([&stats, &packets_corrupted, fault, soft_armed,
                          measure_from = cfg.warmup](const PacketRecord& r) {
    stats.record(r);
    if (soft_armed && r.gen_cycle >= measure_from &&
        fault->packet_corrupted(r.packet_id)) {
      packets_corrupted++;
    }
  });

  std::unique_ptr<InvariantVerifier> verifier;
  if (cfg.verify) {
    VerifierOptions vopts = cfg.verifier;
    vopts.sink = incidents.get();  // violations also land as JSON incidents
    verifier = std::make_unique<InvariantVerifier>(sys, vopts);
  }

  const Cycle total = cfg.warmup + cfg.measure;
  const Cycle hard_cap = cfg.max_cycles_hard;
  if (cfg.ops != nullptr) {
    // Ops plane: read-only periodic snapshot folds. Registered last so its
    // passive ejection observer cannot perturb any primary callback, and
    // fed only accessors — it has no way to mutate the run.
    ops::OpsPlane::RunContext octx;
    octx.sys = &sys;
    octx.scheme = sys.name();
    octx.total_cycles = total;
    octx.hist_overflow = [&stats] { return stats.hist_overflow(); };
    octx.incidents = incidents.get();
    cfg.ops->begin_run(octx);
  }
  std::uint64_t last_ejected = 0;
  Cycle last_progress = 0;
  std::uint64_t recoveries = 0;
  bool recovery_armed = true;  ///< one recovery attempt per stall episode
  bool aborted = false;
  Cycle end_cycle = total;  ///< first cycle NOT simulated
  // One cycle of either phase: the hard-cap check (whose incident aborts
  // the run), then `before_step` (false ends the phase without stepping),
  // the system step, the verifier and the ops tick. Returns false when the
  // phase ends at `now`.
  const auto run_cycle = [&](Cycle now, auto&& before_step) {
    if (hard_cap != 0 && now >= hard_cap) {
      record_budget_incident(sys, *incidents, "hard_cycle_cap", now, hard_cap);
      aborted = true;
      return false;
    }
    if (!before_step()) return false;
    sys.step(now);
    if (verifier) verifier->step(now);
    if (cfg.ops != nullptr && cfg.ops->wants_tick(now)) cfg.ops->tick(now);
    return true;
  };
  for (Cycle now = 0; now < total; ++now) {
    if (!run_cycle(now, [&] {
          scenario.apply(sys, now);
          traffic.step(now);
          return true;
        })) {
      end_cycle = now;
      break;
    }
    if (now == cfg.warmup) built.power->begin_window(now);
    if (cfg.telemetry.metrics_window != 0 &&
        (now % cfg.telemetry.metrics_window) == 0) {
      metrics->series("series.in_network_flits")
          .add(now, static_cast<double>(net.in_network_flits()));
      metrics->series("series.queued_packets")
          .add(now, static_cast<double>(net.total_queued_packets()));
      if (power_states) {
        metrics->series("series.gated_routers")
            .add(now, static_cast<double>(sys.gated_router_count()));
      }
    }
    // Progress probe: total_ejected_flits()/in_flight_empty() are O(1)
    // cached counters, so the probe itself is free; the %1024 throttle is
    // kept anyway so the progress-sampling points (and hence recovery
    // timing) stay identical to earlier builds.
    if (cfg.watchdog && (now % 1024) == 0) {
      const std::uint64_t ej = net.total_ejected_flits();
      if (ej != last_ejected || net.in_flight_empty()) {
        last_ejected = ej;
        last_progress = now;
        recovery_armed = true;
      } else if (now - last_progress >= cfg.watchdog) {
        FLOV_TRACE(telemetry::kTraceRecovery,
                   telemetry::TraceEventType::kWatchdogStall, now, -1,
                   now - last_progress, last_ejected);
        dump_stall_state(sys, now, "watchdog");
        const bool recovered = recovery_armed && sys.attempt_recovery(now);
        record_stall_incident(sys, *incidents, now, now - last_progress,
                              recovered);
        FLOV_TRACE(telemetry::kTraceRecovery,
                   telemetry::TraceEventType::kRecoveryAttempt, now, -1,
                   recovered ? 1 : 0, recoveries + 1);
        if (!recovered && hard_cap != 0) {
          // With a hard cycle cap armed the caller opted into
          // partial-results-over-abort: surface the unrecoverable stall as
          // an incident and stop the run instead of FLOV_CHECK-aborting.
          aborted = true;
          end_cycle = now;
          break;
        }
        FLOV_CHECK(recovered,
                   std::string("no forward progress (possible deadlock) in ") +
                       to_string(cfg.scheme));
        recovery_armed = false;  // a second stall in this episode aborts
        recoveries++;
        last_progress = now;  // fresh window for the recovery to act
      }
    }
  }

  // Post-measurement drain: traffic generation and gating changes stop;
  // the system keeps stepping so in-flight worms land, retransmit timers
  // fire, and every reliable flow resolves to acked-or-dead. Bounded by
  // drain_max (and the hard cap); running out is an incident, not an
  // abort — the verifier's final sweep still runs on whatever remains.
  if (!aborted && cfg.drain_max != 0) {
    const Cycle drain_end = total + cfg.drain_max;
    Cycle now = total;
    for (; now < drain_end; ++now) {
      if (!run_cycle(now, [&] { return !fully_drained(net); })) break;
    }
    end_cycle = now;
    if (!aborted && now == drain_end && !fully_drained(net)) {
      dump_stall_state(sys, now, "drain_exhausted");
      record_budget_incident(sys, *incidents, "drain_exhausted", now,
                             cfg.drain_max);
    }
    // Every tail that left took its packet's table entry with it, whether
    // it ejected, died in a dead router or dropped on a wire.
    FLOV_DCHECK(aborted || !fully_drained(net) || net.packets().live() == 0,
                "packet table still holds " +
                    std::to_string(net.packets().live()) +
                    " entries after the run drained");
  }

  // Every subsystem registers its metrics under its own prefix. The
  // registry plus the incident list is the run's result record: the
  // RunResult scalars are folded from it, and it rides on the RunResult so
  // sweeps can merge per-point registries deterministically.
  net.publish_metrics(*metrics);
  stats.publish_metrics(*metrics);
  built.power->publish_metrics(*metrics, end_cycle);
  sys.publish_metrics(*metrics, end_cycle);
  metrics->counter("run.packets_generated") += traffic.generated_packets();
  metrics->counter("run.watchdog_recoveries") += recoveries;
  metrics->counter("run.cycles") += end_cycle;
  if (aborted) metrics->counter("run.aborted") += 1;
  if (cfg.noc.reliable) {
    for (NodeId id = 0; id < net.num_nodes(); ++id) {
      const NetworkInterface& ni = net.ni(id);
      metrics->counter("run.packets_acked") += ni.packets_acked();
      metrics->counter("run.packets_dead") += ni.packets_dead();
      metrics->counter("run.packets_purged") += ni.packets_purged();
      metrics->counter("run.killed_at_source") += ni.killed_at_source();
      metrics->counter("run.retransmits") += ni.retransmits();
      metrics->counter("run.dup_packets") += ni.dup_packets();
    }
  }
  if (soft_armed) {
    metrics->counter("fault.payload_flips") += fault->counters().payload_flips;
    metrics->counter("fault.psr_flips") += fault->counters().psr_flips;
    metrics->counter("run.packets_corrupted") += packets_corrupted;
  }

  // End-of-run incidents, always in this order: hard-fault summary,
  // per-flow packet_dead records, the verifier's final sweep.
  if (sys.dead_router_count() > 0 || sys.dead_link_count() > 0) {
    record_hard_fault_summary(
        sys, metrics->counter_value("flov.wake_requests_dropped"),
        *incidents);
  }
  if (cfg.noc.reliable) record_dead_packets(net, *incidents);
  if (verifier) {
    verifier->final_check(end_cycle);
    metrics->counter("verify.violations") += verifier->violations();
    metrics->counter("verify.checks") += verifier->checks_run();
  }

  // Final ops fold AFTER every end-of-run incident has been recorded, so
  // the last published snapshot carries the complete incident counts.
  if (cfg.ops != nullptr) cfg.ops->end_run(end_cycle);

  RunResult r = fold_run_result(to_string(cfg.scheme), *metrics);
  r.metrics = std::move(metrics);
  r.trace = std::move(tracer);
  r.incidents = std::move(incidents);
  return r;
}

}  // namespace flov
