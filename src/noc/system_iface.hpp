// Common interface over a mesh network plus a power-gating scheme.
//
// The experiment harness drives Baseline / rFLOV / gFLOV / RP uniformly:
// it reports core (un)gating events from the OS model and steps the system
// one cycle at a time; the scheme decides how routers react. The per-node
// state every scheme carries (the core-gated mask, the armed injector, the
// hard-fault dead mask) lives here too, so the harness reads it without
// knowing the scheme.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "fault/fault_injector.hpp"
#include "noc/network.hpp"
#include "telemetry/metrics.hpp"

namespace flov {

class NocSystem {
 public:
  virtual ~NocSystem() = default;

  /// Advances network + scheme machinery by one cycle.
  virtual void step(Cycle now) = 0;

  /// OS-level core power event (Section I: FLOV reacts to OS core gating).
  /// The scheme records it in core_gated_mask() (or refuses it: a dead
  /// node's core stays gated) and reacts in its own way.
  virtual void set_core_gated(NodeId core, bool gated, Cycle now) = 0;
  bool core_gated(NodeId core) const {
    return core_gated_[static_cast<std::size_t>(core)] != 0;
  }
  /// Per-node core-gated flags (1 = gated): the one representation of core
  /// gating. Every write lands here — OS events, hard-fault kills, RP's
  /// quarantine — so a reader can compare the whole mask with one memcmp.
  const std::vector<std::uint8_t>& core_gated_mask() const {
    return core_gated_;
  }

  /// True when `src` may inject new packets this cycle (false for gated
  /// cores, and for everyone during RP's reconfiguration stall).
  virtual bool injection_allowed(NodeId src) const = 0;

  /// Watchdog escalation hook: try to un-wedge a stalled fabric (e.g. by
  /// re-issuing lost handshake signals). Returns true if the scheme did
  /// anything worth granting a fresh progress window for; the default
  /// scheme has no recovery story.
  virtual bool attempt_recovery(Cycle now) {
    (void)now;
    return false;
  }

  /// Numeric scheme power state of `node`'s router for observability
  /// surfaces (the ops-plane snapshot grids). FLOV schemes report their
  /// HSC PowerState; schemes without one report 0 (== kActive).
  virtual std::uint8_t power_state_code(NodeId node) const {
    (void)node;
    return 0;
  }

  /// Registers/updates the scheme's end-of-run metrics ("flov.*", "rp.*",
  /// "fault.*") in `reg`; `now` is the first cycle not simulated.
  virtual void publish_metrics(telemetry::MetricsRegistry& reg,
                               Cycle now) const = 0;

  virtual Network& network() = 0;
  virtual const Network& network() const = 0;

  virtual const char* name() const = 0;

  /// The armed fault injector, or null when running fault-free.
  FaultInjector* fault_injector() { return fault_.get(); }
  const FaultInjector* fault_injector() const { return fault_.get(); }

  // --- hard-fault introspection (PROTOCOL.md §8) ---
  /// Per-node hard-fault flags (flipped once at fault.hard_at_cycle).
  const std::vector<char>& dead_mask() const { return dead_mask_; }
  int dead_router_count() const {
    int n = 0;
    for (char c : dead_mask_) n += c != 0;
    return n;
  }
  int dead_link_count() const { return dead_links_; }

 protected:
  /// True exactly once: on the first step at or after fault.hard_at_cycle
  /// (never on a build without armed hard faults).
  bool hard_faults_due(Cycle now) {
    if (!fault_ || hard_applied_ || fault_->hard_at() == 0 ||
        now < fault_->hard_at()) {
      return false;
    }
    hard_applied_ = true;
    return true;
  }

  /// The flit-link "fault.*" metrics every scheme shares; the hard-fault
  /// keys exist only when the hard knobs are armed, so transient-only
  /// manifests carry none of them. No-op fault-free.
  void publish_fault_metrics(telemetry::MetricsRegistry& reg) const {
    if (!fault_) return;
    const FaultInjector::Counters& f = fault_->counters();
    reg.counter("fault.flits_dropped") += f.flits_dropped;
    reg.counter("fault.flits_delayed") += f.flits_delayed;
    if (fault_->hard_at() > 0) {
      reg.counter("fault.hard_killed_flits") += f.hard_killed;
      reg.gauge("fault.dead_routers") =
          static_cast<double>(dead_router_count());
      reg.gauge("fault.dead_links") = static_cast<double>(dead_links_);
    }
  }

  std::unique_ptr<FaultInjector> fault_;
  /// Both sized to the node count by the scheme, before any component
  /// binds a pointer into them; never resized afterwards.
  std::vector<std::uint8_t> core_gated_;
  std::vector<char> dead_mask_;
  int dead_links_ = 0;  ///< dead directed links

 private:
  bool hard_applied_ = false;
};

}  // namespace flov
