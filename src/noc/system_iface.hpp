// Common base of a mesh network plus a power-gating scheme.
//
// The experiment harness drives Baseline / rFLOV / gFLOV / RP uniformly:
// it reports core (un)gating events from the OS model and steps the system
// one cycle at a time; the scheme decides how routers react. Everything
// every scheme builds lives here: the parameters, the geometry, the power
// tracker, the network, the core-gated and dead masks and the armed fault
// injector. The harness reads them, and the scheme's power states and
// stall dump, without knowing the scheme.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/geometry.hpp"
#include "common/types.hpp"
#include "fault/fault_injector.hpp"
#include "noc/network.hpp"
#include "noc/noc_params.hpp"
#include "noc/power_state.hpp"
#include "power/power_tracker.hpp"
#include "telemetry/metrics.hpp"

namespace flov {

class RoutingFunction;

class NocSystem {
 public:
  virtual ~NocSystem();

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

  /// The protocol power state of `node`'s router (FLOV's HSC state), or
  /// nullopt for a scheme without a per-router power FSM.
  virtual std::optional<PowerState> power_state(NodeId node) const {
    (void)node;
    return std::nullopt;
  }
  /// Routers whose power FSM is Sleep or Wakeup (0 without power states).
  int gated_router_count() const;

  /// Stall diagnostics on stderr: the occupancy of every router that holds
  /// anything. Schemes with protocol state add it.
  virtual void dump_state(Cycle now) const;

  /// Registers/updates the scheme's end-of-run metrics ("flov.*", "rp.*",
  /// "fault.*") in `reg`; `now` is the first cycle not simulated.
  virtual void publish_metrics(telemetry::MetricsRegistry& reg,
                               Cycle now) const = 0;

  virtual const char* name() const = 0;

  Network& network() { return *net_; }
  const Network& network() const { return *net_; }
  PowerTracker& power() { return *power_; }
  const PowerTracker& power() const { return *power_; }

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
  /// Builds the geometry and the power tracker; `flov_hardware` selects the
  /// FLOV latch leakage overhead. The scheme then builds its routing over
  /// geom_ and calls build_network.
  NocSystem(const NocParams& params, const EnergyParams& energy,
            bool flov_hardware);

  /// Builds the network over `routing` (borrowed: the scheme owns it), sizes
  /// both masks, and arms `faults` (nothing when they are all zero).
  void build_network(RoutingFunction* routing, const FaultParams& faults);

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

  /// The worm-coherent hard-fault sweep of the schemes without a handshake
  /// fabric (Baseline, RP): writes the link_key-indexed dead-link mask,
  /// then every fated router not in `exempt` (empty: none) and its core go
  /// dead. The router finishes worms in progress, eats new ones whole, then
  /// goes dark (Router::begin_death); its NI is sealed.
  std::vector<char> kill_fated_routers(Cycle now,
                                       const std::vector<bool>& exempt);

  /// The flit-link "fault.*" metrics every scheme shares; the hard-fault
  /// keys exist only when the hard knobs are armed, so transient-only
  /// manifests carry none of them. No-op fault-free.
  void publish_fault_metrics(telemetry::MetricsRegistry& reg) const;

  NocParams params_;
  MeshGeometry geom_;  ///< shared by routing/power (Network keeps its own)
  std::unique_ptr<PowerTracker> power_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<FaultInjector> fault_;
  /// Both sized to the node count by build_network, before any component
  /// binds a pointer into them; never resized afterwards.
  std::vector<std::uint8_t> core_gated_;
  std::vector<char> dead_mask_;
  int dead_links_ = 0;  ///< dead directed links

 private:
  bool hard_applied_ = false;
};

}  // namespace flov
