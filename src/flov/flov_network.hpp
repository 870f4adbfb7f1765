// FLOV system: mesh network + per-router HSCs + signal fabric + the
// credit-handover transactions performed at Sleep/Active transitions.
//
// The handover models the paper's credit copy ("the credit counts of its
// downstream router are copied to the upstream router"): at the cycle a
// router finishes gating, the nearest powered-on upstream router's credit
// counters for each flow direction are reloaded with the nearest powered-on
// downstream router's free-buffer counts, minus flits still in flight on
// the wire, and stale relay credits on the segment are voided. From then
// on credits relay hop-by-hop through the sleeping run with real 1-cycle
// latency — the "round-trip credit loop" cost the paper discusses is fully
// modeled; only the instantaneous copy at the transition edge is idealized.
#pragma once

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "flov/hsc.hpp"
#include "flov/signal_fabric.hpp"
#include "noc/system_iface.hpp"
#include "routing/flov_routing.hpp"

namespace flov {

class FlovNetwork final : public NocSystem {
 public:
  /// `faults`: optional fault model; all-zero (the default) injects nothing
  /// and installs no hooks (fault support is then zero-cost).
  FlovNetwork(const NocParams& params, FlovMode mode,
              const EnergyParams& energy, const FaultParams& faults = {});

  // --- NocSystem ---
  void step(Cycle now) override;
  bool attempt_recovery(Cycle now) override;
  void set_core_gated(NodeId core, bool gated, Cycle now) override;
  bool injection_allowed(NodeId src) const override {
    return !core_gated(src);
  }
  std::optional<PowerState> power_state(NodeId node) const override {
    return hscs_[node]->state();
  }
  /// HSC + occupancy dump of every non-quiescent router.
  void dump_state(Cycle now) const override;
  const char* name() const override {
    return mode_ == FlovMode::kRestricted ? "rFLOV" : "gFLOV";
  }

  FlovMode mode() const { return mode_; }

  HandshakeController& hsc(NodeId id) { return *hscs_[id]; }
  const HandshakeController& hsc(NodeId id) const { return *hscs_[id]; }
  /// False once step() found the HSC dormant, until a re-arm event.
  bool hsc_live(NodeId id) const { return hsc_live_.live(id); }

  // --- hooks used by the HSCs ---
  /// Routers in the AON column never power-gate (Section V).
  bool gating_forbidden(NodeId id) const {
    return net_->geom().is_aon_column(id);
  }
  bool ni_idle(NodeId id) const { return net_->ni(id).idle(); }
  /// Gate the NI while the router datapath is unavailable: a re-activated
  /// core's packets queue (wakeup latency shows up as queuing delay) and
  /// are injected once the router is Active again.
  void set_ni_stalled(NodeId id, bool stalled) {
    net_->ni(id).set_injection_stalled(stalled);
  }
  /// No flits on the wire/latches between `from` (exclusive) and `to`
  /// (exclusive) along `dir`.
  bool path_clear(NodeId from, Direction dir, NodeId to) const;
  /// Credit-handover at Sleep entry of router `b`.
  void sleep_handover(NodeId b, Cycle now);
  /// Credit-handover + view refresh when router `w` turns Active.
  void wake_handover(NodeId w, Cycle now);
  /// Sends a WakeupTrigger from `requester` toward sleeping `target`
  /// (deduplicated: no-op if the target is already waking or triggered,
  /// until `trigger_retry_timeout` declares the trigger lost and re-arms).
  /// `requester == target` is the gated router's own self-capture path and
  /// flags the wakeup directly.
  void request_wakeup(NodeId requester, NodeId target, Cycle now);

  // --- hard-fault introspection (PROTOCOL.md §8) ---
  /// The dead mask is shared with every router's hold-for-wakeup test via
  /// Router::set_dead_mask.
  bool router_dead(NodeId id) const { return dead_mask_[id] != 0; }

  /// PSR-change stamps (the invariant verifier's input): the cycle of the
  /// last FSM transition, PSR update, view refresh or death of each node.
  /// Serial control-plane only.
  void stamp_psr(NodeId id, Cycle now) {
    psr_stamp_[id] = now;
    psr_latest_ = std::max(psr_latest_, now);
  }
  const std::vector<Cycle>& psr_stamps() const { return psr_stamp_; }
  /// The newest PSR stamp of any node.
  Cycle psr_latest() const { return psr_latest_; }

  struct ProtocolStats {
    std::uint64_t sleeps = 0;         ///< completed Sleep entries
    std::uint64_t wakeups = 0;        ///< completed wakeups
    std::uint64_t drain_aborts = 0;
    Cycle sleep_cycles = 0;           ///< total router-cycles spent gated
    double avg_gated_routers = 0.0;   ///< sleep_cycles / elapsed cycles
    std::uint64_t hs_resends = 0;     ///< recovery re-sends (HSC retries)
    std::uint64_t trigger_resends = 0;
    std::uint64_t psr_block_clears = 0;
    std::uint64_t self_captures = 0;  ///< bypass self-destined captures
    std::uint64_t recoveries = 0;     ///< watchdog attempt_recovery calls
  };
  ProtocolStats protocol_stats(Cycle now) const;

  /// Registers/updates the handshake-protocol and fault-injection metrics
  /// ("flov.*" / "fault.*") in `reg`.
  void publish_metrics(telemetry::MetricsRegistry& reg,
                       Cycle now) const override;

 private:
  /// Nearest router in `dir` from `b` (exclusive) whose datapath is
  /// kPipeline; kInvalidNode if the line ends first.
  NodeId nearest_pipeline(NodeId b, Direction dir) const;
  /// In-flight flits per absolute VC on the path from `from` (exclusive
  /// latches, inclusive of `from`'s outgoing channel) up to `to`.
  std::vector<int> inflight_per_vc(NodeId from, Direction dir,
                                   NodeId to) const;
  /// Voids stale credits on every credit back-channel of the path
  /// `from` -> `to` along `dir`.
  void clear_credit_path(NodeId from, Direction dir, NodeId to);
  /// Recomputes `w`'s NeighborhoodView from current global state (models
  /// the state refresh a router receives upon wakeup).
  void refresh_view(NodeId w, Cycle now);
  void handover_flow(NodeId b, Direction flow, bool waking, Cycle now);
  /// Applies the armed hard faults once, at fault.hard_at_cycle: fate-hashed
  /// routers (AON column exempt) are killed (HSC forced-drain + NI sink),
  /// fate-hashed links get their poisoned-edge marks (the channel fault
  /// hooks do the actual flit killing). Serial — called before net_->step.
  void apply_hard_faults(Cycle now);

  FlovMode mode_;
  std::unique_ptr<FlovRouting> routing_;
  SignalFabric fabric_;
  std::vector<std::unique_ptr<HandshakeController>> hscs_;
  /// HSCs that are not dormant(); step() skips the rest. Each HSC re-arms
  /// its own flag on every outside write to its inputs, refresh_view on a
  /// view rewrite.
  WakeList hsc_live_;
  /// One outstanding WakeupTrigger per sleeping target (reset at each
  /// Sleep entry); packet holders re-request every cycle otherwise. The
  /// timestamp re-arms the trigger after `trigger_retry_timeout` (loss
  /// recovery).
  std::vector<bool> trigger_sent_;
  std::vector<Cycle> trigger_sent_at_;
  std::vector<Cycle> psr_stamp_;  ///< see stamp_psr()
  Cycle psr_latest_ = 0;
  /// Per-domain staging for wakeup requests raised inside Network::step when
  /// stepping domain-parallel: request_wakeup mutates HSC/fabric state shared
  /// across domains, so workers only record (requester, target) here and
  /// step() replays the stages in domain order between barriers. Each stage
  /// is id-ascending (routers step in id order within a domain) and the row
  /// bands ascend in id, so the replay equals serial callback order and the
  /// schedule stays bit-identical.
  std::vector<std::vector<std::pair<NodeId, NodeId>>> staged_wakeups_;
  /// Scratch for Router::input_free_slots during handovers (control-plane
  /// serial code; reused to keep handovers allocation-free).
  std::vector<int> free_slots_scratch_;
  std::uint64_t trigger_resends_ = 0;
  std::uint64_t recoveries_ = 0;
  Cycle current_cycle_ = 0;
  /// WakeupTriggers swallowed because the target is dead (each is a packet
  /// waiting on a corpse; the sender's retransmit/dead-declaration path is
  /// what eventually resolves it). Published as flov.wake_requests_dropped.
  std::uint64_t wake_requests_dropped_ = 0;
};

}  // namespace flov
