// FLOV-capable virtual-channel router.
//
// Powered on, it is the paper's baseline 3-stage pipeline (RC -> VA+SA ->
// ST, one cycle each, +1 cycle link traversal). Power-gated, the baseline
// portion is off and the four FLOV output latches forward incoming flits
// straight across (1-cycle latch) while relaying credits upstream, exactly
// the Section III datapath. Router Parking parks the whole tile (kParked):
// nothing forwards, and the fabric manager guarantees no traffic arrives.
//
// The router never inspects global state: routing and allocation read only
// its NeighborhoodView (PSRs + output masks), which the handshake layer
// maintains. Cross-layer hooks (wakeup requests, credit handovers) are
// exposed as narrow methods used by the flov/rp glue.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/geometry.hpp"
#include "common/types.hpp"
#include "noc/active_set.hpp"
#include "noc/arbiter.hpp"
#include "noc/channel.hpp"
#include "noc/flit.hpp"
#include "noc/hot_state.hpp"
#include "noc/input_unit.hpp"
#include "noc/noc_params.hpp"
#include "noc/output_unit.hpp"
#include "noc/power_state.hpp"
#include "noc/routing_iface.hpp"
#include "power/power_tracker.hpp"

namespace flov {

class Router {
 public:
  /// `hot` points at the mesh-wide SoA slab (noc/hot_state.hpp) this
  /// router's hot fields live in, indexed by `id`; null (standalone unit
  /// tests) binds a private single-slot slab instead.
  Router(NodeId id, const MeshGeometry& geom, const NocParams& params,
         RoutingFunction* routing, PowerTracker* power,
         MeshHotState* hot = nullptr);

  NodeId id() const { return id_; }
  RouterMode mode() const { return *mode_; }

  // --- wiring (called once by the Network; non-owning) ---
  void connect_flit_in(Direction port, Channel<Flit>* ch);
  void connect_flit_out(Direction port, Channel<Flit>* ch);
  /// Credits this router RETURNS for its input port `port`.
  void connect_credit_out(Direction port, Channel<Credit>* ch);
  /// Credits this router RECEIVES for its output port `port`.
  void connect_credit_in(Direction port, Channel<Credit>* ch);

  /// One clock edge. Safe to call routers in any order: all inter-router
  /// channels have latency >= 1.
  void step(Cycle now);

  /// Active-set hook: re-arms this router's liveness flag on mode changes
  /// (set once by the Network; null in router unit tests).
  void set_wake_target(WakeList* list, int index) {
    wake_ = list;
    wake_index_ = index;
  }

  /// True when stepping this router would be a no-op: no resident flits
  /// (input buffers or FLOV latches), no pending switch grants, and nothing
  /// in flight on any incoming flit/credit wire. Time-dependent work
  /// (pipeline stages, deadlock timeouts) always has a buffered flit behind
  /// it, so a quiescent router may be skipped until a send re-arms it; the
  /// skipped VA round-robin ticks are replayed on the next pipeline step
  /// (see step()), keeping results bit-identical to stepping every cycle.
  bool quiescent() const {
    return *resident_ == 0 && pending_st_.empty() && in_pending_ == 0;
  }

  /// Switches the datapath mode; performs the associated state hygiene
  /// (asserts drained buffers, resets allocation state, informs the power
  /// tracker, charges the gating-overhead energy on entry to a gated mode).
  void set_mode(RouterMode m, Cycle now);

  /// Hard-fault entry point for pipeline (RP/baseline) routers. Death must
  /// be worm-coherent: an instant kDead switch would destroy the local
  /// remainder of worms whose heads this router already forwarded, leaving
  /// tail-less fragments downstream that hold their VC allocations forever.
  /// Instead the router turns fail-functional for a short grace: it keeps
  /// forwarding worms already in progress, eats every NEW worm whole
  /// (head-to-tail, credits refunded — the kDead black-hole contract), and
  /// switches to kDead on the first cycle its datapath is clean. An
  /// already-empty router dies instantly.
  void begin_death(Cycle now);

  NeighborhoodView& view() { return view_; }
  const NeighborhoodView& view() const { return view_; }

  // --- handshake / drain support ---
  bool input_buffers_empty() const;
  bool latches_empty() const;
  /// True when the FLOV output latch toward `d` holds no flit.
  bool latch_empty(Direction d) const {
    return (*latch_full_ & latch_bit(dir_index(d))) == 0;
  }
  /// The flit held in the output latch toward `d`; valid only while
  /// !latch_empty(d).
  const Flit& latch_flit(Direction d) const {
    return latch_[dir_index(d)].flit;
  }
  /// True when output port `d` has no allocated output VCs (no in-flight
  /// packet transmission toward that neighbor) — the drain_done condition.
  bool output_port_idle(Direction d) const;
  /// True when NO output port (local included) has an allocated output VC.
  /// An allocated output means a worm through this router has flits still
  /// upstream — gating now would orphan them mid-flight.
  bool all_outputs_idle() const;
  /// True when the bypass path has no worm in progress (every head that was
  /// latched through has seen its tail) and no flit is in flight on any
  /// incoming wire. A waking router must not switch to pipeline mode
  /// before this holds: an upstream that missed the WakeupNotify (lost
  /// signal) may still be streaming a worm through our latches, and
  /// power-on mid-worm would strand headless body flits in the input
  /// buffers.
  bool bypass_quiet() const;
  /// True when the router holds no flits at all (buffers, latches, pending
  /// switch grants).
  bool completely_empty() const;
  /// Cycle of the last local-port (core-side) flit activity.
  Cycle last_local_activity() const { return last_local_activity_; }

  /// Immediate credit refund for a flit this router sent on `out_port`
  /// that a fault destroyed ON the wire (dead link, transient drop): the
  /// downstream buffer never sees the flit, so its credit must not leak —
  /// a dead link would otherwise bleed the output VC dry and wedge the
  /// fabric behind it forever. Mirrors accept_credits: a pipeline router
  /// reclaims the output-VC credit, a bypass router relays it upstream on
  /// the same line. Called from the channel fault hook, i.e. inside this
  /// router's own step — same worker under domain-parallel stepping.
  void refund_output_credit(Direction out_port, VcId vc, Cycle now);

  // --- credit-handover support (see flov/credit_handover.cpp) ---
  /// Fills `out` with the free buffer slots per VC at `in_port` — the
  /// caller keeps a reusable scratch vector (per-cycle paths must not
  /// allocate).
  void input_free_slots(Direction in_port, std::vector<int>& out) const;
  void reload_output_credits(Direction out_port,
                             const std::vector<int>& free_counts);
  void reset_output_credits_full(Direction out_port);
  Channel<Credit>* credit_in(Direction d) { return credit_in_[dir_index(d)]; }
  Channel<Flit>* flit_in(Direction d) { return in_flit_[dir_index(d)]; }

  /// Hook invoked when a packet must wake a sleeping destination router
  /// before it can be forwarded (Section IV-A Wakeup trigger).
  void set_wakeup_callback(std::function<void(NodeId)> cb) {
    wakeup_cb_ = std::move(cb);
  }

  /// Hook invoked once per flit this router destroys while kDead (wired by
  /// the scheme layer to the fault injector's hard-kill accounting + the
  /// network's in-flight counter).
  void set_kill_callback(std::function<void(const Flit&)> cb) {
    kill_cb_ = std::move(cb);
  }

  /// Shared hard-fault fate mask (index = node id; non-null entries flip to
  /// true when the death cycle applies). A destination inside a sleeping
  /// run that is dead must NOT trigger hold-for-wakeup: the packet flies
  /// over instead and the dead router's bypass self-captures it into the
  /// always-on NI sink.
  void set_dead_mask(const std::vector<char>* mask) { dead_mask_ = mask; }

  // --- introspection for tests ---
  const InputPort& input_port(Direction d) const {
    return input_[dir_index(d)];
  }
  const OutputPort& output_port(Direction d) const {
    return output_[dir_index(d)];
  }
  std::uint64_t flits_traversed() const { return flits_traversed_; }
  /// Packets this router diverted into the escape sub-network (deadlock
  /// timeout fired); the escape-VC path's registry metric.
  std::uint64_t escape_diversions() const { return escape_diversions_; }
  /// Flits resident in this router right now (input VC buffers + FLOV
  /// latches): a ground-truth recount over its packed in_len stripe and
  /// latch_full bits, never the resident_ cache.
  int buffered_flits() const;
  /// True when the resident_ cache equals buffered_flits() (Debug checks).
  bool resident_matches_recount() const {
    return *resident_ == buffered_flits();
  }
  /// Self-destined flits captured to the NI while gated (faults only).
  std::uint64_t self_captures() const { return self_captures_; }
  /// Writes a human-readable description of every non-empty input VC and
  /// occupied latch to stderr (deadlock diagnostics).
  void dump_occupancy(Cycle now) const;
  std::uint64_t flits_flown_over() const { return flits_flown_over_; }
  const NocParams& params() const { return params_; }

 private:
  struct SwitchGrant {
    int in_port;
    VcId in_vc;
  };

  void accept_credits(Cycle now);
  void accept_flits(Cycle now);
  void accept_flits_bypass(Cycle now);
  void forward_latches(Cycle now);
  void do_switch_traversal(Cycle now);
  void do_timeout_checks(Cycle now);
  void do_vc_allocation(Cycle now);
  void do_switch_allocation(Cycle now);
  void do_route_computation(Cycle now);

  /// Full walk over input VC states (debug cross-check of busy_).
  bool busy_masks_match_vc_states() const;
  /// Full walk over the input channels (debug cross-check of in_pending_).
  bool pending_mask_matches_inputs() const;

  /// in_pending_ bit of flit input port p is bit p; of credit input port
  /// p, bit kNumPorts + p.
  static constexpr std::uint32_t kFlitInBits = (1u << kNumPorts) - 1;
  static constexpr int kCreditInShift = kNumPorts;

  static std::uint8_t latch_bit(int d) {
    return static_cast<std::uint8_t>(1u << d);
  }

  /// Distance from this router to `n` along direction `d` if `n` lies
  /// exactly along that axis; -1 otherwise.
  int distance_along(Direction d, NodeId n) const;
  /// The Section IV hold rule: the packet's destination router lies inside
  /// a sleeping run along the chosen direction, so it must be woken first.
  bool must_hold_for_wakeup(const InputVc& vc, const Flit& head);

  void count(EnergyEvent e, std::uint64_t n = 1) {
    // Per-node counting: domain workers may count concurrently, and the
    // per-node cells fold back deterministically (PowerTracker).
    if (power_) power_->count_node(id_, e, n);
  }

  NodeId id_;
  const MeshGeometry& geom_;
  NocParams params_;
  RoutingFunction* routing_;
  PowerTracker* power_;

  /// Private single-slot slab for standalone construction (unit tests);
  /// unused when the Network hands us its mesh slab.
  std::unique_ptr<MeshHotState> self_hot_;
  /// Hot fields in the SoA slab (this router's slots). mode_/resident_
  /// point at mode[id]/resident[id]; the port views cover the per-VC
  /// stripes; latch_ the FLOV latches and latch_full_ their occupancy
  /// bits.
  RouterMode* mode_ = nullptr;
  std::int32_t* resident_ = nullptr;
  std::uint8_t* latch_full_ = nullptr;

  NeighborhoodView view_;

  std::array<Channel<Flit>*, kNumPorts> in_flit_{};
  std::array<Channel<Flit>*, kNumPorts> out_flit_{};
  std::array<Channel<Credit>*, kNumPorts> credit_out_{};
  std::array<Channel<Credit>*, kNumPorts> credit_in_{};
  /// One bit per input channel (layout: kFlitInBits / kCreditInShift),
  /// set exactly while that channel's visible queue is non-empty. The
  /// channels keep it (Channel::set_pending_bit); accept_flits/credits
  /// visit only set bits and quiescent() reads it whole.
  std::uint32_t in_pending_ = 0;

  std::array<InputPort, kNumPorts> input_;
  /// Per input port, bit v set exactly when input_[p].vcs[v].state !=
  /// kIdle. Route computation, VC/switch allocation and the timeout checks
  /// visit only these bits instead of every VC slot. Written only where a
  /// VC leaves or enters kIdle (head arrival, tail departure, death).
  std::array<std::uint64_t, kNumPorts> busy_{};
  std::array<OutputPort, kNumPorts> output_;
  Span<FlovLatch> latch_;

  std::vector<SwitchGrant> pending_st_;
  std::vector<RoundRobinArbiter> sa_input_arb_;   // one per input port
  std::vector<RoundRobinArbiter> sa_output_arb_;  // one per output port
  int va_rotate_ = 0;

  std::function<void(NodeId)> wakeup_cb_;
  std::function<void(const Flit&)> kill_cb_;
  const std::vector<char>* dead_mask_ = nullptr;
  WakeList* wake_ = nullptr;
  int wake_index_ = -1;
  /// Fail-functional death grace (begin_death): still kPipeline, finishing
  /// worms in progress; flips to kDead once the datapath is clean.
  bool dying_ = false;
  /// Per input port, a VC bitmask of worms being eaten whole while dying:
  /// set by an arriving head, cleared by its tail.
  std::array<std::uint64_t, kNumPorts> dying_eat_{};
  /// First cycle whose VA round-robin tick has not been applied yet; lets
  /// step() replay the ticks of skipped idle cycles so allocation order is
  /// identical to stepping every cycle. Only pipeline-mode cycles tick.
  Cycle va_tick_from_ = 0;
  Cycle last_local_activity_ = 0;
  /// Worms mid-flight on the bypass path: +1 when a head (of a multi-flit
  /// packet) arrives in bypass mode, -1 when its tail does.
  int bypass_worms_open_ = 0;
  std::uint64_t flits_traversed_ = 0;
  std::uint64_t flits_flown_over_ = 0;
  std::uint64_t self_captures_ = 0;
  std::uint64_t escape_diversions_ = 0;
};

}  // namespace flov
