// Runtime invariant verifier: a per-cycle observer that proves the
// simulator's protocol-level conservation laws as it runs.
//
// Checks (each individually switchable):
//   * Flit conservation — every injected flit is either still inside the
//     fabric, ejected exactly once, or accounted to an injected flit-drop
//     fault. Checked as an exact per-cycle equation over NI counters,
//     channel occupancy and router buffers; packet-level duplicate ejection
//     is caught via an ejection observer.
//   * Credit conservation — for every powered router U and direction d,
//     per VC: U's output credits + flits in flight on the segment toward
//     the nearest powered router C + credits in flight back + C's occupied
//     input slots == buffer_depth. Holds exactly at every cycle boundary,
//     including across FLOV sleep/wake credit handovers; downgraded to an
//     upper bound when flit-drop faults are armed (a dropped flit's credit
//     is legitimately lost forever).
//   * PSR coherence — logical[d] points at the true nearest non-sleeping
//     router; rFLOV never gates two adjacent routers; gFLOV never keeps a
//     Draining–Draining or Draining–Wakeup logical pair. Pointer checks
//     respect signal latency: they only fire on neighborhoods whose power
//     FSMs have been stable for `settle_window` cycles, and require two
//     consecutive failing samples (handshake heals are in flight in
//     between).
//   * Reliable delivery (noc.reliable) — every allocated sequence number
//     is acked, declared dead or still tracked.
//
// Incremental evaluation (docs/PERFORMANCE.md §6). Every input these
// checks read changes only under one of three signals:
//   * channel activity flags — Network::claim_channel_activity(): every
//     send, popping recv, clear or staged merge flags its channel. Router
//     buffers, latches and credit counters change only together with such
//     an operation on one of their channels.
//   * the control epoch — Network::control_epoch(): bumped by every
//     wake_router(), the hook each behind-the-channels mutation (credit
//     handover, mode switch, hard fault) already calls.
//   * PSR stamps — FlovNetwork::psr_stamps(): the cycle of each node's
//     last FSM transition, PSR update, view refresh or death.
// A check re-evaluates an item (a credit segment, a node's PSR view) only
// when one of its inputs was signalled since the previous check, when its
// last evaluation failed or left a fail streak pending, or when a PSR
// settle deadline arrives. A control-epoch change re-reads everything. Each
// check has a single evaluation function; step() drives it over the changed
// items, final_check() over all of them. Debug builds also run the full
// pass after every incremental check and FLOV_DCHECK that both produce the
// same violations in the same order (the oracle), so a missed signal fails
// the Debug test suite instead of hiding a violation. Verdicts, violation
// cycles and messages are those of a full pass every check. Two checks are
// full passes every time: flit conservation and reliable-delivery
// accounting (NI retransmit timers declare flows dead without any channel
// operation).
//
// Both conservation checks read the packed arrays of MeshHotState, which
// are the components' own length cells, credit counters, latch bits and NI
// counters, not caches of them: flit conservation is a sum over a few KB,
// and a credit segment reads one input-length run, one credit run and per
// hop two channel lengths and a latch bit, walking a wire's items only when
// its length is not 0. The scheduler's caches (each router's resident
// count, the FabricCounters) are held to those sums: a drifted
// FabricCounters is a reported violation, a drifted resident count a Debug
// FLOV_DCHECK.
//
// A violation dumps the offending neighborhood and either aborts via
// FLOV_CHECK (fatal=true, the default) or is counted (for tests that
// assert the verifier fires).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "noc/network.hpp"
#include "noc/power_state.hpp"

namespace flov {

namespace telemetry {
class StructuredSink;
}

class FlovNetwork;
class FaultInjector;
class NocSystem;

struct VerifierOptions {
  Cycle check_interval = 1;  ///< run the per-cycle checks every N cycles
  /// FSM-quiet time required before PSR pointer/pair checks may flag.
  Cycle settle_window = 64;
  bool check_conservation = true;
  bool check_credits = true;
  bool check_psr = true;
  bool fatal = true;  ///< abort on violation (else: count and continue)
  /// Structured incident sink (run manifest "incidents" section): every
  /// violation is also recorded as a JSON object with the coordinates and
  /// power mode of each non-powered router. Non-owning; may be null.
  telemetry::StructuredSink* sink = nullptr;

  static VerifierOptions from_config(const Config& cfg, VerifierOptions o) {
    o.check_interval = cfg.get_int("verify.check_interval", o.check_interval);
    o.settle_window = cfg.get_int("verify.settle_window", o.settle_window);
    o.check_conservation =
        cfg.get_bool("verify.check_conservation", o.check_conservation);
    o.check_credits = cfg.get_bool("verify.check_credits", o.check_credits);
    o.check_psr = cfg.get_bool("verify.check_psr", o.check_psr);
    o.fatal = cfg.get_bool("verify.fatal", o.fatal);
    return o;
  }
};

class InvariantVerifier {
 public:
  /// The verifier for any scheme: the full form (conservation + credits +
  /// PSRs) for a FLOV system, the conservation-only form with the scheme's
  /// armed injector otherwise (Baseline has no credit handover; RP parks
  /// routers and voids credits by design, so only flit conservation is a
  /// meaningful invariant there). Registers itself as an ejection observer
  /// on every NI, and dumps the scheme's state on a violation.
  InvariantVerifier(NocSystem& sys, VerifierOptions opts = {});

  /// Conservation-only verifier for a bare Network. `fault` (optional): the
  /// armed injector, so faulted flit drops balance the conservation
  /// equation.
  InvariantVerifier(Network& net, VerifierOptions opts = {},
                    const FaultInjector* fault = nullptr);

  /// Run the armed checks; call once per cycle after the system stepped.
  void step(Cycle now);

  /// Ejection observer (public so tests can replay records directly).
  void observe_eject(const PacketRecord& rec);

  /// One unconditional full sweep (used after quiescing a run).
  void final_check(Cycle now);

  std::uint64_t violations() const { return violations_; }
  std::uint64_t checks_run() const { return checks_run_; }
  const std::string& last_violation() const { return last_violation_; }
  /// Cycle of the most recent violation (0 before the first one).
  Cycle last_violation_cycle() const { return last_violation_cycle_; }

 private:
  /// The FLOV checks are armed when `sys` is a FlovNetwork.
  InvariantVerifier(Network& net, VerifierOptions opts,
                    const FaultInjector* fault, NocSystem* sys);

  /// Violation messages of one check, in report order.
  using Findings = std::vector<std::string>;
  /// Consecutive failing samples per (node, dir) pointer check.
  using Streaks = std::vector<std::array<int, kNumMeshDirs>>;

  struct FlitSums {
    std::uint64_t injected = 0;
    std::uint64_t ejected = 0;
    std::uint64_t inside = 0;  ///< router buffers + latches + flit channels
  };
  /// One link of a credit segment: router r's flit wire toward d and its
  /// credit back-channel (with their channel indices, the slots of their
  /// packed lengths), and r's FLOV latch toward d (latch_node is r, or
  /// kInvalidNode for r == u).
  struct Hop {
    const Channel<Flit>* flit;
    const Channel<Credit>* credit;
    int flit_index;
    int credit_index;
    NodeId latch_node;
  };
  /// One credit-conservation segment: powered `u`, its outputs toward `d`,
  /// across sleeping routers to the nearest powered router `c`; its links
  /// are hops[first_hop, end_hop). `credits` and `occupied` are the first
  /// slots of u's output-credit run and c's input-length run in the packed
  /// arrays (MeshHotState::vc_slot).
  struct Segment {
    NodeId u;
    Direction d;
    NodeId c;
    int first_hop;
    int end_hop;
    std::size_t credits;
    std::size_t occupied;
  };

  /// Runs every armed check over the changed items (full = all items) and
  /// reports the findings.
  void run_checks(Cycle now, bool full);
  /// The full pass over pre-check PSR streaks `streaks`; FLOV_DCHECKs that
  /// it finds exactly what the incremental check found.
  void oracle_check(Cycle now, Streaks streaks);

  // --- flit conservation ---
  /// Ground truth: sums over the packed arrays (never the caches).
  FlitSums count_flits() const;
  void eval_conservation(const FlitSums& sums, Findings& out) const;
  void check_delivery(Findings& out) const;

  // --- credit conservation ---
  void build_segments(std::vector<Segment>& segments,
                      std::vector<Hop>& hops) const;
  /// Rebuilds the segment table (all) or marks the segments a channel
  /// operated on since the previous check belongs to as due; either way it
  /// clears the channel activity flags.
  void update_segments(bool all);
  /// Returns true when the segment holds.
  bool eval_segment(const Segment& s, const std::vector<Hop>& hops,
                    Findings& out);

  // --- PSR coherence ---
  void track_fsm_changes(Cycle now);
  /// First cycle at which the neighborhood from..to along d has been
  /// FSM-quiet for a full settle window.
  Cycle settled_at(NodeId from, Direction d, NodeId to) const;
  /// Returns the first cycle at which `id` must be evaluated again even if
  /// no stamp reaches it (kNeverCycle: only a stamp can change its verdict).
  Cycle eval_psr(NodeId id, Cycle now, Streaks& streaks, Findings& out) const;
  /// Makes `x` and every node whose PSR check reads `x`'s state due now.
  void mark_psr_readers(NodeId x);
  PowerState state_of(NodeId id) const;
  void violation(Cycle now, const std::string& what);

  Network& net_;
  const NocSystem* sys_ = nullptr;  ///< null for a bare Network
  FlovNetwork* flov_ = nullptr;  ///< null for the conservation-only form
  const FaultInjector* fault_ = nullptr;
  VerifierOptions opts_;
  /// Credit check exact (fault-free) or an upper bound (flit drops / hard
  /// faults armed: a dropped flit's credit is legitimately gone).
  bool credits_exact_ = true;

  /// Duplicate-ejection detection. Packet ids are dense per source
  /// (1 + src + seq·N), so ejected_[id % N][id / N] flags each id seen;
  /// a repeat's exact count lives in eject_repeats_.
  std::vector<std::vector<std::uint8_t>> ejected_;
  std::unordered_map<std::uint64_t, std::uint64_t> eject_repeats_;

  // Incremental state.
  /// Network::claim_channel_activity (FLOV form only).
  std::vector<std::uint8_t>* activity_ = nullptr;
  Cycle last_check_ = 0;  ///< cycle of the previous check
  Cycle last_step_ = 0;  ///< cycle of the previous step() call
  std::uint64_t seen_epoch_ = ~std::uint64_t{0};  ///< control epoch seen
  std::vector<Segment> segments_;
  std::vector<Hop> hops_;
  /// Channel index -> its segment, or segments_.size() (the sink) for a
  /// channel no segment reads.
  std::vector<int> channel_segment_;
  /// Bit i of word i / 64: segment i was flagged or failed last time.
  std::vector<std::uint64_t> segment_due_;
  /// update_segments' scratch: bit c set when channel c was flagged.
  std::vector<std::uint64_t> fresh_;
  /// Per node, the first check that must evaluate it again: eval_psr's
  /// answer, or 0 once a PSR stamp reached it (mark_psr_readers).
  std::vector<Cycle> psr_due_;
  Cycle psr_next_due_ = 0;      ///< min of psr_due_
  Findings findings_;

  /// eval_segment's per-VC counts (a router has at most 64 VCs).
  std::array<int, 64> flits_scratch_{};
  std::array<int, 64> credits_scratch_{};
  std::vector<PowerState> prev_state_;
  std::vector<Cycle> last_fsm_change_;
  Streaks psr_fail_streak_;

  std::uint64_t violations_ = 0;
  std::uint64_t checks_run_ = 0;
  std::string last_violation_;
  Cycle last_violation_cycle_ = 0;
};

}  // namespace flov
