// Network interface (NI): the core-side endpoint of a router's local port.
//
// Injection: packet descriptors queue here, are flitized, and enter the
// router's local input port under credit flow control (one flit per cycle;
// concurrent packets may interleave across different VCs, as in BookSim).
// Ejection: flits arriving on the router's local output port are consumed
// immediately, credits are returned, and completed packets are reported to
// the ejection callback with their latency-breakdown counters.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/types.hpp"
#include "noc/active_set.hpp"
#include "noc/channel.hpp"
#include "noc/flit.hpp"
#include "noc/hot_state.hpp"
#include "noc/noc_params.hpp"
#include "telemetry/trace.hpp"

namespace flov {

/// Completed-packet report (one per ejected packet).
struct PacketRecord {
  std::uint64_t packet_id = 0;
  NodeId src = kInvalidNode;
  NodeId dest = kInvalidNode;
  VnetId vnet = 0;
  int size_flits = 0;
  Cycle gen_cycle = 0;     ///< created at the source queue
  Cycle inject_cycle = 0;  ///< head flit left the source queue
  Cycle eject_cycle = 0;   ///< tail flit consumed at the destination
  int router_hops = 0;     ///< powered-router pipeline traversals (head)
  int link_hops = 0;       ///< link traversals (head)
  int flov_hops = 0;       ///< FLOV latch traversals (head)
  bool used_escape = false;
  std::uint64_t payload = 0;

  Cycle total_latency() const { return eject_cycle - gen_cycle; }
};

/// A reliable-delivery flow that exhausted its retries (or lost its source
/// node) and was declared dead: surfaced by the experiment harness as a
/// structured incident instead of hanging the drain loop.
struct DeadPacket {
  PacketDescriptor pkt;
  std::uint32_t seq = 0;
  int retries = 0;
  Cycle declared_at = 0;
};

class NetworkInterface {
 public:
  /// `hot` points at the mesh-wide SoA slab holding this NI's per-VC credit
  /// counters, busy flags and flit counters (indexed by `node`); null
  /// (standalone unit tests) binds a private single-slot slab.
  NetworkInterface(NodeId node, const NocParams& params,
                   MeshHotState* hot = nullptr);

  // Wiring (non-owning), mirror of the router's local port.
  void connect_to_router(Channel<Flit>* ch) { to_router_ = ch; }
  void connect_from_router(Channel<Flit>* ch) { from_router_ = ch; }
  void connect_credit_from_router(Channel<Credit>* ch) { credit_from_ = ch; }
  void connect_credit_to_router(Channel<Credit>* ch) { credit_to_ = ch; }

  /// Installs THE primary ejection callback (replaces any previous one but
  /// keeps observers added with add_eject_callback).
  void set_eject_callback(std::function<void(const PacketRecord&)> cb) {
    eject_cb_ = std::move(cb);
  }
  /// Adds a passive observer notified after the primary callback (used by
  /// the invariant verifier; observers survive set_eject_callback).
  void add_eject_callback(std::function<void(const PacketRecord&)> cb) {
    eject_observers_.push_back(std::move(cb));
  }

  /// Network-level aggregates + liveness flag (set once by the Network;
  /// null for standalone NIs in unit tests).
  void set_fabric_hooks(FabricCounters* counters, WakeList* wake, int index) {
    counters_ = counters;
    wake_ = wake;
    wake_index_ = index;
  }

  /// Queues a packet for injection. A dead (hard-faulted) NI silently
  /// destroys the request and accounts it in killed_at_source().
  void enqueue(const PacketDescriptor& pkt) {
    if (dead_) {
      killed_at_source_++;
      return;
    }
    queue_.push_back(pkt);
    if (counters_) counters_->queued_packets++;
    if (wake_) wake_->mark(wake_index_);
    FLOV_TRACE(telemetry::kTraceFlit, telemetry::TraceEventType::kPacketGen,
               pkt.gen_cycle, node_, pkt.dest, pkt.size_flits);
  }

  /// When true the NI refuses to START new packets (used by RP's Phase-I
  /// reconfiguration stall; queued packets keep their gen_cycle so the
  /// stall shows up as queuing latency, as in Fig. 10).
  void set_injection_stalled(bool stalled) {
    stalled_ = stalled;
    if (wake_ && !stalled) wake_->mark(wake_index_);
  }
  bool injection_stalled() const { return stalled_; }

  void step(Cycle now);

  bool idle() const { return queue_.empty() && streams_.empty(); }
  /// True when stepping this NI would be a no-op: nothing queued, nothing
  /// mid-injection, and nothing (present or future) on the incoming wires.
  /// Network::step may park a quiescent NI until something re-arms it.
  /// A reliable NI additionally stays live while its retransmit buffer or
  /// pending-ack list is non-empty (both are timer-driven).
  bool quiescent() const {
    return queue_.empty() && streams_.empty() &&
           (!from_router_ || from_router_->empty()) &&
           (!credit_from_ || credit_from_->empty()) &&
           (!params_.reliable || (tx_.empty() && acks_.empty()));
  }
  /// True while a packet is mid-injection (some flits sent, tail pending).
  bool streams_active() const { return !streams_.empty(); }
  /// Removes queued (not yet started) packets matching `pred` and — with
  /// the reliable layer on — fails tracked flows matching `pred` fast:
  /// queued retransmit copies and timed-out entries are declared dead
  /// immediately, mid-injection ones at tail send, and pending acks to
  /// matching targets are dropped. Returns the number of queued packets
  /// removed. Used by RP to void packets whose destination was parked or
  /// died between generation and injection.
  std::size_t purge_queue(const std::function<bool(const PacketDescriptor&)>& pred);
  std::size_t queued_packets() const { return queue_.size(); }
  std::uint64_t injected_flits() const { return *injected_flits_; }
  std::uint64_t ejected_flits() const { return *ejected_flits_; }
  std::uint64_t ejected_packets() const { return ejected_packets_; }

  // --- reliable-delivery introspection (all zero when noc.reliable off) ---
  std::uint64_t seq_allocated() const { return seq_allocated_; }
  std::uint64_t packets_acked() const { return acked_; }
  std::uint64_t packets_dead() const { return dead_declared_; }
  std::uint64_t packets_purged() const { return purged_; }
  std::uint64_t killed_at_source() const { return killed_at_source_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t dup_packets() const { return dup_packets_; }
  std::size_t tx_outstanding() const { return tx_.size(); }
  /// True when no reliable-delivery obligations remain (the drain phase
  /// ends when every NI reports this plus the usual idle conditions).
  bool reliable_quiescent() const { return tx_.empty() && acks_.empty(); }
  const std::vector<DeadPacket>& dead_log() const { return dead_log_; }

  /// Hard-fault fail-stop (PROTOCOL.md §8): the NI turns into a sink.
  /// Arriving flits are still consumed and credited (conservation intact)
  /// but never reported; the queue is destroyed; outstanding reliable flows
  /// are declared dead; open injection streams finish (a half-injected worm
  /// must not be left headless in the fabric); new enqueues are destroyed.
  void kill(Cycle now);
  bool dead() const { return dead_; }

 private:
  struct Stream {
    PacketDescriptor pkt;
    std::uint64_t packet_id = 0;
    int next_flit = 0;
    Cycle inject_cycle = 0;
  };
  /// Source-side state of one tracked (dest, seq) flow.
  struct TxEntry {
    PacketDescriptor pkt;
    int retries = 0;
    bool in_flight = true;  ///< queued or mid-injection (timer disarmed)
    bool doomed = false;    ///< destination unreachable: die at tail send
    Cycle deadline = 0;     ///< retransmit timer (valid when !in_flight)
  };
  struct PendingAck {
    NodeId to = kInvalidNode;
    std::uint32_t seq = 0;
    Cycle due = 0;  ///< promoted to a standalone ctrl packet at this cycle
  };

  static std::uint64_t flow_key(NodeId dest, std::uint32_t seq) {
    return (static_cast<std::uint64_t>(dest) << 32) | seq;
  }

  void eject(Cycle now);
  void inject(Cycle now);
  void step_retx_timers(Cycle now);
  void declare_dead(const TxEntry& e, std::uint32_t seq, Cycle now);
  void schedule_ack(NodeId to, std::uint32_t seq, Cycle now);
  bool already_delivered(NodeId src, std::uint32_t seq) const;
  void mark_delivered(NodeId src, std::uint32_t seq);

  NodeId node_;
  NocParams params_;
  /// Per-NI packet id sequence. Ids are allocated in the interleaved space
  /// `1 + node + seq * num_nodes`, so they are unique across the mesh yet
  /// depend only on this NI's own injection count — never on the global
  /// order NIs happen to start packets in (which domain-parallel stepping
  /// must not observe).
  std::uint64_t next_packet_seq_ = 0;

  Channel<Flit>* to_router_ = nullptr;
  Channel<Flit>* from_router_ = nullptr;
  Channel<Credit>* credit_from_ = nullptr;
  Channel<Credit>* credit_to_ = nullptr;

  std::deque<PacketDescriptor> queue_;
  std::map<VcId, Stream> streams_;   ///< in-flight injection per local VC
  /// Private single-slot slab for standalone construction (unit tests).
  std::unique_ptr<MeshHotState> self_hot_;
  Span<std::int32_t> credits_;   ///< free slots per local input VC (slab)
  Span<std::uint8_t> vc_busy_;   ///< local VC mid-packet until tail (slab)
  int rr_vc_ = 0;

  std::map<std::uint64_t, Flit> pending_heads_;  ///< head held until tail
  std::function<void(const PacketRecord&)> eject_cb_;
  std::vector<std::function<void(const PacketRecord&)>> eject_observers_;
  bool stalled_ = false;

  FabricCounters* counters_ = nullptr;  ///< network aggregates (may be null)
  WakeList* wake_ = nullptr;
  int wake_index_ = -1;

  /// Flit counters in the slab (MeshHotState::ni_injected / ni_ejected).
  std::uint64_t* injected_flits_ = nullptr;
  std::uint64_t* ejected_flits_ = nullptr;
  std::uint64_t ejected_packets_ = 0;

  // --- reliable-delivery state (engaged only when params_.reliable) ---
  bool dead_ = false;
  std::map<NodeId, std::uint32_t> tx_next_seq_;  ///< last seq per dest (1-based)
  std::map<std::uint64_t, TxEntry> tx_;          ///< keyed by flow_key()
  std::map<NodeId, std::uint32_t> rx_floor_;     ///< all seqs <= floor seen
  std::map<NodeId, std::set<std::uint32_t>> rx_above_;  ///< seen above floor
  std::deque<PendingAck> acks_;
  std::vector<DeadPacket> dead_log_;
  std::uint64_t seq_allocated_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t dead_declared_ = 0;
  std::uint64_t purged_ = 0;
  std::uint64_t killed_at_source_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t dup_packets_ = 0;
};

}  // namespace flov
