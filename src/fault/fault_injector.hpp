// Deterministic fault injector (see fault_model.hpp for the model).
//
// One instance per system, shared by the SignalFabric (signal fates) and
// the inter-router flit channels (flit fates, via Channel fault hooks).
// Distinct RNG substreams per fault class keep each class's decision
// sequence independent of how often the other classes are consulted.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "fault/fault_model.hpp"
#include "noc/flit.hpp"

namespace flov {

struct HsMessage;

class FaultInjector {
 public:
  struct Counters {
    std::uint64_t signals_dropped = 0;
    std::uint64_t signals_delayed = 0;
    std::uint64_t signals_duplicated = 0;
    /// Flit-fate counters are atomic: the channel fault hooks run on the
    /// sending router's domain worker during parallel stepping. Relaxed
    /// increments suffice — each flit's fate is schedule-independent, so
    /// the totals are exact either way; the step barrier publishes them.
    std::atomic<std::uint64_t> flits_dropped{0};
    std::atomic<std::uint64_t> flits_delayed{0};
    std::uint64_t spurious_wakeups = 0;
    /// Subset of flits_dropped destroyed by hard faults (dead links on the
    /// wire + flits consumed by dead routers / dead NI queues).
    std::atomic<std::uint64_t> hard_killed{0};
    /// Soft errors: payload bit flips happen inside channel fault hooks
    /// (domain workers → atomic); PSR flips happen on the serial
    /// control-plane signal fabric (plain counter, like signals_*).
    std::atomic<std::uint64_t> payload_flips{0};
    std::uint64_t psr_flips = 0;
  };

  FaultInjector(const FaultParams& params, int num_nodes);

  const FaultParams& params() const { return params_; }
  const Counters& counters() const { return counters_; }

  // --- signal fates (one decision per hop) ---
  bool drop_signal(const HsMessage& msg);
  /// Extra delivery delay for this hop (0 = on time).
  Cycle signal_extra_delay();
  bool duplicate_signal(const HsMessage& msg);

  /// Flit fate for one traversal of the link identified by `link_key`
  /// (sender id * 4 + direction): nullopt = dropped on the wire, otherwise
  /// the extra delay in cycles (usually 0). Stateless by design: the fate
  /// is a pure hash of (seed, packet, link[, flit, cycle]), so it does not
  /// depend on the global order links consult the injector in — the
  /// property domain-parallel stepping needs. May be called concurrently
  /// from domain workers.
  /// `packet_id` is the flit's packet's (from its PacketTable entry).
  std::optional<Cycle> flit_fate(const Flit& f, std::uint64_t packet_id,
                                 std::uint32_t link_key, Cycle now);

  /// Spurious wakeup roll for this cycle; kInvalidNode when none fires.
  NodeId spurious_wakeup_target(Cycle now);

  // --- soft errors (seeded bit flips) ---
  /// Payload-corruption fate for one traversal of `link_key`: 0 = clean,
  /// otherwise a single-bit XOR mask for the flit's payload word. Stateless
  /// hash of (seed, packet, flit, link) — safe from domain workers, like
  /// flit_fate. A non-zero return has already recorded the packet as
  /// corrupted and bumped the counter; the caller just applies the mask.
  std::uint64_t payload_flip_mask(const Flit& f, std::uint64_t packet_id,
                                  std::uint32_t link_key);

  /// PSR-corruption fate for one signal hop: rewrites msg.logical_beyond
  /// (kSleepNotify) or msg.target (kWakeupTrigger) to a different node id —
  /// possibly kInvalidNode — and returns true. Other message types never
  /// corrupt (they carry no PSR payload). Serial control-plane callers only.
  bool corrupt_signal(HsMessage& msg, Cycle now);

  /// Packets whose payload took at least one bit flip in transit: they
  /// deliver, but deliver corrupted (the certify harness's clean-delivery
  /// metric subtracts them). Serial control-plane callers only — runs
  /// between step barriers, which publish the workers' inserts.
  bool packet_corrupted(std::uint64_t packet_id) const {
    return corrupted_packets_.count(packet_id) != 0;
  }

  // --- hard-fault fates (pure hashes: thread-schedule-independent) ---
  /// True when hard faults are armed and router `id` is fated to die at
  /// params().hard_at_cycle. Scheme layers apply their own exemptions on
  /// top (FLOV never kills the always-on column; see flov_network.cpp).
  bool router_dies(NodeId id) const;
  /// Directed-link death fate, keyed like flit_fate (sender*4 + dir). A
  /// dead link silently eats every flit sent after hard_at_cycle.
  bool link_dies(std::uint32_t link_key) const;
  Cycle hard_at() const { return params_.hard_at_cycle; }

  /// Accounts one flit destroyed by a hard fault (a dead link, or a dead
  /// router sinking a flit). Safe from domain workers.
  void note_hard_killed() {
    counters_.flits_dropped.fetch_add(1, std::memory_order_relaxed);
    counters_.hard_killed.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t dropped_flits() const { return counters_.flits_dropped; }
  std::uint64_t hard_killed_flits() const { return counters_.hard_killed; }

 private:
  FaultParams params_;
  int num_nodes_;
  Rng signal_rng_;
  Rng spurious_rng_;
  std::uint64_t flit_drop_seed_;
  std::uint64_t flit_delay_seed_;
  std::uint64_t hard_seed_;
  std::uint64_t soft_flit_seed_;
  std::uint64_t soft_psr_seed_;
  Counters counters_;
  /// Guards corrupted_packets_ against concurrent inserts from domain
  /// workers (payload flips only — never on the fault-free path).
  std::mutex corrupted_packets_mu_;
  std::unordered_set<std::uint64_t> corrupted_packets_;
  /// Worm-coherence grace for dying links: (packet, link) pairs whose HEAD
  /// crossed the link before hard_at_cycle. Their body/tail flits pass even
  /// after the death cycle — eating them mid-worm would leave a tail-less
  /// fragment downstream that wedges every VC it holds forever. Entries are
  /// erased when the tail crosses; mutations for a given link all come from
  /// the sending router's own step, so the set is schedule-independent.
  std::mutex link_grace_mu_;
  std::unordered_set<std::uint64_t> link_grace_;
};

}  // namespace flov
