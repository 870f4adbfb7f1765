#include "fault/fault_injector.hpp"

#include "common/log.hpp"
#include "flov/handshake_signals.hpp"

namespace flov {

FaultInjector::FaultInjector(const FaultParams& params, int num_nodes)
    : params_(params),
      num_nodes_(num_nodes),
      signal_rng_(params.seed * 0x9E3779B97F4A7C15ull + 1),
      spurious_rng_(params.seed * 0x94D049BB133111EBull + 3),
      flit_drop_seed_(mix_u64(params.seed * 0xBF58476D1CE4E5B9ull + 2)),
      flit_delay_seed_(mix_u64(params.seed * 0xBF58476D1CE4E5B9ull + 4)),
      hard_seed_(mix_u64(params.seed * 0x2545F4914F6CDD1Dull + 5)),
      soft_flit_seed_(mix_u64(params.seed * 0xD6E8FEB86659FD93ull + 6)),
      soft_psr_seed_(mix_u64(params.seed * 0xA24BAED4963EE407ull + 7)) {
  FLOV_CHECK(num_nodes_ > 0, "fault injector needs a non-empty mesh");
  FLOV_CHECK(params_.signal_delay_max >= 1 && params_.flit_delay_max >= 1,
             "fault delay maxima must be >= 1 cycle");
}

bool FaultInjector::drop_signal(const HsMessage& msg) {
  (void)msg;
  if (params_.signal_drop_rate <= 0.0) return false;
  if (!signal_rng_.next_bool(params_.signal_drop_rate)) return false;
  counters_.signals_dropped++;
  return true;
}

Cycle FaultInjector::signal_extra_delay() {
  if (params_.signal_delay_rate <= 0.0) return 0;
  if (!signal_rng_.next_bool(params_.signal_delay_rate)) return 0;
  counters_.signals_delayed++;
  return 1 + signal_rng_.next_below(params_.signal_delay_max);
}

bool FaultInjector::duplicate_signal(const HsMessage& msg) {
  (void)msg;
  if (params_.signal_dup_rate <= 0.0) return false;
  if (!signal_rng_.next_bool(params_.signal_dup_rate)) return false;
  counters_.signals_duplicated++;
  return true;
}

bool FaultInjector::router_dies(NodeId id) const {
  if (!params_.hard_faults_armed() || params_.hard_router_pct <= 0.0) {
    return false;
  }
  return hash_bool(hash_mix(hard_seed_, 0x52000000ull +
                                            static_cast<std::uint64_t>(id)),
                   params_.hard_router_pct);
}

bool FaultInjector::link_dies(std::uint32_t link_key) const {
  if (!params_.hard_faults_armed() || params_.hard_link_pct <= 0.0) {
    return false;
  }
  return hash_bool(hash_mix(hard_seed_, 0x4C000000ull + link_key),
                   params_.hard_link_pct);
}

std::optional<Cycle> FaultInjector::flit_fate(const Flit& f,
                                              std::uint64_t packet_id,
                                              std::uint32_t link_key,
                                              Cycle now) {
  // A dead link eats everything sent after the death cycle — except the
  // remainder of a worm whose head already crossed before the link died.
  // Link death must be worm-coherent: eating only the rest of an in-flight
  // worm would strand a tail-less fragment downstream whose VC allocations
  // (and the destination's reassembly slot) never release. The grace set
  // records (packet, link) pairs earned by a pre-death head crossing and
  // is retired by the tail. Checked before the transient rolls so
  // transient streams stay aligned with a hard-fault-free run up to
  // hard_at_cycle (stateless hashes: consulting order never matters).
  if (params_.hard_faults_armed() && link_dies(link_key)) {
    const std::uint64_t gkey = packet_id * 0x10000ull + link_key;
    bool killed_here = false;
    {
      std::lock_guard<std::mutex> lock(link_grace_mu_);
      if (now >= params_.hard_at_cycle) {
        // No pre-death head crossing on record: the whole worm dies here
        // (its head either dies now or already died on this link). A
        // graced flit instead falls through to the transient rolls below,
        // which by packet-coherence repeat the verdict its head survived.
        killed_here = link_grace_.count(gkey) == 0;
        if (f.tail) link_grace_.erase(gkey);
      } else {
        if (f.head && !f.tail) link_grace_.insert(gkey);
        if (f.tail) link_grace_.erase(gkey);
      }
    }
    if (killed_here) {
      note_hard_killed();
      return std::nullopt;
    }
  }
  // Drops are packet-coherent per link: the fate is a pure hash of
  // (seed, packet, link), so EVERY flit of a worm rolls the same fate at a
  // given link — the head dies on the wire and the body flits that follow
  // it there are swallowed by the same roll. A mid-packet hole would wedge
  // wormhole VC state machines — a headless body has no route, a tail-less
  // worm never frees its VC — which is router corruption, not a wire fault.
  // (Flits of the packet pass earlier links because the head passed those
  // same per-link rolls too.)
  if (params_.flit_drop_rate > 0.0) {
    const std::uint64_t h =
        hash_mix(hash_mix(flit_drop_seed_, packet_id), link_key);
    if (hash_bool(h, params_.flit_drop_rate)) {
      counters_.flits_dropped.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
  }
  if (params_.flit_delay_rate > 0.0) {
    const std::uint64_t h = hash_mix(
        hash_mix(hash_mix(hash_mix(flit_delay_seed_, packet_id),
                          static_cast<std::uint64_t>(f.flit_index)),
                 link_key),
        static_cast<std::uint64_t>(now));
    if (hash_bool(h, params_.flit_delay_rate)) {
      counters_.flits_delayed.fetch_add(1, std::memory_order_relaxed);
      return 1 + static_cast<Cycle>(
                     mix_u64(h) %
                     static_cast<std::uint64_t>(params_.flit_delay_max));
    }
  }
  return Cycle{0};
}

std::uint64_t FaultInjector::payload_flip_mask(const Flit& f,
                                               std::uint64_t packet_id,
                                               std::uint32_t link_key) {
  if (params_.soft_flit_flip_rate <= 0.0) return 0;
  // Keyed per (packet, flit, link): a retransmitted copy has a fresh
  // packet_id, so it re-rolls — exactly what a wire-noise model should do.
  const std::uint64_t h =
      hash_mix(hash_mix(hash_mix(soft_flit_seed_, packet_id),
                        static_cast<std::uint64_t>(
                            static_cast<std::uint32_t>(f.flit_index))),
               link_key);
  if (!hash_bool(h, params_.soft_flit_flip_rate)) return 0;
  counters_.payload_flips.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(corrupted_packets_mu_);
    corrupted_packets_.insert(packet_id);
  }
  return 1ull << (mix_u64(h) & 63);
}

bool FaultInjector::corrupt_signal(HsMessage& msg, Cycle now) {
  if (params_.soft_psr_flip_rate <= 0.0) return false;
  // Only the PSR-carrying fields are corruptible; framing is sacred.
  NodeId* field = nullptr;
  switch (msg.type) {
    case HsType::kSleepNotify: field = &msg.logical_beyond; break;
    case HsType::kWakeupTrigger: field = &msg.target; break;
    default: return false;
  }
  // Keyed per hop: the same message forwarded across the mesh rolls a
  // fresh fate at every hop (`now` advances one cycle per hop), like the
  // physical wire segments it models.
  const std::uint64_t h = hash_mix(
      hash_mix(hash_mix(hash_mix(soft_psr_seed_,
                                 static_cast<std::uint64_t>(msg.from)),
                        static_cast<std::uint64_t>(msg.type)),
               hash_mix(static_cast<std::uint64_t>(msg.target),
                        static_cast<std::uint64_t>(msg.logical_beyond))),
      hash_mix(static_cast<std::uint64_t>(msg.epoch),
               static_cast<std::uint64_t>(now)));
  if (!hash_bool(h, params_.soft_psr_flip_rate)) return false;
  // Rewrite to a uniformly chosen DIFFERENT value from the node-id domain
  // plus kInvalidNode (a flip can turn a valid id into garbage the
  // receiver treats as "none").
  const std::uint64_t domain = static_cast<std::uint64_t>(num_nodes_) + 1;
  const NodeId original = *field;
  std::uint64_t pick = mix_u64(h) % domain;
  NodeId corrupted =
      pick == static_cast<std::uint64_t>(num_nodes_)
          ? kInvalidNode
          : static_cast<NodeId>(pick);
  if (corrupted == original) {
    pick = (pick + 1) % domain;
    corrupted = pick == static_cast<std::uint64_t>(num_nodes_)
                    ? kInvalidNode
                    : static_cast<NodeId>(pick);
  }
  *field = corrupted;
  counters_.psr_flips++;
  return true;
}

NodeId FaultInjector::spurious_wakeup_target(Cycle now) {
  (void)now;
  if (params_.spurious_wakeup_rate <= 0.0) return kInvalidNode;
  if (!spurious_rng_.next_bool(params_.spurious_wakeup_rate)) {
    return kInvalidNode;
  }
  counters_.spurious_wakeups++;
  return static_cast<NodeId>(
      spurious_rng_.next_below(static_cast<std::uint64_t>(num_nodes_)));
}

}  // namespace flov
