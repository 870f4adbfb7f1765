#include "noc/network_interface.hpp"

#include "common/backoff.hpp"
#include "common/log.hpp"
#include "telemetry/trace.hpp"

namespace flov {

NetworkInterface::NetworkInterface(NodeId node, const NocParams& params,
                                   MeshHotState* hot)
    : node_(node), params_(params) {
  NodeId slot = node_;
  if (hot == nullptr) {
    // Standalone construction (unit tests): private single-slot slab.
    self_hot_ = std::make_unique<MeshHotState>();
    self_hot_->init(1, params.total_vcs(), params.buffer_depth);
    hot = self_hot_.get();
    slot = 0;
  }
  FLOV_CHECK(params.total_vcs() <= kMaxVcsPerPort,
             "an NI's open-stream mask holds 64 VCs");
  credits_ = hot->ni_credit_row(slot);
  packets_ = &hot->packets;
  streams_ = hot->ni_stream_row(slot);
  injected_flits_ = &hot->ni_injected[slot];
  ejected_flits_ = &hot->ni_ejected[slot];
}

void NetworkInterface::step(Cycle now) {
  // Credits returned by the router for previously injected flits.
  if (credit_from_) {
    while (const auto c = credit_from_->recv(now)) {
      credits_[c->vc]++;
      FLOV_DCHECK(credits_[c->vc] <= params_.buffer_depth,
                  "NI credit overflow");
    }
  }
  eject(now);
  if (params_.reliable && !dead_) step_retx_timers(now);
  inject(now);
}

void NetworkInterface::declare_dead(const TxEntry& e, std::uint32_t seq,
                                    Cycle now) {
  DeadPacket d;
  d.pkt = e.pkt;
  d.seq = seq;
  d.retries = e.retries;
  d.declared_at = now;
  dead_log_.push_back(d);
  dead_declared_++;
}

void NetworkInterface::schedule_ack(NodeId to, std::uint32_t seq, Cycle now) {
  acks_.push_back(PendingAck{to, seq, now + params_.ack_delay});
}

bool NetworkInterface::already_delivered(NodeId src,
                                         std::uint32_t seq) const {
  auto fl = rx_floor_.find(src);
  if (fl != rx_floor_.end() && seq <= fl->second) return true;
  auto ab = rx_above_.find(src);
  return ab != rx_above_.end() && ab->second.count(seq) != 0;
}

void NetworkInterface::mark_delivered(NodeId src, std::uint32_t seq) {
  std::uint32_t& floor = rx_floor_[src];  // default 0; seqs are 1-based
  std::set<std::uint32_t>& above = rx_above_[src];
  if (seq == floor + 1) {
    floor = seq;
    // Absorb any contiguous run already seen above the old floor.
    auto it = above.begin();
    while (it != above.end() && *it == floor + 1) {
      floor = *it;
      it = above.erase(it);
    }
  } else {
    above.insert(seq);
  }
}

void NetworkInterface::kill(Cycle now) {
  if (dead_) return;
  dead_ = true;
  // Every tracked flow dies with its source: nobody is left to retransmit
  // or to process acks, so resolve the bookkeeping here and now.
  for (const auto& [key, e] : tx_) {
    declare_dead(e, static_cast<std::uint32_t>(key & 0xFFFFFFFFull), now);
  }
  tx_.clear();
  acks_.clear();
  // Queued packets die unsent. Fresh ones are killed-at-source; retransmit
  // copies and ctrl packets were accounted above / never count.
  for (const auto& p : queue_) {
    if (!p.ctrl && p.seq == 0) killed_at_source_++;
  }
  if (counters_) counters_->queued_packets -= queue_.size();
  queue_.clear();
  // Half-ejected worms are never reported: in sink mode their tails only
  // release the packets' table entries. Open injection streams
  // intentionally survive: they keep draining flits into the fabric until
  // the tail, so no headless worm is left behind.
}

std::size_t NetworkInterface::purge_queue(
    const std::function<bool(const PacketDescriptor&)>& pred) {
  std::size_t removed = 0;
  std::deque<PacketDescriptor> kept;
  for (const PacketDescriptor& p : queue_) {
    if (!pred(p)) {
      kept.push_back(p);
      continue;
    }
    removed++;
    if (p.ctrl) continue;  // NI-internal ack packet: no accounting
    if (p.seq != 0) {
      // Queued retransmit copy of a tracked flow: the flow fails fast.
      auto it = tx_.find(flow_key(p.dest, p.seq));
      if (it != tx_.end()) {
        declare_dead(it->second, p.seq, p.gen_cycle);
        tx_.erase(it);
      }
    } else {
      purged_++;
    }
  }
  queue_.swap(kept);
  if (counters_) counters_->queued_packets -= removed;
  if (!params_.reliable) return removed;
  // Fail remaining tracked flows matching the predicate fast: entries
  // awaiting their timer die immediately, mid-injection ones at tail send.
  for (auto it = tx_.begin(); it != tx_.end();) {
    TxEntry& e = it->second;
    if (!pred(e.pkt)) {
      ++it;
      continue;
    }
    if (e.in_flight) {
      e.doomed = true;
      ++it;
    } else {
      declare_dead(e, static_cast<std::uint32_t>(it->first & 0xFFFFFFFFull),
                   e.deadline);
      it = tx_.erase(it);
    }
  }
  // Pending acks toward a purged destination would otherwise become
  // unroutable ctrl packets later.
  acks_.erase(std::remove_if(acks_.begin(), acks_.end(),
                             [&](const PendingAck& a) {
                               PacketDescriptor probe;
                               probe.src = node_;
                               probe.dest = a.to;
                               probe.size_flits = 1;
                               probe.ctrl = true;
                               return pred(probe);
                             }),
              acks_.end());
  return removed;
}

void NetworkInterface::step_retx_timers(Cycle now) {
  if (tx_.empty()) return;
  for (auto it = tx_.begin(); it != tx_.end();) {
    TxEntry& e = it->second;
    if (e.in_flight || now < e.deadline) {
      ++it;
      continue;
    }
    const std::uint32_t seq =
        static_cast<std::uint32_t>(it->first & 0xFFFFFFFFull);
    if (e.retries >= params_.retx_limit) {
      declare_dead(e, seq, now);
      it = tx_.erase(it);
      continue;
    }
    e.retries++;
    e.in_flight = true;  // timer disarmed until the copy's tail is sent
    retransmits_++;
    queue_.push_back(e.pkt);
    if (counters_) counters_->queued_packets++;
    if (wake_) wake_->mark(wake_index_);
    ++it;
  }
}

void NetworkInterface::eject(Cycle now) {
  if (!from_router_) return;
  while (auto f = from_router_->recv(now)) {
    ++*ejected_flits_;
    if (counters_) counters_->ejected_flits++;
    // The NI consumes instantly, so the slot frees immediately.
    FLOV_CHECK(credit_to_ != nullptr, "unwired ejection credit channel");
    credit_to_->send(now, Credit{f->vc});
    PacketTable::Entry& e = (*packets_)[f->packet];
    if (dead_) {  // sink mode: consume + credit, report nothing
      if (f->tail) packets_->release(band_, f->packet);
      continue;
    }
    if (params_.reliable && f->head && e.ack_valid) {
      // The peer acks our (dest = e.src, seq = e.ack_seq) flow.
      auto it = tx_.find(flow_key(e.src, e.ack_seq));
      if (it != tx_.end()) {
        acked_++;
        tx_.erase(it);
      }
    }
    if (f->ctrl) {  // 1-flit ack carrier: never reported
      packets_->release(band_, f->packet);
      continue;
    }
    if (f->head) {
      FLOV_CHECK(!e.head_ejected, "duplicate head flit");
      e.head_ejected = true;
      e.head_escape = f->escape;
    }
    if (!f->tail) continue;
    FLOV_CHECK(e.head_ejected, "tail without head");
    if (params_.reliable && e.seq != 0) {
      schedule_ack(e.src, e.seq, now);
      if (already_delivered(e.src, e.seq)) {
        // Retransmitted copy of a packet we already reported: re-ack
        // (above) but suppress the duplicate delivery.
        dup_packets_++;
        packets_->release(band_, f->packet);
        continue;
      }
      mark_delivered(e.src, e.seq);
    }
    PacketRecord rec;
    rec.packet_id = e.packet_id;
    rec.src = e.src;
    rec.dest = f->dest;
    rec.vnet = e.vnet;
    rec.size_flits = e.size_flits;
    rec.gen_cycle = e.gen_cycle;
    rec.inject_cycle = e.inject_cycle;
    rec.eject_cycle = now;
    rec.router_hops = e.router_hops;
    rec.link_hops = e.link_hops;
    rec.flov_hops = e.flov_hops;
    rec.used_escape = e.head_escape || f->escape;
    rec.payload = e.payload;
    ejected_packets_++;
    packets_->release(band_, f->packet);
    FLOV_TRACE(telemetry::kTraceFlit, telemetry::TraceEventType::kPacketEject,
               now, node_, rec.packet_id, rec.total_latency());
    if (eject_cb_) eject_cb_(rec);
    for (const auto& cb : eject_observers_) cb(rec);
  }
}

void NetworkInterface::inject(Cycle now) {
  // Promote one overdue pending ack to a standalone 1-flit control packet
  // (its piggyback window expired without a data packet to ride on).
  if (params_.reliable && !dead_ && !acks_.empty() &&
      acks_.front().due <= now) {
    const PendingAck a = acks_.front();
    acks_.pop_front();
    PacketDescriptor p;
    p.src = node_;
    p.dest = a.to;
    p.vnet = 0;
    p.size_flits = 1;
    p.gen_cycle = now;
    p.ctrl = true;
    p.ack_seq = a.seq;
    p.ack_valid = true;
    queue_.push_front(p);
    if (counters_) counters_->queued_packets++;
    acks_sent_++;
  }

  // Start a new stream if a regular VC of the packet's vnet is idle.
  if (!queue_.empty() && !stalled_ && !dead_) {
    const PacketDescriptor& pkt = queue_.front();
    const int base = pkt.vnet * params_.vcs_per_vnet;
    VcId chosen = -1;
    for (int w = 0; w < params_.vcs_per_vnet; ++w) {
      if (params_.escape_vc >= 0 && w == params_.escape_vc) continue;
      const VcId abs = base + w;
      if ((open_vcs_ >> abs & 1) == 0) {
        chosen = abs;
        break;
      }
    }
    if (chosen >= 0) {
      PacketDescriptor pd = pkt;
      if (params_.reliable && !pd.ctrl) {
        if (pd.seq == 0) {
          // First transmission: allocate the flow's sequence number and
          // open its retransmit-buffer entry.
          pd.seq = ++tx_next_seq_[pd.dest];
          TxEntry e;
          e.pkt = pd;
          tx_.emplace(flow_key(pd.dest, pd.seq), e);
          seq_allocated_++;
        }
        // else: retransmit copy — its entry exists with in_flight set.
      }
      FLOV_CHECK(pd.size_flits >= 1 && pd.size_flits <= kMaxPacketFlits,
                 "packet size outside 1.." + std::to_string(kMaxPacketFlits) +
                     " flits");
      NiStream& s = streams_[chosen];
      s.packet = packets_->alloc(band_);
      s.dest = pd.dest;
      s.next_flit = 0;
      s.size_flits = pd.size_flits;
      s.ctrl = params_.reliable && pd.ctrl;
      PacketTable::Entry& e = (*packets_)[s.packet];
      e.packet_id = 1 + static_cast<std::uint64_t>(node_) +
                    next_packet_seq_++ *
                        static_cast<std::uint64_t>(params_.width) *
                        static_cast<std::uint64_t>(params_.height);
      e.src = pd.src;
      e.vnet = static_cast<std::uint8_t>(pd.vnet);
      e.size_flits = pd.size_flits;
      e.gen_cycle = pd.gen_cycle;
      e.inject_cycle = now;
      e.payload = pd.payload;
      e.seq = params_.reliable ? pd.seq : 0;
      if (s.ctrl) {
        e.ack_seq = pd.ack_seq;
        e.ack_valid = true;
      }
      open_vcs_ |= std::uint64_t{1} << chosen;
      queue_.pop_front();
      if (counters_) {
        counters_->queued_packets--;
        counters_->open_streams++;
      }
      FLOV_TRACE(telemetry::kTraceFlit,
                 telemetry::TraceEventType::kPacketInject, now, node_,
                 e.packet_id, s.dest);
    }
  }

  // Send one flit this cycle from one stream: the first open VC with a
  // credit, round-robin from rr_vc_.
  if (open_vcs_ == 0 || !to_router_) return;
  const int nvc = params_.total_vcs();
  for (int k = 0; k < nvc; ++k) {
    const VcId v = (rr_vc_ + k) % nvc;
    if ((open_vcs_ >> v & 1) == 0 || credits_[v] <= 0) continue;
    NiStream& s = streams_[v];

    Flit f;
    f.packet = s.packet;
    f.dest = s.dest;
    f.flit_index = static_cast<std::uint16_t>(s.next_flit);
    f.vc = static_cast<std::uint8_t>(v);
    f.head = s.next_flit == 0;
    f.tail = s.next_flit == s.size_flits - 1;
    f.ctrl = s.ctrl;
    if (f.head && params_.reliable && !s.ctrl && !dead_) {
      // Piggyback one pending ack on a data head already going there.
      for (auto a = acks_.begin(); a != acks_.end(); ++a) {
        if (a->to != s.dest) continue;
        PacketTable::Entry& e = (*packets_)[s.packet];
        e.ack_seq = a->seq;
        e.ack_valid = true;
        acks_.erase(a);
        break;
      }
    }

    // Read before send(): once the tail is in the network, its entry may
    // be released.
    const std::uint32_t seq = f.tail ? (*packets_)[s.packet].seq : 0;
    credits_[v]--;
    to_router_->send(now, f);
    ++*injected_flits_;
    if (counters_) counters_->injected_flits++;
    s.next_flit++;
    if (f.tail) {
      // Sequenced data packet (ctrl packets never carry a seq).
      if (seq != 0) {
        auto tx = tx_.find(flow_key(s.dest, seq));
        if (tx != tx_.end()) {  // absent after kill(): flow already dead
          if (tx->second.doomed) {
            declare_dead(tx->second, seq, now);
            tx_.erase(tx);
          } else {
            TxEntry& e = tx->second;
            e.in_flight = false;
            e.deadline = now + backoff_shift(params_.retx_timeout, e.retries,
                                             params_.retx_backoff_cap);
          }
        }
      }
      open_vcs_ &= ~(std::uint64_t{1} << v);
      if (counters_) counters_->open_streams--;
    }
    rr_vc_ = (v + 1) % nvc;
    break;
  }
}

}  // namespace flov
