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
  credits_ = hot->ni_credit_row(slot);
  vc_busy_ = hot->ni_busy_row(slot);
  injected_flits_ = &hot->ni_injected[slot];
  ejected_flits_ = &hot->ni_ejected[slot];
}

void NetworkInterface::step(Cycle now) {
  // Credits returned by the router for previously injected flits.
  if (credit_from_) {
    for (const Credit& c : credit_from_->recv_all(now)) {
      credits_[c.vc]++;
      FLOV_DCHECK(credits_[c.vc] <= params_.buffer_depth, "NI credit overflow");
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
  // Half-ejected worms will never see their tail reported; drop the heads.
  pending_heads_.clear();
  // Open injection streams intentionally survive: they keep draining flits
  // into the fabric until the tail, so no headless worm is left behind.
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
    if (dead_) continue;  // sink mode: consume + credit, report nothing
    if (params_.reliable && f->head && f->ack_valid) {
      // The peer acks our (dest = f->src, seq = f->ack_seq) flow.
      auto it = tx_.find(flow_key(f->src, f->ack_seq));
      if (it != tx_.end()) {
        acked_++;
        tx_.erase(it);
      }
    }
    if (f->ctrl) continue;  // 1-flit ack carrier: never reported
    if (f->head) {
      FLOV_CHECK(pending_heads_.count(f->packet_id) == 0,
                 "duplicate head flit");
      pending_heads_[f->packet_id] = *f;
    }
    if (f->tail) {
      auto it = pending_heads_.find(f->packet_id);
      FLOV_CHECK(it != pending_heads_.end(), "tail without head");
      const Flit& head = it->second;
      if (params_.reliable && head.seq != 0) {
        schedule_ack(head.src, head.seq, now);
        if (already_delivered(head.src, head.seq)) {
          // Retransmitted copy of a packet we already reported: re-ack
          // (above) but suppress the duplicate delivery.
          dup_packets_++;
          pending_heads_.erase(it);
          continue;
        }
        mark_delivered(head.src, head.seq);
      }
      PacketRecord rec;
      rec.packet_id = head.packet_id;
      rec.src = head.src;
      rec.dest = head.dest;
      rec.vnet = head.vnet;
      rec.size_flits = head.packet_size;
      rec.gen_cycle = head.gen_cycle;
      rec.inject_cycle = head.inject_cycle;
      rec.eject_cycle = now;
      rec.router_hops = head.router_hops;
      rec.link_hops = head.link_hops;
      rec.flov_hops = head.flov_hops;
      rec.used_escape = head.escape || f->escape;
      rec.payload = head.payload;
      ejected_packets_++;
      pending_heads_.erase(it);
      FLOV_TRACE(telemetry::kTraceFlit,
                 telemetry::TraceEventType::kPacketEject, now, node_,
                 rec.packet_id, rec.total_latency());
      if (eject_cb_) eject_cb_(rec);
      for (const auto& cb : eject_observers_) cb(rec);
    }
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
      if (!vc_busy_[abs]) {
        chosen = abs;
        break;
      }
    }
    if (chosen >= 0) {
      Stream s;
      s.pkt = pkt;
      s.packet_id = 1 + static_cast<std::uint64_t>(node_) +
                    next_packet_seq_++ *
                        static_cast<std::uint64_t>(params_.width) *
                        static_cast<std::uint64_t>(params_.height);
      s.next_flit = 0;
      s.inject_cycle = now;
      if (params_.reliable && !s.pkt.ctrl) {
        if (s.pkt.seq == 0) {
          // First transmission: allocate the flow's sequence number and
          // open its retransmit-buffer entry.
          s.pkt.seq = ++tx_next_seq_[s.pkt.dest];
          TxEntry e;
          e.pkt = s.pkt;
          tx_.emplace(flow_key(s.pkt.dest, s.pkt.seq), e);
          seq_allocated_++;
        }
        // else: retransmit copy — its entry exists with in_flight set.
      }
      vc_busy_[chosen] = true;
      streams_.emplace(chosen, s);
      queue_.pop_front();
      if (counters_) {
        counters_->queued_packets--;
        counters_->open_streams++;
      }
      FLOV_TRACE(telemetry::kTraceFlit,
                 telemetry::TraceEventType::kPacketInject, now, node_,
                 s.packet_id, s.pkt.dest);
    }
  }

  // Send one flit this cycle from one stream (round-robin across VCs).
  if (streams_.empty() || !to_router_) return;
  const int nvc = params_.total_vcs();
  for (int k = 0; k < nvc; ++k) {
    const VcId v = (rr_vc_ + k) % nvc;
    auto it = streams_.find(v);
    if (it == streams_.end()) continue;
    if (credits_[v] <= 0) continue;
    Stream& s = it->second;

    Flit f;
    f.packet_id = s.packet_id;
    f.flit_index = s.next_flit;
    f.packet_size = s.pkt.size_flits;
    f.head = (s.next_flit == 0);
    f.tail = (s.next_flit == s.pkt.size_flits - 1);
    f.src = s.pkt.src;
    f.dest = s.pkt.dest;
    f.vnet = s.pkt.vnet;
    f.gen_cycle = s.pkt.gen_cycle;
    f.inject_cycle = s.inject_cycle;
    f.vc = v;
    f.payload = s.pkt.payload;
    if (params_.reliable) {
      f.seq = s.pkt.seq;
      f.ctrl = s.pkt.ctrl;
      if (f.head) {
        if (s.pkt.ctrl) {
          f.ack_seq = s.pkt.ack_seq;
          f.ack_valid = true;
        } else if (!dead_) {
          // Piggyback one pending ack on a data head already going there.
          for (auto a = acks_.begin(); a != acks_.end(); ++a) {
            if (a->to != s.pkt.dest) continue;
            f.ack_seq = a->seq;
            f.ack_valid = true;
            acks_.erase(a);
            break;
          }
        }
      }
    }

    credits_[v]--;
    to_router_->send(now, f);
    ++*injected_flits_;
    if (counters_) counters_->injected_flits++;
    s.next_flit++;
    if (f.tail) {
      if (params_.reliable && !s.pkt.ctrl && s.pkt.seq != 0) {
        auto tx = tx_.find(flow_key(s.pkt.dest, s.pkt.seq));
        if (tx != tx_.end()) {  // absent after kill(): flow already dead
          if (tx->second.doomed) {
            declare_dead(tx->second, s.pkt.seq, now);
            tx_.erase(tx);
          } else {
            TxEntry& e = tx->second;
            e.in_flight = false;
            e.deadline = now + backoff_shift(params_.retx_timeout, e.retries,
                                             params_.retx_backoff_cap);
          }
        }
      }
      vc_busy_[v] = false;
      streams_.erase(it);
      if (counters_) counters_->open_streams--;
    }
    rr_vc_ = (v + 1) % nvc;
    break;
  }
}

}  // namespace flov
