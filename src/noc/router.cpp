#include "noc/router.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"
#include "telemetry/ops/profile.hpp"
#include "telemetry/trace.hpp"

namespace flov {

namespace {

std::uint64_t vc_bit(VcId v) { return std::uint64_t{1} << v; }

/// Calls f(v) for every set bit v of `mask`, lowest first.
template <typename F>
void for_each_bit(std::uint64_t mask, F&& f) {
  while (mask != 0) {
    f(static_cast<VcId>(__builtin_ctzll(mask)));
    mask &= mask - 1;
  }
}

}  // namespace

const char* to_string(PowerState s) {
  switch (s) {
    case PowerState::kActive: return "Active";
    case PowerState::kDraining: return "Draining";
    case PowerState::kSleep: return "Sleep";
    case PowerState::kWakeup: return "Wakeup";
  }
  return "?";
}

const char* to_string(RouterMode m) {
  switch (m) {
    case RouterMode::kPipeline: return "pipeline";
    case RouterMode::kBypass: return "bypass";
    case RouterMode::kParked: return "parked";
    case RouterMode::kDead: return "dead";
  }
  return "?";
}

Router::Router(NodeId id, const MeshGeometry& geom, const NocParams& params,
               RoutingFunction* routing, PowerTracker* power,
               MeshHotState* hot)
    : id_(id), geom_(geom), params_(params), routing_(routing),
      power_(power) {
  FLOV_CHECK(routing_ != nullptr, "router needs a routing function");
  const int nvc = params_.total_vcs();
  FLOV_CHECK(nvc <= 64, "mask-based switch allocation supports <= 64 VCs");
  NodeId slot = id_;
  if (hot == nullptr) {
    // Standalone construction (unit tests): private single-slot slab.
    self_hot_ = std::make_unique<MeshHotState>();
    self_hot_->init(1, nvc, params_.buffer_depth);
    hot = self_hot_.get();
    slot = 0;
  }
  mode_ = &hot->mode[slot];
  resident_ = &hot->resident[slot];
  latch_ = hot->latches(slot);
  latch_full_ = &hot->latch_full[slot];
  for (int p = 0; p < kNumPorts; ++p) {
    input_[p].vcs = hot->input_vcs(slot, p);
    input_[p].len = hot->input_lengths(slot, p);
    for (int v = 0; v < nvc; ++v) {
      input_[p].vcs[v].buffer.bind_count(&input_[p].len[v]);
    }
    output_[p].vcs = hot->output_vcs(slot, p);
    output_[p].credits = hot->output_credits(slot, p);
    sa_input_arb_.emplace_back(nvc);
    sa_output_arb_.emplace_back(kNumPorts);
  }
  // Until a handshake layer says otherwise, every physical neighbor is the
  // logical neighbor and is Active.
  for (Direction d : kMeshDirections) {
    view_.logical[dir_index(d)] = geom_.neighbor(id_, d);
  }
}

void Router::connect_flit_in(Direction port, Channel<Flit>* ch) {
  in_flit_[dir_index(port)] = ch;
  if (ch) ch->set_pending_bit(&in_pending_, dir_index(port));
}
void Router::connect_flit_out(Direction port, Channel<Flit>* ch) {
  out_flit_[dir_index(port)] = ch;
}
void Router::connect_credit_out(Direction port, Channel<Credit>* ch) {
  credit_out_[dir_index(port)] = ch;
}
void Router::connect_credit_in(Direction port, Channel<Credit>* ch) {
  credit_in_[dir_index(port)] = ch;
  if (ch) ch->set_pending_bit(&in_pending_, kCreditInShift + dir_index(port));
}

void Router::step(Cycle now) {
  if ((*mode_) == RouterMode::kDead) {
    // Black hole: destroy arriving flits but still return their credits,
    // so upstream worms drain through the corpse instead of wedging.
    for (int p = 0; p < kNumPorts; ++p) {
      if (in_flit_[p]) {
        while (auto f = in_flit_[p]->recv(now)) {
          if (kill_cb_) kill_cb_(*f);
          if (credit_out_[p]) credit_out_[p]->send(now, Credit{f->vc});
        }
      }
      if (credit_in_[p]) credit_in_[p]->recv_all(now);
    }
    return;
  }
  if ((*mode_) == RouterMode::kParked) {
    // The fabric manager guarantees no traffic reaches a parked router.
    for (int p = 0; p < kNumPorts; ++p) {
      if (in_flit_[p]) {
        FLOV_CHECK(!in_flit_[p]->recv(now).has_value(),
                   "flit arrived at a parked router " + std::to_string(id_));
      }
      // Stale credits are void — discard everything that has ARRIVED by
      // now. (recv_all, not clear(): a boundary credit channel's staged
      // sends belong to the sending domain's worker during the parallel
      // phase, and draining only arrivals <= now is schedule-independent.)
      if (credit_in_[p]) credit_in_[p]->recv_all(now);
    }
    return;
  }

  accept_credits(now);

  if ((*mode_) == RouterMode::kBypass) {
    forward_latches(now);
    accept_flits_bypass(now);
    return;
  }

  // Replay the VA round-robin ticks of pipeline cycles skipped by the
  // active-set scheduler, so allocation priority is bit-identical to the
  // always-stepped schedule (skipped cycles had nothing in kWaitVc, so the
  // tick was their only observable effect).
  if (now > va_tick_from_) {
    const int total = kNumPorts * params_.total_vcs();
    va_rotate_ = static_cast<int>(
        (va_rotate_ + (now - va_tick_from_)) % static_cast<Cycle>(total));
  }
  va_tick_from_ = now + 1;

  {
    FLOV_PROFILE(kLink);
    accept_flits(now);
    do_switch_traversal(now);
  }
  do_timeout_checks(now);
  {
    FLOV_PROFILE(kVcAlloc);
    do_vc_allocation(now);
  }
  {
    FLOV_PROFILE(kSwitchAlloc);
    do_switch_allocation(now);
  }
  {
    FLOV_PROFILE(kRoute);
    do_route_computation(now);
  }

  // Fail-functional death grace: once every in-progress worm has fully
  // passed (no resident flits, no staged traversals, no allocated output —
  // an allocated output means a worm still has flits upstream), the
  // pipeline goes dark for good.
  if (dying_ && (*resident_) == 0 && pending_st_.empty() &&
      all_outputs_idle()) {
    dying_ = false;
    dying_eat_.fill(0);
    set_mode(RouterMode::kDead, now);
  }
}

void Router::begin_death(Cycle now) {
  if ((*mode_) == RouterMode::kDead || dying_) return;
  if ((*mode_) == RouterMode::kPipeline &&
      !(completely_empty() && all_outputs_idle())) {
    dying_ = true;
    return;
  }
  // Empty pipeline, or a parked router (which sees no traffic at all):
  // nothing mid-flight to orphan, die on the spot.
  set_mode(RouterMode::kDead, now);
}

void Router::accept_credits(Cycle now) {
  // Ports in ascending order, visiting only those with something queued;
  // the mask is re-read after each port, as a full port walk would see it.
  for (std::uint32_t m = in_pending_ >> kCreditInShift; m != 0;) {
    const int p = std::countr_zero(m);
    for (const Credit& c : credit_in_[p]->recv_all(now)) {
      if ((*mode_) == RouterMode::kPipeline) {
        CreditCount& credits = output_[p].credits[c.vc];
        credits++;
        FLOV_DCHECK(credits <= params_.buffer_depth,
                    "credit overflow at router " + std::to_string(id_));
      } else if (p == dir_index(Direction::Local)) {
        // Gated router: NI ejection credits are meaningless (the output
        // unit is off and reset to full on wakeup).
        continue;
      } else {
        // Sleeping/waking router: relay the credit toward the upstream on
        // the same line (credits flow opposite to flits). At a mesh edge
        // there is no upstream for this flow — the credit acknowledges a
        // flit this router itself sent before gating, and its value died
        // with the gated output unit, so it is dropped.
        const Direction upstream = opposite(dir_from_index(p));
        if (auto* ch = credit_out_[dir_index(upstream)]) {
          ch->send(now, c);
          count(EnergyEvent::kCreditRelay);
        }
      }
    }
    m = (in_pending_ >> kCreditInShift) & (~std::uint32_t{0} << (p + 1));
  }
}

void Router::refund_output_credit(Direction out_port, VcId vc, Cycle now) {
  const int p = dir_index(out_port);
  if ((*mode_) == RouterMode::kPipeline) {
    CreditCount& credits = output_[p].credits[vc];
    credits++;
    FLOV_DCHECK(credits <= params_.buffer_depth,
                "credit refund overflow at router " + std::to_string(id_));
  } else if ((*mode_) == RouterMode::kBypass) {
    // The credit belongs to the active router upstream of the bypass
    // chain; relay it there exactly like a received credit (a bypassed
    // flit out `out_port` came in from opposite(out_port), so the
    // upstream line exists).
    if (auto* ch = credit_out_[dir_index(opposite(out_port))]) {
      ch->send(now, Credit{vc});
      count(EnergyEvent::kCreditRelay);
    }
  }
  // kParked/kDead never send, so a refund cannot arise there.
}

void Router::accept_flits(Cycle now) {
  // Same ascending, re-read port walk as accept_credits.
  for (std::uint32_t m = in_pending_ & kFlitInBits; m != 0;) {
    const int p = std::countr_zero(m);
    while (auto f = in_flit_[p]->recv(now)) {
      auto& vc = input_[p].vcs[f->vc];
      if (dying_) {
        // Worms already admitted finish; every NEW worm (its head arrives
        // after begin_death) is eaten whole with the kDead black-hole
        // contract — destroyed and credited, so the upstream sender streams
        // it out and frees its own VC state.
        const std::uint64_t bit = vc_bit(f->vc);
        if (f->head || (dying_eat_[p] & bit) != 0) {
          if (f->tail) {
            dying_eat_[p] &= ~bit;
          } else {
            dying_eat_[p] |= bit;
          }
          if (kill_cb_) kill_cb_(*f);
          if (credit_out_[p]) credit_out_[p]->send(now, Credit{f->vc});
          continue;
        }
      }
      FLOV_CHECK(vc.occupancy() < params_.buffer_depth,
                 "input buffer overflow at router " + std::to_string(id_));
      if (f->head && vc.state == VcState::kIdle) {
        FLOV_CHECK(vc.buffer.empty(),
                   "idle VC with buffered flits: router " +
                       std::to_string(id_) + " port " +
                       to_string(dir_from_index(p)) + " vc " +
                       std::to_string(f->vc) + " holds " +
                       std::to_string(vc.occupancy()) + " flits (front pkt " +
                       std::to_string(vc.buffer.front().packet_id) +
                       " head=" + std::to_string(vc.buffer.front().head) +
                       " tail=" + std::to_string(vc.buffer.front().tail) +
                       ") while head of pkt " + std::to_string(f->packet_id) +
                       " arrives");
        vc.state = VcState::kRouting;
        vc.stage_ready = now + 1;  // RC occupies the next cycle
        vc.wait_since = now;
        busy_[p] |= vc_bit(f->vc);
      }
      vc.buffer.push_back(*f);
      (*resident_)++;
      count(EnergyEvent::kBufferWrite);
      if (p == dir_index(Direction::Local)) last_local_activity_ = now;
    }
    m = in_pending_ & kFlitInBits & (~std::uint32_t{0} << (p + 1));
  }
}

void Router::forward_latches(Cycle now) {
  for (int d = 0; d < kNumMeshDirs; ++d) {
    const FlovLatch& l = latch_[d];
    if ((*latch_full_ & latch_bit(d)) == 0 || l.write_cycle >= now) continue;
    Flit f = l.flit;
    *latch_full_ &= static_cast<std::uint8_t>(~latch_bit(d));
    (*resident_)--;
    if (f.head) {
      f.flov_hops++;
      f.link_hops++;
    }
    FLOV_CHECK(out_flit_[d] != nullptr, "FLOV latch without output link");
    out_flit_[d]->send(now, f);
    count(EnergyEvent::kFlovLatch);
    count(EnergyEvent::kLinkTraversal);
    flits_flown_over_++;
    if (f.head) {
      FLOV_TRACE(telemetry::kTraceFlit, telemetry::TraceEventType::kFlovLatch,
                 now, id_, f.packet_id, d);
    }
  }
}

void Router::accept_flits_bypass(Cycle now) {
  for (Direction p : kMeshDirections) {
    auto* ch = in_flit_[dir_index(p)];
    if (!ch) continue;
    while (auto f = ch->recv(now)) {
      if (f->head && !f->tail) ++bypass_worms_open_;
      if (f->tail && !f->head && bypass_worms_open_ > 0) --bypass_worms_open_;
      if (f->dest == id_) {
        // Self-capture [impl]: a flit addressed to this gated router reached
        // its bypass datapath — possible only when an upstream missed the
        // SleepNotify (a fault) and kept transmitting. The always-on NI
        // ejects it, the credit is returned upstream on this router's
        // behalf (exactly as the relay would have done had the flit flown
        // over to the router the upstream's credits track), and a wakeup is
        // triggered so the stale neighborhood views heal.
        auto* local_out = out_flit_[dir_index(Direction::Local)];
        FLOV_CHECK(local_out != nullptr, "bypass self-capture without NI link");
        local_out->send(now, *f);
        if (auto* cr = credit_out_[dir_index(p)]) cr->send(now, Credit{f->vc});
        count(EnergyEvent::kFlovLatch);
        self_captures_++;
        if (wakeup_cb_) wakeup_cb_(id_);
        continue;
      }
      const Direction outd = opposite(p);
      FLOV_CHECK(geom_.neighbor(id_, outd) != kInvalidNode,
                 "fly-over would exit the mesh at router " +
                     std::to_string(id_) + " (flit src=" +
                     std::to_string(f->src) + " dest=" +
                     std::to_string(f->dest) + " escape=" +
                     std::to_string(f->escape) + " vc=" +
                     std::to_string(f->vc) + ")");
      const int od = dir_index(outd);
      FLOV_CHECK((*latch_full_ & latch_bit(od)) == 0,
                 "FLOV latch overrun at router " + std::to_string(id_));
      latch_[od].flit = *f;
      latch_[od].write_cycle = now;
      *latch_full_ |= latch_bit(od);
      (*resident_)++;
    }
  }
  auto* local = in_flit_[dir_index(Direction::Local)];
  if (local) {
    FLOV_CHECK(!local->recv(now).has_value(),
               "local injection into a sleeping router");
  }
}

void Router::do_switch_traversal(Cycle now) {
  for (const SwitchGrant& g : pending_st_) {
    auto& vc = input_[g.in_port].vcs[g.in_vc];
    FLOV_CHECK(vc.state == VcState::kActive && !vc.buffer.empty(),
               "stale switch grant");
    Flit f = vc.buffer.front();
    vc.buffer.pop_front();
    (*resident_)--;

    const int outp = dir_index(vc.out_dir);
    auto& ovc = output_[outp].vcs[vc.out_vc];
    CreditCount& credits = output_[outp].credits[vc.out_vc];
    FLOV_CHECK(credits > 0, "switch traversal without credit");
    credits--;

    f.vc = vc.out_vc;
    f.escape = vc.escape_route;
    if (f.head) {
      // Per-flit routing annotations are stamped when the head actually
      // departs (RP writes its up*/down* phase bit here).
      const RouteContext ctx{id_, dir_from_index(g.in_port), &view_};
      routing_->annotate(ctx, RouteDecision{vc.out_dir, vc.escape_route}, f);
    }
    if (f.head) {
      f.router_hops++;
      if (vc.out_dir != Direction::Local) f.link_hops++;
    }
    FLOV_CHECK(out_flit_[outp] != nullptr, "unwired output port");
    out_flit_[outp]->send(now, f);
    count(EnergyEvent::kBufferRead);
    count(EnergyEvent::kCrossbar);
    if (vc.out_dir != Direction::Local) count(EnergyEvent::kLinkTraversal);
    flits_traversed_++;
    if (f.head) {
      FLOV_TRACE(telemetry::kTraceFlit,
                 telemetry::TraceEventType::kSwitchTraversal, now, id_,
                 f.packet_id, outp);
    }
    if (g.in_port == dir_index(Direction::Local) ||
        outp == dir_index(Direction::Local)) {
      last_local_activity_ = now;
    }

    // Return the freed buffer slot upstream.
    FLOV_CHECK(credit_out_[g.in_port] != nullptr, "unwired credit return");
    credit_out_[g.in_port]->send(now, Credit{g.in_vc});

    vc.wait_since = now;
    vc.sent_any = true;

    if (f.tail) {
      ovc.allocated = false;
      ovc.owner_port = -1;
      ovc.owner_vc = -1;
      vc.reset_to_idle();
      if (!vc.buffer.empty()) {
        // The next packet's head was queued behind the departing tail.
        FLOV_CHECK(vc.buffer.front().head, "non-head after tail");
        vc.state = VcState::kRouting;
        vc.stage_ready = now + 1;
        vc.wait_since = now;
      } else {
        busy_[g.in_port] &= ~vc_bit(g.in_vc);
      }
    }
  }
  pending_st_.clear();
}

void Router::do_timeout_checks(Cycle now) {
  if (params_.escape_vc < 0 || !params_.enable_escape_diversion) return;
  for (int p = 0; p < kNumPorts; ++p) {
    for_each_bit(busy_[p], [&](VcId v) {
      auto& vc = input_[p].vcs[v];
      const bool eligible =
          (vc.state == VcState::kWaitVc ||
           (vc.state == VcState::kActive && !vc.sent_any)) &&
          !vc.escape_route;
      if (!eligible) return;
      if (now - vc.wait_since <= params_.deadlock_timeout) return;
      Flit& head = vc.buffer.front();
      FLOV_CHECK(head.head, "timeout on non-head");
      if (must_hold_for_wakeup(vc, head)) return;  // waiting on a wakeup
      // Divert to the escape sub-network: release any held output VC and
      // re-route with the escape algorithm (costs one RC cycle).
      if (vc.state == VcState::kActive) {
        auto& ovc = output_[dir_index(vc.out_dir)].vcs[vc.out_vc];
        ovc.allocated = false;
        ovc.owner_port = -1;
        ovc.owner_vc = -1;
        vc.out_vc = -1;
      }
      head.escape = true;
      escape_diversions_++;
      FLOV_TRACE(telemetry::kTraceFlit,
                 telemetry::TraceEventType::kEscapeDivert, now, id_,
                 head.packet_id, now - vc.wait_since);
      const RouteContext ctx{id_, dir_from_index(p), &view_};
      const RouteDecision d = routing_->escape_route(ctx, head);
      vc.out_dir = d.out;
      vc.escape_route = true;
      vc.state = VcState::kWaitVc;
      vc.stage_ready = now + 1;
      vc.wait_since = now;
    });
  }
}

int Router::distance_along(Direction d, NodeId n) const {
  const Coord me = geom_.coord(id_);
  const Coord c = geom_.coord(n);
  switch (d) {
    case Direction::North:
      return (c.x == me.x && c.y < me.y) ? me.y - c.y : -1;
    case Direction::South:
      return (c.x == me.x && c.y > me.y) ? c.y - me.y : -1;
    case Direction::West:
      return (c.y == me.y && c.x < me.x) ? me.x - c.x : -1;
    case Direction::East:
      return (c.y == me.y && c.x > me.x) ? c.x - me.x : -1;
    case Direction::Local:
      return -1;
  }
  return -1;
}

bool Router::must_hold_for_wakeup(const InputVc& vc, const Flit& head) {
  if (vc.out_dir == Direction::Local || head.dest == id_) return false;
  if (dead_mask_ && (*dead_mask_)[head.dest]) {
    // Dead destination: never hold (it cannot wake). Fly over; the dead
    // router's bypass self-captures the flit into its always-on NI sink.
    return false;
  }
  const int dist = distance_along(vc.out_dir, head.dest);
  if (dist <= 0) return false;  // destination is not straight along out_dir
  const NodeId logical = view_.logical_neighbor(vc.out_dir);
  const int logical_dist =
      logical == kInvalidNode ? geom_.num_nodes() : distance_along(vc.out_dir, logical);
  if (dist < logical_dist) {
    // Every router between here and the first powered one is asleep, and
    // the destination is one of them: wake it and hold the packet.
    if (wakeup_cb_) wakeup_cb_(head.dest);
    return true;
  }
  return false;
}

void Router::do_vc_allocation(Cycle now) {
  const int nvc = params_.total_vcs();
  if (++va_rotate_ == kNumPorts * nvc) va_rotate_ = 0;
  auto try_allocate = [&](int p, VcId v) {
    auto& vc = input_[p].vcs[v];
    if (vc.state != VcState::kWaitVc || vc.stage_ready > now) return;
    FLOV_CHECK(!vc.buffer.empty() && vc.buffer.front().head,
               "kWaitVc without head flit");
    Flit& head = vc.buffer.front();
    // Re-evaluate the route against the CURRENT neighborhood view: power
    // states may have changed while the packet waited behind a drain mask,
    // and a turn toward a now-sleeping router must be re-decided (the
    // dynamic routing algorithm is re-armed until the VC is allocated).
    {
      const RouteContext ctx{id_, dir_from_index(p), &view_};
      const RouteDecision d = (head.escape || vc.escape_route)
                                  ? routing_->escape_route(ctx, head)
                                  : routing_->route(ctx, head);
      vc.out_dir = d.out;
      vc.escape_route = d.escape || head.escape;
      head.escape = vc.escape_route;
    }
    const int outp = dir_index(vc.out_dir);
    if (vc.out_dir != Direction::Local) {
      if (view_.blocked(vc.out_dir)) return;  // neighbor draining/waking
      if (must_hold_for_wakeup(vc, head)) return;
    }
    // Pick a free output VC of the right class within the packet's vnet.
    const int base = head.vnet * params_.vcs_per_vnet;
    VcId grant = -1;
    for (int w = 0; w < params_.vcs_per_vnet; ++w) {
      const bool is_escape =
          params_.escape_vc >= 0 && w == params_.escape_vc;
      if (vc.escape_route != is_escape) continue;
      const VcId abs = base + w;
      if (!output_[outp].vcs[abs].allocated) {
        grant = abs;
        break;
      }
    }
    if (grant < 0) return;
    auto& ovc = output_[outp].vcs[grant];
    ovc.allocated = true;
    ovc.owner_port = p;
    ovc.owner_vc = v;
    vc.out_vc = grant;
    vc.state = VcState::kActive;
    vc.wait_since = now;
    count(EnergyEvent::kVcArb);
    FLOV_TRACE(telemetry::kTraceFlit, telemetry::TraceEventType::kVcAlloc,
               now, id_, head.packet_id, grant);
  };
  // Round-robin over the slots p * nvc + v, starting at va_rotate_ and
  // wrapping: the busy slots of [va_rotate_, total) in order, then those
  // of [0, va_rotate_). Idle slots cannot be in kWaitVc, so skipping them
  // keeps the grant order of a full scan.
  const int p0 = va_rotate_ / nvc;
  const std::uint64_t from_v0 = ~std::uint64_t{0} << (va_rotate_ % nvc);
  auto visit = [&](int p, std::uint64_t mask) {
    for_each_bit(mask, [&](VcId v) { try_allocate(p, v); });
  };
  visit(p0, busy_[p0] & from_v0);
  for (int p = p0 + 1; p < kNumPorts; ++p) visit(p, busy_[p]);
  for (int p = 0; p < p0; ++p) visit(p, busy_[p]);
  visit(p0, busy_[p0] & ~from_v0);
}

void Router::do_switch_allocation(Cycle now) {
  (void)now;
  // Input stage: each input port nominates one ready VC. Request sets are
  // uint64 masks (total_vcs <= 64, checked at construction) so this runs
  // allocation-free — it used to build two std::vector<bool>s per port per
  // cycle, the hot path's last remaining heap traffic.
  std::array<VcId, kNumPorts> nominee;
  nominee.fill(-1);
  // Per-output-port masks of input ports whose nominee wants that output,
  // built alongside the input stage so the output stage never re-reads VCs.
  std::array<std::uint64_t, kNumPorts> out_req{};
  for (int p = 0; p < kNumPorts; ++p) {
    std::uint64_t req = 0;
    for_each_bit(busy_[p], [&](VcId v) {
      const auto& vc = input_[p].vcs[v];
      if (vc.state != VcState::kActive || input_[p].len[v] == 0) return;
      if (output_[dir_index(vc.out_dir)].credits[vc.out_vc] > 0) {
        req |= vc_bit(v);
      }
    });
    if (req != 0) {
      nominee[p] = sa_input_arb_[p].arbitrate(req);
      out_req[dir_index(input_[p].vcs[nominee[p]].out_dir)] |=
          std::uint64_t{1} << p;
    }
  }
  // Output stage: each output port grants one input port.
  for (int outp = 0; outp < kNumPorts; ++outp) {
    if (out_req[outp] == 0) continue;
    const int winner = sa_output_arb_[outp].arbitrate(out_req[outp]);
    FLOV_CHECK(winner >= 0, "output arbiter returned no winner");
    pending_st_.push_back(SwitchGrant{winner, nominee[winner]});
    count(EnergyEvent::kSwArb);
#if defined(FLYOVER_TRACING) && FLYOVER_TRACING
    {
      const auto& gvc = input_[winner].vcs[nominee[winner]];
      if (!gvc.buffer.empty() && gvc.buffer.front().head) {
        FLOV_TRACE(telemetry::kTraceFlit,
                   telemetry::TraceEventType::kSwitchGrant, now, id_,
                   gvc.buffer.front().packet_id, outp);
      }
    }
#endif
  }
}

void Router::do_route_computation(Cycle now) {
  for (int p = 0; p < kNumPorts; ++p) {
    for_each_bit(busy_[p], [&](VcId v) {
      auto& vc = input_[p].vcs[v];
      if (vc.state != VcState::kRouting || vc.stage_ready > now) return;
      FLOV_CHECK(!vc.buffer.empty() && vc.buffer.front().head,
                 "kRouting without head flit");
      Flit& head = vc.buffer.front();
      const RouteContext ctx{id_, dir_from_index(p), &view_};
      const RouteDecision d = head.escape ? routing_->escape_route(ctx, head)
                                          : routing_->route(ctx, head);
      vc.out_dir = d.out;
      vc.escape_route = d.escape || head.escape;
      vc.state = VcState::kWaitVc;
      vc.stage_ready = now + 1;  // VA may run no earlier than next cycle
      vc.wait_since = now;
    });
  }
}

void Router::dump_occupancy(Cycle now) const {
  for (int p = 0; p < kNumPorts; ++p) {
    for (VcId v = 0; v < static_cast<VcId>(input_[p].vcs.size()); ++v) {
      const auto& vc = input_[p].vcs[v];
      if (vc.buffer.empty()) continue;
      const Flit& f = vc.buffer.front();
      int credits = -1;
      if (vc.state == VcState::kActive) {
        credits = output_[dir_index(vc.out_dir)].credits[vc.out_vc];
      }
      // The local output has no PSR block flag.
      const bool blocked =
          vc.out_dir != Direction::Local && view_.blocked(vc.out_dir);
      std::fprintf(
          stderr,
          "  router %d port %s vc %d: %d flits, state=%d out=%s out_vc=%d "
          "credits=%d blocked=%d escape=%d front(src=%d dst=%d) wait=%llu\n",
          id_, to_string(dir_from_index(p)), v, vc.occupancy(),
          static_cast<int>(vc.state), to_string(vc.out_dir), vc.out_vc,
          credits, static_cast<int>(blocked),
          static_cast<int>(vc.escape_route), f.src, f.dest,
          static_cast<unsigned long long>(now - vc.wait_since));
    }
  }
  for (int d = 0; d < kNumMeshDirs; ++d) {
    if ((*latch_full_ & latch_bit(d)) != 0) {
      std::fprintf(stderr, "  router %d latch %s occupied (dst=%d)\n", id_,
                   to_string(dir_from_index(d)), latch_[d].flit.dest);
    }
  }
}

void Router::set_mode(RouterMode m, Cycle now) {
  if (m == (*mode_)) return;
  FLOV_CHECK((*mode_) != RouterMode::kDead, "a dead router cannot change mode");
  if (m == RouterMode::kDead) {
    // Death is instantaneous: resident flits die with the tile. Their
    // buffer slots are surrendered back upstream so senders mid-worm can
    // keep streaming (into the black hole) and free their own VC state.
    for (int p = 0; p < kNumPorts; ++p) {
      for (VcId v = 0; v < static_cast<VcId>(input_[p].vcs.size()); ++v) {
        auto& vc = input_[p].vcs[v];
        while (!vc.buffer.empty()) {
          const Flit f = vc.buffer.front();
          vc.buffer.pop_front();
          (*resident_)--;
          if (kill_cb_) kill_cb_(f);
          if (credit_out_[p]) credit_out_[p]->send(now, Credit{v});
        }
        vc.reset_to_idle();
      }
    }
    busy_.fill(0);
    for (int d = 0; d < kNumMeshDirs; ++d) {
      if ((*latch_full_ & latch_bit(d)) == 0) continue;
      if (kill_cb_) kill_cb_(latch_[d].flit);
      *latch_full_ &= static_cast<std::uint8_t>(~latch_bit(d));
      (*resident_)--;
    }
    pending_st_.clear();
    (*mode_) = m;
    if (wake_) wake_->mark(wake_index_);
    if (power_) power_->set_mode(id_, RouterPowerMode::kRpParked, now);
    return;
  }
  if (m == RouterMode::kBypass || m == RouterMode::kParked) {
    FLOV_CHECK(input_buffers_empty(),
               "gating a router with buffered flits: " + std::to_string(id_));
    FLOV_CHECK(pending_st_.empty(), "gating a router mid-traversal");
    for (int p = 0; p < kNumPorts; ++p) {
      FLOV_CHECK(!output_[p].any_allocated(),
                 "gating a router with live output VCs");
    }
    count(EnergyEvent::kPgTransition);  // one charge per gate/wake pair
    bypass_worms_open_ = 0;
  }
  if (m == RouterMode::kPipeline) {
    FLOV_CHECK(latches_empty(), "waking a router with occupied FLOV latches");
    // Fresh allocation state; real credit values are installed by the
    // credit-handover transaction right after this call.
    for (int p = 0; p < kNumPorts; ++p) {
      output_[p].init(params_.total_vcs(), params_.buffer_depth);
    }
    // The NI side has no handover: a gated router drops its ejection
    // credits, but flits it self-captured may still be on the wire to the
    // NI, or their credits on the way back. Both land after the wake, so
    // the slots they stand for must not be counted free twice.
    const int local = dir_index(Direction::Local);
    const Span<CreditCount> local_credits = output_[local].credits;
    if (out_flit_[local]) {
      out_flit_[local]->for_each_in_flight(
          [&](const Flit& f) { local_credits[f.vc]--; });
    }
    if (credit_in_[local]) {
      credit_in_[local]->for_each_in_flight(
          [&](const Credit& c) { local_credits[c.vc]--; });
    }
    last_local_activity_ = now;
    // VA ticks resume at the next step; gated cycles never ticked.
    va_tick_from_ = now + 1;
  }
  (*mode_) = m;
  // Any mode switch re-arms the router: the new datapath must observe its
  // wires at least once (e.g. a parked router voiding stale credits).
  if (wake_) wake_->mark(wake_index_);
  if (power_) {
    const RouterPowerMode pm = m == RouterMode::kPipeline
                                   ? RouterPowerMode::kOn
                                   : (m == RouterMode::kBypass
                                          ? RouterPowerMode::kFlovSleep
                                          : RouterPowerMode::kRpParked);
    power_->set_mode(id_, pm, now);
  }
}

bool Router::input_buffers_empty() const {
  for (int p = 0; p < kNumPorts; ++p) {
    if (!input_[p].all_empty()) return false;
  }
  return true;
}

bool Router::latches_empty() const { return *latch_full_ == 0; }

bool Router::output_port_idle(Direction d) const {
  return !output_[dir_index(d)].any_allocated();
}

bool Router::all_outputs_idle() const {
  for (int p = 0; p < kNumPorts; ++p) {
    if (output_[p].any_allocated()) return false;
  }
  return true;
}

bool Router::bypass_quiet() const {
  return bypass_worms_open_ == 0 && (in_pending_ & kFlitInBits) == 0;
}

bool Router::completely_empty() const {
  FLOV_DCHECK(resident_matches_recount(),
              "resident flit counter drifted at router " + std::to_string(id_));
  FLOV_DCHECK(busy_masks_match_vc_states(),
              "busy-VC mask drifted at router " + std::to_string(id_));
  FLOV_DCHECK(pending_mask_matches_inputs(),
              "input pending mask drifted at router " + std::to_string(id_));
  return (*resident_) == 0 && pending_st_.empty();
}

int Router::buffered_flits() const {
  // The ports' length runs are one [port][vc] stripe of the slab.
  const VcLength* len = input_[0].len.begin();
  int n = std::popcount(*latch_full_);
  for (int i = 0; i < kNumPorts * params_.total_vcs(); ++i) n += len[i];
  return n;
}

bool Router::busy_masks_match_vc_states() const {
  for (int p = 0; p < kNumPorts; ++p) {
    std::uint64_t busy = 0;
    for (VcId v = 0; v < input_[p].vcs.size(); ++v) {
      if (input_[p].vcs[v].state != VcState::kIdle) busy |= vc_bit(v);
    }
    if (busy != busy_[p]) return false;
  }
  return true;
}

bool Router::pending_mask_matches_inputs() const {
  std::uint32_t pending = 0;
  for (int p = 0; p < kNumPorts; ++p) {
    if (in_flit_[p] && !in_flit_[p]->empty()) pending |= 1u << p;
    if (credit_in_[p] && !credit_in_[p]->empty()) {
      pending |= 1u << (kCreditInShift + p);
    }
  }
  return pending == in_pending_;
}

void Router::input_free_slots(Direction in_port,
                              std::vector<int>& out) const {
  input_[dir_index(in_port)].free_slots(params_.buffer_depth, out);
}

void Router::reload_output_credits(Direction out_port,
                                   const std::vector<int>& free_counts) {
  output_[dir_index(out_port)].reload_credits(free_counts);
}

void Router::reset_output_credits_full(Direction out_port) {
  std::vector<int> full(params_.total_vcs(), params_.buffer_depth);
  output_[dir_index(out_port)].reload_credits(full);
}

}  // namespace flov
