#include "flov/flov_network.hpp"

#include <algorithm>
#include <string>

#include "common/log.hpp"
#include "fault/fault_wiring.hpp"
#include "noc/router.hpp"
#include "routing/partition.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace flov {

FlovNetwork::FlovNetwork(const NocParams& params, FlovMode mode,
                         const EnergyParams& energy, const FaultParams& faults)
    : params_(params),
      mode_(mode),
      geom_(params.width, params.height),
      power_(std::make_unique<PowerTracker>(geom_, energy,
                                            /*flov_hardware=*/true)),
      routing_(std::make_unique<FlovRouting>(geom_)),
      net_(std::make_unique<Network>(params_, routing_.get(), power_.get())),
      fabric_(geom_, power_.get()) {
  fabric_.set_handler([this](NodeId at, const HsMessage& m) {
    return hscs_[at]->on_signal(m, current_cycle_);
  });
  trigger_sent_.assign(net_->num_nodes(), false);
  trigger_sent_at_.assign(net_->num_nodes(), 0);
  psr_stamp_.assign(net_->num_nodes(), 0);
  core_gated_.assign(net_->num_nodes(), 0);
  dead_mask_.assign(net_->num_nodes(), 0);
  hsc_live_.init(net_->num_nodes());
  hscs_.reserve(net_->num_nodes());
  const bool parallel = net_->num_domains() > 1;
  if (parallel) staged_wakeups_.resize(net_->num_domains());
  for (NodeId id = 0; id < net_->num_nodes(); ++id) {
    hscs_.push_back(std::make_unique<HandshakeController>(
        id, mode_, params_, &net_->router(id), &fabric_, this,
        &core_gated_[id]));
    hscs_.back()->set_wake_target(&hsc_live_);
    net_->router(id).set_dead_mask(&dead_mask_);
    if (parallel) {
      // Workers may not touch HSC/fabric state: stage the request and let
      // step() replay it between barriers (same order as serial, see
      // staged_wakeups_).
      const int dom = net_->domain_of(id);
      net_->router(id).set_wakeup_callback([this, id, dom](NodeId target) {
        staged_wakeups_[dom].emplace_back(id, target);
      });
    } else {
      net_->router(id).set_wakeup_callback([this, id](NodeId target) {
        request_wakeup(id, target, current_cycle_);
      });
    }
  }
  if (faults.any()) {
    fault_ = std::make_unique<FaultInjector>(faults, net_->num_nodes());
    fabric_.set_fault_injector(fault_.get());
    arm_link_faults(*net_, *fault_);
  }
}

void FlovNetwork::step(Cycle now) {
  current_cycle_ = now;
  if (hard_faults_due(now)) apply_hard_faults(now);
  net_->step(now);
  // Replay wakeup requests the domain workers staged during net_->step.
  // Each stage is ascending by requester id (routers step in id order
  // within a domain) and the row bands ascend in id, so replaying the
  // stages in domain order reproduces the exact order the serial schedule
  // would have issued them in.
  FLOV_PROFILE(kPower);  // scheme machinery: wakeup replay, fabric, HSCs
  for (auto& stage : staged_wakeups_) {
    for (const auto& [requester, target] : stage) {
      request_wakeup(requester, target, now);
    }
    stage.clear();
  }
  fabric_.step(now);
  // Ascending id order, as when every HSC stepped: the signals they send
  // keep their order in the fabric queue.
  hsc_live_.for_each_live(0, net_->num_nodes(), [&](NodeId id) {
    hscs_[id]->step(now);
    if (hscs_[id]->dormant()) hsc_live_.clear(id);
  });
#ifndef NDEBUG
  for (NodeId id = 0; id < net_->num_nodes(); ++id) {
    FLOV_DCHECK(hsc_live_.live(id) || hscs_[id]->dormant(),
                "HSC skipped while not dormant: " + std::to_string(id));
  }
#endif
  if (fault_) {
    const NodeId t = fault_->spurious_wakeup_target(now);
    if (t != kInvalidNode) {
      FLOV_TRACE(telemetry::kTraceFault,
                 telemetry::TraceEventType::kFaultSpuriousWake, now, t, t, 0);
      hscs_[t]->trigger_wakeup(now);
    }
  }
}

void FlovNetwork::apply_hard_faults(Cycle now) {
  for (NodeId id = 0; id < net_->num_nodes(); ++id) {
    // The AON column shares the gating exemption: its routers (and their
    // NIs) are the survivability anchor every escape route relies on.
    if (fault_->router_dies(id) && !gating_forbidden(id)) {
      dead_mask_[id] = 1;
      hscs_[id]->kill(now);
      net_->ni(id).kill(now);
      net_->wake_router(id);
    }
    for (Direction d : kMeshDirections) {
      if (net_->geom().neighbor(id, d) == kInvalidNode) continue;
      const std::uint32_t link_key = static_cast<std::uint32_t>(id) * 4u +
                                     static_cast<std::uint32_t>(dir_index(d));
      if (fault_->link_dies(link_key)) {
        // Poisoned-edge mark: routing demotes this turn (flov_routing);
        // the channel's fault hook does the actual killing.
        net_->router(id).view().link_dead[dir_index(d)] = true;
        net_->wake_router(id);
        dead_links_++;
      }
    }
  }
}

bool FlovNetwork::attempt_recovery(Cycle now) {
  // Rebuild every neighborhood view from ground truth (the hardware analog:
  // a slow out-of-band scrub walking the control wires), re-arm the wakeup
  // triggers, and re-send every unanswered handshake request. Idempotent
  // and safe fault-free — it only restates what reliable wires would have
  // delivered already.
  for (NodeId id = 0; id < net_->num_nodes(); ++id) refresh_view(id, now);
  std::fill(trigger_sent_.begin(), trigger_sent_.end(), false);
  std::fill(trigger_sent_at_.begin(), trigger_sent_at_.end(), Cycle{0});
  for (auto& h : hscs_) h->recovery_kick(now);
  recoveries_++;
  return true;
}

void FlovNetwork::dump_state(Cycle now) const {
  for (NodeId id = 0; id < net_->num_nodes(); ++id) {
    const Router& r = net_->router(id);
    // Ground truth, not the resident cache: this dump explains a
    // violation, and the cache may be what broke.
    const bool busy = r.buffered_flits() != 0;
    if (busy || hscs_[id]->state() != PowerState::kActive) {
      hscs_[id]->dump(now);
    }
    if (busy) r.dump_occupancy(now);
  }
}

void FlovNetwork::set_core_gated(NodeId core, bool gated, Cycle now) {
  hscs_[core]->set_core_gated(gated, now);
}

bool FlovNetwork::path_clear(NodeId from, Direction dir, NodeId to) const {
  const MeshGeometry& g = net_->geom();
  NodeId cur = from;
  while (true) {
    // `cur`'s outgoing channel toward dir.
    auto* ch = const_cast<Network&>(*net_).flit_channel(cur, dir);
    if (ch && !ch->empty()) return false;
    const NodeId next = g.neighbor(cur, dir);
    if (next == kInvalidNode || next == to) return true;
    const Router& r = net_->router(next);
    if (!r.latch_empty(dir)) return false;
    cur = next;
  }
}

NodeId FlovNetwork::nearest_pipeline(NodeId b, Direction dir) const {
  const MeshGeometry& g = net_->geom();
  NodeId cur = g.neighbor(b, dir);
  while (cur != kInvalidNode) {
    if (net_->router(cur).mode() == RouterMode::kPipeline) return cur;
    cur = g.neighbor(cur, dir);
  }
  return kInvalidNode;
}

std::vector<int> FlovNetwork::inflight_per_vc(NodeId from, Direction dir,
                                              NodeId to) const {
  std::vector<int> counts(params_.total_vcs(), 0);
  const MeshGeometry& g = net_->geom();
  NodeId cur = from;
  while (true) {
    auto* ch = const_cast<Network&>(*net_).flit_channel(cur, dir);
    if (ch) {
      ch->for_each_in_flight([&](const Flit& f) { counts[f.vc]++; });
    }
    const NodeId next = g.neighbor(cur, dir);
    if (next == kInvalidNode || next == to) return counts;
    const Router& r = net_->router(next);
    if (!r.latch_empty(dir)) counts[r.latch_flit(dir).vc]++;
    cur = next;
  }
}

void FlovNetwork::clear_credit_path(NodeId from, Direction dir, NodeId to) {
  // Credit back-channels of the links on the path from -> ... -> to:
  // for each router r on the path (excluding `to`), the credit channel
  // paired with r's outgoing flit link toward dir is r.credit_in(dir).
  const MeshGeometry& g = net_->geom();
  NodeId cur = from;
  while (cur != kInvalidNode && cur != to) {
    if (auto* ch = net_->router(cur).credit_in(dir)) ch->clear();
    cur = g.neighbor(cur, dir);
  }
}

void FlovNetwork::handover_flow(NodeId b, Direction flow, bool waking,
                                Cycle now) {
  (void)now;
  const NodeId up = waking ? nearest_pipeline(b, opposite(flow)) : kInvalidNode;
  const NodeId down = nearest_pipeline(b, flow);

  // The router whose output credits must now track `down` directly:
  // when `b` sleeps it is the nearest powered upstream; when `b` wakes it
  // is `b` itself (and the upstream separately re-tracks `b`).
  const NodeId tracker =
      waking ? b : nearest_pipeline(b, opposite(flow));
  // Handover mutates credit state behind the channels' backs — re-arm every
  // touched router so the active-set scheduler reconsiders it.
  net_->wake_router(b);
  if (down != kInvalidNode) net_->wake_router(down);
  if (up != kInvalidNode) net_->wake_router(up);
  if (tracker != kInvalidNode) {
    net_->wake_router(tracker);
    if (down != kInvalidNode) {
      std::vector<int>& free = free_slots_scratch_;
      net_->router(down).input_free_slots(opposite(flow), free);
      const std::vector<int> inflight = inflight_per_vc(tracker, flow, down);
      for (std::size_t v = 0; v < free.size(); ++v) {
        free[v] -= inflight[v];
        FLOV_CHECK(free[v] >= 0, "negative effective credits at handover");
      }
      net_->router(tracker).reload_output_credits(flow, free);
    } else {
      // No powered router downstream: nothing can be sent that way except
      // to sleeping destinations, which the hold-for-wakeup rule blocks.
      net_->router(tracker).reset_output_credits_full(flow);
    }
    clear_credit_path(tracker, flow, down);
  }

  if (waking && up != kInvalidNode) {
    // The upstream now tracks the freshly woken (empty) router `b`.
    const std::vector<int> inflight = inflight_per_vc(up, flow, b);
    std::vector<int> free(params_.total_vcs(), params_.buffer_depth);
    for (std::size_t v = 0; v < free.size(); ++v) {
      free[v] -= inflight[v];
      FLOV_CHECK(free[v] >= 0, "negative effective credits at wake handover");
    }
    net_->router(up).reload_output_credits(flow, free);
    clear_credit_path(up, flow, b);
  }
}

void FlovNetwork::sleep_handover(NodeId b, Cycle now) {
  trigger_sent_[b] = false;  // fresh sleep: allow a new wakeup trigger
  for (Direction flow : kMeshDirections) {
    handover_flow(b, flow, /*waking=*/false, now);
  }
}

void FlovNetwork::wake_handover(NodeId w, Cycle now) {
  for (Direction flow : kMeshDirections) {
    handover_flow(w, flow, /*waking=*/true, now);
  }
  refresh_view(w, now);
}

void FlovNetwork::refresh_view(NodeId w, Cycle now) {
  net_->wake_router(w);  // view changes can unblock held allocations
  hsc_live_.mark(w);     // ... and can re-block a PSR that times out
  stamp_psr(w, now);
  NeighborhoodView& v = net_->router(w).view();
  const MeshGeometry& g = net_->geom();
  for (Direction d : kMeshDirections) {
    const int i = dir_index(d);
    const NodeId phys = g.neighbor(w, d);
    v.physical[i] =
        phys == kInvalidNode ? PowerState::kActive : hscs_[phys]->state();
    // Nearest non-sleeping router along d.
    NodeId cur = phys;
    while (cur != kInvalidNode && hscs_[cur]->state() == PowerState::kSleep) {
      cur = g.neighbor(cur, d);
    }
    v.logical[i] = cur;
    v.logical_state[i] =
        cur == kInvalidNode ? PowerState::kActive : hscs_[cur]->state();
    v.output_blocked[i] = v.logical_state[i] == PowerState::kDraining ||
                          v.logical_state[i] == PowerState::kWakeup;
  }
}

void FlovNetwork::request_wakeup(NodeId requester, NodeId target, Cycle now) {
  if (dead_mask_[target]) {
    // Wake requests to the dead are swallowed (counted, not forwarded):
    // the packet's own fly-over + NI-sink path consumes it, and the
    // sender's reliable-delivery timeout is what ultimately resolves it.
    wake_requests_dropped_++;
    return;
  }
  if (requester == target) {
    // Self-capture: the gated router itself found a flit addressed to it on
    // its bypass datapath; no trigger needs to travel anywhere.
    hscs_[target]->trigger_wakeup(now);
    return;
  }
  auto& h = *hscs_[target];
  if (h.state() != PowerState::kSleep) return;
  if (h.wakeup_pending()) return;
  if (trigger_sent_[target]) {
    // Re-arm a trigger that was apparently lost on the control wires.
    if (params_.trigger_retry_timeout == 0 ||
        now - trigger_sent_at_[target] < params_.trigger_retry_timeout) {
      return;
    }
    trigger_resends_++;
  }
  trigger_sent_[target] = true;
  trigger_sent_at_[target] = now;
  // Direction from requester toward target (they share a row or column).
  const Coord a = net_->geom().coord(requester);
  const Coord b = net_->geom().coord(target);
  Direction d;
  if (a.x == b.x) {
    d = b.y < a.y ? Direction::North : Direction::South;
  } else {
    FLOV_CHECK(a.y == b.y, "wakeup target not in line with requester");
    d = b.x < a.x ? Direction::West : Direction::East;
  }
  HsMessage m;
  m.type = HsType::kWakeupTrigger;
  m.from = requester;
  m.travel = d;
  m.target = target;
  fabric_.send(now, m);
}

FlovNetwork::ProtocolStats FlovNetwork::protocol_stats(Cycle now) const {
  ProtocolStats s;
  for (const auto& h : hscs_) {
    s.sleeps += h->sleep_entries();
    s.wakeups += h->wake_completions();
    s.drain_aborts += h->drain_aborts();
    s.sleep_cycles += h->sleep_cycles(now);
    s.hs_resends += h->hs_resends();
    s.psr_block_clears += h->psr_block_clears();
  }
  for (NodeId id = 0; id < net_->num_nodes(); ++id) {
    s.self_captures += net_->router(id).self_captures();
  }
  s.trigger_resends = trigger_resends_;
  s.recoveries = recoveries_;
  if (now > 0) {
    s.avg_gated_routers =
        static_cast<double>(s.sleep_cycles) / static_cast<double>(now);
  }
  return s;
}

int FlovNetwork::gated_router_count() const {
  int n = 0;
  for (const auto& h : hscs_) {
    if (h->state() == PowerState::kSleep || h->state() == PowerState::kWakeup) {
      ++n;
    }
  }
  return n;
}

void FlovNetwork::publish_metrics(telemetry::MetricsRegistry& reg,
                                  Cycle now) const {
  const ProtocolStats s = protocol_stats(now);
  reg.counter("flov.sleeps") += s.sleeps;
  reg.counter("flov.wakeups") += s.wakeups;
  reg.counter("flov.drain_aborts") += s.drain_aborts;
  reg.counter("flov.sleep_cycles") += s.sleep_cycles;
  reg.counter("flov.hs_resends") += s.hs_resends;
  reg.counter("flov.trigger_resends") += s.trigger_resends;
  reg.counter("flov.psr_block_clears") += s.psr_block_clears;
  reg.counter("flov.self_captures") += s.self_captures;
  reg.counter("flov.recoveries") += s.recoveries;
  reg.gauge("flov.avg_gated_routers") = s.avg_gated_routers;
  reg.gauge("flov.gated_routers_end") =
      static_cast<double>(gated_router_count());
  publish_fault_metrics(reg);
  if (fault_) {
    const FaultInjector::Counters& f = fault_->counters();
    reg.counter("fault.signals_dropped") += f.signals_dropped;
    reg.counter("fault.signals_delayed") += f.signals_delayed;
    reg.counter("fault.signals_duplicated") += f.signals_duplicated;
    reg.counter("fault.spurious_wakeups") += f.spurious_wakeups;
    if (fault_->hard_at() > 0) {
      reg.counter("flov.wake_requests_dropped") += wake_requests_dropped_;
    }
  }
}

}  // namespace flov
