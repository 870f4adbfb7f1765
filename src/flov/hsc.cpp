#include "flov/hsc.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "flov/flov_network.hpp"
#include "flov/signal_fabric.hpp"
#include "noc/router.hpp"
#include "telemetry/trace.hpp"

namespace flov {

HandshakeController::HandshakeController(NodeId id, FlovMode mode,
                                         const NocParams& params,
                                         Router* router, SignalFabric* fabric,
                                         FlovNetwork* owner)
    : id_(id), mode_(mode), params_(params), router_(router),
      fabric_(fabric), owner_(owner) {
  FLOV_CHECK(router_ && fabric_ && owner_, "HSC missing collaborators");
  psr_owner_.fill(kInvalidNode);
}

void HandshakeController::set_core_gated(bool gated, Cycle now) {
  (void)now;  // the FSM reacts on its next step
  wake();
  if (dead_) return;  // a corpse's core never comes back
  core_gated_ = gated;
}

void HandshakeController::kill(Cycle now) {
  wake();
  if (dead_) return;
  dead_ = true;
  core_gated_ = true;  // directly: set_core_gated now refuses changes
  // A drain already in progress must run to completion, never abort.
  if (state_ == PowerState::kDraining) drain_deadline_ = kNeverCycle;
  owner_->stamp_psr(id_, now);  // the verifier reads the dead mask
}

void HandshakeController::set_state(PowerState s, Cycle now) {
  state_ = s;
  state_since_ = now;
  owner_->stamp_psr(id_, now);
}

NodeId HandshakeController::partner(Direction d) const {
  if (mode_ == FlovMode::kRestricted) {
    // Physical neighbor: under rFLOV's adjacency restriction the physical
    // neighbor is powered whenever a handshake is needed.
    return owner_->network().geom().neighbor(id_, d);
  }
  return router_->view().logical[dir_index(d)];
}

void HandshakeController::send(Cycle now, HsType type, Direction travel,
                               NodeId target, NodeId logical_beyond) {
  HsMessage m;
  m.type = type;
  m.from = id_;
  m.travel = travel;
  m.target = target;
  m.logical_beyond = logical_beyond;
  m.epoch = epoch_;
  fabric_->send(now, m);
}

void HandshakeController::send_done(Cycle now, Direction travel,
                                    NodeId target, std::uint32_t epoch) {
  HsMessage m;
  m.type = HsType::kDrainDone;
  m.from = id_;
  m.travel = travel;
  m.target = target;
  m.epoch = epoch;
  fabric_->send(now, m);
}

bool HandshakeController::can_start_drain(Cycle now) const {
  if (owner_->gating_forbidden(id_)) return false;
  if (!owner_->ni_idle(id_)) return false;
  const Cycle quiet_since =
      std::max(router_->last_local_activity(), state_since_);
  if (now - quiet_since < params_.drain_idle_threshold) return false;
  const NeighborhoodView& v = router_->view();
  for (Direction d : kMeshDirections) {
    if (mode_ == FlovMode::kRestricted) {
      // No adjacent router may be anything but Active (and alive).
      if (owner_->network().geom().neighbor(id_, d) == kInvalidNode) continue;
      if (v.physical[dir_index(d)] != PowerState::kActive) return false;
    } else {
      // gFLOV: no logical neighbor may be Draining or Wakeup.
      if (v.logical[dir_index(d)] == kInvalidNode) continue;
      const PowerState s = v.logical_state[dir_index(d)];
      if (s == PowerState::kDraining || s == PowerState::kWakeup) {
        return false;
      }
    }
  }
  return true;
}

bool HandshakeController::can_start_wakeup() const {
  // A power-gated router defers wakeup while any logical neighbor drains.
  const NeighborhoodView& v = router_->view();
  for (Direction d : kMeshDirections) {
    if (v.logical[dir_index(d)] == kInvalidNode) continue;
    if (v.logical_state[dir_index(d)] == PowerState::kDraining) return false;
  }
  return true;
}

void HandshakeController::enter_draining(Cycle now) {
  owner_->set_ni_stalled(id_, true);
  set_state(PowerState::kDraining, now);
  ++epoch_;
  drain_deadline_ = now + params_.drain_abort_timeout;
  expected_.clear();
  for (Direction d : kMeshDirections) {
    const NodeId p = partner(d);
    if (p == kInvalidNode) continue;
    expected_.push_back(Expected{d, p, false, now, 0});
    send(now, HsType::kDrainReq, d, p);
  }
  FLOV_TRACE(telemetry::kTraceHandshake,
             telemetry::TraceEventType::kHsDrainBegin, now, id_, epoch_,
             expected_.size());
}

void HandshakeController::abort_drain(Cycle now) {
  for (const Expected& e : expected_) {
    send(now, HsType::kDrainAbort, e.dir, e.partner);
  }
  expected_.clear();
  set_state(PowerState::kActive, now);
  drain_aborts_++;
  owner_->set_ni_stalled(id_, false);
  FLOV_TRACE(telemetry::kTraceHandshake,
             telemetry::TraceEventType::kHsDrainAbort, now, id_, epoch_,
             drain_aborts_);
}

void HandshakeController::enter_sleep(Cycle now) {
  FLOV_TRACE(telemetry::kTraceHandshake,
             telemetry::TraceEventType::kHsSleepEnter, now, id_, epoch_,
             now - state_since_);
  router_->set_mode(RouterMode::kBypass, now);
  set_state(PowerState::kSleep, now);
  expected_.clear();
  wakeup_pending_ = false;
  sleep_entries_++;
  const NeighborhoodView& v = router_->view();
  for (Direction d : kMeshDirections) {
    // Tell each side who their new logical neighbor beyond me is.
    const NodeId beyond = v.logical[dir_index(opposite(d))];
    send(now, HsType::kSleepNotify, d, partner(d), beyond);
  }
  owner_->sleep_handover(id_, now);
}

void HandshakeController::enter_wakeup(Cycle now) {
  total_sleep_cycles_ += now - state_since_;
  set_state(PowerState::kWakeup, now);
  ++epoch_;
  wake_drained_ = false;
  power_on_ready_ = kNeverCycle;
  expected_.clear();
  const NeighborhoodView& v = router_->view();
  for (Direction d : kMeshDirections) {
    const NodeId p = v.logical[dir_index(d)];
    if (p == kInvalidNode) continue;
    expected_.push_back(Expected{d, p, false, now, 0});
    send(now, HsType::kWakeupNotify, d, p);
  }
  FLOV_TRACE(telemetry::kTraceHandshake,
             telemetry::TraceEventType::kHsWakeBegin, now, id_, epoch_,
             expected_.size());
}

void HandshakeController::enter_active(Cycle now) {
  FLOV_TRACE(telemetry::kTraceHandshake,
             telemetry::TraceEventType::kHsWakeComplete, now, id_, epoch_,
             now - state_since_);
  router_->set_mode(RouterMode::kPipeline, now);
  owner_->wake_handover(id_, now);
  set_state(PowerState::kActive, now);
  wakeup_pending_ = false;
  wake_completions_++;
  owner_->set_ni_stalled(id_, false);
  for (Direction d : kMeshDirections) {
    const NodeId p = router_->view().logical[dir_index(d)];
    send(now, HsType::kActiveNotify, d, p);
  }
  expected_.clear();
}

void HandshakeController::retry_expected(Cycle now, HsType type) {
  if (params_.hs_retry_timeout == 0) return;
  for (Expected& e : expected_) {
    if (e.done || e.resends >= params_.hs_retry_limit) continue;
    if (now - e.last_sent < params_.hs_retry_timeout) continue;
    // The DrainDone (or the request itself) is overdue: assume a lost
    // signal and re-send. Receivers deduplicate obligations, so a merely
    // slow reply costs one redundant DrainDone at worst.
    send(now, type, e.dir, e.partner);
    e.last_sent = now;
    e.resends++;
    hs_resends_++;
    FLOV_TRACE(telemetry::kTraceHandshake, telemetry::TraceEventType::kHsRetry,
               now, id_, e.partner, e.resends);
  }
}

void HandshakeController::add_obligation(Direction dir, NodeId requester,
                                         std::uint32_t epoch) {
  for (Obligation& o : owed_) {
    if (o.requester == requester) {
      o.dir = dir;
      o.epoch = epoch;
      return;
    }
  }
  owed_.push_back(Obligation{dir, requester, epoch});
}

void HandshakeController::heartbeat_sleep_announce(Cycle now) {
  if (params_.sleep_reannounce_interval == 0 || now <= state_since_) return;
  if ((now - state_since_) % params_.sleep_reannounce_interval != 0) return;
  const NeighborhoodView& v = router_->view();
  for (Direction d : kMeshDirections) {
    const NodeId beyond = v.logical[dir_index(opposite(d))];
    send(now, HsType::kSleepNotify, d, partner(d), beyond);
  }
}

void HandshakeController::expire_stale_blocks(Cycle now) {
  if (params_.psr_block_timeout == 0) return;
  NeighborhoodView& v = router_->view();
  for (int d = 0; d < kNumMeshDirs; ++d) {
    if (!v.output_blocked[d]) continue;
    // A waking logical neighbor re-blocks via WakeupNotify retries; only a
    // block whose owner went silent (lost DrainAbort / stale drain) may be
    // cleared optimistically. A live drainer's retried DrainReq re-asserts.
    if (v.logical_state[d] == PowerState::kWakeup) continue;
    if (now - blocked_since_[d] < params_.psr_block_timeout) continue;
    v.output_blocked[d] = false;
    if (v.logical_state[d] == PowerState::kDraining) {
      v.logical_state[d] = PowerState::kActive;
    }
    psr_block_clears_++;
  }
}

void HandshakeController::service_obligations(Cycle now) {
  for (auto it = owed_.begin(); it != owed_.end();) {
    const bool pipeline_idle = router_->mode() != RouterMode::kPipeline ||
                               router_->output_port_idle(it->dir);
    const bool latch_idle = router_->latch_empty(it->dir);
    if (pipeline_idle && latch_idle &&
        owner_->path_clear(id_, it->dir, it->requester)) {
      send_done(now, it->dir, it->requester, it->epoch);
      it = owed_.erase(it);
    } else {
      ++it;
    }
  }
}

void HandshakeController::step(Cycle now) {
  service_obligations(now);
  expire_stale_blocks(now);
  switch (state_) {
    case PowerState::kActive:
      if (dead_) {
        // Hard fault: drain unconditionally (the NI is already a sink, and
        // waiting for idleness thresholds would only delay the inevitable).
        enter_draining(now);
        drain_deadline_ = kNeverCycle;  // a corpse never aborts
        break;
      }
      if (core_gated_ && can_start_drain(now)) enter_draining(now);
      break;
    case PowerState::kDraining: {
      if (!core_gated_) {
        abort_drain(now);
        break;
      }
      if (now >= drain_deadline_) {
        abort_drain(now);  // unreachable when dead_ (deadline = kNeverCycle)
        break;
      }
      retry_expected(now, HsType::kDrainReq);
      if (dead_) {
        // A corpse cannot abort back to Active, so an unanswerable leg must
        // not wedge the drain forever. When a leg's retries are exhausted
        // (or disabled) and its reply stays overdue past the abort horizon,
        // the partner is unreachable — possibly dead itself — and the leg
        // is forcibly marked done (PROTOCOL.md §8).
        for (Expected& e : expected_) {
          if (e.done) continue;
          const bool exhausted = params_.hs_retry_timeout == 0 ||
                                 e.resends >= params_.hs_retry_limit;
          if (exhausted && now - e.last_sent >= params_.drain_abort_timeout) {
            e.done = true;
          }
        }
      }
      bool all_done = true;
      for (const Expected& e : expected_) all_done &= e.done;
      // all_outputs_idle: a local backstop behind the epoch check — an
      // allocated output VC means part of a worm through us is still
      // upstream, so the drain is not actually finished whatever the
      // handshake replies claim.
      if (all_done && router_->completely_empty() &&
          router_->all_outputs_idle()) {
        enter_sleep(now);
      }
      break;
    }
    case PowerState::kSleep:
      heartbeat_sleep_announce(now);
      if (dead_) break;  // permanent: nothing wakes a corpse
      // Third wake reason (reliable delivery only): a retransmit timer can
      // repopulate a gated NI's queue while the core itself stays gated;
      // the router must power on to flush it or the flow wedges forever.
      if ((!core_gated_ || wakeup_pending_ ||
           (params_.reliable && !owner_->ni_idle(id_))) &&
          can_start_wakeup()) {
        enter_wakeup(now);
      }
      break;
    case PowerState::kWakeup: {
      if (!wake_drained_) {
        retry_expected(now, HsType::kWakeupNotify);
        bool all_done = true;
        for (const Expected& e : expected_) all_done &= e.done;
        if (all_done && router_->latches_empty()) {
          wake_drained_ = true;
          power_on_ready_ = now + params_.wakeup_latency;
        }
      }
      // bypass_quiet: an upstream that missed the WakeupNotify (lost
      // signal) may still be streaming a worm through our latches; defer
      // power-on until the fly-over traffic stops rather than stranding
      // half a worm in the pipeline buffers. Vacuous in a fault-free run
      // (every partner blocked its output before sending DrainDone). [impl]
      if (wake_drained_ && now >= power_on_ready_ && router_->bypass_quiet()) {
        enter_active(now);
      }
      break;
    }
  }
}

bool HandshakeController::dormant() const {
  if (!owed_.empty()) return false;
  if (params_.psr_block_timeout > 0) {
    for (bool blocked : router_->view().output_blocked) {
      if (blocked) return false;
    }
  }
  switch (state_) {
    case PowerState::kActive:
      // A gated core outside the AON column drains once the router idles.
      return !dead_ && (!core_gated_ || owner_->gating_forbidden(id_));
    case PowerState::kSleep:
      // The heartbeat fires on a timer even for a corpse; a reliable NI
      // can refill from its retransmit timer while the core stays gated.
      if (params_.sleep_reannounce_interval != 0) return false;
      return dead_ ||
             (core_gated_ && !wakeup_pending_ && !params_.reliable);
    case PowerState::kDraining:
    case PowerState::kWakeup:
      return false;
  }
  return false;
}

void HandshakeController::trigger_wakeup(Cycle now) {
  (void)now;
  wake();
  if (dead_) return;  // the dead do not answer
  if (state_ == PowerState::kSleep) wakeup_pending_ = true;
}

void HandshakeController::recovery_kick(Cycle now) {
  if (state_ != PowerState::kDraining && state_ != PowerState::kWakeup) return;
  wake();  // defensive: a mid-transition HSC is never dormant
  const HsType type = state_ == PowerState::kDraining
                          ? HsType::kDrainReq
                          : HsType::kWakeupNotify;
  for (Expected& e : expected_) {
    if (e.done) continue;
    e.resends = 0;  // re-arm the bounded retry budget
    e.last_sent = now;
    send(now, type, e.dir, e.partner);
    hs_resends_++;
  }
}

void HandshakeController::dump(Cycle now) const {
  std::fprintf(stderr,
               "  hsc %d: state=%s since=%llu core_gated=%d "
               "wakeup_pending=%d wake_drained=%d owed=%zu resends=%llu\n",
               id_, to_string(state_),
               static_cast<unsigned long long>(now - state_since_),
               static_cast<int>(core_gated_), static_cast<int>(wakeup_pending_),
               static_cast<int>(wake_drained_), owed_.size(),
               static_cast<unsigned long long>(hs_resends_));
  for (const Expected& e : expected_) {
    std::fprintf(stderr,
                 "    expects DrainDone from %d (dir=%s done=%d resends=%d)\n",
                 e.partner, to_string(e.dir), static_cast<int>(e.done),
                 e.resends);
  }
  for (const Obligation& o : owed_) {
    std::fprintf(stderr, "    owes DrainDone to %d (dir=%s)\n", o.requester,
                 to_string(o.dir));
  }
}

void HandshakeController::update_psr(Direction from_dir, const HsMessage& msg,
                                     Cycle now) {
  owner_->stamp_psr(id_, now);
  NeighborhoodView& v = router_->view();
  const int d = dir_index(from_dir);
  const auto set_blocked = [&](bool blocked) {
    if (blocked) blocked_since_[d] = now;  // (re)assertion refreshes the TTL
    v.output_blocked[d] = blocked;
  };
  const MeshGeometry& geom = owner_->network().geom();
  const bool adjacent = geom.neighbor(id_, from_dir) == msg.from;

  // Nearest-wins rule: while the recorded logical neighbor is mid-
  // transition (Draining/Wakeup), signals from FARTHER routers in the same
  // direction — which only reach us because the transitioning router still
  // relays — must not re-point the PSR or lift the output mask. The nearer
  // router's own completion signal will arrive and supersede them.
  const NodeId cur = v.logical[d];
  if (cur != kInvalidNode && cur != msg.from &&
      (v.logical_state[d] == PowerState::kDraining ||
       v.logical_state[d] == PowerState::kWakeup) &&
      geom.hops(id_, msg.from) > geom.hops(id_, cur)) {
    return;
  }
  switch (msg.type) {
    case HsType::kDrainReq:
      if (adjacent) v.physical[d] = PowerState::kDraining;
      if (v.logical[d] == msg.from) v.logical_state[d] = PowerState::kDraining;
      set_blocked(true);
      break;
    case HsType::kDrainAbort:
      if (adjacent) v.physical[d] = PowerState::kActive;
      if (v.logical[d] == msg.from) v.logical_state[d] = PowerState::kActive;
      set_blocked(false);
      break;
    case HsType::kDrainDone:
      break;
    case HsType::kSleepNotify:
      if (adjacent) v.physical[d] = PowerState::kSleep;
      v.logical[d] = msg.logical_beyond;
      v.logical_state[d] = PowerState::kActive;
      set_blocked(false);
      break;
    case HsType::kWakeupNotify:
      if (adjacent) v.physical[d] = PowerState::kWakeup;
      v.logical[d] = msg.from;
      v.logical_state[d] = PowerState::kWakeup;
      set_blocked(true);
      break;
    case HsType::kActiveNotify:
      if (adjacent) v.physical[d] = PowerState::kActive;
      v.logical[d] = msg.from;
      v.logical_state[d] = PowerState::kActive;
      set_blocked(false);
      break;
    case HsType::kWakeupTrigger:
      break;
  }
}

void HandshakeController::retarget_expected(const HsMessage& msg, Cycle now) {
  // A SleepNotify from a router we are mid-handshake with means our partner
  // is gone: the drain/wakeup duty passes to the next powered router beyond
  // it (no router at all on that side completes the leg trivially). Without
  // this, a drainer burns its abort deadline and a waker retries into
  // silence forever. [impl]
  if (state_ != PowerState::kDraining && state_ != PowerState::kWakeup) return;
  const HsType req = state_ == PowerState::kDraining ? HsType::kDrainReq
                                                     : HsType::kWakeupNotify;
  for (Expected& e : expected_) {
    if (e.done || e.partner != msg.from) continue;
    e.partner = msg.logical_beyond;
    e.resends = 0;
    e.last_sent = now;
    if (e.partner == kInvalidNode) {
      e.done = true;
    } else {
      send(now, req, e.dir, e.partner);
    }
  }
}

void HandshakeController::adopt_nearer_partner(const HsMessage& msg,
                                               Direction from_dir, Cycle now) {
  // An ActiveNotify from a router that sits BETWEEN us and an un-done leg's
  // partner means that partner is no longer our logical neighbor: the newly
  // powered router absorbs our retries from now on, and any DrainDone will
  // carry its id, not the old partner's. Re-point the leg (and re-send) or
  // the handshake matches against a ghost forever. [impl]
  if (state_ != PowerState::kDraining && state_ != PowerState::kWakeup) return;
  const HsType req = state_ == PowerState::kDraining ? HsType::kDrainReq
                                                     : HsType::kWakeupNotify;
  const MeshGeometry& geom = owner_->network().geom();
  for (Expected& e : expected_) {
    if (e.done || e.dir != from_dir || e.partner == msg.from) continue;
    if (geom.hops(id_, msg.from) >= geom.hops(id_, e.partner)) continue;
    e.partner = msg.from;
    e.resends = 0;
    e.last_sent = now;
    send(now, req, e.dir, e.partner);
  }
}

bool HandshakeController::stale_signal(const HsMessage& msg,
                                       Direction from_dir) {
  switch (msg.type) {
    case HsType::kDrainReq:
    case HsType::kDrainAbort:
    case HsType::kSleepNotify:
    case HsType::kWakeupNotify:
    case HsType::kActiveNotify:
      break;
    default:
      return false;  // DrainDone has its own epoch check; triggers are
                     // idempotent
  }
  const int d = dir_index(from_dir);
  if (psr_owner_[d] == msg.from && msg.epoch < psr_epoch_[d]) return true;
  psr_owner_[d] = msg.from;
  psr_epoch_[d] = msg.epoch;
  return false;
}

bool HandshakeController::on_signal(const HsMessage& msg, Cycle now) {
  wake();
  const Direction from_dir = opposite(msg.travel);
  if (stale_signal(msg, from_dir)) {
    // A straggler from a previous power episode of the sender (delayed or
    // duplicated on a faulty fabric). Acting on it here would corrupt the
    // PSRs — e.g. a stale SleepNotify un-blocks a router that is actually
    // mid-Wakeup and a worm launches into its bypass latches. Swallow or
    // forward exactly as a fresh signal would be, but change nothing;
    // every hop applies its own staleness test. [impl]
    return msg.target == id_ || state_ == PowerState::kActive ||
           state_ == PowerState::kDraining;
  }
  update_psr(from_dir, msg, now);
  // Partner replacement must also run on signals this (gated) router merely
  // relays — a waking router is not "powered" but still owns Expecteds.
  if (msg.type == HsType::kSleepNotify) retarget_expected(msg, now);
  if (msg.type == HsType::kActiveNotify) {
    adopt_nearer_partner(msg, from_dir, now);
  }

  const bool is_target = msg.target == id_;
  const bool powered =
      state_ == PowerState::kActive || state_ == PowerState::kDraining;
  if (!is_target && !powered) return false;  // sleeping/waking: forward

  switch (msg.type) {
    case HsType::kDrainReq:
      if (state_ == PowerState::kDraining) {
        // Simultaneous drains: the smaller id proceeds (Section IV-A).
        // A dead router never yields — its drain is mandatory.
        if (msg.from < id_ && !dead_) abort_drain(now);
        add_obligation(from_dir, msg.from, msg.epoch);
      } else if (state_ == PowerState::kWakeup) {
        // Draining–Wakeup conflict: Wakeup has priority; make the drain
        // requester abort by announcing the wakeup to it directly.
        send(now, HsType::kWakeupNotify, from_dir, msg.from);
      } else if (state_ == PowerState::kSleep) {
        // Stale addressing: the requester thought this router was powered.
        // Re-announce the sleep so it re-points its PSRs.
        send(now, HsType::kSleepNotify, from_dir, msg.from,
             router_->view().logical[dir_index(opposite(from_dir))]);
      } else {
        add_obligation(from_dir, msg.from, msg.epoch);
        if (!is_target && !dead_) {
          // We absorbed a request aimed beyond us: the sender's leg still
          // names the old partner, so our DrainDone would never match it.
          // Announce ourselves so the sender adopts us as the new partner.
          // [impl]
          send(now, HsType::kActiveNotify, from_dir, msg.from);
        }
      }
      break;
    case HsType::kDrainAbort:
      // The aborting router no longer needs our drain_done.
      owed_.erase(std::remove_if(owed_.begin(), owed_.end(),
                                 [&](const Obligation& o) {
                                   return o.requester == msg.from;
                                 }),
                  owed_.end());
      break;
    case HsType::kDrainDone:
      // Epoch mismatch = a reply to an ABORTED episode (the DrainAbort was
      // lost): honoring it would let this drain complete while the partner
      // is mid-worm toward us. Drop it; the current episode's retries will
      // earn a fresh one. [impl]
      if (msg.epoch != epoch_) break;
      for (Expected& e : expected_) {
        if (e.partner == msg.from) e.done = true;
      }
      break;
    case HsType::kWakeupNotify:
      // Wakeup priority — except over a dead router's mandatory drain (the
      // waker still gets its DrainDone through the obligation below).
      if (state_ == PowerState::kDraining && !dead_) abort_drain(now);
      // We are (one of) the waking router's logical partners: we owe it a
      // drain_done once our in-flight deliveries toward it finish. Two
      // concurrently waking routers owe each other the same.
      if (state_ != PowerState::kSleep) {
        add_obligation(from_dir, msg.from, msg.epoch);
        if (!is_target && state_ == PowerState::kActive && !dead_) {
          // Same stale-leg heal as for DrainReq: tell the waker its true
          // nearest powered partner is us, not whoever it addressed. [impl]
          send(now, HsType::kActiveNotify, from_dir, msg.from);
        }
      } else if (is_target) {
        // Stale addressing (the waker missed our SleepNotify): re-announce
        // so it re-targets its handshake at whoever is powered beyond us.
        // Without this reply the waker would retry into silence forever.
        // [impl]
        send(now, HsType::kSleepNotify, from_dir, msg.from,
             router_->view().logical[dir_index(opposite(from_dir))]);
      }
      break;
    case HsType::kSleepNotify:
    case HsType::kActiveNotify:
      break;  // PSR update already applied
    case HsType::kWakeupTrigger:
      if (is_target) {
        trigger_wakeup(now);
        if (state_ == PowerState::kActive && !dead_) {
          // Already awake (e.g. our earlier ActiveNotify was lost): answer
          // so the requester's stale PSRs re-point here and the held packet
          // releases. [impl]
          send(now, HsType::kActiveNotify, from_dir, msg.from);
        }
        return true;
      }
      // A powered router between requester and target absorbs the trigger:
      // the requester's view was stale. Announce our own liveness toward it
      // so the view heals rather than waiting for self-correction. [impl]
      if (state_ == PowerState::kActive && !dead_) {
        send(now, HsType::kActiveNotify, from_dir, msg.from);
      }
      break;
  }
  return true;
}

}  // namespace flov
