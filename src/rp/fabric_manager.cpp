#include "rp/fabric_manager.hpp"

#include "common/log.hpp"
#include "telemetry/trace.hpp"

namespace flov {

FabricManager::FabricManager(Network* net, TableRouting* routing,
                             FabricManagerConfig cfg,
                             std::vector<bool> always_on,
                             std::vector<std::uint8_t>* core_gated)
    : net_(net),
      routing_(routing),
      cfg_(cfg),
      always_on_(std::move(always_on)),
      core_gated_(*core_gated),
      powered_(net->num_nodes(), true) {
  FLOV_CHECK(static_cast<int>(always_on_.size()) == net_->num_nodes() &&
                 static_cast<int>(core_gated_.size()) == net_->num_nodes(),
             "always_on / core-gated mask size mismatch");
  // Initial tables: everything powered.
  routing_->install(std::make_shared<UpDownRoutes>(
      net_->geom(), std::vector<bool>(net_->num_nodes(), true)));
}

void FabricManager::set_core_gated(NodeId core, bool gated, Cycle now) {
  (void)now;
  if (router_dead(core)) return;  // a dead node's gating is permanent
  if ((core_gated_[core] != 0) == gated) return;
  core_gated_[core] = gated;
  dirty_ = true;
}

void FabricManager::on_hard_fault(const std::vector<char>& dead_routers,
                                  const std::vector<char>& dead_links,
                                  Cycle now) {
  dead_routers_ = dead_routers;
  dead_links_ = dead_links;
  dirty_ = true;
  next_allowed_ = now;  // survival reconfigurations bypass the epoch gap
}

void FabricManager::begin_reconfig(Cycle now) {
  phase_ = Phase::kDraining;
  reconfig_start_ = now;
  FLOV_TRACE(telemetry::kTraceEpoch, telemetry::TraceEventType::kEpochBegin,
             now, -1, reconfigs_ + 1, 0);
  for (NodeId i = 0; i < net_->num_nodes(); ++i) {
    net_->ni(i).set_injection_stalled(true);
  }
}

void FabricManager::apply(Cycle now) {
  // Only read by the FLOV_TRACE below, which compiles out without
  // FLYOVER_TRACING.
  [[maybe_unused]] const std::uint64_t purged_before = purged_;
  const bool hard = !dead_routers_.empty();
  powered_ = compute_parked_set(net_->geom(), core_gated_, always_on_,
                                cfg_.policy);
  // Dead routers are excluded unconditionally — always_on cannot save a
  // corpse.
  if (hard) {
    for (NodeId i = 0; i < net_->num_nodes(); ++i) {
      if (router_dead(i)) powered_[i] = false;
    }
  }
  auto routes = std::make_shared<UpDownRoutes>(
      net_->geom(), powered_, hard ? &dead_links_ : nullptr);
  if (!hard) {
    FLOV_CHECK(routes->all_powered_connected(),
               "RP parked set disconnected the powered sub-graph");
  } else if (!routes->all_powered_connected()) {
    // Hard faults can fragment the mesh: quarantine every live router the
    // surviving root component cannot reach (park it, seal its NI, treat
    // its core as gated) and rebuild. Its unfinished traffic is declared
    // dead by the NI kill — fail fast instead of retrying into a wall.
    for (NodeId i = 0; i < net_->num_nodes(); ++i) {
      if (!powered_[i] || routes->bfs_level(i) >= 0) continue;
      powered_[i] = false;
      core_gated_[i] = 1;
      net_->ni(i).kill(now);
      quarantined_++;
    }
    routes = std::make_shared<UpDownRoutes>(net_->geom(), powered_,
                                            &dead_links_);
  }
  routing_->install(routes);
  for (NodeId i = 0; i < net_->num_nodes(); ++i) {
    // Dead routers were switched to kDead at the fault instant and can
    // never change mode again; the FM manages only the living.
    if (!router_dead(i)) {
      net_->router(i).set_mode(
          powered_[i] ? RouterMode::kPipeline : RouterMode::kParked, now);
    }
    // Packets generated before the change but aimed at a node that is now
    // parked have no legal route; void them (counted; the OS/coherence
    // layer would never address a parked node in steady state). The same
    // applies to packets still QUEUED at a node whose own router is now
    // parked: its injection port is off, so releasing the stall would feed
    // them into a parked router. Under hard faults this extends to any
    // (src, dest) pair the surviving up*/down* graph cannot connect.
    purged_ += net_->ni(i).purge_queue([&](const PacketDescriptor& p) {
      if (!powered_[i] || !powered_[p.dest]) return true;
      return hard && !routes->reachable(i, p.dest);
    });
  }
  dirty_ = false;
#if defined(FLYOVER_TRACING) && FLYOVER_TRACING
  {
    std::uint64_t parked = 0;
    for (NodeId i = 0; i < net_->num_nodes(); ++i) {
      if (!powered_[i]) parked++;
    }
    FLOV_TRACE(telemetry::kTraceEpoch, telemetry::TraceEventType::kEpochApply,
               now, -1, parked, purged_ - purged_before);
  }
#endif
}

void FabricManager::step(Cycle now) {
  switch (phase_) {
    case Phase::kStable:
      if (dirty_ && now >= next_allowed_) begin_reconfig(now);
      break;
    case Phase::kDraining:
      if (net_->in_flight_empty()) {
        phase_ = Phase::kComputing;
        phase_end_ = now + cfg_.phase1_latency;
      }
      break;
    case Phase::kComputing:
      if (now >= phase_end_) {
        apply(now);
        phase_ = Phase::kWaking;
        phase_end_ = now + net_->params().wakeup_latency;
      }
      break;
    case Phase::kWaking:
      if (now >= phase_end_) {
        phase_ = Phase::kStable;
        last_duration_ = now - reconfig_start_;
        next_allowed_ = now + cfg_.min_epoch_gap;
        reconfigs_++;
        FLOV_TRACE(telemetry::kTraceEpoch,
                   telemetry::TraceEventType::kEpochComplete, now, -1,
                   reconfigs_, last_duration_);
        for (NodeId i = 0; i < net_->num_nodes(); ++i) {
          net_->ni(i).set_injection_stalled(false);
        }
      }
      break;
  }
}

}  // namespace flov
