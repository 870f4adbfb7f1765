#include "noc/system_iface.hpp"

#include "fault/fault_wiring.hpp"
#include "noc/router.hpp"

namespace flov {

NocSystem::NocSystem(const NocParams& params, const EnergyParams& energy,
                     bool flov_hardware)
    : params_(params),
      geom_(params.width, params.height),
      power_(std::make_unique<PowerTracker>(geom_, energy, flov_hardware)) {}

NocSystem::~NocSystem() = default;

void NocSystem::build_network(RoutingFunction* routing,
                              const FaultParams& faults) {
  net_ = std::make_unique<Network>(params_, routing, power_.get());
  core_gated_.assign(geom_.num_nodes(), 0);
  dead_mask_.assign(geom_.num_nodes(), 0);
  fault_ = arm_faults(*net_, faults);
}

int NocSystem::gated_router_count() const {
  int n = 0;
  for (NodeId id = 0; id < net_->num_nodes(); ++id) {
    const std::optional<PowerState> s = power_state(id);
    n += s == PowerState::kSleep || s == PowerState::kWakeup;
  }
  return n;
}

void NocSystem::dump_state(Cycle now) const {
  for (NodeId id = 0; id < net_->num_nodes(); ++id) {
    const Router& r = net_->router(id);
    if (!r.completely_empty()) r.dump_occupancy(now);
  }
}

std::vector<char> NocSystem::kill_fated_routers(
    Cycle now, const std::vector<bool>& exempt) {
  std::vector<char> dead_links;
  dead_links_ = mark_dead_links(*net_, *fault_, dead_links);
  for (NodeId id = 0; id < net_->num_nodes(); ++id) {
    if (!fault_->router_dies(id) || (!exempt.empty() && exempt[id])) continue;
    dead_mask_[id] = 1;
    core_gated_[id] = 1;  // the attached core is gone with its router
    // An instant black hole would strand tail-less fragments downstream;
    // routing keeps pointing at the corpse until the scheme reroutes (RP's
    // survival reconfiguration) or for good (Baseline).
    net_->router(id).begin_death(now);
    net_->ni(id).kill(now);
    net_->wake_router(id);
  }
  return dead_links;
}

void NocSystem::publish_fault_metrics(telemetry::MetricsRegistry& reg) const {
  if (!fault_) return;
  const FaultInjector::Counters& f = fault_->counters();
  reg.counter("fault.flits_dropped") += f.flits_dropped;
  reg.counter("fault.flits_delayed") += f.flits_delayed;
  if (fault_->hard_at() > 0) {
    reg.counter("fault.hard_killed_flits") += f.hard_killed;
    reg.gauge("fault.dead_routers") = static_cast<double>(dead_router_count());
    reg.gauge("fault.dead_links") = static_cast<double>(dead_links_);
  }
}

}  // namespace flov
