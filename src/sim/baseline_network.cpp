#include "sim/baseline_network.hpp"

#include "fault/fault_wiring.hpp"
#include "noc/router.hpp"

namespace flov {

BaselineNetwork::BaselineNetwork(NocParams params, const EnergyParams& energy,
                                 const FaultParams& faults)
    : params_(params), geom_(params.width, params.height) {
  params_.enable_escape_diversion = false;  // YX is deadlock-free
  power_ = std::make_unique<PowerTracker>(geom_, energy,
                                          /*flov_hardware=*/false);
  routing_ = std::make_unique<YxRouting>(geom_);
  net_ = std::make_unique<Network>(params_, routing_.get(), power_.get());
  core_gated_.assign(geom_.num_nodes(), 0);
  dead_mask_.assign(geom_.num_nodes(), 0);
  if (faults.any()) {
    fault_ = std::make_unique<FaultInjector>(faults, net_->num_nodes());
    arm_link_faults(*net_, *fault_);
    for (NodeId id = 0; id < net_->num_nodes(); ++id) {
      net_->router(id).set_kill_callback(
          [f = fault_.get(), n = net_.get(), id](const Flit& fl) {
            f->note_hard_killed(fl);
            n->note_flit_dropped(id);
          });
    }
  }
}

void BaselineNetwork::step(Cycle now) {
  if (hard_faults_due(now)) apply_hard_faults(now);
  net_->step(now);
}

void BaselineNetwork::apply_hard_faults(Cycle now) {
  std::vector<char> dead_links;
  dead_links_ = mark_dead_links(*net_, *fault_, dead_links);
  for (NodeId id = 0; id < net_->num_nodes(); ++id) {
    if (!fault_->router_dies(id)) continue;
    dead_mask_[id] = 1;
    core_gated_[id] = 1;  // the attached core is gone with its router
    // Worm-coherent death: finish worms in progress, eat new ones whole,
    // then go dark (see Router::begin_death).
    net_->router(id).begin_death(now);
    net_->ni(id).kill(now);
    net_->wake_router(id);
  }
}

}  // namespace flov
