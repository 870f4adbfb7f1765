#include "sim/baseline_network.hpp"

namespace flov {

BaselineNetwork::BaselineNetwork(NocParams params, const EnergyParams& energy,
                                 const FaultParams& faults)
    : NocSystem(params, energy, /*flov_hardware=*/false),
      routing_(std::make_unique<YxRouting>(geom_)) {
  params_.enable_escape_diversion = false;  // YX is deadlock-free
  build_network(routing_.get(), faults);
}

void BaselineNetwork::step(Cycle now) {
  if (hard_faults_due(now)) kill_fated_routers(now, /*exempt=*/{});
  net_->step(now);
}

}  // namespace flov
