#include "rp/rp_network.hpp"

#include "telemetry/metrics.hpp"

namespace flov {

RpNetwork::RpNetwork(NocParams params, const EnergyParams& energy,
                     FabricManagerConfig fm_cfg, std::vector<bool> always_on,
                     const FaultParams& faults)
    : NocSystem(params, energy, /*flov_hardware=*/false),
      routing_(std::make_unique<TableRouting>(geom_)) {
  params_.enable_escape_diversion = false;  // up*/down* is deadlock-free
  build_network(routing_.get(), faults);
  if (always_on.empty()) always_on.assign(geom_.num_nodes(), false);
  always_on_ = always_on;
  fm_ = std::make_unique<FabricManager>(net_.get(), routing_.get(), fm_cfg,
                                        std::move(always_on), &core_gated_);
}

void RpNetwork::step(Cycle now) {
  if (hard_faults_due(now)) {
    // Always-on routers anchor the surviving up*/down* component; the FM's
    // next epoch excludes the corpses and the dead links.
    const std::vector<char> dead_links = kill_fated_routers(now, always_on_);
    fm_->on_hard_fault(dead_mask_, dead_links, now);
  }
  // The FM steps FIRST: a gating change reported this cycle must assert
  // the injection stall before any NI starts a packet under stale tables
  // (e.g. toward a just-reactivated core whose router is still parked).
  fm_->step(now);
  net_->step(now);
}

int RpNetwork::parked_router_count() const {
  int n = 0;
  for (NodeId i = 0; i < geom_.num_nodes(); ++i) {
    if (!fm_->router_powered(i)) ++n;
  }
  return n;
}

void RpNetwork::publish_metrics(telemetry::MetricsRegistry& reg,
                                Cycle /*now*/) const {
  reg.counter("rp.reconfigurations") += fm_->reconfigurations();
  reg.counter("rp.purged_packets") += fm_->purged_packets();
  reg.gauge("rp.parked_routers") = static_cast<double>(parked_router_count());
  reg.gauge("rp.last_reconfig_duration") =
      static_cast<double>(fm_->last_reconfig_duration());
  publish_fault_metrics(reg);
  if (fault_ && fault_->hard_at() > 0) {
    reg.counter("rp.quarantined") += fm_->quarantined();
  }
}

}  // namespace flov
