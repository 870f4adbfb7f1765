// Router Parking system: mesh network + table routing + fabric manager.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "fault/fault_injector.hpp"
#include "noc/network.hpp"
#include "noc/system_iface.hpp"
#include "power/power_tracker.hpp"
#include "routing/table_routing.hpp"
#include "rp/fabric_manager.hpp"

namespace flov {

class RpNetwork final : public NocSystem {
 public:
  /// `always_on`: routers that may never park (empty = none). RP hardware
  /// has no FLOV latches, so routers pay no FLOV leakage overhead and the
  /// escape-diversion mechanism is disabled (up*/down* is deadlock-free).
  /// `faults`: optional fault model. RP has no handshake fabric, so only
  /// the flit-link fates apply (transient drop/delay + hard link/router
  /// deaths); always-on routers are exempt from hard router death (they
  /// anchor the surviving up*/down* component, mirroring FLOV's AON-column
  /// exemption).
  RpNetwork(NocParams params, const EnergyParams& energy,
            FabricManagerConfig fm_cfg = {},
            std::vector<bool> always_on = {},
            const FaultParams& faults = {});

  void step(Cycle now) override;
  void set_core_gated(NodeId core, bool gated, Cycle now) override {
    fm_->set_core_gated(core, gated, now);
  }
  bool injection_allowed(NodeId src) const override {
    return !core_gated(src) && !fm_->stalled();
  }
  Network& network() override { return *net_; }
  const Network& network() const override { return *net_; }
  const char* name() const override { return "RP"; }

  PowerTracker& power() { return *power_; }
  const PowerTracker& power() const { return *power_; }
  FabricManager& fabric_manager() { return *fm_; }
  const FabricManager& fabric_manager() const { return *fm_; }

  int parked_router_count() const;

  /// Registers/updates the fabric-manager metrics ("rp.*") in `reg`. They
  /// are end-of-run state only, so `now` is unused.
  void publish_metrics(telemetry::MetricsRegistry& reg,
                       Cycle now = 0) const override;

 private:
  /// Applies the armed hard faults once, at fault.hard_at_cycle: fate-hashed
  /// routers turn kDead (flit black holes) with their NIs sealed, and the
  /// FM is notified so its next epoch excludes the corpses and dead links.
  void apply_hard_faults(Cycle now);

  NocParams params_;
  MeshGeometry geom_;
  std::unique_ptr<PowerTracker> power_;
  std::unique_ptr<TableRouting> routing_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<FabricManager> fm_;
  std::vector<bool> always_on_;
};

}  // namespace flov
