// Router Parking's centralized Fabric Manager (FM).
//
// Whenever the core power configuration changes, the FM runs the epoch
// reconfiguration protocol the FLOV paper measures in Fig. 10:
//   1. stall every NI (no NEW packet injections network-wide; queued
//      packets keep aging — that queuing delay is the latency spike),
//   2. wait until all in-flight traffic drains under the OLD configuration,
//   3. spend Phase-I latency (>700 cycles on an 8x8: route computation at
//      the FM plus routing-table distribution to every router),
//   4. atomically apply the new parked set and up*/down* tables, then wait
//      the router wakeup latency for newly un-parked routers,
//   5. release the stall.
#pragma once

#include <memory>
#include <vector>

#include "common/geometry.hpp"
#include "common/types.hpp"
#include "noc/network.hpp"
#include "routing/table_routing.hpp"
#include "rp/parking_policy.hpp"

namespace flov {

struct FabricManagerConfig {
  Cycle phase1_latency = 750;   ///< route compute + table distribution
  Cycle wakeup_latency = 10;    ///< un-parked router power-on time
  RpPolicy policy = RpPolicy::kAggressive;
  /// Minimum spacing between reconfigurations. RP operates in epochs; the
  /// full-system runs use a non-zero gap so per-core sleep events batch
  /// into one reconfiguration instead of stalling the network repeatedly.
  Cycle min_epoch_gap = 0;
};

class FabricManager {
 public:
  /// `core_gated` is the owning system's core-gated mask (NocSystem):
  /// the FM writes OS events, dead nodes and quarantines into it and parks
  /// routers from it.
  FabricManager(Network* net, TableRouting* routing,
                FabricManagerConfig cfg, std::vector<bool> always_on,
                std::vector<std::uint8_t>* core_gated);

  /// OS event: core gating configuration changed.
  void set_core_gated(NodeId core, bool gated, Cycle now);

  /// Hard-fault notification (PROTOCOL.md §8): the listed routers/links
  /// died permanently. Dead routers are excluded from every future parked
  /// set and up*/down* graph; live routers the deaths disconnect from the
  /// surviving root component are quarantined (NI killed, core treated as
  /// gated, router parked) at the next apply. Schedules an immediate
  /// reconfiguration, bypassing the epoch gap.
  void on_hard_fault(const std::vector<char>& dead_routers,
                     const std::vector<char>& dead_links, Cycle now);
  bool router_dead(NodeId id) const {
    return !dead_routers_.empty() && dead_routers_[id] != 0;
  }

  void step(Cycle now);

  /// Adjusts the epoch batching interval at run time (full-system runs).
  void set_min_epoch_gap(Cycle gap) { cfg_.min_epoch_gap = gap; }

  /// True while the network-wide injection stall is in force.
  bool stalled() const { return phase_ != Phase::kStable; }
  bool router_powered(NodeId id) const { return powered_[id]; }

  // Stats.
  std::uint64_t reconfigurations() const { return reconfigs_; }
  std::uint64_t purged_packets() const { return purged_; }
  Cycle last_reconfig_duration() const { return last_duration_; }
  /// Live routers parked + sealed because hard faults disconnected them.
  std::uint64_t quarantined() const { return quarantined_; }

 private:
  enum class Phase { kStable, kDraining, kComputing, kWaking };

  void begin_reconfig(Cycle now);
  void apply(Cycle now);

  Network* net_;
  TableRouting* routing_;
  FabricManagerConfig cfg_;
  std::vector<bool> always_on_;
  std::vector<std::uint8_t>& core_gated_;  ///< the system's mask (borrowed)
  std::vector<bool> powered_;

  Phase phase_ = Phase::kStable;
  bool dirty_ = false;
  Cycle phase_end_ = 0;
  Cycle reconfig_start_ = 0;
  Cycle next_allowed_ = 0;

  std::uint64_t reconfigs_ = 0;
  std::uint64_t purged_ = 0;
  Cycle last_duration_ = 0;
  /// Hard-fault state (empty until on_hard_fault).
  std::vector<char> dead_routers_;
  std::vector<char> dead_links_;
  std::uint64_t quarantined_ = 0;
};

}  // namespace flov
