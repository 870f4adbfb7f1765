// FLOV handshake-protocol tests: power-state FSM transitions, rFLOV
// adjacency restriction, gFLOV consecutive gating, arbitration, wakeup
// triggers, credit handover, and PSR consistency.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fault/fault_model.hpp"
#include "flov/flov_network.hpp"
#include "noc/noc_params.hpp"

namespace flov {
namespace {

NocParams small_params() {
  NocParams p;
  p.width = 4;
  p.height = 4;
  p.drain_idle_threshold = 8;
  return p;
}

struct Harness {
  explicit Harness(FlovMode mode, NocParams p = small_params())
      : sys(p, mode, EnergyParams{}) {
    sys.network().set_eject_callback(
        [this](const PacketRecord& r) { records.push_back(r); });
  }

  void run(Cycle cycles) {
    for (Cycle i = 0; i < cycles; ++i) sys.step(now++);
  }

  PowerState state(NodeId n) const { return sys.hsc(n).state(); }

  FlovNetwork sys;
  Cycle now = 0;
  std::vector<PacketRecord> records;
};

PacketDescriptor pkt(NodeId s, NodeId d, int size = 4) {
  PacketDescriptor p;
  p.src = s;
  p.dest = d;
  p.size_flits = size;
  return p;
}

TEST(FlovFsm, IdleGatedRouterDrainsThenSleeps) {
  Harness h(FlovMode::kGeneralized);
  h.sys.set_core_gated(5, true, 0);
  h.run(100);
  EXPECT_EQ(h.state(5), PowerState::kSleep);
  EXPECT_EQ(h.sys.network().router(5).mode(), RouterMode::kBypass);
  EXPECT_EQ(h.sys.hsc(5).sleep_entries(), 1u);
}

TEST(FlovFsm, UngatedCoreStaysActive) {
  Harness h(FlovMode::kGeneralized);
  h.run(100);
  for (NodeId n = 0; n < 16; ++n) {
    EXPECT_EQ(h.state(n), PowerState::kActive) << n;
  }
}

TEST(FlovFsm, AonColumnNeverGates) {
  Harness h(FlovMode::kGeneralized);
  for (NodeId n : {3, 7, 11, 15}) h.sys.set_core_gated(n, true, 0);
  h.run(200);
  for (NodeId n : {3, 7, 11, 15}) {
    EXPECT_EQ(h.state(n), PowerState::kActive) << n;
  }
}

TEST(FlovFsm, CornerCanGateAndIsolates) {
  Harness h(FlovMode::kGeneralized);
  h.sys.set_core_gated(0, true, 0);
  h.run(100);
  EXPECT_EQ(h.state(0), PowerState::kSleep);
}

TEST(FlovFsm, CoreWakeRestoresActive) {
  Harness h(FlovMode::kGeneralized);
  h.sys.set_core_gated(5, true, 0);
  h.run(100);
  ASSERT_EQ(h.state(5), PowerState::kSleep);
  h.sys.set_core_gated(5, false, h.now);
  h.run(100);
  EXPECT_EQ(h.state(5), PowerState::kActive);
  EXPECT_EQ(h.sys.network().router(5).mode(), RouterMode::kPipeline);
  EXPECT_EQ(h.sys.hsc(5).wake_completions(), 1u);
}

TEST(FlovFsm, WakeupTakesAtLeastWakeupLatency) {
  Harness h(FlovMode::kGeneralized);
  h.sys.set_core_gated(5, true, 0);
  h.run(100);
  const Cycle wake_start = h.now;
  h.sys.set_core_gated(5, false, h.now);
  Cycle active_at = 0;
  for (int i = 0; i < 200 && active_at == 0; ++i) {
    h.run(1);
    if (h.state(5) == PowerState::kActive) active_at = h.now;
  }
  ASSERT_GT(active_at, 0u);
  EXPECT_GE(active_at - wake_start, small_params().wakeup_latency);
}

TEST(FlovRestricted, AdjacentRoutersNeverBothSleep) {
  Harness h(FlovMode::kRestricted);
  // Gate two adjacent cores; only one may sleep (smaller id wins races).
  h.sys.set_core_gated(5, true, 0);
  h.sys.set_core_gated(6, true, 0);
  h.run(300);
  const bool s5 = h.state(5) == PowerState::kSleep;
  const bool s6 = h.state(6) == PowerState::kSleep;
  EXPECT_TRUE(s5 || s6);
  EXPECT_FALSE(s5 && s6) << "rFLOV slept two adjacent routers";
}

TEST(FlovRestricted, CheckerboardAllSleeps) {
  Harness h(FlovMode::kRestricted);
  // Non-adjacent set: 0, 2, 8, 10 (plus AON-excluded ones ignored).
  for (NodeId n : {0, 2, 8, 10}) h.sys.set_core_gated(n, true, 0);
  h.run(400);
  for (NodeId n : {0, 2, 8, 10}) {
    EXPECT_EQ(h.state(n), PowerState::kSleep) << n;
  }
}

TEST(FlovGeneralized, ConsecutiveRoutersSleep) {
  Harness h(FlovMode::kGeneralized);
  // A full run in a row: 4, 5, 6 (AON column 7 excluded).
  for (NodeId n : {4, 5, 6}) h.sys.set_core_gated(n, true, 0);
  h.run(600);
  for (NodeId n : {4, 5, 6}) {
    EXPECT_EQ(h.state(n), PowerState::kSleep) << n;
  }
}

TEST(FlovGeneralized, LogicalNeighborsUpdatedAcrossSleepingRun) {
  Harness h(FlovMode::kGeneralized);
  for (NodeId n : {5, 6}) h.sys.set_core_gated(n, true, 0);
  h.run(600);
  ASSERT_EQ(h.state(5), PowerState::kSleep);
  ASSERT_EQ(h.state(6), PowerState::kSleep);
  // Router 4's logical East neighbor must now be the AON router 7.
  EXPECT_EQ(h.sys.network().router(4).view().logical[dir_index(Direction::East)],
            7);
  // And router 7's logical West neighbor must be 4.
  EXPECT_EQ(h.sys.network().router(7).view().logical[dir_index(Direction::West)],
            4);
}

TEST(FlovFsm, DrainAbortsWhenCoreReactivatesQuickly) {
  Harness h(FlovMode::kGeneralized);
  h.sys.set_core_gated(5, true, 0);
  // Let it reach Draining, then flip the core back on.
  for (int i = 0; i < 500 && h.state(5) != PowerState::kDraining; ++i) {
    h.run(1);
  }
  ASSERT_EQ(h.state(5), PowerState::kDraining);
  h.sys.set_core_gated(5, false, h.now);
  h.run(50);
  EXPECT_EQ(h.state(5), PowerState::kActive);
  EXPECT_EQ(h.sys.hsc(5).sleep_entries(), 0u);
  EXPECT_GE(h.sys.hsc(5).drain_aborts(), 1u);
}

TEST(FlovFsm, PacketToSleepingDestinationWakesIt) {
  Harness h(FlovMode::kGeneralized);
  h.sys.set_core_gated(5, true, 0);
  h.run(100);
  ASSERT_EQ(h.state(5), PowerState::kSleep);
  // Send a packet to the sleeping core; hold-for-wakeup must wake router 5
  // and deliver.
  h.sys.network().enqueue(pkt(4, 5));
  h.run(300);
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].dest, 5);
  EXPECT_EQ(h.sys.hsc(5).wake_completions(), 1u);
}

TEST(FlovFsm, PacketAcrossSleepingRunToSleepingDestWakesOnlyDest) {
  Harness h(FlovMode::kGeneralized);
  for (NodeId n : {4, 5, 6}) h.sys.set_core_gated(n, true, 0);
  h.run(600);
  for (NodeId n : {4, 5, 6}) ASSERT_EQ(h.state(n), PowerState::kSleep) << n;
  // Packet from AON router 7 to router 4 (far end of the sleeping run):
  // destination 4 must wake; 5 and 6 stay asleep and fly the flits over.
  h.sys.network().enqueue(pkt(7, 4));
  h.run(400);
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].dest, 4);
  EXPECT_GT(h.records[0].flov_hops, 0);
  EXPECT_EQ(h.state(5), PowerState::kSleep);
  EXPECT_EQ(h.state(6), PowerState::kSleep);
}

TEST(FlovFsm, SleepingRouterFliesTrafficOver) {
  Harness h(FlovMode::kGeneralized);
  h.sys.set_core_gated(5, true, 0);
  h.run(100);
  ASSERT_EQ(h.state(5), PowerState::kSleep);
  // 4 -> 6 crosses sleeping router 5 on a straight X path.
  h.sys.network().enqueue(pkt(4, 6));
  h.run(200);
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].flov_hops, 1);
  EXPECT_EQ(h.state(5), PowerState::kSleep);  // undisturbed
  EXPECT_GT(h.sys.network().router(5).flits_flown_over(), 0u);
}

TEST(FlovFsm, TrafficThroughDrainingRouterCompletesBeforeSleep) {
  Harness h(FlovMode::kGeneralized);
  // Keep a packet stream crossing router 5, then gate its core mid-stream.
  for (int i = 0; i < 10; ++i) h.sys.network().enqueue(pkt(4, 6));
  h.run(5);
  h.sys.set_core_gated(5, true, h.now);
  h.run(1500);
  EXPECT_EQ(h.records.size(), 10u);
  EXPECT_EQ(h.state(5), PowerState::kSleep);
}

TEST(FlovFsm, GatingTransitionsAreCountedForEnergy) {
  Harness h(FlovMode::kGeneralized);
  const auto before = h.sys.power().event_count(EnergyEvent::kPgTransition);
  h.sys.set_core_gated(5, true, 0);
  h.run(100);
  EXPECT_EQ(h.sys.power().event_count(EnergyEvent::kPgTransition),
            before + 1);
}

TEST(FlovFsm, SimultaneousAdjacentDrainArbitratedBySmallerId) {
  Harness h(FlovMode::kRestricted);
  // Gate both at the same cycle; their drain attempts race repeatedly.
  h.sys.set_core_gated(9, true, 0);
  h.sys.set_core_gated(10, true, 0);
  h.run(60);
  // At any sampled point, never both asleep.
  for (int i = 0; i < 200; ++i) {
    h.run(1);
    const bool s9 = h.state(9) == PowerState::kSleep;
    const bool s10 = h.state(10) == PowerState::kSleep;
    ASSERT_FALSE(s9 && s10);
  }
}

TEST(FlovFsm, ReSleepAfterWakeup) {
  Harness h(FlovMode::kGeneralized);
  h.sys.set_core_gated(5, true, 0);
  h.run(100);
  ASSERT_EQ(h.state(5), PowerState::kSleep);
  // Wake via packet, then it should re-drain on its own (core still off).
  h.sys.network().enqueue(pkt(6, 5));
  h.run(600);
  EXPECT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.state(5), PowerState::kSleep);
  EXPECT_GE(h.sys.hsc(5).sleep_entries(), 2u);
}

TEST(FlovFsm, GatedCountReflectsSleepers) {
  Harness h(FlovMode::kGeneralized);
  for (NodeId n : {0, 5, 10}) h.sys.set_core_gated(n, true, 0);
  h.run(400);
  EXPECT_EQ(h.sys.gated_router_count(), 3);
}

class GFlovColumnRuns : public ::testing::TestWithParam<int> {};

TEST_P(GFlovColumnRuns, WholeColumnSleepsAndColumnTrafficDelivers) {
  const int col = GetParam();
  NocParams p = small_params();
  Harness h(FlovMode::kGeneralized, p);
  // Gate the whole column (4 routers); all should sleep in gFLOV.
  for (int y = 0; y < 4; ++y) {
    h.sys.set_core_gated(MeshGeometry(4, 4).id(col, y), true, 0);
  }
  h.run(800);
  int sleeping = 0;
  for (int y = 0; y < 4; ++y) {
    if (h.state(MeshGeometry(4, 4).id(col, y)) == PowerState::kSleep) {
      ++sleeping;
    }
  }
  EXPECT_EQ(sleeping, 4);
  // Row traffic flying across the sleeping column still delivers.
  const MeshGeometry g(4, 4);
  const NodeId west = g.id(col - 1, 1);
  const NodeId east = g.id(col + 1, 1);
  h.sys.network().enqueue(pkt(west, east));
  h.run(300);
  EXPECT_EQ(h.records.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Columns, GFlovColumnRuns, ::testing::Values(1, 2));

// --- HSC wake list: FlovNetwork steps only HSCs that are not dormant ---

/// Everything a step could change about HSC `id` and its PSRs.
std::string hsc_snapshot(const FlovNetwork& sys, NodeId id, Cycle now) {
  const HandshakeController& c = sys.hsc(id);
  const NeighborhoodView& v = sys.network().router(id).view();
  std::ostringstream os;
  os << to_string(c.state()) << c.core_gated() << c.wakeup_pending()
     << c.dead() << ' ' << c.sleep_entries() << ' ' << c.wake_completions()
     << ' ' << c.drain_aborts() << ' ' << c.hs_resends() << ' '
     << c.psr_block_clears() << ' ' << c.sleep_cycles(now);
  for (int d = 0; d < kNumMeshDirs; ++d) {
    os << ' ' << to_string(v.physical[d]) << v.logical[d]
       << to_string(v.logical_state[d]) << v.output_blocked[d];
  }
  return os.str();
}

TEST(FlovWakeList, SteppingADormantHscIsANoOp) {
  NocParams p = small_params();
  p.psr_block_timeout = 64;  // a set block would keep its HSC live
  Harness h(FlovMode::kGeneralized, p);
  h.sys.set_core_gated(5, true, 0);  // sleeps
  h.sys.set_core_gated(7, true, 0);  // AON column: gated but stays Active
  h.sys.hsc(0).kill(0);              // dead: drains, then sleeps for good
  h.run(400);
  ASSERT_EQ(h.state(5), PowerState::kSleep);
  ASSERT_EQ(h.state(0), PowerState::kSleep);
  ASSERT_EQ(h.state(7), PowerState::kActive);
  for (NodeId id = 0; id < 16; ++id) {
    ASSERT_FALSE(h.sys.hsc_live(id)) << id;
    ASSERT_TRUE(h.sys.hsc(id).dormant()) << id;
    const std::string before = hsc_snapshot(h.sys, id, h.now);
    const auto signals =
        h.sys.power().event_count(EnergyEvent::kHandshakeSignal);
    h.sys.hsc(id).step(h.now);
    EXPECT_EQ(h.sys.power().event_count(EnergyEvent::kHandshakeSignal),
              signals)
        << id;
    EXPECT_EQ(hsc_snapshot(h.sys, id, h.now), before) << id;
  }
}

TEST(FlovWakeList, TimersAndReliableRefillKeepASleeperLive) {
  for (const bool reliable : {false, true}) {
    NocParams p = small_params();
    if (reliable) {
      p.reliable = true;
    } else {
      p.sleep_reannounce_interval = 128;
    }
    Harness h(FlovMode::kGeneralized, p);
    h.sys.set_core_gated(5, true, 0);
    h.run(400);
    ASSERT_EQ(h.state(5), PowerState::kSleep);
    EXPECT_TRUE(h.sys.hsc_live(5)) << reliable;
    EXPECT_FALSE(h.sys.hsc(5).dormant()) << reliable;
  }
}

TEST(FlovWakeList, EachReArmEventMakesTheHscLive) {
  Harness h(FlovMode::kGeneralized);
  h.sys.set_core_gated(5, true, 0);
  h.run(300);
  for (NodeId id = 0; id < 16; ++id) ASSERT_FALSE(h.sys.hsc_live(id)) << id;

  h.sys.set_core_gated(6, true, h.now);
  EXPECT_TRUE(h.sys.hsc_live(6));
  h.sys.set_core_gated(6, false, h.now);
  h.run(1);
  EXPECT_FALSE(h.sys.hsc_live(6));

  HsMessage m;  // node 10 announcing itself to its north neighbor 6
  m.type = HsType::kActiveNotify;
  m.from = 10;
  m.travel = Direction::North;
  m.target = 6;
  h.sys.hsc(6).on_signal(m, h.now);
  EXPECT_TRUE(h.sys.hsc_live(6));
  h.run(1);
  EXPECT_FALSE(h.sys.hsc_live(6));

  h.sys.hsc(5).trigger_wakeup(h.now);
  EXPECT_TRUE(h.sys.hsc_live(5));
  h.run(600);  // wakes, then re-drains: its core is still gated
  EXPECT_EQ(h.state(5), PowerState::kSleep);
  EXPECT_EQ(h.sys.hsc(5).wake_completions(), 1u);
  EXPECT_FALSE(h.sys.hsc_live(5));

  h.sys.hsc(12).kill(h.now);
  EXPECT_TRUE(h.sys.hsc_live(12));
  h.run(300);
  EXPECT_EQ(h.state(12), PowerState::kSleep);
  EXPECT_FALSE(h.sys.hsc_live(12));
}

// refresh_view rewrites PSRs from outside the HSC. Every signal is lost
// here, so router 5's neighbors never hear of its drain and go dormant
// with clear PSRs; the recovery scrub then blocks their outputs toward
// the drainer, and only refresh_view's mark gets them stepped again to
// time that block out. The drainer's own recovery_kick keeps it live.
TEST(FlovWakeList, RecoveryRefreshAndKickReArm) {
  NocParams p = small_params();
  p.psr_block_timeout = 4096;
  FaultParams f;
  f.signal_drop_rate = 1.0;
  FlovNetwork sys(p, FlovMode::kGeneralized, EnergyParams{}, f);
  sys.set_core_gated(5, true, 0);
  Cycle now = 0;
  for (; now < 40; ++now) sys.step(now);
  ASSERT_EQ(sys.hsc(5).state(), PowerState::kDraining);
  const NodeId west = 4;  // router 5's west neighbor
  ASSERT_FALSE(sys.hsc_live(west));
  ASSERT_FALSE(sys.network().router(west).view().blocked(Direction::East));
  const auto resends = sys.hsc(5).hs_resends();

  sys.attempt_recovery(now);
  EXPECT_TRUE(sys.network().router(west).view().blocked(Direction::East));
  EXPECT_TRUE(sys.hsc_live(west));
  EXPECT_FALSE(sys.hsc(west).dormant());
  EXPECT_TRUE(sys.hsc_live(5));
  EXPECT_GT(sys.hsc(5).hs_resends(), resends);
  sys.step(now);
  EXPECT_TRUE(sys.hsc_live(west));
}

}  // namespace
}  // namespace flov
