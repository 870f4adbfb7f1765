// Credit-handover and FLOV-datapath timing tests: the Fig. 3 credit
// machinery — zero/copy at Sleep, relay across sleeping runs, full-reset at
// wakeup — plus fly-over per-hop latency.
#include <gtest/gtest.h>

#include "flov/flov_network.hpp"

namespace flov {
namespace {

NocParams params4() {
  NocParams p;
  p.width = 4;
  p.height = 4;
  p.drain_idle_threshold = 8;
  return p;
}

struct Harness {
  explicit Harness(FlovMode mode = FlovMode::kGeneralized)
      : sys(params4(), mode, EnergyParams{}) {
    sys.network().set_eject_callback(
        [this](const PacketRecord& r) { records.push_back(r); });
  }
  void run(int cycles) {
    for (int i = 0; i < cycles; ++i) sys.step(now++);
  }
  void gate(NodeId n) { sys.set_core_gated(n, true, now); }
  void sleep_and_settle(std::initializer_list<NodeId> nodes, int cycles) {
    for (NodeId n : nodes) gate(n);
    run(cycles);
    for (NodeId n : nodes) {
      ASSERT_EQ(sys.hsc(n).state(), PowerState::kSleep) << n;
    }
  }

  /// Enqueues a packet stamped with the current cycle as generation time.
  void send(NodeId s, NodeId d, int size = 4) {
    PacketDescriptor p;
    p.src = s;
    p.dest = d;
    p.size_flits = size;
    p.gen_cycle = now;
    sys.network().enqueue(p);
  }

  FlovNetwork sys;
  Cycle now = 0;
  std::vector<PacketRecord> records;
};

TEST(FlovCredits, UpstreamTracksLogicalDownstreamAfterSleep) {
  Harness h;
  h.sleep_and_settle({5}, 200);
  // Router 4's East output credits must equal router 6's (empty) buffers.
  const auto& port = h.sys.network().router(4).output_port(Direction::East);
  for (const int credits : port.credits) {
    EXPECT_EQ(credits, params4().buffer_depth);
  }
  for (const auto& ovc : port.vcs) EXPECT_FALSE(ovc.allocated);
}

TEST(FlovCredits, CreditsReturnAfterTrafficAcrossSleeper) {
  Harness h;
  h.sleep_and_settle({5}, 200);
  for (int i = 0; i < 8; ++i) h.send(4, 6);
  h.run(500);
  ASSERT_EQ(h.records.size(), 8u);
  // Steady state restored: full credits again at the upstream.
  const auto& port = h.sys.network().router(4).output_port(Direction::East);
  for (const int credits : port.credits) {
    EXPECT_EQ(credits, params4().buffer_depth);
  }
}

TEST(FlovCredits, FlyOverHopCostsTwoCyclesVsFourForPipeline) {
  // 4 -> 6 with router 5 powered vs asleep: per-hop 4 cycles becomes
  // 1 latch + 1 link = 2 cycles.
  Harness powered;
  powered.send(4, 6, 1);
  powered.run(60);
  ASSERT_EQ(powered.records.size(), 1u);
  const Cycle base = powered.records[0].total_latency();

  Harness gated;
  gated.sleep_and_settle({5}, 200);
  gated.send(4, 6, 1);
  gated.run(60);
  ASSERT_EQ(gated.records.size(), 1u);
  const Cycle flov = gated.records[0].total_latency();
  EXPECT_EQ(base - flov, 2u);
  EXPECT_EQ(gated.records[0].flov_hops, 1);
  EXPECT_EQ(gated.records[0].router_hops, 2);
}

TEST(FlovCredits, LongSleepingRunLatencyScalesWithLatchCycles) {
  // Row 1 of the 4x4 mesh: routers 4,5,6,7 — gate 5 and 6 (gFLOV run).
  Harness h;
  h.sleep_and_settle({5, 6}, 600);
  h.send(4, 7, 1);
  h.run(80);
  ASSERT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].flov_hops, 2);
  // 2 powered routers (4,7): 2*3 cycles; 3 links; 2 latches; +2 NI chans.
  EXPECT_EQ(h.records[0].total_latency(), 6u + 3u + 2u + 2u);
}

TEST(FlovCredits, BackpressureAcrossSleepingRun) {
  // Saturate the path 4 -> 7 across two sleepers; credits must throttle
  // without buffer overflow (router asserts fire otherwise), and all
  // packets arrive.
  Harness h;
  h.sleep_and_settle({5, 6}, 600);
  for (int i = 0; i < 30; ++i) h.send(4, 7);
  h.run(2000);
  EXPECT_EQ(h.records.size(), 30u);
}

TEST(FlovCredits, WakeupRestoresFullCreditsUpstream) {
  Harness h;
  h.sleep_and_settle({5}, 200);
  // Wake it via core reactivation.
  h.sys.set_core_gated(5, false, h.now);
  h.run(200);
  ASSERT_EQ(h.sys.hsc(5).state(), PowerState::kActive);
  const auto& p4 = h.sys.network().router(4).output_port(Direction::East);
  for (const int credits : p4.credits) {
    EXPECT_EQ(credits, params4().buffer_depth);
  }
  // And router 5's own credits track router 6.
  const auto& p5 = h.sys.network().router(5).output_port(Direction::East);
  for (const int credits : p5.credits) {
    EXPECT_EQ(credits, params4().buffer_depth);
  }
  // Traffic flows normally again.
  h.send(4, 6);
  h.run(100);
  EXPECT_EQ(h.records.size(), 1u);
  EXPECT_EQ(h.records[0].flov_hops, 0);
}

TEST(FlovCredits, MidStreamGatingPreservesEveryFlit) {
  // Continuous traffic across router 5 while it is gated and later woken:
  // nothing may be lost or duplicated.
  Harness h;
  int sent = 0;
  for (int burst = 0; burst < 4; ++burst) {
    for (int i = 0; i < 5; ++i) {
      h.send(4, 6);
      ++sent;
    }
    if (burst == 0) h.gate(5);
    if (burst == 2) h.sys.set_core_gated(5, false, h.now);
    h.run(400);
  }
  h.run(1000);
  EXPECT_EQ(static_cast<int>(h.records.size()), sent);
  EXPECT_EQ(h.sys.network().total_injected_flits(),
            h.sys.network().total_ejected_flits());
}

TEST(FlovCredits, CreditRelayEventsAreCounted) {
  Harness h;
  h.sleep_and_settle({5}, 200);
  const auto before = h.sys.power().event_count(EnergyEvent::kCreditRelay);
  h.send(4, 6);
  h.run(100);
  ASSERT_EQ(h.records.size(), 1u);
  // 4 flits popped at router 6 -> 4 credits relayed through router 5.
  EXPECT_EQ(h.sys.power().event_count(EnergyEvent::kCreditRelay),
            before + 4);
}

TEST(FlovCredits, FlovLatchEventsAreCounted) {
  Harness h;
  h.sleep_and_settle({5}, 200);
  const auto before = h.sys.power().event_count(EnergyEvent::kFlovLatch);
  h.send(4, 6);
  h.run(100);
  EXPECT_EQ(h.sys.power().event_count(EnergyEvent::kFlovLatch), before + 4);
}

}  // namespace
}  // namespace flov
