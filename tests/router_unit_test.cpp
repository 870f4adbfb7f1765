// Single-router tests: one Router built standalone (private hot-state slab)
// with every port wired to a test-owned channel, so each flit and credit
// that reaches or leaves the router is placed and observed by hand.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "noc/router.hpp"
#include "routing/yx_routing.hpp"

namespace flov {
namespace {

constexpr NodeId kCenter = 4;  // (1,1) of a 3x3 mesh
constexpr NodeId kEastOf = 5;  // (2,1): every packet here routes East

struct Bench {
  explicit Bench(NocParams p)
      : params(p), geom(p.width, p.height), routing(geom),
        router(kCenter, geom, params, &routing, nullptr) {
    for (int i = 0; i < kNumPorts; ++i) {
      const Direction d = dir_from_index(i);
      router.connect_flit_in(d, &flit_in[i]);
      router.connect_flit_out(d, &flit_out[i]);
      router.connect_credit_out(d, &credit_out[i]);
      router.connect_credit_in(d, &credit_in[i]);
    }
  }

  Flit flit(VcId vc, bool head, bool tail, std::uint64_t id,
            NodeId dest = kEastOf) const {
    Flit f;
    f.packet_id = id;
    f.head = head;
    f.tail = tail;
    f.src = kCenter;
    f.dest = dest;
    f.vc = vc;
    f.vnet = vc / params.vcs_per_vnet;
    return f;
  }
  void send(Direction in, const Flit& f) {
    flit_in[dir_index(in)].send(now, f);
  }
  void step() { router.step(now++); }
  const InputVc& input_vc(int slot) const {
    const int nvc = params.total_vcs();
    return router.input_port(dir_from_index(slot / nvc)).vcs[slot % nvc];
  }

  NocParams params;
  MeshGeometry geom;
  XyRouting routing;
  std::array<Channel<Flit>, kNumPorts> flit_in, flit_out;
  std::array<Channel<Credit>, kNumPorts> credit_out, credit_in;
  Router router;
  Cycle now = 0;
};

NocParams three_by_three() {
  NocParams p;
  p.width = 3;
  p.height = 3;
  p.escape_vc = -1;
  p.enable_escape_diversion = false;
  return p;
}

TEST(RouterUnit, VcAllocationVisitsSlotsRoundRobinFromTheRotation) {
  // Two vnets x 2 VCs: slot p * 4 + v over 5 ports, 20 slots. A head-only
  // worm on West VC 0 holds East output VC 0 for good, so seven 1-flit
  // packets of vnet 0 compete for East output VC 1, one grant at a time.
  // Stepped every cycle from cycle 0, VA at cycle t scans from rotation
  // (t + 1) mod 20 and grants the first waiting slot at or after it,
  // wrapping — including a start in the middle of a port. Each offset
  // shifts the arrival so the grants meet every rotation residue.
  NocParams p = three_by_three();
  p.num_vnets = 2;
  p.vcs_per_vnet = 2;
  p.buffer_depth = 4;
  const int nvc = p.total_vcs();
  const int total = kNumPorts * nvc;
  const std::vector<int> competitors = {
      dir_index(Direction::North) * nvc + 0,
      dir_index(Direction::North) * nvc + 1,
      dir_index(Direction::South) * nvc + 0,
      dir_index(Direction::South) * nvc + 1,
      dir_index(Direction::West) * nvc + 1,
      dir_index(Direction::Local) * nvc + 0,
      dir_index(Direction::Local) * nvc + 1,
  };
  for (int offset = 0; offset < total; ++offset) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    Bench b(p);
    b.send(Direction::West, b.flit(0, true, false, 100));
    std::vector<int> granted;
    for (int c = 0; c < 120; ++c) {
      if (b.now == static_cast<Cycle>(4 + offset)) {
        for (int s : competitors) {
          b.send(dir_from_index(s / nvc),
                 b.flit(s % nvc, true, true, static_cast<std::uint64_t>(s)));
        }
      }
      const Cycle t = b.now;
      const int rotation = static_cast<int>((t + 1) % total);
      int expected = -1;
      for (int k = 0; k < total && expected < 0; ++k) {
        const int s = (rotation + k) % total;
        const InputVc& vc = b.input_vc(s);
        const bool is_competitor =
            std::find(competitors.begin(), competitors.end(), s) !=
            competitors.end();
        if (is_competitor && vc.state == VcState::kWaitVc &&
            vc.stage_ready <= t) {
          expected = s;
        }
      }
      std::vector<bool> was_waiting(total);
      for (int s : competitors) {
        was_waiting[s] = b.input_vc(s).state == VcState::kWaitVc;
      }
      b.step();
      for (int s : competitors) {
        if (was_waiting[s] && b.input_vc(s).state == VcState::kActive) {
          EXPECT_EQ(s, expected) << "cycle " << t << " rotation " << rotation;
          granted.push_back(s);
        }
      }
      // Downstream: take what left East and return its credit.
      Channel<Flit>& east = b.flit_out[dir_index(Direction::East)];
      while (auto f = east.recv(b.now)) {
        b.credit_in[dir_index(Direction::East)].send(b.now, Credit{f->vc});
      }
    }
    EXPECT_EQ(granted.size(), competitors.size());
    EXPECT_TRUE(b.router.output_port(Direction::East).vcs[0].allocated);
  }
}

TEST(RouterUnit, WakeCountsInFlightLocalCreditsOnce) {
  // A gated router self-captures a flit addressed to itself and sends it
  // to the NI; the NI returns the ejection credit. When the router wakes
  // while the flit or its credit is still on the wire, the credit lands in
  // pipeline mode, so the fresh local counter must already account for it.
  for (int wake_after : {0, 1}) {  // flit on the wire / credit on the wire
    SCOPED_TRACE("wake_after " + std::to_string(wake_after));
    Bench b(three_by_three());
    b.router.set_mode(RouterMode::kBypass, b.now);
    b.send(Direction::West, b.flit(0, true, true, 1, kCenter));
    b.step();
    b.step();  // cycle 1: self-capture toward the NI
    ASSERT_EQ(b.router.self_captures(), 1u);
    Channel<Flit>& to_ni = b.flit_out[dir_index(Direction::Local)];
    for (int c = 0; c < 6; ++c) {
      if (c == wake_after) b.router.set_mode(RouterMode::kPipeline, b.now);
      while (auto f = to_ni.recv(b.now)) {  // the NI ejects on receipt
        b.credit_in[dir_index(Direction::Local)].send(b.now, Credit{f->vc});
      }
      b.step();
    }
    for (const int credits : b.router.output_port(Direction::Local).credits) {
      EXPECT_EQ(credits, b.params.buffer_depth);
    }
  }
}

TEST(RouterUnit, DyingRouterEatsAWormOnVc33WhileVc1Streams) {
  // 3 vnets x 12 VCs = 36 VCs per port. Worm A (VC 1) is admitted before
  // begin_death and must stream through; worm B (VC 33) arrives after it
  // on the same port and must be eaten whole — without touching VC 1.
  NocParams p = three_by_three();
  p.num_vnets = 3;
  p.vcs_per_vnet = 12;
  p.buffer_depth = 4;
  Bench b(p);
  int killed = 0;
  b.router.set_kill_callback([&](const Flit& f) {
    EXPECT_EQ(f.packet_id, 2u);
    ++killed;
  });
  std::vector<Flit> east_out;
  auto run = [&](int cycles) {
    for (int c = 0; c < cycles; ++c) {
      b.step();
      while (auto f = b.flit_out[dir_index(Direction::East)].recv(b.now)) {
        east_out.push_back(*f);
      }
    }
  };
  b.send(Direction::West, b.flit(1, true, false, 1));
  run(6);
  ASSERT_EQ(east_out.size(), 1u);  // A's head has left
  b.router.begin_death(b.now);
  ASSERT_EQ(b.router.mode(), RouterMode::kPipeline);  // dying, not dead
  b.send(Direction::West, b.flit(33, true, false, 2));
  run(1);
  b.send(Direction::West, b.flit(1, false, false, 1));
  run(1);
  b.send(Direction::West, b.flit(33, false, true, 2));
  run(1);
  b.send(Direction::West, b.flit(1, false, true, 1));
  run(8);
  EXPECT_EQ(killed, 2);
  ASSERT_EQ(east_out.size(), 3u);
  for (const Flit& f : east_out) EXPECT_EQ(f.packet_id, 1u);
  EXPECT_TRUE(east_out.back().tail);
  EXPECT_EQ(b.router.mode(), RouterMode::kDead);
}

}  // namespace
}  // namespace flov
