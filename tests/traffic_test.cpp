// Traffic pattern / gating scenario / synthetic injection tests.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "rp/rp_network.hpp"
#include "sim/baseline_network.hpp"
#include "traffic/gating_scenario.hpp"
#include "traffic/synthetic_traffic.hpp"
#include "traffic/traffic_pattern.hpp"

namespace flov {
namespace {

TEST(TrafficPattern, FactoryKnowsAllNames) {
  MeshGeometry g(8, 8);
  for (const char* name : {"uniform", "tornado", "transpose", "bitcomplement",
                           "neighbor", "hotspot"}) {
    auto p = TrafficPattern::create(name, g);
    ASSERT_NE(p, nullptr) << name;
    EXPECT_STREQ(p->name(), name);
  }
  EXPECT_THROW(TrafficPattern::create("bogus", g), std::logic_error);
}

TEST(TrafficPattern, UniformNeverPicksSelfOrInactive) {
  MeshGeometry g(8, 8);
  UniformPattern u(g);
  Rng rng(5);
  std::vector<bool> mask(64, true);
  mask[10] = mask[20] = mask[30] = false;
  const ActiveCores active(mask);
  for (int i = 0; i < 2000; ++i) {
    const NodeId d = u.dest(7, active, rng);
    ASSERT_NE(d, 7);
    ASSERT_NE(d, kInvalidNode);
    ASSERT_TRUE(active[d]);
  }
}

TEST(TrafficPattern, UniformCoversAllActiveDestinations) {
  MeshGeometry g(4, 4);
  UniformPattern u(g);
  Rng rng(7);
  const ActiveCores active(std::vector<bool>(16, true));
  std::set<NodeId> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(u.dest(0, active, rng));
  EXPECT_EQ(seen.size(), 15u);
}

TEST(TrafficPattern, UniformNoActiveDestReturnsInvalid) {
  MeshGeometry g(4, 4);
  UniformPattern u(g);
  Rng rng(1);
  std::vector<bool> mask(16, false);
  mask[3] = true;
  const ActiveCores active(mask);
  EXPECT_EQ(u.dest(3, active, rng), kInvalidNode);
}

TEST(TrafficPattern, TornadoHalfRingOffset) {
  MeshGeometry g(8, 8);
  TornadoPattern t(g);
  Rng rng(1);
  const ActiveCores active(std::vector<bool>(64, true));
  // (x, y) -> ((x + 3) mod 8, y) for k = 8.
  EXPECT_EQ(t.dest(g.id(0, 2), active, rng), g.id(3, 2));
  EXPECT_EQ(t.dest(g.id(6, 5), active, rng), g.id(1, 5));
}

TEST(TrafficPattern, TornadoSkipsGatedTarget) {
  MeshGeometry g(8, 8);
  TornadoPattern t(g);
  Rng rng(1);
  std::vector<bool> mask(64, true);
  mask[g.id(3, 2)] = false;
  const ActiveCores active(mask);
  EXPECT_EQ(t.dest(g.id(0, 2), active, rng), kInvalidNode);
}

TEST(TrafficPattern, TransposeAndBitComplement) {
  MeshGeometry g(8, 8);
  TransposePattern tr(g);
  BitComplementPattern bc(g);
  Rng rng(1);
  const ActiveCores active(std::vector<bool>(64, true));
  EXPECT_EQ(tr.dest(g.id(2, 5), active, rng), g.id(5, 2));
  EXPECT_EQ(bc.dest(5, active, rng), 58);  // ~5 & 63
  EXPECT_EQ(tr.dest(g.id(3, 3), active, rng), kInvalidNode);  // self
}

TEST(TrafficPattern, NeighborWrapsRow) {
  MeshGeometry g(4, 4);
  NeighborPattern n(g);
  Rng rng(1);
  const ActiveCores active(std::vector<bool>(16, true));
  EXPECT_EQ(n.dest(g.id(3, 1), active, rng), g.id(0, 1));
}

TEST(TrafficPattern, HotspotBiasesCorners) {
  MeshGeometry g(8, 8);
  HotspotPattern h(g, 0.5);
  Rng rng(3);
  const ActiveCores active(std::vector<bool>(64, true));
  int corner_hits = 0;
  const std::set<NodeId> corners{0, 7, 56, 63};
  for (int i = 0; i < 4000; ++i) {
    const NodeId d = h.dest(27, active, rng);
    corner_hits += corners.count(d);
  }
  // ~50% directed + uniform residue: far above the uniform 4/63 share.
  EXPECT_GT(corner_hits, 1500);
}

// The O(N) mask scan UniformPattern used before it indexed the active-id
// list: the pick-th active node other than src, in ascending order.
NodeId reference_uniform(NodeId src, const std::vector<bool>& mask,
                         Rng& rng) {
  const NodeId n_nodes = static_cast<NodeId>(mask.size());
  int count = 0;
  for (NodeId n = 0; n < n_nodes; ++n) {
    if (mask[n] && n != src) ++count;
  }
  if (count == 0) return kInvalidNode;
  int pick = static_cast<int>(rng.next_below(count));
  for (NodeId n = 0; n < n_nodes; ++n) {
    if (mask[n] && n != src) {
      if (pick == 0) return n;
      --pick;
    }
  }
  return kInvalidNode;
}

NodeId reference_hotspot(const MeshGeometry& g, double hot_fraction,
                         NodeId src, const std::vector<bool>& mask,
                         Rng& rng) {
  const std::vector<NodeId> hot = {g.id(0, 0), g.id(g.width() - 1, 0),
                                   g.id(0, g.height() - 1),
                                   g.id(g.width() - 1, g.height() - 1)};
  if (rng.next_bool(hot_fraction)) {
    const NodeId h = hot[rng.next_below(hot.size())];
    if (h != src && mask[h]) return h;
  }
  return reference_uniform(src, mask, rng);
}

// Random masks plus the degenerate ones: empty, only src, one other node.
std::vector<std::vector<bool>> masks_for(int n, NodeId src, Rng& rng) {
  std::vector<std::vector<bool>> masks;
  for (double density : {0.05, 0.5, 0.95}) {
    std::vector<bool> m(n);
    for (int i = 0; i < n; ++i) m[i] = rng.next_bool(density);
    masks.push_back(m);
  }
  masks.emplace_back(n, true);
  masks.emplace_back(n, false);
  std::vector<bool> only_src(n, false);
  only_src[src] = true;
  masks.push_back(only_src);
  std::vector<bool> one_other = only_src;
  one_other[(src + n / 2 + 1) % n] = true;
  masks.push_back(one_other);
  one_other[src] = false;
  masks.push_back(one_other);
  return masks;
}

// Both draws consumed the same values iff the streams still agree.
void expect_same_stream(Rng a, Rng b) {
  for (int i = 0; i < 4; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(TrafficPattern, UniformPickMatchesMaskScan) {
  Rng rng(11);
  for (int k : {4, 7, 16, 32}) {
    const MeshGeometry g(k, k);
    const UniformPattern u(g);
    const int n = g.num_nodes();
    for (NodeId src : {0, n / 3, n - 1}) {
      for (const std::vector<bool>& mask : masks_for(n, src, rng)) {
        const ActiveCores active(mask);
        for (int draw = 0; draw < 64; ++draw) {
          Rng fast = rng;
          Rng slow = rng;
          ASSERT_EQ(u.dest(src, active, fast),
                    reference_uniform(src, mask, slow))
              << k << "x" << k << " src " << src;
          expect_same_stream(fast, slow);
          rng.next_u64();
        }
      }
    }
  }
}

TEST(TrafficPattern, HotspotPickMatchesMaskScan) {
  Rng rng(12);
  for (int k : {4, 8, 32}) {
    const MeshGeometry g(k, k);
    const HotspotPattern h(g, 0.3);
    const int n = g.num_nodes();
    for (NodeId src : {0, n / 2, n - 1}) {
      for (const std::vector<bool>& mask : masks_for(n, src, rng)) {
        const ActiveCores active(mask);
        for (int draw = 0; draw < 64; ++draw) {
          Rng fast = rng;
          Rng slow = rng;
          ASSERT_EQ(h.dest(src, active, fast),
                    reference_hotspot(g, 0.3, src, mask, slow))
              << k << "x" << k << " src " << src;
          expect_same_stream(fast, slow);
          rng.next_u64();
        }
      }
    }
  }
}

TEST(ActiveCores, RefreshRebuildsIdsOnlyOnAFlip) {
  ActiveCores a(std::vector<bool>(8, true));
  EXPECT_EQ(a.ids().size(), 8u);
  std::vector<std::uint8_t> gated(8, 0);
  for (NodeId n = 0; n < 8; n += 3) gated[n] = 1;
  a.refresh(gated);
  EXPECT_EQ(a.ids(), (std::vector<NodeId>{1, 2, 4, 5, 7}));
  EXPECT_FALSE(a[3]);
  EXPECT_TRUE(a.consistent());
  a.refresh(gated);
  EXPECT_EQ(a.ids(), (std::vector<NodeId>{1, 2, 4, 5, 7}));
}

// Active cores as the per-node refresh saw them: a fresh read of every
// node's flag.
std::vector<bool> per_node_active(const std::vector<std::uint8_t>& gated) {
  std::vector<bool> active(gated.size());
  for (std::size_t n = 0; n < gated.size(); ++n) active[n] = gated[n] == 0;
  return active;
}

TEST(ActiveCores, MaskRefreshMatchesPerNodeRefresh) {
  const MeshGeometry g(8, 8);
  const UniformPattern u(g);
  Rng rng(31);
  std::vector<std::uint8_t> gated(64, 0);
  ActiveCores cached(std::vector<bool>(64, true));
  for (int step = 0; step < 400; ++step) {
    // Direct writes to the mask, the way every scheme makes them: from
    // none (the memcmp must then keep the ids) to a burst.
    const int writes = static_cast<int>(rng.next_below(4));
    for (int k = 0; k < writes; ++k) {
      gated[rng.next_below(64)] = rng.next_bool(0.5) ? 1 : 0;
    }
    cached.refresh(gated);
    const ActiveCores fresh(per_node_active(gated));
    ASSERT_EQ(cached.ids(), fresh.ids()) << "step " << step;
    ASSERT_TRUE(cached.consistent());
    Rng a = rng;
    Rng b = rng;
    for (const NodeId src : fresh.ids()) {
      ASSERT_EQ(u.dest(src, cached, a), u.dest(src, fresh, b));
    }
    expect_same_stream(a, b);
    rng.next_u64();
  }
}

TEST(GatingScenario, FractionGatesExpectedCount) {
  MeshGeometry g(8, 8);
  for (double f : {0.0, 0.1, 0.5, 0.8}) {
    auto s = GatingScenario::uniform_fraction(g, f, 42);
    ASSERT_EQ(s.events().size(), 1u);
    int gated = 0;
    for (bool b : s.events()[0].gated) gated += b;
    EXPECT_EQ(gated, static_cast<int>(f * 64 + 0.5));
  }
}

TEST(GatingScenario, SeedDeterminism) {
  MeshGeometry g(8, 8);
  auto a = GatingScenario::uniform_fraction(g, 0.5, 9);
  auto b = GatingScenario::uniform_fraction(g, 0.5, 9);
  auto c = GatingScenario::uniform_fraction(g, 0.5, 10);
  EXPECT_EQ(a.events()[0].gated, b.events()[0].gated);
  EXPECT_NE(a.events()[0].gated, c.events()[0].gated);
}

TEST(GatingScenario, EpochsChangeTheSet) {
  MeshGeometry g(8, 8);
  auto s = GatingScenario::epochs(g, 0.1, {50000, 60000}, 1);
  ASSERT_EQ(s.events().size(), 3u);
  EXPECT_EQ(s.events()[1].at, 50000u);
  EXPECT_NE(s.events()[0].gated, s.events()[1].gated);
}

TEST(GatingScenario, ApplyDrivesSystem) {
  NocParams p;
  p.width = 4;
  p.height = 4;
  BaselineNetwork sys(p, EnergyParams{});
  MeshGeometry g(4, 4);
  auto s = GatingScenario::epochs(g, 0.25, {100}, 3);
  s.apply(sys, 0);
  int gated0 = 0;
  for (NodeId n = 0; n < 16; ++n) gated0 += sys.core_gated(n);
  EXPECT_EQ(gated0, 4);
  s.apply(sys, 100);
  int gated1 = 0;
  for (NodeId n = 0; n < 16; ++n) gated1 += sys.core_gated(n);
  EXPECT_EQ(gated1, 4);  // same fraction, different set
}

TEST(SyntheticTraffic, RateMatchesConfiguredInjection) {
  NocParams p;
  p.width = 4;
  p.height = 4;
  BaselineNetwork sys(p, EnergyParams{});
  MeshGeometry g(4, 4);
  UniformPattern u(g);
  SyntheticTraffic t(&sys, &u, /*inj_rate_flits=*/0.2, /*packet_size=*/4, 7);
  for (Cycle c = 0; c < 20000; ++c) t.step(c);
  // Expected packets: 16 nodes * 0.05 pkt/cyc * 20000 = 16000.
  EXPECT_NEAR(static_cast<double>(t.generated_packets()), 16000, 500);
}

TEST(SyntheticTraffic, GatedCoresGenerateNothing) {
  NocParams p;
  p.width = 4;
  p.height = 4;
  BaselineNetwork sys(p, EnergyParams{});
  for (NodeId n = 0; n < 15; ++n) sys.set_core_gated(n, true, 0);
  MeshGeometry g(4, 4);
  UniformPattern u(g);
  SyntheticTraffic t(&sys, &u, 0.2, 4, 7);
  for (Cycle c = 0; c < 5000; ++c) t.step(c);
  // Only node 15 is active, and it has no active destination.
  EXPECT_EQ(t.generated_packets(), 0u);
}

// RP's quarantine writes the core-gated mask from FabricManager::apply, not
// through set_core_gated. The traffic layer's memcmp refresh must still see
// it: every cycle its ids equal a per-node read of core_gated(), and its
// draws consume the per-node RNG streams exactly as a generator over those
// ids does.
TEST(SyntheticTraffic, MaskRefreshSeesRpQuarantine) {
  NocParams p;
  p.width = 4;
  p.height = 4;
  p.reliable = true;
  const MeshGeometry g(4, 4);
  const UniformPattern u(g);
  constexpr double kRate = 0.1;
  constexpr int kSize = 4;
  bool quarantined = false;
  for (std::uint64_t seed = 1; seed <= 40 && !quarantined; ++seed) {
    FaultParams f;
    f.hard_link_pct = 0.3;  // dense enough to cut nodes off
    f.hard_at_cycle = 100;
    f.seed = seed;
    RpNetwork sys(p, EnergyParams{}, FabricManagerConfig{}, {}, f);
    SyntheticTraffic t(&sys, &u, kRate, kSize, seed);
    Rng seeder(seed);
    std::vector<Rng> rngs;
    for (int i = 0; i < 16; ++i) rngs.push_back(seeder.split());
    std::uint64_t generated = 0, skipped = 0;
    for (Cycle c = 0; c < 1500; ++c) {
      t.step(c);
      std::vector<bool> active(16);
      for (NodeId n = 0; n < 16; ++n) active[n] = !sys.core_gated(n);
      const ActiveCores ref(active);
      ASSERT_EQ(t.active_cores().ids(), ref.ids())
          << "seed " << seed << " cycle " << c;
      for (const NodeId src : ref.ids()) {
        if (!rngs[src].next_bool(kRate / kSize)) continue;
        if (u.dest(src, ref, rngs[src]) == kInvalidNode) {
          ++skipped;
        } else {
          ++generated;
        }
      }
      ASSERT_EQ(t.generated_packets(), generated) << "cycle " << c;
      ASSERT_EQ(t.skipped_inactive_dest(), skipped) << "cycle " << c;
      sys.step(c);
    }
    quarantined = sys.fabric_manager().quarantined() > 0;
  }
  EXPECT_TRUE(quarantined) << "no seed quarantined a node";
}

}  // namespace
}  // namespace flov
