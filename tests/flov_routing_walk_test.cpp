// Property test for the complete FLOV routing pipeline at the algorithm
// level: over random power configurations (AON column on, destination on),
// walk a packet from every source to every destination applying the
// regular dynamic routing at powered routers and straight fly-over at
// sleeping ones (with escape-network fallback on dead-ends, as the router
// implements). Assert: the walk always terminates at the destination, never
// exits the mesh, never crosses a sleeping router in a dimension without
// FLOV links, and never U-turns in the regular network.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "routing/flov_routing.hpp"

namespace flov {
namespace {

struct Walker {
  Walker(const MeshGeometry& g, const std::vector<bool>& powered)
      : geom(g), powered(powered), routing(g) {}

  NeighborhoodView view_at(NodeId n) const {
    NeighborhoodView v;
    for (Direction d : kMeshDirections) {
      const NodeId nb = geom.neighbor(n, d);
      v.physical[dir_index(d)] =
          (nb != kInvalidNode && powered[nb]) ? PowerState::kActive
                                              : PowerState::kSleep;
      // Logical neighbor: nearest powered along d.
      NodeId cur = nb;
      while (cur != kInvalidNode && !powered[cur]) {
        cur = geom.neighbor(cur, d);
      }
      v.logical[dir_index(d)] = cur;
    }
    return v;
  }

  /// Returns hops taken; asserts invariants along the way.
  int walk(NodeId src, NodeId dest) {
    NodeId pos = src;
    Direction in_dir = Direction::Local;
    bool escape = false;
    int steps = 0;
    Flit f;
    f.head = true;
    f.dest = dest;
    while (pos != dest) {
      Direction out;
      if (powered[pos]) {
        const NeighborhoodView v = view_at(pos);
        const RouteContext ctx{pos, in_dir, &v};
        const RouteDecision dec = escape ? routing.escape_route(ctx, f)
                                         : routing.route(ctx, f);
        escape = escape || dec.escape;
        out = dec.out;
        EXPECT_NE(out, Direction::Local);
        if (!dec.escape) {
          EXPECT_NE(out, in_dir) << "regular-network U-turn at " << pos;
        }
      } else {
        // Sleeping router: straight fly-over; requires FLOV links in the
        // dimension of travel.
        out = opposite(in_dir);
        if (is_horizontal(out)) {
          EXPECT_TRUE(geom.has_both_horizontal_neighbors(pos))
              << "fly-over without X FLOV links at " << pos;
        } else {
          EXPECT_TRUE(geom.has_both_vertical_neighbors(pos))
              << "fly-over without Y FLOV links at " << pos;
        }
      }
      const NodeId next = geom.neighbor(pos, out);
      EXPECT_NE(next, kInvalidNode) << "walked off the mesh at " << pos;
      if (next == kInvalidNode) return -1;
      in_dir = opposite(out);
      pos = next;
      if (++steps > 6 * geom.num_nodes()) {
        ADD_FAILURE() << "walk did not terminate " << src << "->" << dest;
        return -1;
      }
    }
    return steps;
  }

  const MeshGeometry& geom;
  const std::vector<bool>& powered;
  FlovRouting routing;
};

using Param = std::tuple<int /*k*/, double /*gated*/, int /*seed*/>;

class RoutingWalk : public ::testing::TestWithParam<Param> {};

TEST_P(RoutingWalk, EveryPairReachableOverRandomPowerConfigs) {
  const int k = std::get<0>(GetParam());
  const double frac = std::get<1>(GetParam());
  const int seed = std::get<2>(GetParam());
  MeshGeometry g(k, k);
  Rng rng(9000 + seed);
  std::vector<bool> powered(g.num_nodes(), true);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (g.is_aon_column(n)) continue;  // AON column always on
    powered[n] = !rng.next_bool(frac);
  }
  Walker w(g, powered);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (!powered[s]) continue;  // gated cores do not inject
    for (NodeId d = 0; d < g.num_nodes(); ++d) {
      if (d == s || !powered[d]) continue;  // sleeping dests are woken first
      w.walk(s, d);
      if (::testing::Test::HasFailure()) {
        FAIL() << "walk failed for " << s << "->" << d;
      }
    }
  }
}

TEST_P(RoutingWalk, PathsAreNearMinimalAtLowGating) {
  const int k = std::get<0>(GetParam());
  const double frac = std::get<1>(GetParam());
  if (frac > 0.25) GTEST_SKIP() << "minimality bound only at low gating";
  const int seed = std::get<2>(GetParam());
  MeshGeometry g(k, k);
  Rng rng(7000 + seed);
  std::vector<bool> powered(g.num_nodes(), true);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (!g.is_aon_column(n)) powered[n] = !rng.next_bool(frac);
  }
  Walker w(g, powered);
  double total = 0, minimal = 0;
  int pairs = 0;
  for (NodeId s = 0; s < g.num_nodes(); s += 3) {
    for (NodeId d = 0; d < g.num_nodes(); d += 2) {
      if (d == s || !powered[s] || !powered[d]) continue;
      const int steps = w.walk(s, d);
      ASSERT_GE(steps, 0);
      total += steps;
      minimal += g.hops(s, d);
      ++pairs;
    }
  }
  ASSERT_GT(pairs, 0);
  // Best-effort minimal: average stretch stays small at low gating.
  EXPECT_LT(total / minimal, 1.25);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RoutingWalk,
    ::testing::Combine(::testing::Values(4, 6, 8),
                       ::testing::Values(0.15, 0.4, 0.7),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_g" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100)) +
             "_s" + std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace flov
