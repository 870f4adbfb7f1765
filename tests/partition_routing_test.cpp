// Tests for destination partitioning (Fig. 4a) and the routing functions,
// including the worked examples of the paper's Fig. 5.
#include <gtest/gtest.h>

#include "common/geometry.hpp"
#include "routing/flov_routing.hpp"
#include "routing/partition.hpp"
#include "routing/yx_routing.hpp"

namespace flov {
namespace {

// Routing reads only the destination; `src` names the packet's source at
// the call sites.
Flit make_flit(NodeId /*src*/, NodeId dest, bool escape = false) {
  Flit f;
  f.head = true;
  f.tail = true;
  f.dest = dest;
  f.escape = escape;
  return f;
}

// ------------------------------------------------------------- partitions

TEST(Partition, StraightPartitions) {
  MeshGeometry g(4, 4);
  // Around router 5 at (1,1).
  EXPECT_EQ(partition_of(g, 5, 1), 1);   // due North
  EXPECT_EQ(partition_of(g, 5, 4), 3);   // due West
  EXPECT_EQ(partition_of(g, 5, 13), 5);  // due South
  EXPECT_EQ(partition_of(g, 5, 7), 7);   // due East
  EXPECT_EQ(partition_of(g, 5, 5), -1);  // self
}

TEST(Partition, QuadrantPartitions) {
  MeshGeometry g(4, 4);
  EXPECT_EQ(partition_of(g, 5, 2), 0);   // NE
  EXPECT_EQ(partition_of(g, 5, 0), 2);   // NW
  EXPECT_EQ(partition_of(g, 5, 12), 4);  // SW
  EXPECT_EQ(partition_of(g, 5, 15), 6);  // SE
}

TEST(Partition, HelpersMatchCompass) {
  EXPECT_EQ(straight_direction(1), Direction::North);
  EXPECT_EQ(straight_direction(3), Direction::West);
  EXPECT_EQ(straight_direction(5), Direction::South);
  EXPECT_EQ(straight_direction(7), Direction::East);
  EXPECT_EQ(quadrant_y(0), Direction::North);
  EXPECT_EQ(quadrant_y(6), Direction::South);
  EXPECT_EQ(quadrant_x(2), Direction::West);
  EXPECT_EQ(quadrant_x(0), Direction::East);
}

TEST(Partition, ConsistentOnLargerMeshes) {
  MeshGeometry g(8, 8);
  // From center 27=(3,3): 36=(4,4) is SE.
  EXPECT_EQ(partition_of(g, 27, 36), 6);
  EXPECT_EQ(partition_of(g, 27, 18), 2);  // (2,2) NW
  EXPECT_EQ(partition_of(g, 27, 24), 3);  // (0,3) W
}

// ------------------------------------------------------------ YX routing

TEST(YxRouting, YFirstThenX) {
  MeshGeometry g(4, 4);
  YxRouting yx(g);
  NeighborhoodView view;
  RouteContext ctx{5, Direction::Local, &view};
  EXPECT_EQ(yx.route(ctx, make_flit(5, 13)).out, Direction::South);
  EXPECT_EQ(yx.route(ctx, make_flit(5, 15)).out, Direction::South);  // Y 1st
  EXPECT_EQ(yx.route(ctx, make_flit(5, 6)).out, Direction::East);
  EXPECT_EQ(yx.route(ctx, make_flit(5, 5)).out, Direction::Local);
}

TEST(XyRouting, XFirstThenY) {
  MeshGeometry g(4, 4);
  XyRouting xy(g);
  NeighborhoodView view;
  RouteContext ctx{5, Direction::Local, &view};
  EXPECT_EQ(xy.route(ctx, make_flit(5, 15)).out, Direction::East);  // X 1st
  EXPECT_EQ(xy.route(ctx, make_flit(5, 13)).out, Direction::South);
}

TEST(YxRouting, FollowsMinimalPath) {
  MeshGeometry g(8, 8);
  YxRouting yx(g);
  NeighborhoodView view;
  for (NodeId s = 0; s < 64; ++s) {
    for (NodeId d = 0; d < 64; ++d) {
      NodeId cur = s;
      int hops = 0;
      while (cur != d) {
        RouteContext ctx{cur, Direction::Local, &view};
        const auto dec = yx.route(ctx, make_flit(s, d));
        ASSERT_NE(dec.out, Direction::Local);
        cur = g.neighbor(cur, dec.out);
        ASSERT_NE(cur, kInvalidNode);
        ASSERT_LE(++hops, g.hops(s, d));
      }
      EXPECT_EQ(hops, g.hops(s, d));
    }
  }
}

// ----------------------------------------------------------- FLOV routing

class FlovRoutingTest : public ::testing::Test {
 protected:
  FlovRoutingTest() : g_(4, 4), r_(g_) {}

  /// A view where the listed neighbors of `at` are asleep.
  NeighborhoodView view_with_sleeping(NodeId at,
                                      std::initializer_list<Direction> dirs) {
    NeighborhoodView v;
    for (Direction d : kMeshDirections) {
      v.logical[dir_index(d)] = g_.neighbor(at, d);
    }
    for (Direction d : dirs) {
      v.physical[dir_index(d)] = PowerState::kSleep;
    }
    return v;
  }

  MeshGeometry g_;
  FlovRouting r_;
};

TEST_F(FlovRoutingTest, StraightPartitionIgnoresPowerState) {
  // Fig. 5(a): destination due East, next router power-gated -> still East
  // (the FLOV link carries it).
  auto v = view_with_sleeping(5, {Direction::East});
  RouteContext ctx{5, Direction::Local, &v};
  EXPECT_EQ(r_.route(ctx, make_flit(5, 7)).out, Direction::East);
  EXPECT_FALSE(r_.route(ctx, make_flit(5, 7)).escape);
}

TEST_F(FlovRoutingTest, QuadrantPrefersPoweredYNeighbor) {
  auto v = view_with_sleeping(5, {});
  RouteContext ctx{5, Direction::Local, &v};
  // Dest 15 (SE quadrant): Y first (South), YX order.
  EXPECT_EQ(r_.route(ctx, make_flit(5, 15)).out, Direction::South);
}

TEST_F(FlovRoutingTest, Fig5bGatedYNeighborFallsBackToX) {
  // Fig. 5(b): at router 5, dest in partition 6 (SE), router 9 (South)
  // power-gated -> go East to router 6.
  auto v = view_with_sleeping(5, {Direction::South});
  RouteContext ctx{5, Direction::Local, &v};
  EXPECT_EQ(r_.route(ctx, make_flit(5, 14)).out, Direction::East);
}

TEST_F(FlovRoutingTest, Fig5cBothGatedGoEastTowardAon) {
  // Fig. 5(c) at router 5: dest in partition 2 (NW: routers 1 North and 4
  // West both gated) -> forward East toward the AON column.
  auto v = view_with_sleeping(5, {Direction::North, Direction::West});
  RouteContext ctx{5, Direction::Local, &v};
  EXPECT_EQ(r_.route(ctx, make_flit(5, 0)).out, Direction::East);
}

TEST_F(FlovRoutingTest, Fig5cNoUturnAtRouter6) {
  // Continuing Fig. 5(c): the packet arrives at router 6 from the West
  // (router 5). Router 2 (North) is gated and it cannot go back West, so
  // it continues East to router 7.
  auto v = view_with_sleeping(6, {Direction::North});
  RouteContext ctx{6, Direction::West, &v};
  EXPECT_EQ(r_.route(ctx, make_flit(5, 0)).out, Direction::East);
}

TEST_F(FlovRoutingTest, Fig5cTurnAtRouter7) {
  // At AON router 7, dest partition 2: North neighbor 3 is powered ->
  // turn North (then West along the top row).
  auto v = view_with_sleeping(7, {});
  RouteContext ctx{7, Direction::West, &v};
  EXPECT_EQ(r_.route(ctx, make_flit(5, 0)).out, Direction::North);
}

TEST_F(FlovRoutingTest, DeadEndDivertsToEscape) {
  // Packet arrived from the East at router 5; dest NW; both N and W
  // asleep: the only productive move is back East -> escape network.
  auto v = view_with_sleeping(5, {Direction::North, Direction::West});
  RouteContext ctx{5, Direction::East, &v};
  const auto dec = r_.route(ctx, make_flit(6, 0));
  EXPECT_TRUE(dec.escape);
  EXPECT_EQ(dec.out, Direction::East);
}

TEST_F(FlovRoutingTest, LocalDelivery) {
  auto v = view_with_sleeping(5, {});
  RouteContext ctx{5, Direction::North, &v};
  EXPECT_EQ(r_.route(ctx, make_flit(0, 5)).out, Direction::Local);
}

// --------------------------------------------------------- escape routing

TEST_F(FlovRoutingTest, EscapeStraightGoesDirect) {
  auto v = view_with_sleeping(5, {Direction::East});
  RouteContext ctx{5, Direction::Local, &v};
  EXPECT_EQ(r_.escape_route(ctx, make_flit(5, 7)).out, Direction::East);
  EXPECT_EQ(r_.escape_route(ctx, make_flit(5, 4)).out, Direction::West);
  EXPECT_EQ(r_.escape_route(ctx, make_flit(5, 1)).out, Direction::North);
  EXPECT_TRUE(r_.escape_route(ctx, make_flit(5, 1)).escape);
}

TEST_F(FlovRoutingTest, EscapeQuadrantGoesEastUntilAon) {
  auto v = view_with_sleeping(5, {});
  RouteContext ctx{5, Direction::Local, &v};
  // NW destination from a non-AON router: East regardless of power states.
  EXPECT_EQ(r_.escape_route(ctx, make_flit(5, 0)).out, Direction::East);
  // At the AON column, quadrants turn vertically.
  NeighborhoodView va = view_with_sleeping(7, {});
  RouteContext aon{7, Direction::West, &va};
  EXPECT_EQ(r_.escape_route(aon, make_flit(5, 0)).out, Direction::North);
  EXPECT_EQ(r_.escape_route(aon, make_flit(5, 12)).out, Direction::South);
}

TEST_F(FlovRoutingTest, EscapeWalkTerminatesAndUsesLegalTurnsOnly) {
  // Property: from any src/dest, the escape walk reaches the destination
  // using only the allowed turns {E->N, E->S, N->W, S->W} (Fig. 4b).
  MeshGeometry g(8, 8);
  FlovRouting r(g);
  NeighborhoodView v;  // power states are irrelevant to escape routing
  for (NodeId s = 0; s < 64; ++s) {
    for (NodeId d = 0; d < 64; ++d) {
      if (s == d) continue;
      NodeId cur = s;
      Direction last = Direction::Local;
      int steps = 0;
      while (cur != d) {
        RouteContext ctx{cur, last == Direction::Local ? Direction::Local
                                                       : opposite(last),
                         &v};
        const auto dec = r.escape_route(ctx, make_flit(s, d));
        ASSERT_NE(dec.out, Direction::Local);
        if (last != Direction::Local && dec.out != last) {
          // Check turn legality.
          const bool legal =
              (last == Direction::East && is_vertical(dec.out)) ||
              (is_vertical(last) && dec.out == Direction::West);
          ASSERT_TRUE(legal) << "illegal escape turn " << to_string(last)
                             << "->" << to_string(dec.out);
        }
        cur = g.neighbor(cur, dec.out);
        ASSERT_NE(cur, kInvalidNode);
        last = dec.out;
        ASSERT_LE(++steps, 64) << "escape walk did not terminate";
      }
    }
  }
}

}  // namespace
}  // namespace flov
