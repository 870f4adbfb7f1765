// Tests for the up*/down* route computation used by Router Parking.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "routing/updown.hpp"

namespace flov {
namespace {

std::vector<bool> all_on(int n) { return std::vector<bool>(n, true); }

TEST(UpDown, FullMeshAllReachable) {
  MeshGeometry g(4, 4);
  UpDownRoutes r(g, all_on(16));
  EXPECT_TRUE(r.all_powered_connected());
  for (NodeId a = 0; a < 16; ++a) {
    for (NodeId b = 0; b < 16; ++b) {
      EXPECT_TRUE(r.reachable(a, b)) << a << "->" << b;
    }
  }
}

TEST(UpDown, RootIsSmallestPoweredId) {
  MeshGeometry g(4, 4);
  std::vector<bool> p = all_on(16);
  p[0] = p[1] = false;
  UpDownRoutes r(g, p);
  EXPECT_EQ(r.root(), 2);
  EXPECT_EQ(r.bfs_level(2), 0);
}

TEST(UpDown, PathWalkReachesDestination) {
  MeshGeometry g(4, 4);
  UpDownRoutes r(g, all_on(16));
  for (NodeId a = 0; a < 16; ++a) {
    for (NodeId b = 0; b < 16; ++b) {
      if (a == b) continue;
      NodeId cur = a;
      bool phase = false;
      int steps = 0;
      while (cur != b) {
        auto hop = r.next_hop(cur, b, phase);
        ASSERT_TRUE(hop.has_value());
        cur = g.neighbor(cur, hop->dir);
        phase = hop->went_down_after;
        ASSERT_LE(++steps, 32);
      }
      EXPECT_EQ(steps, r.path_len(a, b));
    }
  }
}

TEST(UpDown, LegalityNoUpAfterDown) {
  MeshGeometry g(4, 4);
  std::vector<bool> p = all_on(16);
  p[5] = p[10] = false;
  UpDownRoutes r(g, p);
  for (NodeId a = 0; a < 16; ++a) {
    if (!p[a]) continue;
    for (NodeId b = 0; b < 16; ++b) {
      if (!p[b] || a == b) continue;
      NodeId cur = a;
      bool phase = false;
      int steps = 0;
      while (cur != b) {
        auto hop = r.next_hop(cur, b, phase);
        ASSERT_TRUE(hop.has_value()) << a << "->" << b;
        // Once the phase bit is set, up links are forbidden.
        if (phase) ASSERT_FALSE(r.is_up_link(cur, hop->dir));
        cur = g.neighbor(cur, hop->dir);
        phase = hop->went_down_after;
        ASSERT_LE(++steps, 64);
      }
    }
  }
}

TEST(UpDown, PhaseBitMonotone) {
  MeshGeometry g(4, 4);
  UpDownRoutes r(g, all_on(16));
  for (NodeId a = 0; a < 16; ++a) {
    for (Direction d : kMeshDirections) {
      if (g.neighbor(a, d) == kInvalidNode) continue;
      // From phase=true, any legal hop keeps phase=true.
      auto hop = r.next_hop(a, g.neighbor(a, d), true);
      if (hop.has_value()) EXPECT_TRUE(hop->went_down_after);
    }
  }
}

TEST(UpDown, FullMeshPathsAreMinimalFromRootNeighborhood) {
  // On a fully powered mesh, up*/down* from the root reaches everything at
  // Manhattan distance (the BFS tree radiates from it).
  MeshGeometry g(4, 4);
  UpDownRoutes r(g, all_on(16));
  for (NodeId b = 1; b < 16; ++b) {
    EXPECT_EQ(r.path_len(0, b), g.hops(0, b));
  }
}

TEST(UpDown, UnpoweredNodesUnreachable) {
  MeshGeometry g(4, 4);
  std::vector<bool> p = all_on(16);
  p[6] = false;
  UpDownRoutes r(g, p);
  EXPECT_FALSE(r.reachable(0, 6));
  EXPECT_FALSE(r.reachable(6, 0));
  EXPECT_EQ(r.path_len(0, 6), -1);
}

TEST(UpDown, DisconnectedComponentDetected) {
  // Power off a full column cut: {1, 5, 9, 13} on a 4x4 disconnects
  // column 0 from columns 2-3.
  MeshGeometry g(4, 4);
  std::vector<bool> p = all_on(16);
  for (NodeId n : {1, 5, 9, 13}) p[n] = false;
  UpDownRoutes r(g, p);
  EXPECT_FALSE(r.all_powered_connected());
  EXPECT_FALSE(r.reachable(0, 2));
  // Routes exist only inside the root's component (the FM rejects
  // disconnected parked sets before they are ever installed).
  EXPECT_FALSE(r.reachable(2, 3));
  EXPECT_TRUE(r.reachable(0, 4));
}

class UpDownRandom : public ::testing::TestWithParam<int> {};

TEST_P(UpDownRandom, RandomSubgraphsRouteWithinComponent) {
  MeshGeometry g(6, 6);
  Rng rng(GetParam());
  std::vector<bool> p(36, true);
  for (int i = 0; i < 36; ++i) p[i] = !rng.next_bool(0.3);
  // Ensure at least one powered node.
  p[0] = true;
  UpDownRoutes r(g, p);
  for (NodeId a = 0; a < 36; ++a) {
    for (NodeId b = 0; b < 36; ++b) {
      if (!p[a] || !p[b] || a == b) continue;
      if (!r.reachable(a, b)) continue;
      NodeId cur = a;
      bool phase = false;
      int steps = 0;
      while (cur != b) {
        auto hop = r.next_hop(cur, b, phase);
        ASSERT_TRUE(hop.has_value());
        if (phase) ASSERT_FALSE(r.is_up_link(cur, hop->dir));
        cur = g.neighbor(cur, hop->dir);
        ASSERT_TRUE(p[cur]);  // never routes through an unpowered node
        phase = hop->went_down_after;
        ASSERT_LE(++steps, 72);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpDownRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Reference: the original route computation, one backward BFS per
// destination over the (node, phase) product graph into a full distance
// table, and a next hop that re-derives the first shortest direction from
// the neighbours' distances. UpDownRoutes must agree with it exactly.
class ReferenceUpDown {
 public:
  ReferenceUpDown(const MeshGeometry& geom, const std::vector<bool>& powered,
                  const std::vector<char>* dead_links)
      : geom_(geom), powered_(powered), level_(geom.num_nodes(), -1) {
    if (dead_links != nullptr) dead_links_ = *dead_links;
    const int n = geom.num_nodes();
    for (NodeId i = 0; i < n; ++i) {
      if (powered_[i]) {
        root_ = i;
        break;
      }
    }
    std::deque<NodeId> q{root_};
    level_[root_] = 0;
    while (!q.empty()) {
      const NodeId a = q.front();
      q.pop_front();
      for (Direction d : kMeshDirections) {
        const NodeId b = geom.neighbor(a, d);
        if (b == kInvalidNode || !powered_[b] || level_[b] >= 0) continue;
        if (!edge_ok(a, d)) continue;
        level_[b] = level_[a] + 1;
        q.push_back(b);
      }
    }
    dist_.assign(n, {});
    for (NodeId dest = 0; dest < n; ++dest) {
      if (!powered_[dest] || level_[dest] < 0) continue;
      auto& dist = dist_[dest];
      dist.assign(2 * n, -1);
      std::deque<int> bfs;
      dist[state(dest, false)] = 0;
      dist[state(dest, true)] = 0;
      bfs.push_back(state(dest, false));
      bfs.push_back(state(dest, true));
      while (!bfs.empty()) {
        const int s = bfs.front();
        bfs.pop_front();
        const NodeId b = s / 2;
        const bool phase_b = (s % 2) != 0;
        for (Direction d : kMeshDirections) {
          const NodeId a = geom.neighbor(b, d);
          if (a == kInvalidNode || !powered_[a] || level_[a] < 0) continue;
          if (!edge_ok(b, d)) continue;
          if (is_up_link(a, opposite(d))) {
            if (phase_b) continue;
            const int sa = state(a, false);
            if (dist[sa] < 0) {
              dist[sa] = dist[s] + 1;
              bfs.push_back(sa);
            }
          } else {
            if (!phase_b) continue;
            for (const bool pa : {false, true}) {
              const int sa = state(a, pa);
              if (dist[sa] < 0) {
                dist[sa] = dist[s] + 1;
                bfs.push_back(sa);
              }
            }
          }
        }
      }
    }
  }

  std::optional<UpDownRoutes::Hop> next_hop(NodeId from, NodeId dest,
                                            bool went_down) const {
    if (from == dest || dist_[dest].empty()) return std::nullopt;
    const auto& dist = dist_[dest];
    const int here = dist[state(from, went_down)];
    if (here < 0) return std::nullopt;
    for (Direction d : kMeshDirections) {
      const NodeId b = geom_.neighbor(from, d);
      if (b == kInvalidNode || !powered_[b] || level_[b] < 0) continue;
      if (!edge_ok(from, d)) continue;
      const bool up = is_up_link(from, d);
      if (up && went_down) continue;
      const bool phase_after = went_down || !up;
      if (dist[state(b, phase_after)] == here - 1) {
        return UpDownRoutes::Hop{d, phase_after};
      }
    }
    ADD_FAILURE() << "reference distance table inconsistent";
    return std::nullopt;
  }

  bool reachable(NodeId from, NodeId dest) const {
    if (from == dest) return powered_[from];
    return !dist_[dest].empty() && dist_[dest][state(from, false)] >= 0;
  }

  int path_len(NodeId from, NodeId dest) const {
    if (from == dest) return 0;
    return dist_[dest].empty() ? -1 : dist_[dest][state(from, false)];
  }

  NodeId root() const { return root_; }
  int level(NodeId n) const { return level_[n]; }

 private:
  static int state(NodeId n, bool went_down) { return 2 * n + went_down; }

  bool edge_ok(NodeId a, Direction d) const {
    if (dead_links_.empty()) return true;
    const NodeId b = geom_.neighbor(a, d);
    return !dead_links_[a * 4 + dir_index(d)] &&
           !dead_links_[b * 4 + dir_index(opposite(d))];
  }

  bool is_up_link(NodeId a, Direction d) const {
    const NodeId b = geom_.neighbor(a, d);
    if (level_[b] != level_[a]) return level_[b] < level_[a];
    return b < a;
  }

  const MeshGeometry& geom_;
  std::vector<bool> powered_;
  std::vector<char> dead_links_;
  std::vector<int> level_;
  NodeId root_ = kInvalidNode;
  std::vector<std::vector<int>> dist_;
};

/// Compares next hop, phase bit, reachable and path_len on every
/// (from, dest, phase), plus the BFS tree; reports the first mismatch.
void expect_matches_reference(const MeshGeometry& g,
                              const std::vector<bool>& powered,
                              const std::vector<char>* dead_links,
                              const std::string& label) {
  SCOPED_TRACE(label);
  const UpDownRoutes r(g, powered, dead_links);
  const ReferenceUpDown ref(g, powered, dead_links);
  ASSERT_EQ(r.root(), ref.root());
  bool connected = true;
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    ASSERT_EQ(r.bfs_level(i), ref.level(i)) << "node " << i;
    if (powered[i] && ref.level(i) < 0) connected = false;
  }
  EXPECT_EQ(r.all_powered_connected(), connected);
  long mismatches = 0;
  std::string first;
  const auto mismatch = [&](NodeId a, NodeId b, const std::string& what) {
    if (mismatches++ == 0) {
      first = what + " " + std::to_string(a) + "->" + std::to_string(b);
    }
  };
  for (NodeId a = 0; a < g.num_nodes(); ++a) {
    for (NodeId b = 0; b < g.num_nodes(); ++b) {
      for (const bool went_down : {false, true}) {
        const auto got = r.next_hop(a, b, went_down);
        const auto want = ref.next_hop(a, b, went_down);
        const std::string phase = went_down ? " (went down)" : " (up)";
        if (got.has_value() != want.has_value()) {
          mismatch(a, b, "hop presence" + phase);
        } else if (got && got->dir != want->dir) {
          mismatch(a, b, "hop direction" + phase);
        } else if (got && got->went_down_after != want->went_down_after) {
          mismatch(a, b, "phase bit" + phase);
        }
      }
      if (r.reachable(a, b) != ref.reachable(a, b)) mismatch(a, b, "reachable");
      if (r.path_len(a, b) != ref.path_len(a, b)) mismatch(a, b, "path_len");
    }
  }
  EXPECT_EQ(mismatches, 0) << "first: " << first;
}

/// Random hard-faulted links at `rate` (directed; either direction kills
/// the edge for routing).
std::vector<char> random_dead_links(int n, double rate, Rng& rng) {
  std::vector<char> dead(n * 4, 0);
  for (char& d : dead) d = rng.next_bool(rate) ? 1 : 0;
  return dead;
}

class UpDownEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(UpDownEquivalence, MatchesPerDestinationBfsOnEveryTriple) {
  const auto [w, h] = GetParam();
  const MeshGeometry g(w, h);
  const int n = g.num_nodes();
  Rng rng(static_cast<std::uint64_t>(w * 100 + h));

  expect_matches_reference(g, all_on(n), nullptr, "fully powered");

  for (int seed = 0; seed < 4; ++seed) {
    for (const double off : {0.15, 0.3, 0.5}) {
      std::vector<bool> p(n);
      for (int i = 0; i < n; ++i) p[i] = !rng.next_bool(off);
      p[rng.next_below(n)] = true;  // at least one powered router
      const std::string mask =
          "random mask seed " + std::to_string(seed) + " off " +
          std::to_string(off);
      expect_matches_reference(g, p, nullptr, mask);
      const auto dead = random_dead_links(n, 0.08, rng);
      expect_matches_reference(g, p, &dead, mask + " + dead links");
    }
  }

  // A powered cut: the middle column (the middle row on two-column
  // meshes) off disconnects everything beyond it from the root.
  std::vector<bool> cut = all_on(n);
  for (NodeId i = 0; i < n; ++i) {
    const Coord c = g.coord(i);
    if (w > 2 ? c.x == w / 2 : c.y == h / 2) cut[i] = false;
  }
  expect_matches_reference(g, cut, nullptr, "disconnecting cut");

  // The root isolated: its neighbours unpowered, then its links dead.
  std::vector<bool> lonely = all_on(n);
  for (Direction d : kMeshDirections) {
    const NodeId b = g.neighbor(0, d);
    if (b != kInvalidNode) lonely[b] = false;
  }
  expect_matches_reference(g, lonely, nullptr, "root isolated by power");
  std::vector<char> cut_links(n * 4, 0);
  for (Direction d : kMeshDirections) cut_links[dir_index(d)] = 1;
  expect_matches_reference(g, all_on(n), &cut_links,
                           "root isolated by dead links");

  // Dense dead links on a full mesh: many fragments, few edges.
  const auto dense = random_dead_links(n, 0.3, rng);
  expect_matches_reference(g, all_on(n), &dense, "dense dead links");
}

INSTANTIATE_TEST_SUITE_P(
    Meshes, UpDownEquivalence,
    // MeshGeometry's smallest meshes are 2 wide: 2x6 and 6x2 are the
    // one-path-wide ladders.
    ::testing::Values(std::make_tuple(2, 6), std::make_tuple(6, 2),
                      std::make_tuple(2, 2), std::make_tuple(5, 7),
                      std::make_tuple(8, 8), std::make_tuple(16, 16)),
    [](const auto& info) {
      return std::to_string(std::get<0>(info.param)) + "x" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace flov
