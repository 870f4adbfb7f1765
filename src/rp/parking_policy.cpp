#include "rp/parking_policy.hpp"

#include <algorithm>
#include <array>

#include "common/log.hpp"

namespace flov {

namespace {

/// Breadth-first connectivity test over one mesh whose buffers are kept
/// across calls: the greedy below runs one per unresolved candidate.
class Connectivity {
 public:
  explicit Connectivity(const MeshGeometry& geom)
      : geom_(geom), seen_(geom.num_nodes()), queue_(geom.num_nodes()) {}

  bool endpoints_connected(const std::vector<bool>& powered,
                           const std::vector<bool>& endpoints) {
    const int n = geom_.num_nodes();
    NodeId start = kInvalidNode;
    int want = 0;
    for (NodeId i = 0; i < n; ++i) {
      if (endpoints[i]) {
        ++want;
        if (start == kInvalidNode) start = i;
      }
    }
    if (want == 0) return true;
    if (!powered[start]) return false;
    std::fill(seen_.begin(), seen_.end(), 0);
    std::size_t head = 0;
    std::size_t tail = 0;
    queue_[tail++] = start;
    seen_[start] = 1;
    int found = endpoints[start] ? 1 : 0;
    while (head < tail && found < want) {
      const NodeId a = queue_[head++];
      for (Direction d : kMeshDirections) {
        const NodeId b = geom_.neighbor(a, d);
        if (b == kInvalidNode || seen_[b] || !powered[b]) continue;
        seen_[b] = 1;
        if (endpoints[b]) ++found;
        queue_[tail++] = b;
      }
    }
    return found == want;
  }

 private:
  const MeshGeometry& geom_;
  std::vector<std::uint8_t> seen_;
  std::vector<NodeId> queue_;  ///< each node enters at most once
};

/// True when c's powered mesh neighbours stay connected to each other
/// through the powered cells of the ring of eight around c, stepping only
/// between cells adjacent on the ring. Every path through c then has a
/// detour around it, so parking c disconnects nothing: a sufficient test,
/// not a necessary one.
bool ring_keeps_neighbours_connected(const MeshGeometry& geom,
                                     const std::vector<bool>& powered,
                                     NodeId c) {
  // Clockwise from North; the even positions are the mesh neighbours.
  static constexpr int kDx[8] = {0, 1, 1, 1, 0, -1, -1, -1};
  static constexpr int kDy[8] = {-1, -1, 0, 1, 1, 1, 0, -1};
  const Coord at = geom.coord(c);
  std::array<bool, 8> open{};
  int closed = -1;
  for (int k = 0; k < 8; ++k) {
    const int x = at.x + kDx[k];
    const int y = at.y + kDy[k];
    open[k] = x >= 0 && x < geom.width() && y >= 0 && y < geom.height() &&
              powered[geom.id(x, y)];
    if (!open[k]) closed = k;
  }
  if (closed < 0) return true;  // the whole ring is powered
  // Once round from a closed cell: count the open arcs holding a neighbour.
  int arcs = 0;
  bool counted = false;
  for (int i = 1; i <= 8; ++i) {
    const int k = (closed + i) % 8;
    if (!open[k]) {
      counted = false;
    } else if (k % 2 == 0 && !counted) {
      ++arcs;
      counted = true;
    }
  }
  return arcs <= 1;
}

}  // namespace

bool endpoints_connected(const MeshGeometry& geom,
                         const std::vector<bool>& powered,
                         const std::vector<bool>& endpoints) {
  return Connectivity(geom).endpoints_connected(powered, endpoints);
}

std::vector<bool> compute_parked_set(
    const MeshGeometry& geom, const std::vector<std::uint8_t>& gated_core,
    const std::vector<bool>& always_on, RpPolicy policy) {
  const int n = geom.num_nodes();
  FLOV_CHECK(static_cast<int>(gated_core.size()) == n &&
                 static_cast<int>(always_on.size()) == n,
             "mask size mismatch");
  std::vector<bool> powered(n, true);
  std::vector<bool> endpoints(n, false);
  bool any_endpoint = false;
  for (NodeId i = 0; i < n; ++i) {
    endpoints[i] = !gated_core[i] || always_on[i];
    any_endpoint = any_endpoint || endpoints[i];
  }
  FLOV_CHECK(any_endpoint, "RP: no active endpoints to connect");

  // Greedy: try candidates in id order; keep a parking only if the active
  // endpoints stay connected in the remaining powered sub-graph. They are
  // connected before each try (the full mesh is, and every kept parking
  // keeps them so), so a candidate whose ring detours around it parks
  // without the full search.
  Connectivity bfs(geom);
  for (NodeId c = 0; c < n; ++c) {
    if (!gated_core[c] || always_on[c]) continue;
    if (policy == RpPolicy::kConservative) {
      bool near_active = false;
      for (Direction d : kMeshDirections) {
        const NodeId b = geom.neighbor(c, d);
        if (b != kInvalidNode && !gated_core[b]) near_active = true;
      }
      if (near_active) continue;
    }
    powered[c] = false;
    if (ring_keeps_neighbours_connected(geom, powered, c)) continue;
    if (!bfs.endpoints_connected(powered, endpoints)) powered[c] = true;
  }
  return powered;
}

}  // namespace flov
