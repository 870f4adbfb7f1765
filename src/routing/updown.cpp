// Up*/down* next-hop tables by dynamic programming over the product graph.
//
// State (a, phase): phase up-allowed may take an up-link (staying
// up-allowed) or a down-link (becoming went-down); phase went-down may take
// only down-links. Up-links strictly decrease the key (BFS level, id) and
// down-links strictly increase it, so the product graph is a DAG and the
// distances to a destination solve two sweeps without a queue:
//   T[a] = 1 + min over down-links a->b of T[b]           (descending key)
//   F[a] = min(T[a], 1 + min over up-links a->b of F[b])  (ascending key)
// with T[dest] = F[dest] = 0, where T is the distance from (a, went-down)
// and F the distance from (a, up-allowed). Each update is an element-wise
// min over a row of destinations, so the sweeps run over blocks of
// destination columns that stay cache-resident. Only the next hop of each
// (from, dest, phase) survives a block.
#include "routing/updown.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <string>

#include "common/log.hpp"

namespace flov {
namespace {

/// Distance of a state with no legal path to the destination. Real
/// distances are below 2 * num_nodes (the product graph's state count).
constexpr std::uint16_t kInf = 0x7FFF;

/// True when the mesh edge from `a` toward `d` survives (both directions
/// alive); vacuously true without a dead-link mask.
bool edge_ok(const MeshGeometry& geom, const std::vector<char>* dead_links,
             NodeId a, Direction d) {
  if (dead_links == nullptr) return true;
  const NodeId b = geom.neighbor(a, d);
  return !(*dead_links)[a * 4 + dir_index(d)] &&
         !(*dead_links)[b * 4 + dir_index(opposite(d))];
}

/// The legal links of one routed node, indexed by dir_index: the neighbour
/// (kInvalidNode when off the mesh, outside the root's component or cut by
/// a dead link) and whether the link is an up-link.
struct Links {
  std::array<NodeId, kNumMeshDirs> to;
  std::array<bool, kNumMeshDirs> up;
};

/// dst[j] = min(dst[j], src[j] + 1) over `w` destination columns.
void min_plus_one(std::uint16_t* dst, const std::uint16_t* src, int w) {
  for (int j = 0; j < w; ++j) {
    dst[j] = std::min(dst[j], static_cast<std::uint16_t>(src[j] + 1));
  }
}

#ifndef NDEBUG
/// Debug oracle for one block of destination columns: the distances solve
/// the product graph's Bellman equations (0 at the destination, else 1 +
/// the best legal successor, kInf when there is none) and every stored hop
/// is the FIRST legal direction attaining that best. The product graph is
/// a DAG, so that solution is unique: a block that passes is exact.
void check_bellman(const UpDownRoutes& routes, int num_nodes,
                   const std::vector<Links>& links,
                   const std::vector<std::uint16_t>& t,
                   const std::vector<std::uint16_t>& f, int cols, int d0,
                   int w) {
  const auto at = [&](const std::vector<std::uint16_t>& m, NodeId a, int j) {
    return static_cast<int>(m[static_cast<std::size_t>(a) * cols + j]);
  };
  for (NodeId a = 0; a < num_nodes; ++a) {
    for (int j = 0; j < w; ++j) {
      const NodeId dest = d0 + j;
      for (const bool went_down : {false, true}) {
        const auto hop = routes.next_hop(a, dest, went_down);
        if (routes.bfs_level(a) < 0) {
          FLOV_DCHECK(!hop, "up*/down* hop from unrouted node " +
                                std::to_string(a));
          continue;
        }
        int best = kInf;
        int best_k = -1;
        bool best_after = false;
        for (int k = 0; k < kNumMeshDirs; ++k) {
          const NodeId b = links[a].to[k];
          if (b == kInvalidNode || (went_down && links[a].up[k])) continue;
          const bool after = went_down || !links[a].up[k];
          const int next = at(after ? t : f, b, j) + 1;
          if (next < best) {
            best = next;
            best_k = k;
            best_after = after;
          }
        }
        if (a == dest) best = 0;
        const auto where = [&] {
          return std::to_string(a) + "->" + std::to_string(dest) +
                 " phase " + std::to_string(went_down);
        };
        FLOV_DCHECK(at(went_down ? t : f, a, j) == best,
                    "up*/down* distance breaks the Bellman equation at " +
                        where());
        if (a == dest || best == kInf) {
          FLOV_DCHECK(!hop, "up*/down* hop where none exists at " + where());
        } else {
          FLOV_DCHECK(hop && dir_index(hop->dir) == best_k &&
                          hop->went_down_after == best_after,
                      "up*/down* hop is not the first shortest at " + where());
        }
      }
    }
  }
}
#endif

}  // namespace

UpDownRoutes::UpDownRoutes(const MeshGeometry& geom,
                           const std::vector<bool>& powered,
                           const std::vector<char>* dead_links)
    : geom_(geom),
      n_(geom.num_nodes()),
      powered_(powered),
      level_(geom.num_nodes(), -1) {
  FLOV_CHECK(static_cast<int>(powered.size()) == n_,
             "powered mask size mismatch");
  FLOV_CHECK(dead_links == nullptr ||
                 static_cast<int>(dead_links->size()) == n_ * 4,
             "dead-link mask size mismatch");
  FLOV_CHECK(2 * n_ < kInf, "mesh too large for 16-bit up*/down* distances");

  // Root the BFS tree at the smallest powered id.
  for (NodeId i = 0; i < n_; ++i) {
    if (powered_[i]) {
      root_ = i;
      break;
    }
  }
  FLOV_CHECK(root_ != kInvalidNode, "no powered routers");

  std::deque<NodeId> q{root_};
  level_[root_] = 0;
  while (!q.empty()) {
    const NodeId a = q.front();
    q.pop_front();
    for (Direction d : kMeshDirections) {
      const NodeId b = geom.neighbor(a, d);
      if (b == kInvalidNode || !powered_[b] || level_[b] >= 0) continue;
      if (!edge_ok(geom, dead_links, a, d)) continue;
      level_[b] = level_[a] + 1;
      q.push_back(b);
    }
  }

  // The routed nodes in ascending (BFS level, id): the DP's key order.
  std::vector<NodeId> order;
  for (NodeId i = 0; i < n_; ++i) {
    if (level_[i] >= 0) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return level_[a] < level_[b];
  });
  build_hops(order, dead_links);
}

void UpDownRoutes::build_hops(const std::vector<NodeId>& order,
                              const std::vector<char>* dead_links) {
  std::vector<Links> links(n_);
  for (const NodeId a : order) {
    for (int k = 0; k < kNumMeshDirs; ++k) {
      const Direction d = kMeshDirections[k];
      const NodeId b = geom_.neighbor(a, d);
      const bool legal = b != kInvalidNode && level_[b] >= 0 &&
                         edge_ok(geom_, dead_links, a, d);
      links[a].to[k] = legal ? b : kInvalidNode;
      links[a].up[k] = legal && is_up_link(a, d);
    }
  }

  hop_.assign(static_cast<std::size_t>(n_) * n_, 0);
  // T and F for one block of destination columns: 4 bytes per node per
  // column, at most 1 MiB; meshes of up to 512 nodes take one block.
  const int cols = std::min(n_, std::max(16, (1 << 18) / n_));
  std::vector<std::uint16_t> t(static_cast<std::size_t>(n_) * cols);
  std::vector<std::uint16_t> f(t.size());
  const auto row = [cols](std::vector<std::uint16_t>& m, NodeId a) {
    return m.data() + static_cast<std::size_t>(a) * cols;
  };
  for (int d0 = 0; d0 < n_; d0 += cols) {
    const int w = std::min(cols, n_ - d0);
    // Pass 1, descending key: T over down-links.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId a = *it;
      std::uint16_t* ta = row(t, a);
      std::fill_n(ta, w, kInf);
      for (int k = 0; k < kNumMeshDirs; ++k) {
        const NodeId b = links[a].to[k];
        if (b != kInvalidNode && !links[a].up[k]) {
          min_plus_one(ta, row(t, b), w);
        }
      }
      if (a >= d0 && a < d0 + w) ta[a - d0] = 0;
    }
    // Pass 2, ascending key: F over up-links, starting from T.
    for (const NodeId a : order) {
      std::uint16_t* fa = row(f, a);
      std::copy_n(row(t, a), w, fa);
      for (int k = 0; k < kNumMeshDirs; ++k) {
        const NodeId b = links[a].to[k];
        if (b != kInvalidNode && links[a].up[k]) {
          min_plus_one(fa, row(f, b), w);
        }
      }
    }
    // Next hops: a legal direction whose successor is one hop closer. The
    // directions go in reverse kMeshDirections order so that, of several
    // shortest hops, the first in that order is written last and kept.
    for (const NodeId a : order) {
      const std::uint16_t* ta = row(t, a);
      const std::uint16_t* fa = row(f, a);
      std::uint8_t* out = &hop_[static_cast<std::size_t>(a) * n_ + d0];
      for (int k = kNumMeshDirs - 1; k >= 0; --k) {
        const NodeId b = links[a].to[k];
        if (b == kInvalidNode) continue;
        if (links[a].up[k]) {
          // An up-link is legal only up-allowed and keeps that phase.
          const std::uint16_t* fb = row(f, b);
          const auto code = static_cast<std::uint8_t>(kHopValid | k);
          for (int j = 0; j < w; ++j) {
            const std::uint8_t byte = out[j];
            out[j] = fb[j] + 1 == fa[j] ? (byte & 0xF0) | code : byte;
          }
        } else {
          // A down-link is legal in either phase and leads to went-down.
          const std::uint16_t* tb = row(t, b);
          const auto code =
              static_cast<std::uint8_t>(kHopValid | kHopWentDown | k);
          for (int j = 0; j < w; ++j) {
            const int next = tb[j] + 1;
            std::uint8_t byte = out[j];
            byte = next == fa[j] ? (byte & 0xF0) | code : byte;
            byte = next == ta[j] ? (byte & 0x0F) | (code << 4) : byte;
            out[j] = byte;
          }
        }
      }
    }
#ifndef NDEBUG
    check_bellman(*this, n_, links, t, f, cols, d0, w);
#endif
  }
}

bool UpDownRoutes::is_up_link(NodeId a, Direction d) const {
  const NodeId b = geom_.neighbor(a, d);
  FLOV_DCHECK(b != kInvalidNode, "up-link query off edge");
  if (level_[b] != level_[a]) return level_[b] < level_[a];
  return b < a;
}

int UpDownRoutes::path_len(NodeId from, NodeId dest) const {
  int hops = 0;
  bool went_down = false;
  for (NodeId cur = from; cur != dest; ++hops) {
    const auto hop = next_hop(cur, dest, went_down);
    if (!hop) return -1;  // only ever on the first hop
    cur = geom_.neighbor(cur, hop->dir);
    went_down = hop->went_down_after;
  }
  return hops;
}

bool UpDownRoutes::all_powered_connected() const {
  for (NodeId i = 0; i < n_; ++i) {
    if (powered_[i] && level_[i] < 0) return false;
  }
  return true;
}

}  // namespace flov
