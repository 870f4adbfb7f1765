// Up*/down* routes over the powered sub-graph (Router Parking substrate).
//
// RP's fabric manager computes deadlock-free routes on the sub-mesh of
// powered routers and distributes them as tables. We implement the classic
// up*/down* scheme: a BFS spanning tree roots the powered sub-graph; every
// link gets an up/down orientation (up = toward lower BFS level, ties by
// smaller id); a legal path never takes an up-link after a down-link, which
// makes the channel-dependency graph acyclic (deadlock-free with one VC).
// Shortest *legal* paths are computed exactly on the (node, went-down)
// product graph; packets carry the one-bit phase (Flit::updown_went_down).
// That product graph is a DAG, so its distances come from two queue-free
// sweeps in (BFS level, id) order (updown.cpp); only the next hop of every
// (from, dest, phase) is kept, one byte per (from, dest).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/geometry.hpp"
#include "common/types.hpp"

namespace flov {

class UpDownRoutes {
 public:
  /// Builds routes over the routers with `powered[id] == true`. Nodes
  /// outside the powered set are unreachable endpoints.
  ///
  /// `dead_links` (optional): hard-faulted directed links, indexed by
  /// link_key = node * 4 + dir_index(dir). A mesh edge with EITHER
  /// direction dead is excluded entirely (conservative: up*/down* trees
  /// want symmetric edges, and a half-dead link would eat every
  /// credit/flit anyway).
  UpDownRoutes(const MeshGeometry& geom, const std::vector<bool>& powered,
               const std::vector<char>* dead_links = nullptr);

  struct Hop {
    Direction dir = Direction::Local;
    bool went_down_after = false;  ///< phase bit after taking this hop
  };

  /// Next hop of a shortest legal path from `from` to `dest` given the
  /// packet's current phase; nullopt if unreachable (or from == dest).
  /// Of several shortest next hops, the first in kMeshDirections order.
  std::optional<Hop> next_hop(NodeId from, NodeId dest, bool went_down) const {
    const unsigned code = hop_code(from, dest, went_down);
    if ((code & kHopValid) == 0) return std::nullopt;
    return Hop{dir_from_index(static_cast<int>(code & kHopDirMask)),
               (code & kHopWentDown) != 0};
  }

  /// True if a legal path exists from a fresh (phase = up-allowed) packet.
  bool reachable(NodeId from, NodeId dest) const {
    if (from == dest) return powered_[from];
    return (hop_code(from, dest, false) & kHopValid) != 0;
  }

  /// Legal shortest path length in hops (-1 if unreachable); walks the
  /// next-hop table.
  int path_len(NodeId from, NodeId dest) const;

  bool powered(NodeId n) const { return powered_[n]; }
  int bfs_level(NodeId n) const { return level_[n]; }
  NodeId root() const { return root_; }

  /// True when every powered node can reach every other powered node
  /// (the powered sub-graph is connected).
  bool all_powered_connected() const;

  /// True if the directed link from `a` toward `d` is an "up" link.
  bool is_up_link(NodeId a, Direction d) const;

 private:
  // Each byte of hop_ holds two nibbles: the low one is the next hop for
  // phase up-allowed, the high one for phase went-down. A nibble is the
  // direction index, the phase bit after the hop and a valid bit.
  static constexpr unsigned kHopDirMask = 3;
  static constexpr unsigned kHopWentDown = 4;
  static constexpr unsigned kHopValid = 8;

  unsigned hop_code(NodeId from, NodeId dest, bool went_down) const {
    const unsigned byte =
        hop_[static_cast<std::size_t>(from) * static_cast<std::size_t>(n_) +
             static_cast<std::size_t>(dest)];
    return went_down ? byte >> 4 : byte & 0xFu;
  }

  /// Fills hop_ from the two DP sweeps over the nodes in `order`
  /// (ascending (BFS level, id)), one block of destination columns at a
  /// time.
  void build_hops(const std::vector<NodeId>& order,
                  const std::vector<char>* dead_links);

  const MeshGeometry& geom_;
  int n_;
  std::vector<bool> powered_;
  std::vector<int> level_;   ///< BFS level; -1 if unpowered/disconnected
  NodeId root_ = kInvalidNode;
  /// hop_[from * n + dest]: the next hop for both phases (see above);
  /// 0 = unreachable in both.
  std::vector<std::uint8_t> hop_;
};

}  // namespace flov
