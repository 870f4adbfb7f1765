#include "rp/parking_policy.hpp"

#include <deque>

#include "common/log.hpp"

namespace flov {

bool endpoints_connected(const MeshGeometry& geom,
                         const std::vector<bool>& powered,
                         const std::vector<bool>& endpoints) {
  const int n = geom.num_nodes();
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
  std::vector<bool> seen(n, false);
  std::deque<NodeId> q{start};
  seen[start] = true;
  int found = endpoints[start] ? 1 : 0;
  while (!q.empty() && found < want) {
    const NodeId a = q.front();
    q.pop_front();
    for (Direction d : kMeshDirections) {
      const NodeId b = geom.neighbor(a, d);
      if (b == kInvalidNode || seen[b] || !powered[b]) continue;
      seen[b] = true;
      if (endpoints[b]) ++found;
      q.push_back(b);
    }
  }
  return found == want;
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
  // endpoints stay connected in the remaining powered sub-graph.
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
    if (!endpoints_connected(geom, powered, endpoints)) powered[c] = true;
  }
  return powered;
}

}  // namespace flov
