// Router Parking policies (Samih et al., HPCA'13 — re-implemented).
//
// Given the set of gated cores, decide which routers to park while keeping
// every active endpoint (active cores + always-on nodes such as memory
// controllers) connected through the powered sub-mesh. The paper evaluates
// FLOV against RP's *aggressive* policy (park as many as possible), which
// is also workload-independent — matching the FLOV paper's Fig. 9
// methodology. A conservative policy is provided for ablations: it parks a
// gated router only when none of its mesh neighbors hosts an active core,
// trading static power for shorter detours.
#pragma once

#include <cstdint>
#include <vector>

#include "common/geometry.hpp"
#include "common/types.hpp"

namespace flov {

enum class RpPolicy {
  kAggressive = 0,
  kConservative,
};

/// Returns powered[id] for every router. `gated_core[id]` marks cores the
/// OS put to sleep; `always_on[id]` marks routers that must stay powered
/// regardless (MCs, or empty). Guarantees the powered sub-graph connects
/// all active endpoints (asserts if the input itself is degenerate).
std::vector<bool> compute_parked_set(
    const MeshGeometry& geom, const std::vector<std::uint8_t>& gated_core,
    const std::vector<bool>& always_on, RpPolicy policy);

/// True when all `endpoints` lie in one connected component of the powered
/// sub-graph.
bool endpoints_connected(const MeshGeometry& geom,
                         const std::vector<bool>& powered,
                         const std::vector<bool>& endpoints);

}  // namespace flov
