// Output-side per-VC state of a router port: allocation (which input VC owns
// the downstream VC) and the credit counter tracking free buffer slots at
// the *logical* downstream router (the nearest powered-on one — Section III,
// Credit Control Logic).
#pragma once

#include <cstdint>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace flov {

/// Credit counter cell: free slots at the logical downstream input VC
/// (0..buffer_depth; NocParams::validate caps the depth at 127).
using CreditCount = std::int8_t;

struct OutputVcState {
  bool allocated = false;
  int owner_port = -1;   ///< input port holding this output VC
  VcId owner_vc = -1;    ///< input VC holding this output VC
};

struct OutputPort {
  /// Views into the mesh-wide SoA slab (noc/hot_state.hpp): allocation
  /// records, and per VC the credit counter (MeshHotState::out_credits).
  Span<OutputVcState> vcs;
  Span<CreditCount> credits;

  /// Resets every record to fresh-allocation state with `depth` credits
  /// (wakeup re-init; real values follow via the credit handover).
  void init(int num_vcs, int depth) {
    FLOV_CHECK(num_vcs == vcs.size(), "output port VC count mismatch");
    for (auto& v : vcs) v = OutputVcState{};
    for (auto& c : credits) c = static_cast<CreditCount>(depth);
  }

  bool any_allocated() const {
    for (const auto& v : vcs) {
      if (v.allocated) return true;
    }
    return false;
  }

  /// Reloads every credit counter (FLOV credit-copy at Sleep/Active
  /// transitions). `free_counts` is indexed by absolute VC.
  void reload_credits(const std::vector<int>& free_counts) {
    FLOV_CHECK(static_cast<std::int32_t>(free_counts.size()) == vcs.size(),
               "credit reload size");
    for (std::int32_t v = 0; v < credits.size(); ++v) {
      credits[v] = static_cast<CreditCount>(free_counts[static_cast<std::size_t>(v)]);
    }
  }
};

}  // namespace flov
