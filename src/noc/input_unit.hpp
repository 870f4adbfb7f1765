// Input-side per-VC state of a router port.
//
// Pipeline stages move a VC through: kIdle -> (head arrives) kRouting ->
// (RC) kWaitVc -> (VA) kActive -> ... -> (tail ST) kIdle. `stage_ready`
// enforces at least one cycle per pipeline stage.
#pragma once

#include <vector>

#include "common/geometry.hpp"
#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "noc/flit.hpp"

namespace flov {

enum class VcState : std::uint8_t {
  kIdle = 0,   ///< no packet resident
  kRouting,    ///< head buffered, awaiting route computation
  kWaitVc,     ///< route known, awaiting an output VC (VA stage)
  kActive,     ///< output VC held; flits compete for the switch (SA stage)
};

/// Input-VC buffer length cell (0..buffer_depth; MeshHotState::in_len).
using VcLength = std::uint8_t;

struct InputVc {
  /// Flit storage; its length cell is the VC's slot in
  /// MeshHotState::in_len (bound by the Router).
  RingBuffer<Flit, VcLength> buffer;
  VcState state = VcState::kIdle;

  /// Earliest cycle the next pipeline stage may execute.
  Cycle stage_ready = 0;

  // --- route decision (valid from kWaitVc) ---
  Direction out_dir = Direction::Local;
  bool escape_route = false;  ///< request the escape VC class downstream

  /// Granted output VC (absolute index at out_dir), valid in kActive.
  VcId out_vc = -1;

  /// Cycle of the last forward progress; used for the deadlock-recovery
  /// timeout (Section V).
  Cycle wait_since = 0;

  /// True once any flit of the resident packet has been sent downstream
  /// (the packet can no longer be re-routed to the escape sub-network).
  bool sent_any = false;

  bool empty() const { return buffer.empty(); }
  int occupancy() const { return static_cast<int>(buffer.size()); }

  void reset_to_idle() {
    state = VcState::kIdle;
    out_vc = -1;
    escape_route = false;
    sent_any = false;
  }
};

/// One router input port: `depth`-deep buffers for every VC. The records
/// live in the mesh-wide SoA slab (noc/hot_state.hpp); the port is a view
/// over its slice. `len[v]` is VC v's buffer length (the packed cell its
/// ring counts in).
struct InputPort {
  Span<InputVc> vcs;
  Span<VcLength> len;

  bool all_empty() const {
    for (const VcLength n : len) {
      if (n != 0) return false;
    }
    return true;
  }

  /// Free buffer slots per VC (used by the FLOV credit-copy handover).
  /// Fills a caller-provided scratch buffer — callers on per-cycle paths
  /// keep a reusable vector so this never allocates in steady state.
  void free_slots(int depth, std::vector<int>& out) const {
    out.resize(static_cast<std::size_t>(len.size()));
    for (std::int32_t v = 0; v < len.size(); ++v) {
      out[static_cast<std::size_t>(v)] = depth - len[v];
    }
  }
};

}  // namespace flov
