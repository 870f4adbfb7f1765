// Protocol-visible router power states (paper Fig. 2) and the Power State
// Register (PSR) view a router keeps of its neighborhood.
#pragma once

#include <array>

#include "common/geometry.hpp"
#include "common/types.hpp"

namespace flov {

/// The four states of the FLOV power-state transition diagram (Fig. 2).
enum class PowerState : std::uint8_t {
  kActive = 0,
  kDraining,
  kSleep,
  kWakeup,
};

const char* to_string(PowerState s);

/// True when the router's baseline pipeline is operational (routing
/// decisions may rely on it as a turn point).
constexpr bool is_powered(PowerState s) { return s == PowerState::kActive; }

/// Per-router neighborhood view: two sets of PSRs (physical + logical
/// neighbors, Section III) plus the output masks the handshake protocol
/// maintains. Plain data — mutated by the HSC, read by routing/allocation.
struct NeighborhoodView {
  /// Power state of the immediate (physical) neighbor per direction.
  std::array<PowerState, kNumMeshDirs> physical{
      PowerState::kActive, PowerState::kActive, PowerState::kActive,
      PowerState::kActive};
  /// Nearest powered-on router per direction ("logical neighbor"); equals
  /// the physical neighbor in the baseline, kInvalidNode if the whole
  /// remainder of the row/column is asleep or off the mesh edge.
  std::array<NodeId, kNumMeshDirs> logical{kInvalidNode, kInvalidNode,
                                           kInvalidNode, kInvalidNode};
  /// Power state of the logical neighbor per direction (the second PSR set
  /// of Section III; consulted only by the gFLOV handshake).
  std::array<PowerState, kNumMeshDirs> logical_state{
      PowerState::kActive, PowerState::kActive, PowerState::kActive,
      PowerState::kActive};
  /// When true, no NEW packets may be allocated toward this output (the
  /// neighbor is draining or waking up); in-flight packets finish.
  std::array<bool, kNumMeshDirs> output_blocked{false, false, false, false};
  /// Poisoned-edge marks (PROTOCOL.md §8): the outgoing link in this
  /// direction hard-faulted and eats every flit. Routing treats a poisoned
  /// edge as a last-resort turn; unlike output_blocked it never clears.
  std::array<bool, kNumMeshDirs> link_dead{false, false, false, false};

  NodeId logical_neighbor(Direction d) const { return logical[dir_index(d)]; }
  bool blocked(Direction d) const { return output_blocked[dir_index(d)]; }
  bool dead_link(Direction d) const { return link_dead[dir_index(d)]; }

  /// "Powered-on neighbor" test used by the dynamic routing algorithm: the
  /// immediate neighbor exists and is Active.
  bool neighbor_powered(Direction d) const {
    return physical[dir_index(d)] == PowerState::kActive;
  }
};

}  // namespace flov
