// Struct-of-arrays hot state for one mesh.
//
// Everything Router::step and NetworkInterface::step touch every cycle —
// datapath mode, resident-flit tallies, per-VC input/output records, FLOV
// bypass latches, NI credit counters — lives in contiguous per-mesh slabs
// indexed by router id, owned by the Network and handed to each component
// as raw pointers/Spans at construction. A 4096-router sweep then walks
// linear memory in node-id order instead of chasing 4096 heap objects each
// holding a dozen small vectors. Cold state (handshake episodes, fault
// bookkeeping, reliable-delivery maps, telemetry) stays object-resident.
//
// Components constructed WITHOUT a mesh slab (standalone unit tests) bind
// to a private single-slot MeshHotState instead — same code paths, no
// special cases on the hot path.
//
// Layout: per-VC records are grouped [node][port][vc] so one router's whole
// allocation state is one cache-friendly stripe, and consecutive routers'
// stripes are adjacent (domain workers step ascending ids). Writers are
// partitioned by node id under domain-parallel stepping, and a router only
// ever writes its own slots, so slab cells inherit the same no-race
// argument as the per-object fields they replace; stripes of routers in
// different domains can share a cache line only at domain boundaries —
// the same boundary the WakeList byte array already has.
//
// Packed occupancy (docs/PERFORMANCE.md §4). Every quantity the invariant
// verifier sums or compares has one packed array here, and that array is
// the component's own field, not a mirror of it:
//   * in_len      — each input VC's buffer length (RingBuffer count cell),
//   * out_credits — each output VC's credit counter,
//   * latch_full  — one bit per FLOV latch: set while it holds a flit,
//   * ch_len      — each channel's visible queue length, by channel index,
//   * ni_injected / ni_ejected — each NI's flit counters.
// Flit conservation is then a sum over a few KB and a credit segment reads
// one length run and one credit run; the flits themselves stay in the
// per-VC rings and latches.
#pragma once

#include <cstdint>
#include <vector>

#include "common/geometry.hpp"
#include "common/types.hpp"
#include "noc/channel.hpp"
#include "noc/flit.hpp"
#include "noc/input_unit.hpp"
#include "noc/output_unit.hpp"

namespace flov {

/// Datapath operating mode (distinct from the protocol PowerState: a
/// Draining router still runs kPipeline; a Wakeup router still runs
/// kBypass until it turns Active).
enum class RouterMode : std::uint8_t {
  kPipeline = 0,  ///< baseline router operational
  kBypass,        ///< power-gated with FLOV latches active
  kParked,        ///< fully off (Router Parking)
  /// Hard-faulted (permanently dead, PROTOCOL.md §8). Unlike kParked —
  /// whose contract is that no traffic ever arrives — a dead router is a
  /// black hole that actively destroys arriving flits (reported through the
  /// kill callback for fault accounting) while still returning their
  /// credits upstream, so in-flight worms drain through the corpse instead
  /// of wedging their upstream VCs forever.
  kDead,
};

/// "pipeline" / "bypass" / "parked" / "dead" (incident JSON `mode`).
const char* to_string(RouterMode m);

/// One FLOV bypass output latch (Section III): holds at most one flit for
/// exactly one cycle before forward_latches pushes it out. `flit` is valid
/// only while the latch's bit in MeshHotState::latch_full is set.
struct FlovLatch {
  Flit flit;
  Cycle write_cycle = 0;
};

struct MeshHotState {
  int nodes = 0;
  int num_vcs = 0;

  std::vector<RouterMode> mode;           ///< [node]
  /// [node] flits resident now: the active-set scheduler's cache of the
  /// router's in_len stripe plus latch_full bits.
  std::vector<std::int32_t> resident;
  std::vector<InputVc> in_vc;             ///< [node][port][vc]
  std::vector<VcLength> in_len;           ///< [node][port][vc]
  std::vector<OutputVcState> out_vc;      ///< [node][port][vc]
  std::vector<CreditCount> out_credits;   ///< [node][port][vc]
  std::vector<FlovLatch> latch;           ///< [node][mesh dir]
  std::vector<std::uint8_t> latch_full;   ///< [node] bit = mesh dir index
  std::vector<ChannelLength> ch_len;      ///< [Network::channel_index]
  std::vector<std::uint64_t> ni_injected;  ///< [node] flits sent to router
  std::vector<std::uint64_t> ni_ejected;   ///< [node] flits consumed
  std::vector<std::int32_t> ni_credits;   ///< [node][vc] free local slots
  std::vector<std::uint8_t> ni_vc_busy;   ///< [node][vc] mid-packet flag

  /// Sizes every slab. Must run before any component binds into it; the
  /// vectors never resize afterwards (bound pointers must stay put).
  void init(int num_nodes, int vcs, int buffer_depth, int num_channels = 0) {
    nodes = num_nodes;
    num_vcs = vcs;
    const std::size_t n = static_cast<std::size_t>(num_nodes);
    const std::size_t nv = n * vcs;
    mode.assign(n, RouterMode::kPipeline);
    resident.assign(n, 0);
    in_vc.assign(nv * kNumPorts, InputVc{});
    in_len.assign(nv * kNumPorts, 0);
    out_vc.assign(nv * kNumPorts, OutputVcState{});
    out_credits.assign(nv * kNumPorts,
                       static_cast<CreditCount>(buffer_depth));
    latch.assign(n * kNumMeshDirs, FlovLatch{});
    latch_full.assign(n, 0);
    ch_len.assign(static_cast<std::size_t>(num_channels), 0);
    ni_injected.assign(n, 0);
    ni_ejected.assign(n, 0);
    ni_credits.assign(nv, buffer_depth);
    ni_vc_busy.assign(nv, 0);
  }

  std::size_t vc_slot(NodeId n, int port) const {
    return (static_cast<std::size_t>(n) * kNumPorts + port) * num_vcs;
  }

  Span<InputVc> input_vcs(NodeId n, int port) {
    return {&in_vc[vc_slot(n, port)], num_vcs};
  }
  Span<VcLength> input_lengths(NodeId n, int port) {
    return {&in_len[vc_slot(n, port)], num_vcs};
  }
  Span<OutputVcState> output_vcs(NodeId n, int port) {
    return {&out_vc[vc_slot(n, port)], num_vcs};
  }
  Span<CreditCount> output_credits(NodeId n, int port) {
    return {&out_credits[vc_slot(n, port)], num_vcs};
  }
  Span<FlovLatch> latches(NodeId n) {
    return {&latch[static_cast<std::size_t>(n) * kNumMeshDirs], kNumMeshDirs};
  }
  Span<std::int32_t> ni_credit_row(NodeId n) {
    return {&ni_credits[static_cast<std::size_t>(n) * num_vcs], num_vcs};
  }
  Span<std::uint8_t> ni_busy_row(NodeId n) {
    return {&ni_vc_busy[static_cast<std::size_t>(n) * num_vcs], num_vcs};
  }
};

}  // namespace flov
