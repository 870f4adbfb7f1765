// Flit, credit and packet descriptors.
//
// Wormhole switching: a packet is a head flit, zero or more body flits and a
// tail flit (a 1-flit packet is head+tail). A flit is a 12-byte handle: it
// carries only what routing, VC/switch allocation, the FLOV latches and the
// credit loop read at every hop — destination, current VC and the per-hop
// flags. Everything that belongs to the packet (id, source, cycles,
// payload, reliable-delivery fields, hop counters) is stored once in the
// packet's PacketTable entry (noc/packet_table.hpp), named by `packet`.
#pragma once

#include <cstdint>

#include "common/geometry.hpp"
#include "common/types.hpp"
#include "noc/packet_table.hpp"

namespace flov {

struct Flit {
  /// The packet's PacketTable entry.
  PacketTable::Handle packet = 0;
  NodeId dest = kInvalidNode;
  std::uint16_t flit_index = 0;  ///< position within the packet
  /// VC the flit occupies/will occupy at the (logical) downstream input
  /// port; computed by the upstream VA, preserved across fly-over hops.
  /// The packet's vnet is vc / vcs_per_vnet.
  std::uint8_t vc = 0;
  bool head : 1 = false;
  bool tail : 1 = false;
  /// True once the packet is committed to the escape sub-network (it then
  /// stays there until ejection — Section V).
  bool escape : 1 = false;
  /// Up*/down* phase bit for RP table routing (false until the path takes
  /// its first "down" link).
  bool updown_went_down : 1 = false;
  /// The 1-flit ack control packet class of the reliable layer: never
  /// reported to the ejection callback, exists only to carry its entry's
  /// ack fields.
  bool ctrl : 1 = false;
};
static_assert(sizeof(Flit) <= 16, "a flit is one 128-bit link word");

/// Credit returned upstream when a flit leaves an input buffer slot.
struct Credit {
  VcId vc = -1;
};

/// Descriptor used by traffic generators / the CMP layer to request a packet
/// injection; the network interface turns it into flits.
struct PacketDescriptor {
  NodeId src = kInvalidNode;
  NodeId dest = kInvalidNode;
  VnetId vnet = 0;
  std::int32_t size_flits = 1;
  Cycle gen_cycle = 0;
  std::uint64_t payload = 0;

  /// Reliable-delivery metadata (see PacketTable::Entry): seq != 0 marks a
  /// descriptor already owned by the retransmit buffer; ctrl marks the ack
  /// packet class generated inside the NI.
  std::uint32_t seq = 0;
  bool ctrl = false;
  std::uint32_t ack_seq = 0;
  bool ack_valid = false;
};

}  // namespace flov
