#include "fault/fault_wiring.hpp"

#include <optional>

#include "noc/network.hpp"
#include "noc/router.hpp"
#include "telemetry/trace.hpp"

namespace flov {

namespace {

void arm_link_faults(Network& net, FaultInjector& fault) {
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    for (Direction d : kMeshDirections) {
      auto* ch = net.flit_channel(id, d);
      if (!ch) continue;
      const std::uint32_t link_key = link_fate_key(id, d);
      // On a drop, tell the network (the flit was counted as injected but
      // will never eject, and the cached in-network count must not keep
      // carrying it) and refund the sender's credit — the downstream
      // buffer never sees the flit, and a dead link that leaked a credit
      // per kill would wedge its output VC permanently.
      ch->set_fault_hook([f = &fault, n = &net, id, d, link_key](
                             Cycle now, Flit& flit) -> std::optional<Cycle> {
        PacketTable::Entry& pkt = n->packets()[flit.packet];
        const std::optional<Cycle> fate =
            f->flit_fate(flit, pkt.packet_id, link_key, now);
        if (!fate.has_value()) {
          FLOV_TRACE(telemetry::kTraceFault,
                     telemetry::TraceEventType::kFaultFlitDrop, now, id,
                     pkt.packet_id, flit.flit_index);
          n->note_flit_dropped(id, flit);
          n->router(id).refund_output_credit(d, flit.vc, now);
          return fate;
        }
        // Survivors can still take a soft error: one payload bit flips in
        // transit. Routing metadata is untouched — the flit delivers, the
        // packet is just marked corrupted. The packet has one payload, in
        // its table entry, and the head carries it: a body or tail flip is
        // counted but changes nothing the destination reads.
        if (const std::uint64_t flip =
                f->payload_flip_mask(flit, pkt.packet_id, link_key)) {
          if (flit.head) pkt.payload ^= flip;
          FLOV_TRACE(telemetry::kTraceFault,
                     telemetry::TraceEventType::kFaultPayloadFlip, now, id,
                     pkt.packet_id, flit.flit_index);
        }
        if (*fate > 0) {
          FLOV_TRACE(telemetry::kTraceFault,
                     telemetry::TraceEventType::kFaultFlitDelay, now, id,
                     pkt.packet_id, *fate);
        }
        return fate;
      });
    }
  }
}

}  // namespace

std::unique_ptr<FaultInjector> arm_faults(Network& net,
                                          const FaultParams& faults) {
  if (!faults.any()) return nullptr;
  auto fault = std::make_unique<FaultInjector>(faults, net.num_nodes());
  arm_link_faults(net, *fault);
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    net.router(id).set_kill_callback(
        [f = fault.get(), n = &net, id](const Flit& fl) {
          f->note_hard_killed();
          n->note_flit_dropped(id, fl);
        });
  }
  return fault;
}

int mark_dead_links(const Network& net, const FaultInjector& fault,
                    std::vector<char>& mask) {
  mask.assign(static_cast<std::size_t>(net.num_nodes()) * 4, 0);
  int dead = 0;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    for (Direction d : kMeshDirections) {
      if (net.geom().neighbor(id, d) == kInvalidNode) continue;
      const std::uint32_t key = link_fate_key(id, d);
      if (fault.link_dies(key)) {
        mask[key] = 1;
        dead++;
      }
    }
  }
  return dead;
}

}  // namespace flov
