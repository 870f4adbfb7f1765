// Shared glue between a FaultInjector and a Network's link channels.
//
// Every scheme (FLOV, RP, Baseline) arms faults the same way, through
// arm_faults: each inter-router flit channel gets a fate hook keyed by
// link_key = node * 4 + dir_index(dir) (the sender side of the directed
// link), and every flit a dropped wire or a dead router destroys is
// reported back to the network so its cached in-flight count stays
// truthful. Local NI channels and credit wires stay reliable: credit loss
// without a credit-recovery protocol would be an unrecoverable leak, not
// an interesting fault.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "fault/fault_injector.hpp"

namespace flov {

class Network;

/// Directed-link fate key of `node`'s outgoing channel toward `d`.
inline std::uint32_t link_fate_key(NodeId node, Direction d) {
  return static_cast<std::uint32_t>(node) * 4u +
         static_cast<std::uint32_t>(dir_index(d));
}

/// Creates the injector for `faults` and arms `net` with it: the per-flit
/// fault hook on every inter-router flit channel, and on every router the
/// callback that accounts each flit it destroys while dead (FLOV routers
/// never die that way: a dead FLOV tile flies flits over). Null, arming
/// nothing, when `faults` injects nothing.
std::unique_ptr<FaultInjector> arm_faults(Network& net,
                                          const FaultParams& faults);

/// Evaluates the hard-fault fate of every directed inter-router link and
/// writes the link_key-indexed mask (size num_nodes * 4). Returns the
/// number of dead directed links.
int mark_dead_links(const Network& net, const FaultInjector& fault,
                    std::vector<char>& mask);

}  // namespace flov
