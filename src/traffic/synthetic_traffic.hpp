// Bernoulli packet generation over a traffic pattern.
//
// Injection rate is specified in flits/cycle/node (Table I / BookSim
// convention): each active core starts a `packet_size`-flit packet with
// probability rate / packet_size per cycle. Packets are generated even
// while RP stalls injections — they queue at the NI and age (queuing
// delay), which is exactly what Fig. 10 measures.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "noc/system_iface.hpp"
#include "traffic/traffic_pattern.hpp"

namespace flov {

class SyntheticTraffic {
 public:
  SyntheticTraffic(NocSystem* sys, const TrafficPattern* pattern,
                   double inj_rate_flits, int packet_size,
                   std::uint64_t seed);

  /// Generates this cycle's packets into the NI queues.
  void step(Cycle now);

  std::uint64_t generated_packets() const { return generated_; }
  std::uint64_t skipped_inactive_dest() const { return skipped_; }
  /// The active cores this cycle's draws ran over.
  const ActiveCores& active_cores() const { return active_; }

 private:
  NocSystem* sys_;
  const TrafficPattern* pattern_;
  double packet_prob_;
  int packet_size_;
  std::vector<Rng> rngs_;  ///< one independent stream per node
  ActiveCores active_;  ///< refreshed from NocSystem::core_gated_mask
  std::uint64_t generated_ = 0;
  std::uint64_t skipped_ = 0;
};

}  // namespace flov
