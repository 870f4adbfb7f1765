#include "traffic/synthetic_traffic.hpp"

#include "common/log.hpp"

namespace flov {

SyntheticTraffic::SyntheticTraffic(NocSystem* sys,
                                   const TrafficPattern* pattern,
                                   double inj_rate_flits, int packet_size,
                                   std::uint64_t seed)
    : sys_(sys),
      pattern_(pattern),
      packet_prob_(inj_rate_flits / packet_size),
      packet_size_(packet_size),
      active_(std::vector<bool>(
          static_cast<std::size_t>(sys->network().num_nodes()), true)) {
  FLOV_CHECK(packet_prob_ <= 1.0, "injection rate exceeds 1 packet/cycle");
  Rng seeder(seed);
  const int n = sys_->network().num_nodes();
  rngs_.reserve(n);
  for (int i = 0; i < n; ++i) rngs_.push_back(seeder.split());
}

void SyntheticTraffic::step(Cycle now) {
  active_.refresh([this](NodeId n) { return !sys_->core_gated(n); });
  FLOV_DCHECK(active_.consistent(), "cached active-core ids drifted");
  // Ascending over the active cores only: the gated ones never draw.
  for (const NodeId src : active_.ids()) {
    if (!rngs_[src].next_bool(packet_prob_)) continue;
    const NodeId dst = pattern_->dest(src, active_, rngs_[src]);
    if (dst == kInvalidNode) {
      ++skipped_;
      continue;
    }
    PacketDescriptor p;
    p.src = src;
    p.dest = dst;
    p.vnet = 0;
    p.size_flits = packet_size_;
    p.gen_cycle = now;
    sys_->network().enqueue(p);
    ++generated_;
  }
}

}  // namespace flov
