#include "cmp/core.hpp"

namespace flov {
namespace {

/// Disjoint address regions: shared region at the bottom, then per-core
/// private regions.
Addr shared_base() { return 0; }

}  // namespace

Core::Core(NodeId tile, const BenchmarkProfile& profile,
           std::uint64_t instructions, std::uint64_t seed, L1Cache* l1)
    : tile_(tile), profile_(profile), instructions_(instructions),
      rng_(seed), l1_(l1) {}

Addr Core::pick_address() {
  if (rng_.next_bool(profile_.share_fraction)) {
    return shared_base() + rng_.next_below(profile_.shared_blocks);
  }
  const Addr priv_base =
      profile_.shared_blocks +
      static_cast<Addr>(tile_) * profile_.private_blocks;
  return priv_base + rng_.next_below(profile_.private_blocks);
}

bool Core::step(Cycle /*now*/) {
  switch (state_) {
    case State::kRunning: {
      if (l1_->miss_outstanding()) return false;  // stalled on memory
      if (retired_ >= instructions_) {
        state_ = State::kFlushing;
        l1_->begin_flush();
        return false;
      }
      ++retired_;
      if (rng_.next_bool(profile_.mem_access_rate)) {
        const bool store = rng_.next_bool(profile_.write_fraction);
        l1_->access(pick_address(), store);  // hit or start a miss
      }
      return false;
    }
    case State::kFlushing:
      l1_->flush_step();
      if (l1_->flush_done()) {
        state_ = State::kIdle;
        return true;  // gate me
      }
      return false;
    case State::kIdle:
      return false;
  }
  return false;
}

}  // namespace flov
