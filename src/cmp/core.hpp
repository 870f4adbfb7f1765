// In-order, blocking core model.
//
// Retires one instruction per cycle while running; a memory instruction
// that misses in L1 stalls the core until the coherence transaction
// completes. When its instruction budget is exhausted the core flushes its
// L1 (writebacks + share-list notifications) and reports itself idle — the
// OS then power-gates the core, which is what drives the router
// power-gating schemes in the full-system experiments.
#pragma once

#include <cstdint>

#include "cmp/benchmark_profile.hpp"
#include "cmp/l1_cache.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace flov {

class Core {
 public:
  Core(NodeId tile, const BenchmarkProfile& profile,
       std::uint64_t instructions, std::uint64_t seed, L1Cache* l1);

  enum class State : std::uint8_t {
    kRunning = 0,
    kFlushing,  ///< work done, L1 flush in progress
    kIdle,      ///< flushed; OS may gate the core
  };

  /// One cycle of execution; returns true if the core just became idle
  /// (gate me now).
  bool step(Cycle now);

  State state() const { return state_; }
  bool done() const { return state_ == State::kIdle; }
  std::uint64_t retired() const { return retired_; }
  std::uint64_t instructions() const { return instructions_; }

 private:
  Addr pick_address();

  NodeId tile_;
  BenchmarkProfile profile_;
  std::uint64_t instructions_;
  Rng rng_;
  L1Cache* l1_;

  State state_ = State::kRunning;
  std::uint64_t retired_ = 0;
};

}  // namespace flov
