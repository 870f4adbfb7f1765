// Private L1 cache with MESI states and a single MSHR (blocking core).
//
// Capacity-managed as a block map with pseudo-random eviction (the NoC
// study cares about miss/eviction *traffic*, not replacement policy
// fidelity). Dirty evictions hold the block in a writeback-pending state
// until the directory acks, so forwards racing the writeback can still be
// served from the pending data — the standard MESI race resolution.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "cmp/message.hpp"

namespace flov {

enum class L1State : std::uint8_t { kS, kE, kM };

class L1Cache {
 public:
  using SendFn = std::function<void(const CoherenceMsg&)>;
  using HomeFn = std::function<NodeId(Addr)>;

  L1Cache(NodeId tile, int capacity_blocks, std::uint64_t seed, SendFn send,
          HomeFn home_of);

  /// Access from the core. Returns true on hit (no stall); false starts a
  /// miss transaction (core must stall until miss_outstanding() clears).
  bool access(Addr addr, bool is_store);

  bool miss_outstanding() const { return mshr_.has_value(); }

  /// Protocol message addressed to this L1.
  void on_message(const CoherenceMsg& msg);

  /// Begins flushing every cached block (core going idle). Call
  /// flush_step() once per cycle until flush_done().
  void begin_flush();
  void flush_step();
  bool flush_done() const {
    return flushing_ && flush_queue_.empty() && wb_pending_.empty() &&
           !mshr_.has_value();
  }
  bool flushing() const { return flushing_; }

  std::size_t cached_blocks() const { return blocks_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Mshr {
    Addr addr;
    bool is_store;
  };

  void evict_one();
  void evict(Addr addr, L1State st);

  NodeId tile_;
  int capacity_;
  Rng rng_;
  SendFn send_;
  HomeFn home_of_;

  /// Keeps its container type: evict_one() picks the victim by position in
  /// its iteration order, which reaches the simulated outputs.
  std::unordered_map<Addr, L1State> blocks_;
  /// Dirty blocks with a PutM in flight (awaiting PutAck).
  std::unordered_set<Addr> wb_pending_;
  std::optional<Mshr> mshr_;

  bool flushing_ = false;
  std::vector<Addr> flush_queue_;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace flov
