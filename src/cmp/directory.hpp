// L2 + directory + memory-controller bank (one per mesh corner).
//
// Blocking MESI directory: one transaction per block at a time; requests
// that hit a busy block queue behind it. The L2 data array is
// capacity-managed; a miss adds DRAM latency before the response. The bank
// processes one message per cycle (plus timer completions), so the corner
// tiles behave like real MC hotspots.
//
// Memory: a bank keeps an entry for every block it has ever seen (about
// 5,000 per bank in a parsec run), so an entry owns no heap memory besides
// its sharer set. Requests queued behind a busy block live in one
// bank-level map, which holds a block's queue only while it is non-empty.
// `Entry::sharers` keeps its container type: its iteration order is the
// Inv fan-out order, which reaches the simulated outputs.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cmp/message.hpp"
#include "common/types.hpp"

namespace flov {

struct DirectoryConfig {
  int l2_capacity_blocks = 32768;  ///< 2 MB per bank (8 MB / 4, Table I)
  Cycle l2_latency = 10;
  Cycle dram_latency = 100;
};

class DirectoryBank {
 public:
  using SendFn = std::function<void(const CoherenceMsg&)>;

  DirectoryBank(NodeId tile, DirectoryConfig cfg, SendFn send);

  /// OS/FM oracle: cores that are power-gated have flushed their L1, so
  /// the directory skips them when invalidating/forwarding (a gated core
  /// provably holds no block; contacting it would needlessly wake its
  /// router, and Router Parking may have removed the route entirely).
  void set_gated_oracle(std::function<bool(NodeId)> fn) {
    gated_ = std::move(fn);
  }

  /// Message addressed to this bank (queued; processed by step()).
  void enqueue(const CoherenceMsg& msg) { incoming_.push_back(msg); }

  void step(Cycle now);

  bool idle() const;
  std::uint64_t transactions() const { return transactions_; }
  std::uint64_t l2_misses() const { return l2_misses_; }

 private:
  enum class DirState : std::uint8_t { kI, kS, kM };

  struct Entry {
    DirState state = DirState::kI;
    NodeId owner = kInvalidNode;
    std::unordered_set<NodeId> sharers;
    // --- transaction-in-progress bookkeeping ---
    bool busy = false;
    MsgType pending_type = MsgType::kGetS;
    NodeId pending_requester = kInvalidNode;
    int acks_needed = 0;
    Cycle data_ready_at = 0;   ///< L2/DRAM access completes
    bool waiting_memory = false;
    bool waiting_owner = false;
  };

  void process(const CoherenceMsg& msg, Cycle now);
  /// Executes a message against its entry (no queueing decisions).
  void handle(Entry& e, const CoherenceMsg& msg, Cycle now);
  /// Drains the block's waiting queue while its entry remains non-busy.
  void pump(Addr addr, Cycle now);
  void start_transaction(Entry& e, const CoherenceMsg& msg, Cycle now);
  void finish_transaction(Addr addr, Entry& e, Cycle now);
  /// L2 lookup; returns the cycle the data is available.
  Cycle fetch_latency(Addr addr, Cycle now);
  void touch_l2(Addr addr);
  void send(MsgType t, Addr a, NodeId dst, NodeId requester, Grant grant);

  NodeId tile_;
  DirectoryConfig cfg_;
  SendFn send_;
  std::function<bool(NodeId)> gated_;

  std::unordered_map<Addr, Entry> dir_;
  /// Requests queued behind a busy block, FIFO per block. A block has a
  /// queue here only while it is non-empty.
  std::unordered_map<Addr, std::deque<CoherenceMsg>> waiting_;
  std::unordered_set<Addr> l2_;        ///< resident blocks
  std::deque<Addr> l2_fifo_;           ///< FIFO eviction order
  std::deque<CoherenceMsg> incoming_;
  std::vector<Addr> busy_blocks_;      ///< blocks with timers to poll

  std::uint64_t transactions_ = 0;
  std::uint64_t l2_misses_ = 0;
};

}  // namespace flov
