// Fixed-latency pipelined channel.
//
// Models a wire/link: items sent during cycle t become visible to the
// receiver at t + latency. Because receivers only ever poll items with
// arrival <= current cycle and senders always tag arrival >= current+1,
// the per-cycle component update order does not affect results. That same
// >= 1-cycle lookahead is what makes domain-parallel stepping bit-identical
// to serial (docs/PERFORMANCE.md, "The lookahead invariant"): a channel
// crossing a domain boundary runs in staging mode, where sends land in a
// sender-private buffer that the barrier merges into the visible queue
// before any receiver could legally observe them.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "noc/active_set.hpp"

namespace flov {

template <typename T>
class Channel {
 public:
  explicit Channel(Cycle latency = 1) : latency_(latency) {
    FLOV_CHECK(latency >= 1, "channel latency must be >= 1");
  }

  Cycle latency() const { return latency_; }

  /// Fault hook (fault-injection subsystem): consulted once per send with
  /// the send cycle; returns the extra delivery delay, or nullopt to drop
  /// the item on the wire. The item is mutable so soft-error models can
  /// flip payload bits in transit (the channel has already taken its copy —
  /// the sender's original is untouched). Unset on fault-free channels,
  /// keeping send() hook-free and cheap.
  using FaultHook = std::function<std::optional<Cycle>(Cycle, T&)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Active-set hook: every send re-arms the receiving component's liveness
  /// flag so Network::step knows it has (future) work. A single store per
  /// send; unset channels (unit tests) skip it. For boundary channels the
  /// list is the sending domain's private wake stage, so the mark itself
  /// never races.
  void set_wake_target(WakeList* list, int index) {
    wake_list_ = list;
    wake_index_ = index;
  }

  /// Staging mode (domain-parallel stepping): sends append to a
  /// sender-private buffer instead of the receiver-visible queue;
  /// merge_staged() publishes them at the barrier. Only the single sender
  /// touches staged_ during the parallel phase, so no locks are needed.
  void set_staging(bool on) { staging_ = on; }

  /// Activity flag (the invariant verifier's input, docs/PERFORMANCE.md
  /// hot-path rule 8): every operation that changes what is on this wire —
  /// send, a recv that pops, clear, merge_staged — sets this byte to 1; its
  /// one reader clears it once it has looked. A staging channel's ends
  /// step on different domain workers, so its sends and recvs only note
  /// the touch in a private bool per end and the barrier's merge_staged
  /// sets the flag: during the parallel phase every flag is written by the
  /// one worker that owns both ends of its channel. Null (unit tests)
  /// skips it.
  void set_activity_flag(std::uint8_t* flag) { activity_ = flag; }

  /// Moves staged sends into the visible queue (barrier only; single
  /// sender means staged order == serial send order).
  void merge_staged() {
    if (staged_touch_ || recv_touch_) {
      touch();
      staged_touch_ = false;
      recv_touch_ = false;
    }
    for (auto& e : staged_) queue_.push_back(std::move(e));
    staged_.clear();
  }

  /// Enqueues an item during cycle `now`; it arrives at now + latency.
  void send(Cycle now, T item) {
    if (wake_list_) wake_list_->mark(wake_index_);
    // Flagged before the fault hook: a dropped item refunds the sender's
    // credit, which is a change the verifier must see too.
    touch(staged_touch_);
    Cycle arrival = now + latency_;
    if (fault_hook_) {
      const std::optional<Cycle> fate = fault_hook_(now, item);
      if (!fate.has_value()) return;  // dropped on the wire
      arrival += *fate;
      // A delayed item must not reorder the wire or let two items become
      // deliverable on the same cycle (single-recv consumers — the FLOV
      // bypass latches — rely on >= 1-cycle spacing). The clamp keys off
      // the last *sent* arrival, not the queue back: with staging on, the
      // most recent send may still be in staged_, and a consumed item can
      // never clamp anyway (consumers only pop arrivals <= now < arrival).
      if (have_sent_ && arrival <= last_arrival_) {
        arrival = last_arrival_ + 1;
      }
    }
    FLOV_DCHECK(!have_sent_ || last_arrival_ <= arrival,
                "channel send out of order");
    last_arrival_ = arrival;
    have_sent_ = true;
    if (staging_) {
      staged_.emplace_back(arrival, std::move(item));
    } else {
      queue_.emplace_back(arrival, std::move(item));
    }
  }

  /// Pops the single item arriving at or before `now`, if any.
  std::optional<T> recv(Cycle now) {
    if (queue_.empty() || queue_.front().first > now) return std::nullopt;
    T item = std::move(queue_.front().second);
    queue_.pop_front();
    touch(recv_touch_);
    return item;
  }

  /// Pops every item arriving at or before `now` (credit channels can carry
  /// several credits per cycle during relay bursts). Returns a reference to
  /// an internal scratch buffer that is reused across calls — no per-call
  /// allocation on the hot path; the reference is invalidated by the next
  /// recv_all on the same channel.
  const std::vector<T>& recv_all(Cycle now) {
    scratch_.clear();
    while (!queue_.empty() && queue_.front().first <= now) {
      scratch_.push_back(std::move(queue_.front().second));
      queue_.pop_front();
    }
    if (!scratch_.empty()) touch(recv_touch_);
    return scratch_;
  }

  // Receiver-side views: deliberately queue-only. During the parallel
  // phase staged_ belongs to the sender's worker (reading it here would
  // race AND make a receiver's quiescent check depend on worker timing);
  // outside the parallel phase staged_ is always empty (merged at the
  // barrier), so external walks see exactly what serial runs see.
  bool empty() const { return queue_.empty(); }
  std::size_t in_flight() const { return queue_.size(); }

  /// Drops everything in flight (used by the credit-ownership handover at
  /// FLOV power-state transitions; see flov/ documentation). Production
  /// code only clears CREDIT channels: clearing a flit channel would desync
  /// the cached in-network flit counters (tests that simulate unaccounted
  /// loss this way must not touch the cached getters afterwards).
  void clear() {
    queue_.clear();
    staged_.clear();
    have_sent_ = false;
    touch();
  }

  /// Visits every in-flight item (read-only); used by the FLOV credit
  /// handover to account for flits still on the wire. Control-plane only
  /// (runs between barriers, when staged_ is empty).
  template <typename F>
  void for_each_in_flight(F&& f) const {
    for (const auto& [cycle, item] : queue_) f(item);
  }

 private:
  void touch() {
    if (activity_) *activity_ = 1;
  }
  /// An end's operation: flagged now, or at the barrier for a staging
  /// channel (`deferred` is that end's private note).
  void touch(bool& deferred) {
    if (staging_) {
      deferred = true;
    } else {
      touch();
    }
  }

  Cycle latency_;
  RingBuffer<std::pair<Cycle, T>> queue_;
  std::vector<std::pair<Cycle, T>> staged_;  ///< sender-private (parallel)
  std::vector<T> scratch_;  ///< recv_all reuse buffer (keeps its capacity)
  FaultHook fault_hook_;
  WakeList* wake_list_ = nullptr;
  int wake_index_ = -1;
  bool have_sent_ = false;
  bool staging_ = false;
  bool staged_touch_ = false;  ///< sender-private: a send since the merge
  bool recv_touch_ = false;    ///< receiver-private: a pop since the merge
  Cycle last_arrival_ = 0;   ///< arrival tag of the most recent send
  std::uint8_t* activity_ = nullptr;
};

}  // namespace flov
