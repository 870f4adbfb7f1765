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
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "noc/active_set.hpp"

namespace flov {

/// Channel queue length cell (MeshHotState::ch_len).
using ChannelLength = std::uint32_t;

template <typename T>
class Channel {
 public:
  /// `length` is the cell that holds the receiver-visible queue's length:
  /// the Network passes this channel's slot of MeshHotState::ch_len (by
  /// channel_index), the same way it hands out activity flags; null
  /// (standalone channels in unit tests) gives the channel a private cell.
  explicit Channel(Cycle latency = 1, ChannelLength* length = nullptr)
      : latency_(latency) {
    FLOV_CHECK(latency >= 1, "channel latency must be >= 1");
    if (length == nullptr) {
      own_length_ = std::make_unique<ChannelLength>(0);
      length = own_length_.get();
    }
    queue_.bind_count(length);
  }

  Cycle latency() const { return latency_; }

  /// Fault hook (fault-injection subsystem): consulted once per send with
  /// the send cycle; returns the extra delivery delay, or nullopt to drop
  /// the item on the wire. The item is mutable so soft-error models can
  /// flip payload bits in transit (the channel has already taken its copy —
  /// the sender's original is untouched). Unset on fault-free channels,
  /// keeping send() hook-free and cheap.
  using FaultHook = std::function<std::optional<Cycle>(Cycle, T&)>;
  void set_fault_hook(FaultHook hook) {
    fault_hook_ = hook ? std::make_unique<FaultHook>(std::move(hook)) : nullptr;
  }

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
  /// touches the buffer during the parallel phase, so no locks are needed.
  /// `sender_list` / `receiver_list` are the two ends' per-domain merge
  /// lists: the first staged send (first pop) since the last merge appends
  /// this channel to the sender's (receiver's) list, so the barrier merges
  /// only channels something happened on. Each list is written only by its
  /// own domain's worker.
  using MergeList = std::vector<Channel*>;
  void set_staging(MergeList* sender_list = nullptr,
                   MergeList* receiver_list = nullptr) {
    stage_ = std::make_unique<Stage>();
    stage_->sender_list = sender_list;
    stage_->receiver_list = receiver_list;
  }

  /// Receiver input mask (Router::in_pending_): bit `bit` of `*word` is
  /// set exactly while the receiver-visible queue is non-empty — on a
  /// visible enqueue (a non-staging send, merge_staged) — and cleared when
  /// recv or clear empties the queue. The receiver polls only the
  /// set bits. Null (NIs, unit tests) skips it.
  void set_pending_bit(std::uint32_t* word, int bit) {
    pending_ = word;
    pending_bit_ = static_cast<std::uint8_t>(bit);
    if (!queue_.empty()) set_pending();
  }

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

  /// Moves staged sends into the visible queue (staging channels, barrier
  /// only; single sender means staged order == serial send order).
  void merge_staged() {
    Stage& st = *stage_;
    if (st.sent || st.popped) {
      touch();
      st.sent = false;
      st.popped = false;
    }
    if (st.items.empty()) return;
    for (auto& e : st.items) queue_.push_back(std::move(e));
    st.items.clear();
    set_pending();
  }

  /// Staged items or an end's touch note the barrier has not merged yet
  /// (Debug oracle: none may survive merge_domains).
  bool merge_pending() const {
    return stage_ && (!stage_->items.empty() || stage_->sent ||
                      stage_->popped);
  }

  /// Enqueues an item during cycle `now`; it arrives at now + latency.
  /// Inline for a plain wire; staging and the fault hook take send_slow.
  void send(Cycle now, T item) {
    if (wake_list_) wake_list_->mark(wake_index_);
    if (stage_ || fault_hook_) [[unlikely]] {
      send_slow(now, std::move(item));
      return;
    }
    touch();
    enqueue(now + latency_, std::move(item));
  }

  /// Pops the oldest item arriving at or before `now`, if any. Credit
  /// channels can deliver several items on one cycle (relay bursts); their
  /// receivers loop until it returns nullopt.
  std::optional<T> recv(Cycle now) {
    if (queue_.empty() || queue_.front().first > now) return std::nullopt;
    T item = std::move(queue_.front().second);
    queue_.pop_front();
    if (queue_.empty()) clear_pending();
    touch_popped();
    return item;
  }

  // Receiver-side views: deliberately queue-only. During the parallel
  // phase the staged items belong to the sender's worker (reading them
  // here would race AND make a receiver's quiescent check depend on worker
  // timing); outside the parallel phase none are staged (merged at the
  // barrier), so external walks see exactly what serial runs see. Both
  // read the packed length cell.
  bool empty() const { return queue_.empty(); }
  std::size_t in_flight() const { return queue_.size(); }
  /// Test-only: true once the queue has outgrown its inline slots.
  bool queue_on_heap() const { return queue_.on_heap(); }

  /// Drops everything in flight (used by the credit-ownership handover at
  /// FLOV power-state transitions; see flov/ documentation). Production
  /// code only clears CREDIT channels: clearing a flit channel would desync
  /// the cached in-network flit counters (tests that simulate unaccounted
  /// loss this way must not touch the cached getters afterwards).
  void clear() {
    queue_.clear();
    if (stage_) stage_->items.clear();
    last_arrival_ = 0;
    clear_pending();
    touch();
  }

  /// Visits every in-flight item (read-only); used by the FLOV credit
  /// handover to account for flits still on the wire. Control-plane only
  /// (runs between barriers, when nothing is staged).
  template <typename F>
  void for_each_in_flight(F&& f) const {
    for (const auto& [cycle, item] : queue_) f(item);
  }

 private:
  [[gnu::noinline]] void send_slow(Cycle now, T item) {
    // Flagged before the fault hook: a dropped item refunds the sender's
    // credit, which is a change the verifier must see too.
    if (stage_) {
      touch_end(stage_->sent, stage_->sender_list);
    } else {
      touch();
    }
    Cycle arrival = now + latency_;
    if (fault_hook_) {
      const std::optional<Cycle> fate = (*fault_hook_)(now, item);
      if (!fate.has_value()) return;  // dropped on the wire
      arrival += *fate;
      // A delayed item must not reorder the wire or let two items become
      // deliverable on the same cycle (single-recv consumers — the FLOV
      // bypass latches — rely on >= 1-cycle spacing). The clamp keys off
      // the last *sent* arrival, not the queue back: with staging on, the
      // most recent send may still be staged, and a consumed item can
      // never clamp anyway (consumers only pop arrivals <= now < arrival).
      if (arrival <= last_arrival_) arrival = last_arrival_ + 1;
    }
    if (!stage_) {
      enqueue(arrival, std::move(item));
      return;
    }
    FLOV_DCHECK(last_arrival_ <= arrival, "channel send out of order");
    last_arrival_ = arrival;
    stage_->items.emplace_back(arrival, std::move(item));
  }
  void enqueue(Cycle arrival, T&& item) {
    FLOV_DCHECK(last_arrival_ <= arrival, "channel send out of order");
    last_arrival_ = arrival;
    queue_.emplace_back(arrival, std::move(item));
    set_pending();
  }
  void touch() {
    if (activity_) *activity_ = 1;
  }
  /// A staging channel's end operation: flagged at the barrier instead.
  /// `noted` is that end's private note; its first setting since the merge
  /// lists the channel on that end's merge list.
  void touch_end(bool& noted, MergeList* list) {
    if (noted) return;
    noted = true;
    if (list) list->push_back(this);
  }
  void touch_popped() {
    if (stage_) {
      touch_end(stage_->popped, stage_->receiver_list);
    } else {
      touch();
    }
  }
  void set_pending() {
    if (pending_) *pending_ |= std::uint32_t{1} << pending_bit_;
  }
  void clear_pending() {
    if (pending_) *pending_ &= ~(std::uint32_t{1} << pending_bit_);
  }

  /// Boundary-channel state, allocated by set_staging only: most channels
  /// never stage, so they do not carry it.
  struct Stage {
    std::vector<std::pair<Cycle, T>> items;  ///< sender-private (parallel)
    MergeList* sender_list = nullptr;
    MergeList* receiver_list = nullptr;
    bool sent = false;    ///< sender-private: a send since the merge
    bool popped = false;  ///< receiver-private: a pop since the merge
  };

  // Everything send and recv read comes first (64 bytes), then the queue
  // (ring header, then its inline slots); the standalone length cell is
  // cold.
  Cycle latency_;
  Cycle last_arrival_ = 0;  ///< latest send's arrival; 0 before any (clear)
  WakeList* wake_list_ = nullptr;
  std::uint32_t* pending_ = nullptr;
  std::uint8_t* activity_ = nullptr;
  std::unique_ptr<Stage> stage_;  ///< set in staging mode only
  std::unique_ptr<FaultHook> fault_hook_;  ///< set on faulty links only
  int wake_index_ = -1;
  std::uint8_t pending_bit_ = 0;
  /// Four inline slots: a one-per-cycle sender on a wire of the default
  /// 1-cycle latency keeps at most two items queued, so only fault delays,
  /// credit-relay bursts and longer links spill to the heap.
  RingBuffer<std::pair<Cycle, T>, ChannelLength, 4> queue_;
  /// Private length cell of a standalone channel (null when the Network
  /// supplied a MeshHotState::ch_len slot).
  std::unique_ptr<ChannelLength> own_length_;
};

}  // namespace flov
