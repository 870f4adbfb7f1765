// Grow-only ring buffer used on the simulator's hot path (channel queues,
// input-VC buffers) in place of std::deque.
//
// std::deque allocates/frees map blocks as elements churn through it, which
// shows up as allocator traffic in BM_GFlovCycle once everything else is
// cheap. This ring instead keeps power-of-two storage that only ever grows:
// steady state does zero allocations regardless of how many elements pass
// through. pop_front leaves the vacated slot constructed (the payloads here
// are trivially-copyable flit/credit PODs), so elements must be
// default-constructible and cheap to leave alive.
//
// `kInline` (a power of two, or 0) slots live inside the ring itself: a
// queue that never holds more stays off the heap, and reading it costs no
// pointer chase. Channel queues keep four (noc/channel.hpp says why); a
// queue that outgrows them moves to a heap store of twice the size, for
// good.
//
// The element count is not a member: it lives in the cell bind_count()
// names, a slot of the mesh's packed occupancy arrays (noc/hot_state.hpp).
// That cell IS the queue's length — there is no second copy — so the
// invariant verifier's recount and credit check read packed bytes and words
// instead of walking queue objects.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

namespace flov {

template <typename T, typename Count, std::size_t kInline = 0>
class RingBuffer {
  static_assert((kInline & (kInline - 1)) == 0,
                "the inline store is a power of two");

 public:
  RingBuffer() = default;

  /// Makes `*count` this (empty) ring's length cell. Must run before any
  /// other call.
  void bind_count(Count* count) {
    count_ = count;
    *count_ = 0;
  }

  bool empty() const { return *count_ == 0; }
  std::size_t size() const { return *count_; }

  T& front() { return data()[head_]; }
  const T& front() const { return data()[head_]; }
  T& back() { return data()[wrap(head_ + size() - 1)]; }
  const T& back() const { return data()[wrap(head_ + size() - 1)]; }

  T& operator[](std::size_t i) { return data()[wrap(head_ + i)]; }
  const T& operator[](std::size_t i) const { return data()[wrap(head_ + i)]; }

  /// True once the ring has outgrown its inline store (always, for a ring
  /// without one that holds anything).
  bool on_heap() const { return capacity() > kInline; }

  void push_back(const T& v) { *slot_for_push() = v; }
  void push_back(T&& v) { *slot_for_push() = std::move(v); }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    *slot_for_push() = T(std::forward<Args>(args)...);
  }

  void pop_front() {
    head_ = static_cast<std::uint32_t>(wrap(head_ + 1));
    --*count_;
  }

  void clear() {
    head_ = 0;
    *count_ = 0;
  }

  /// Forward iterator over [front, back] in queue order; enough for
  /// range-for (including structured bindings over pair elements).
  template <typename Ring, typename Value>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Value;
    using difference_type = std::ptrdiff_t;
    using pointer = Value*;
    using reference = Value&;

    Iter(Ring* ring, std::size_t pos) : ring_(ring), pos_(pos) {}
    reference operator*() const { return (*ring_)[pos_]; }
    pointer operator->() const { return &(*ring_)[pos_]; }
    Iter& operator++() {
      ++pos_;
      return *this;
    }
    bool operator==(const Iter& o) const { return pos_ == o.pos_; }
    bool operator!=(const Iter& o) const { return pos_ != o.pos_; }

   private:
    Ring* ring_;
    std::size_t pos_;
  };

  using iterator = Iter<RingBuffer, T>;
  using const_iterator = Iter<const RingBuffer, const T>;

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

 private:
  // The live store: the inline slots until the first growth, then the
  // heap. No pointer into the ring itself is kept, so it copies and moves
  // by value.
  T* data() {
    if constexpr (kInline == 0) {
      return heap_.data();
    } else {
      return on_heap() ? heap_.data() : inline_.data();
    }
  }
  const T* data() const {
    if constexpr (kInline == 0) {
      return heap_.data();
    } else {
      return on_heap() ? heap_.data() : inline_.data();
    }
  }
  std::size_t capacity() const {
    return static_cast<std::uint32_t>(mask_ + 1u);
  }
  std::size_t wrap(std::size_t i) const { return i & mask_; }

  T* slot_for_push() {
    const std::size_t n = size();
    if (n == capacity()) [[unlikely]] grow();
    T* slot = &data()[wrap(head_ + n)];
    ++*count_;
    return slot;
  }

  [[gnu::noinline]] void grow() {  // out of line: a push keeps one branch
    const std::size_t n = size();
    const std::size_t cap = capacity() == 0 ? 8 : capacity() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < n; ++i) {
      next[i] = std::move(data()[wrap(head_ + i)]);
    }
    heap_ = std::move(next);
    head_ = 0;
    mask_ = static_cast<std::uint32_t>(cap - 1);
  }

  std::vector<T> heap_;  ///< power-of-two capacity, or empty while inline
  std::uint32_t head_ = 0;
  /// Capacity - 1 of the live store (all ones for an empty heap-only ring).
  std::uint32_t mask_ = static_cast<std::uint32_t>(kInline - 1);
  Count* count_ = nullptr;  ///< the length cell (bind_count)
  struct NoInlineStore {};
  [[no_unique_address]] std::conditional_t<kInline == 0, NoInlineStore,
                                           std::array<T, kInline>>
      inline_{};
};

}  // namespace flov
