// Grow-only ring buffer used on the simulator's hot path (channel queues,
// input-VC buffers) in place of std::deque.
//
// std::deque allocates/frees map blocks as elements churn through it, which
// shows up as allocator traffic in BM_GFlovCycle once everything else is
// cheap. This ring instead keeps a power-of-two storage vector that only
// ever grows: steady state does zero allocations regardless of how many
// elements pass through. pop_front leaves the vacated slot constructed (the
// payloads here are trivially-copyable flit/credit PODs), so elements must
// be default-constructible and cheap to leave alive.
//
// The element count is not a member: it lives in the cell bind_count()
// names, a slot of the mesh's packed occupancy arrays (noc/hot_state.hpp).
// That cell IS the queue's length — there is no second copy — so the
// invariant verifier's recount and credit check read packed bytes and words
// instead of walking queue objects.
#pragma once

#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace flov {

template <typename T, typename Count>
class RingBuffer {
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

  T& front() { return store_[head_]; }
  const T& front() const { return store_[head_]; }
  T& back() { return store_[wrap(head_ + size() - 1)]; }
  const T& back() const { return store_[wrap(head_ + size() - 1)]; }

  T& operator[](std::size_t i) { return store_[wrap(head_ + i)]; }
  const T& operator[](std::size_t i) const { return store_[wrap(head_ + i)]; }

  void push_back(const T& v) { *slot_for_push() = v; }
  void push_back(T&& v) { *slot_for_push() = std::move(v); }

  template <typename... Args>
  void emplace_back(Args&&... args) {
    *slot_for_push() = T(std::forward<Args>(args)...);
  }

  void pop_front() {
    head_ = wrap(head_ + 1);
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
  std::size_t wrap(std::size_t i) const { return i & (store_.size() - 1); }

  T* slot_for_push() {
    const std::size_t n = size();
    if (n == store_.size()) grow();
    T* slot = &store_[wrap(head_ + n)];
    ++*count_;
    return slot;
  }

  void grow() {
    const std::size_t n = size();
    const std::size_t cap = store_.empty() ? 8 : store_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < n; ++i) {
      next[i] = std::move(store_[wrap(head_ + i)]);
    }
    store_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> store_;  ///< power-of-two capacity (or empty)
  std::size_t head_ = 0;
  Count* count_ = nullptr;  ///< the length cell (bind_count)
};

}  // namespace flov
