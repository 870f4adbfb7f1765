// Per-packet metadata, stored once per in-flight packet.
//
// A flit (noc/flit.hpp) carries only what routing, allocation, the FLOV
// latches and the credit loop read at every hop. Everything that belongs to
// the packet rather than the hop — its id, source, vnet, size, generation
// and injection cycles, payload, reliable-delivery fields and the
// latency-breakdown hop counters — lives in one PacketTable entry, which
// every flit of the packet names by handle.
//
// Lifetime: the source NI allocates the entry when the packet's injection
// stream opens, and the entry is released when the tail leaves the
// network — ejected, destroyed by a dead router, or dropped on a wire.
// Drops and kills are worm-coherent (FaultInjector::flit_fate,
// Router::begin_death), so when the tail leaves, no other flit of the
// packet is left in the fabric to read the entry.
//
// Row bands (NocParams::step_threads > 1): each band allocates from its own
// free list; releases are queued per band and applied at the step barrier,
// each entry going back to the list of the band that allocated it. With
// one band a release is applied at once. Storage grows in fixed chunks that
// never move, so an entry stays put while another band reads it. Handles
// never reach any output, so allocation order cannot change a result.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "noc/active_set.hpp"

namespace flov {

class PacketTable {
 public:
  using Handle = std::uint32_t;

  /// No default member initializers: chunks are allocated uninitialized,
  /// so entries never handed out touch no memory, and alloc() zeroes each
  /// entry before use.
  struct Entry {
    std::uint64_t packet_id;
    /// Cycle the packet was created at the source queue (end-to-end
    /// latency includes queuing delay, as in BookSim).
    Cycle gen_cycle;
    /// Cycle the head flit left the source queue.
    Cycle inject_cycle;
    /// Opaque handle for higher layers (the CMP substrate stores message
    /// ids). A soft flip of the head flit's payload lands here.
    std::uint64_t payload;
    NodeId src;
    std::int32_t size_flits;
    /// Reliable delivery (noc.reliable; PROTOCOL.md §8): per-(src, dest)
    /// flow sequence number, 0 = unsequenced. A retransmitted copy keeps
    /// its seq but gets a fresh packet_id.
    std::uint32_t seq;
    /// Piggybacked ack "src acks your seq ack_seq", valid when ack_valid.
    std::uint32_t ack_seq;
    // Latency-breakdown counters, advanced by the head flit.
    std::uint16_t router_hops;  ///< powered-router pipeline traversals
    std::uint16_t link_hops;    ///< inter-router link traversals
    std::uint16_t flov_hops;    ///< FLOV latch traversals
    std::uint16_t band;  ///< allocating band (the free list it returns to)
    std::uint8_t vnet;
    bool ack_valid;
    /// Set when the destination NI consumes the head flit.
    bool head_ejected;
    /// The head flit was in the escape sub-network when it ejected.
    bool head_escape;
  };
  static_assert(sizeof(Entry) <= kCacheLine, "an entry fits a cache line");

  static constexpr int kChunkBits = 12;
  static constexpr Handle kChunk = Handle{1} << kChunkBits;
  static constexpr Handle kMaxChunks = 4096;

  PacketTable() : chunks_(new Entry*[kMaxChunks]) {}
  ~PacketTable() {
    const Handle n = std::min(next_chunk_.load(), kMaxChunks);
    for (Handle c = 0; c < n; ++c) delete[] chunks_[c];
  }
  PacketTable(const PacketTable&) = delete;
  PacketTable& operator=(const PacketTable&) = delete;

  /// Sizes the per-band lists. Runs once, before any allocation.
  void init(int bands) {
    FLOV_CHECK(bands >= 1 && bands <= 65535, "packet table band count");
    bands_ = std::vector<Band>(static_cast<std::size_t>(bands));
  }

  /// A zeroed entry owned by `band`. Only band `band`'s worker (or the
  /// serial phase) may call this.
  Handle alloc(int band) {
    Band& b = bands_[static_cast<std::size_t>(band)];
    if (b.free.empty()) grow(b);
    const Handle h = b.free.back();
    b.free.pop_back();
    b.allocated++;
    Entry& e = (*this)[h];
    e = Entry{};
    e.band = static_cast<std::uint16_t>(band);
    return h;
  }

  Entry& operator[](Handle h) {
    return chunks_[h >> kChunkBits][h & (kChunk - 1)];
  }
  const Entry& operator[](Handle h) const {
    return chunks_[h >> kChunkBits][h & (kChunk - 1)];
  }

  /// Releases `h` from `band`'s worker: at once with one band, otherwise
  /// at the next apply_releases(). The caller reads nothing from the entry
  /// afterwards.
  void release(int band, Handle h) {
    if (bands_.size() == 1) {
      return_to_owner(h);
      return;
    }
    bands_[static_cast<std::size_t>(band)].released.push_back(h);
  }

  /// Step barrier: returns every queued release to its owner's free list.
  void apply_releases() {
    for (Band& b : bands_) {
      for (const Handle h : b.released) return_to_owner(h);
      b.released.clear();
    }
  }

  /// Entries allocated and not yet returned to a free list.
  std::int64_t live() const {
    std::int64_t n = 0;
    for (const Band& b : bands_) n += b.allocated - b.returned;
    return n;
  }

 private:
  struct alignas(kCacheLine) Band {
    std::vector<Handle> free;      ///< written by this band's worker
    std::vector<Handle> released;  ///< this band's queued releases
    std::int64_t allocated = 0;
    std::int64_t returned = 0;     ///< barrier / one-band release only
  };

  void return_to_owner(Handle h) {
    Band& owner = bands_[(*this)[h].band];
    owner.free.push_back(h);
    owner.returned++;
  }

  /// Claims the next chunk for `b`. Chunks never move and the directory
  /// never resizes, so other bands may keep reading entries meanwhile.
  void grow(Band& b) {
    const Handle c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    FLOV_CHECK(c < kMaxChunks, "packet table full");
    chunks_[c] = new Entry[kChunk];
    b.free.reserve(b.free.size() + kChunk);
    // Descending, so the chunk is handed out from its first entry up.
    for (Handle i = kChunk; i-- > 0;) b.free.push_back((c << kChunkBits) | i);
  }

  /// Chunk directory: slots [0, next_chunk_) hold owned chunks; the rest
  /// are never read (left uninitialized, like the chunks themselves).
  std::unique_ptr<Entry*[]> chunks_;
  std::atomic<Handle> next_chunk_{0};
  std::vector<Band> bands_ = std::vector<Band>(1);
};

}  // namespace flov
