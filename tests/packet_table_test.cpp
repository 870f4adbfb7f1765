// PacketTable: allocation, release, recycling, and the per-band release
// queues that row-band stepping applies at the barrier.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "noc/packet_table.hpp"

namespace flov {
namespace {

TEST(PacketTable, AllocHandsOutZeroedDistinctEntries) {
  PacketTable t;
  std::vector<PacketTable::Handle> hs;
  for (int i = 0; i < 100; ++i) {
    const PacketTable::Handle h = t.alloc(0);
    const PacketTable::Entry& e = t[h];
    EXPECT_EQ(e.packet_id, 0u);
    EXPECT_EQ(e.payload, 0u);
    EXPECT_EQ(e.router_hops, 0);
    EXPECT_FALSE(e.head_ejected);
    EXPECT_EQ(e.band, 0);
    t[h].packet_id = static_cast<std::uint64_t>(i) + 1;
    hs.push_back(h);
  }
  EXPECT_EQ(std::set<PacketTable::Handle>(hs.begin(), hs.end()).size(),
            hs.size());
  EXPECT_EQ(t.live(), 100);
  // Writes land in their own entry only.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(t[hs[static_cast<std::size_t>(i)]].packet_id,
              static_cast<std::uint64_t>(i) + 1);
  }
}

TEST(PacketTable, OneBandReleaseIsImmediateAndRecyclesZeroed) {
  PacketTable t;
  const PacketTable::Handle a = t.alloc(0);
  t[a].packet_id = 7;
  t[a].head_ejected = true;
  t[a].flov_hops = 3;
  t.release(0, a);
  EXPECT_EQ(t.live(), 0);
  // The freed entry is the next one handed out, cleared.
  const PacketTable::Handle b = t.alloc(0);
  EXPECT_EQ(b, a);
  EXPECT_EQ(t[b].packet_id, 0u);
  EXPECT_FALSE(t[b].head_ejected);
  EXPECT_EQ(t[b].flov_hops, 0);
  EXPECT_EQ(t.live(), 1);
}

TEST(PacketTable, GrowsPastOneChunkWithoutMovingEntries) {
  PacketTable t;
  const PacketTable::Handle first = t.alloc(0);
  t[first].payload = 0xABCD;
  const PacketTable::Entry* where = &t[first];
  std::vector<PacketTable::Handle> hs;
  for (PacketTable::Handle i = 0; i < 2 * PacketTable::kChunk; ++i) {
    hs.push_back(t.alloc(0));
  }
  EXPECT_EQ(&t[first], where);
  EXPECT_EQ(t[first].payload, 0xABCDu);
  EXPECT_EQ(t.live(), static_cast<std::int64_t>(hs.size()) + 1);
  for (const PacketTable::Handle h : hs) t.release(0, h);
  t.release(0, first);
  EXPECT_EQ(t.live(), 0);
}

TEST(PacketTable, BandReleasesWaitForTheBarrierAndReturnToTheOwner) {
  PacketTable t;
  t.init(3);
  const PacketTable::Handle a = t.alloc(0);  // band 0 allocates...
  const PacketTable::Handle b = t.alloc(2);
  EXPECT_EQ(t[a].band, 0);
  EXPECT_EQ(t[b].band, 2);
  EXPECT_NE(a, b);
  t.release(1, a);  // ...and band 1 (the ejecting band) releases
  t.release(1, b);
  // Queued, not yet applied: the entries are still live and not reused.
  EXPECT_EQ(t.live(), 2);
  const PacketTable::Handle c = t.alloc(0);
  EXPECT_NE(c, a);
  t.apply_releases();
  EXPECT_EQ(t.live(), 1);
  // Each entry went back to its allocating band's list.
  EXPECT_EQ(t.alloc(0), a);
  EXPECT_EQ(t.alloc(2), b);
  EXPECT_EQ(t.live(), 3);
}

TEST(PacketTable, BandIndicesPastAByteKeepTheirOwner) {
  // noc.step_threads may exceed 255 on a tall mesh; each band's entries
  // must still go back to that band.
  PacketTable t;
  t.init(300);
  const PacketTable::Handle a = t.alloc(299);
  EXPECT_EQ(t[a].band, 299);
  t.release(0, a);
  t.apply_releases();
  EXPECT_EQ(t.live(), 0);
  EXPECT_EQ(t.alloc(299), a);
}

TEST(PacketTable, BandsAllocateConcurrentlyAndReleaseAtTheBarrier) {
  // One worker per band, as row-band stepping runs them: every band grows
  // its own chunks at once, writes its own entries, and queues releases of
  // entries another band allocated the round before; the barrier (the
  // join) applies them.
  constexpr int kBands = 4;
  constexpr int kPerBand = 3 * static_cast<int>(PacketTable::kChunk) / 2;
  PacketTable t;
  t.init(kBands);
  std::vector<std::vector<PacketTable::Handle>> prev(kBands);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::vector<PacketTable::Handle>> next(kBands);
    std::vector<std::thread> workers;
    for (int b = 0; b < kBands; ++b) {
      workers.emplace_back([&, b] {
        for (const PacketTable::Handle h : prev[(b + 1) % kBands]) {
          t.release(b, h);
        }
        for (int i = 0; i < kPerBand; ++i) {
          const PacketTable::Handle h = t.alloc(b);
          t[h].packet_id = static_cast<std::uint64_t>(b) << 32 | i;
          next[b].push_back(h);
        }
        for (int i = 0; i < kPerBand; ++i) {
          EXPECT_EQ(t[next[b][i]].packet_id,
                    static_cast<std::uint64_t>(b) << 32 | i);
        }
      });
    }
    for (auto& w : workers) w.join();
    t.apply_releases();
    std::set<PacketTable::Handle> all;
    for (const auto& v : next) all.insert(v.begin(), v.end());
    EXPECT_EQ(all.size(), static_cast<std::size_t>(kBands * kPerBand));
    EXPECT_EQ(t.live(), kBands * kPerBand);
    prev.swap(next);
  }
}

}  // namespace
}  // namespace flov
