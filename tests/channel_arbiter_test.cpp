// Unit tests for the pipelined channel, the wake lists and the
// round-robin arbiter.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "noc/active_set.hpp"
#include "noc/arbiter.hpp"
#include "noc/channel.hpp"
#include "noc/flit.hpp"

namespace flov {
namespace {

/// Pops every item due by `now`, one recv at a time: how routers and NIs
/// consume credit channels.
template <typename T>
std::vector<T> recv_due(Channel<T>& ch, Cycle now) {
  std::vector<T> due;
  while (auto v = ch.recv(now)) due.push_back(*v);
  return due;
}

TEST(Channel, DeliversAfterLatency) {
  Channel<int> ch(1);
  ch.send(10, 7);
  EXPECT_FALSE(ch.recv(10).has_value());  // not yet visible
  auto v = ch.recv(11);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  EXPECT_FALSE(ch.recv(12).has_value());
}

TEST(Channel, MultiCycleLatency) {
  Channel<int> ch(3);
  ch.send(0, 1);
  EXPECT_FALSE(ch.recv(2).has_value());
  EXPECT_TRUE(ch.recv(3).has_value());
}

TEST(Channel, FifoOrderPreserved) {
  Channel<int> ch(1);
  for (int i = 0; i < 5; ++i) ch.send(i, i);
  for (int i = 0; i < 5; ++i) {
    auto v = ch.recv(100);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(Channel, RecvLoopDrainsDueItems) {
  Channel<int> ch(1);
  ch.send(0, 1);
  ch.send(0, 2);
  ch.send(5, 3);
  const auto due = recv_due(ch, 1);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0], 1);
  EXPECT_EQ(due[1], 2);
  EXPECT_EQ(ch.in_flight(), 1u);
}

TEST(Channel, ClearVoidsInFlight) {
  Channel<int> ch(1);
  ch.send(0, 1);
  ch.clear();
  EXPECT_TRUE(ch.empty());
  EXPECT_FALSE(ch.recv(10).has_value());
}

TEST(Channel, ForEachInFlightVisitsAll) {
  Channel<int> ch(2);
  ch.send(0, 5);
  ch.send(1, 6);
  int sum = 0;
  ch.for_each_in_flight([&](int v) { sum += v; });
  EXPECT_EQ(sum, 11);
}

// The invariant verifier skips every credit segment whose channels carry
// no activity flag, so each operation that changes what is on the wire must
// set it — and an idle recv must not.
TEST(Channel, EveryWireChangeSetsTheActivityFlag) {
  std::uint8_t flag = 0;
  Channel<int> ch(1);
  ch.set_activity_flag(&flag);
  ch.send(0, 1);
  EXPECT_EQ(flag, 1) << "send";
  flag = 0;
  EXPECT_FALSE(ch.recv(0).has_value());
  EXPECT_TRUE(recv_due(ch, 0).empty());
  EXPECT_EQ(flag, 0) << "recv with nothing due";
  EXPECT_TRUE(ch.recv(1).has_value());
  EXPECT_EQ(flag, 1) << "recv";
  ch.send(1, 2);
  flag = 0;
  EXPECT_EQ(recv_due(ch, 2).size(), 1u);
  EXPECT_EQ(flag, 1) << "recv loop";
  flag = 0;
  ch.clear();
  EXPECT_EQ(flag, 1) << "clear";

  // A dropped item still flags: the sender's credit refund is a change.
  flag = 0;
  ch.set_fault_hook([](Cycle, int&) { return std::optional<Cycle>(); });
  ch.send(3, 3);
  EXPECT_EQ(flag, 1) << "dropped send";
}

TEST(Channel, PackedLengthCellMatchesTheQueueAfterEveryOperation) {
  for (const bool staging : {false, true}) {
    ChannelLength len = 99;
    Channel<int> ch(1, &len);
    if (staging) ch.set_staging();
    auto expect_len = [&](const char* op) {
      std::size_t walked = 0;
      ch.for_each_in_flight([&](int) { ++walked; });
      EXPECT_EQ(len, walked) << op << (staging ? " (staging)" : "");
      EXPECT_EQ(ch.in_flight(), walked) << op;
    };
    // The barrier merge on a staging channel; a plain one has none.
    auto merge = [&] {
      if (!staging) return;
      ch.merge_staged();
      expect_len("merge_staged");
    };
    expect_len("construction");
    ch.send(0, 1);
    expect_len("send");
    ch.send(0, 2);
    expect_len("second send");
    merge();
    ASSERT_TRUE(ch.recv(1).has_value());
    expect_len("recv");
    merge();
    ch.send(1, 3);
    merge();
    EXPECT_EQ(recv_due(ch, 2).size(), 2u);
    expect_len("recv loop");
    merge();
    ch.send(2, 4);
    ch.send(2, 5);
    merge();
    ch.clear();
    expect_len("clear");
    EXPECT_EQ(len, 0u);
  }
}

TEST(Channel, StagingChannelFlagsAtTheMerge) {
  std::uint8_t flag = 0;
  Channel<int> ch(1);
  ch.set_activity_flag(&flag);
  ch.set_staging();
  ch.send(0, 1);
  EXPECT_EQ(flag, 0) << "flag written during the parallel phase";
  ch.merge_staged();
  EXPECT_EQ(flag, 1) << "staged send";
  flag = 0;
  EXPECT_TRUE(ch.recv(1).has_value());
  EXPECT_EQ(flag, 0);
  ch.merge_staged();
  EXPECT_EQ(flag, 1) << "recv on a staging channel";
  flag = 0;
  ch.merge_staged();
  EXPECT_EQ(flag, 0) << "merge with nothing to publish";
}

TEST(Channel, StagingChannelIsListedOncePerTouchedEnd) {
  Channel<int>::MergeList sender, receiver;
  Channel<int> ch(1);
  ch.set_staging(&sender, &receiver);
  ch.merge_staged();
  EXPECT_TRUE(sender.empty());
  EXPECT_TRUE(receiver.empty());

  ch.send(0, 1);
  ch.send(0, 2);
  EXPECT_EQ(sender, (Channel<int>::MergeList{&ch})) << "two sends, one entry";
  EXPECT_TRUE(receiver.empty());
  EXPECT_TRUE(ch.merge_pending());
  ch.merge_staged();
  EXPECT_FALSE(ch.merge_pending());
  sender.clear();

  // Cycle 1: both ends touch it; each end lists it once.
  EXPECT_TRUE(ch.recv(1).has_value());
  EXPECT_TRUE(ch.recv(1).has_value());
  ch.send(1, 3);
  ch.send(1, 4);
  EXPECT_EQ(sender, (Channel<int>::MergeList{&ch}));
  EXPECT_EQ(receiver, (Channel<int>::MergeList{&ch}));
  ch.merge_staged();
  ch.merge_staged();  // the second list entry: a no-op
  EXPECT_FALSE(ch.merge_pending());
  sender.clear();
  receiver.clear();

  // Cycle 2: a recv loop that pops lists the receiver end only.
  EXPECT_EQ(recv_due(ch, 2).size(), 2u);
  EXPECT_TRUE(sender.empty());
  EXPECT_EQ(receiver, (Channel<int>::MergeList{&ch}));
  ch.merge_staged();
  receiver.clear();

  // Cycle 3: untouched (an empty poll is not a touch): never listed.
  EXPECT_FALSE(ch.recv(3).has_value());
  EXPECT_TRUE(recv_due(ch, 3).empty());
  EXPECT_TRUE(sender.empty());
  EXPECT_TRUE(receiver.empty());
  EXPECT_FALSE(ch.merge_pending());
}

TEST(Channel, PendingBitTracksTheVisibleQueue) {
  std::uint32_t word = 0b1000;  // another channel's bit, left alone
  const int bit = 2;
  Channel<int> ch(2);
  ch.set_pending_bit(&word, bit);
  EXPECT_EQ(word, 0b1000u);

  ch.send(0, 1);
  EXPECT_EQ(word, 0b1100u) << "send";
  EXPECT_FALSE(ch.recv(1).has_value());
  EXPECT_EQ(word, 0b1100u) << "not yet arrived: still queued";
  ch.send(1, 2);
  EXPECT_TRUE(ch.recv(2).has_value());
  EXPECT_EQ(word, 0b1100u) << "recv that leaves an item";
  EXPECT_TRUE(ch.recv(3).has_value());
  EXPECT_EQ(word, 0b1000u) << "recv that empties";

  ch.send(3, 3);
  ch.send(3, 4);
  ch.send(4, 5);
  EXPECT_EQ(recv_due(ch, 5).size(), 2u);
  EXPECT_EQ(word, 0b1100u) << "recv loop that leaves an item";
  EXPECT_EQ(recv_due(ch, 6).size(), 1u);
  EXPECT_EQ(word, 0b1000u) << "recv loop that empties";

  ch.send(6, 6);
  ch.clear();
  EXPECT_EQ(word, 0b1000u) << "clear";

  ch.set_fault_hook([](Cycle, int&) { return std::optional<Cycle>(); });
  ch.send(7, 7);
  EXPECT_EQ(word, 0b1000u) << "fault-dropped send";
  ch.set_fault_hook({});

  // Staging: the send stays invisible until the merge.
  Channel<int> st(1);
  st.set_pending_bit(&word, bit);
  st.set_staging();
  st.send(8, 8);
  EXPECT_EQ(word, 0b1000u) << "staged send";
  st.merge_staged();
  EXPECT_EQ(word, 0b1100u) << "merge_staged";
  EXPECT_TRUE(st.recv(9).has_value());
  EXPECT_EQ(word, 0b1000u);
  st.merge_staged();
  EXPECT_EQ(word, 0b1000u) << "merge with nothing staged";

  // Binding to a channel that already holds items sets the bit.
  std::uint32_t late = 0;
  st.send(9, 9);
  st.merge_staged();
  st.set_pending_bit(&late, 0);
  EXPECT_EQ(late, 1u);
}

// A channel queue keeps four items inline and moves to a heap store once a
// burst outgrows them. Across that switch the queue must stay one FIFO, and
// its length cell, the receiver's pending bit and the activity flag must
// keep tracking it.
TEST(Channel, CreditBurstSpillsTheInlineQueueToTheHeap) {
  ChannelLength len = 0;
  std::uint32_t word = 0;
  std::uint8_t flag = 0;
  Channel<Credit> ch(1, &len);
  ch.set_pending_bit(&word, 3);
  ch.set_activity_flag(&flag);
  // A relay burst: ten credits sent on one cycle.
  for (int i = 0; i < 10; ++i) {
    flag = 0;
    ch.send(0, Credit{static_cast<VcId>(i)});
    EXPECT_EQ(len, static_cast<ChannelLength>(i + 1)) << "send " << i;
    EXPECT_EQ(word, 0b1000u) << "send " << i;
    EXPECT_EQ(flag, 1) << "send " << i;
    EXPECT_EQ(ch.queue_on_heap(), i + 1 > 4) << "send " << i;
  }
  EXPECT_FALSE(ch.recv(0).has_value()) << "nothing due before the latency";
  for (int i = 0; i < 10; ++i) {
    flag = 0;
    const auto c = ch.recv(1);
    ASSERT_TRUE(c.has_value()) << i;
    EXPECT_EQ(c->vc, i) << "FIFO order";
    EXPECT_EQ(len, static_cast<ChannelLength>(9 - i));
    EXPECT_EQ(word, i < 9 ? 0b1000u : 0u) << "recv " << i;
    EXPECT_EQ(flag, 1) << "recv " << i;
  }
  EXPECT_FALSE(ch.recv(1).has_value());
  EXPECT_TRUE(ch.queue_on_heap()) << "the heap store is kept";
  // The grown store keeps working as a ring.
  for (int i = 0; i < 20; ++i) ch.send(1 + i, Credit{static_cast<VcId>(i)});
  EXPECT_EQ(recv_due(ch, 30).size(), 20u);
  EXPECT_EQ(len, 0u);
  EXPECT_EQ(word, 0u);
}

TEST(Channel, FaultDelayedFlitsSpillWhileTheInlineRingIsWrapped) {
  ChannelLength len = 0;
  std::uint32_t word = 0;
  std::uint8_t flag = 0;
  Channel<Flit> ch(1, &len);
  ch.set_pending_bit(&word, 0);
  ch.set_activity_flag(&flag);
  // Every item is held back 6 cycles on the wire; the clamp keeps them in
  // send order, one arrival per cycle.
  ch.set_fault_hook([](Cycle, Flit&) { return std::optional<Cycle>(6); });
  auto flit = [](int i) {
    Flit f;
    f.flit_index = static_cast<std::uint16_t>(i);
    return f;
  };
  Cycle now = 0;
  int sent = 0;
  int received = 0;
  // Three sends, then two pops: the inline ring's head is now mid-store.
  for (; sent < 3; ++sent) ch.send(now++, flit(sent));
  now = 8;
  for (; received < 2; ++received) {
    const auto f = ch.recv(now);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->flit_index, received);
  }
  EXPECT_FALSE(ch.queue_on_heap());
  // One send per cycle while none is due yet: the fifth queued item spills.
  for (; sent < 9; ++sent) {
    flag = 0;
    ch.send(now++, flit(sent));
    EXPECT_EQ(flag, 1);
    EXPECT_EQ(len, static_cast<ChannelLength>(sent + 1 - received));
    EXPECT_EQ(word, 1u);
    EXPECT_EQ(ch.queue_on_heap(), sent + 1 - received > 4) << "send " << sent;
  }
  EXPECT_TRUE(ch.queue_on_heap());
  std::vector<int> order;
  ch.for_each_in_flight([&](const Flit& f) { order.push_back(f.flit_index); });
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4, 5, 6, 7, 8}));
  // Drain one cycle at a time: never two due on one cycle, FIFO order.
  for (Cycle t = now; received < sent && t < now + 40; ++t) {
    const std::vector<Flit> due = recv_due(ch, t);
    ASSERT_LE(due.size(), 1u) << "cycle " << t;
    for (const Flit& f : due) EXPECT_EQ(f.flit_index, received++);
    EXPECT_EQ(len, static_cast<ChannelLength>(sent - received));
    EXPECT_EQ(word, received < sent ? 1u : 0u) << "cycle " << t;
  }
  EXPECT_EQ(received, sent);
}

// send() has an inline path for a plain wire and an out-of-line one for
// staging and fault hooks. Neither may change what the receiver sees: one
// random send/recv script runs on a plain channel, one with a fault hook
// that delays nothing, and one in staging mode merged at the end of every
// cycle (as the step barrier does). At the end of each cycle all three
// must have delivered the same items on the same cycles, and hold the same
// length cell, pending bit and activity flag.
TEST(Channel, HookAndStagingPathsDeliverLikeThePlainWire) {
  for (const Cycle latency : {Cycle{1}, Cycle{2}}) {
    struct End {
      Channel<int> ch;
      ChannelLength len = 0;
      std::uint32_t pending = 0;
      std::uint8_t activity = 0;
      std::vector<std::pair<Cycle, int>> got;
      explicit End(Cycle latency) : ch(latency, &len) {
        ch.set_pending_bit(&pending, 2);
        ch.set_activity_flag(&activity);
      }
    };
    End plain(latency), hooked(latency), staged(latency);
    hooked.ch.set_fault_hook(
        [](Cycle, int&) { return std::optional<Cycle>(0); });
    staged.ch.set_staging();
    Rng rng(31 + latency);
    int next = 0;
    for (Cycle t = 0; t < 400; ++t) {
      // One send per cycle at most: the fault path spaces same-cycle sends
      // a cycle apart on purpose (single-recv consumers need it).
      const bool send = rng.next_bool(0.6);
      const int recvs = static_cast<int>(rng.next_below(3));
      for (End* e : {&plain, &hooked, &staged}) {
        for (int k = 0; k < recvs; ++k) {
          if (const auto v = e->ch.recv(t)) e->got.emplace_back(t, *v);
        }
        if (send) e->ch.send(t, next);
      }
      next += send;
      staged.ch.merge_staged();
      for (const End* e : {&hooked, &staged}) {
        EXPECT_EQ(e->got, plain.got) << "cycle " << t;
        EXPECT_EQ(e->len, plain.len) << "cycle " << t;
        EXPECT_EQ(e->pending, plain.pending) << "cycle " << t;
        EXPECT_EQ(e->activity, plain.activity) << "cycle " << t;
      }
      for (End* e : {&plain, &hooked, &staged}) e->activity = 0;
    }
    EXPECT_GT(plain.got.size(), 100u);
    EXPECT_GT(plain.len, 0u);  // the script also leaves items queued
  }
}

// Reference: a byte-by-byte scan testing each flag on arrival.
template <typename F>
void byte_scan(WakeList& w, int begin, int end, F&& f) {
  for (int i = begin; i < end; ++i) {
    if (w.live(i)) f(i);
  }
}

// A deterministic per-id script of flag writes, so both scans can replay
// the same mutations: marks and clears ahead in the same word, in later
// words, and (harmlessly) behind.
struct WakeScript {
  std::uint64_t seed;
  int n;
  void operator()(WakeList& w, int id) const {
    Rng rng(seed * 7919u + static_cast<std::uint64_t>(id));
    const int writes = static_cast<int>(rng.next_below(4));
    for (int k = 0; k < writes; ++k) {
      const int off = static_cast<int>(rng.next_below(24)) - 4;
      const int t = id + off;
      if (t < 0 || t >= n) continue;
      if (rng.next_bool(0.6)) {
        w.mark(t);
      } else {
        w.clear(t);
      }
    }
    if (rng.next_bool(0.5)) w.clear(id);
  }
};

TEST(WakeList, ForEachLiveVisitsWhatAByteScanVisits) {
  constexpr int n = 150;
  Rng rng(21);
  for (int trial = 0; trial < 300; ++trial) {
    WakeList fast, slow;
    fast.init(n, false);
    slow.init(n, false);
    const double densities[] = {0.05, 0.4, 0.9};
    for (int i = 0; i < n; ++i) {
      if (rng.next_bool(densities[trial % 3])) {
        fast.mark(i);
        slow.mark(i);
      }
    }
    const int begin = static_cast<int>(rng.next_below(40));
    const int end = begin + static_cast<int>(rng.next_below(n - begin + 1));
    const WakeScript script{static_cast<std::uint64_t>(trial), n};
    std::vector<int> seen_fast, seen_slow;
    fast.for_each_live(begin, end, [&](int id) {
      seen_fast.push_back(id);
      script(fast, id);
    });
    byte_scan(slow, begin, end, [&](int id) {
      seen_slow.push_back(id);
      script(slow, id);
    });
    ASSERT_EQ(seen_fast, seen_slow)
        << "trial " << trial << " [" << begin << ", " << end << ")";
    for (int i = 0; i < n; ++i) ASSERT_EQ(fast.live(i), slow.live(i)) << i;
  }
}

TEST(WakeList, ForEachLiveSeesMarksAheadAndSkipsClearsAhead) {
  WakeList w;
  w.init(40, false);
  w.mark(9);   // word 1 (ids 8..15)
  w.mark(13);
  w.mark(14);
  std::vector<int> seen;
  w.for_each_live(3, 37, [&](int id) {
    seen.push_back(id);
    if (id == 9) {
      w.mark(11);   // ahead, same word
      w.clear(13);  // ahead, same word
      w.mark(20);   // a later word
      w.mark(36);   // the unaligned tail
      w.mark(5);    // behind: a byte scan would not see it either
    }
  });
  EXPECT_EQ(seen, (std::vector<int>{9, 11, 14, 20, 36}));
}

TEST(WakeList, WordDrainEqualsByteDrain) {
  Rng rng(5);
  for (int n : {1, 7, 8, 63, 64, 65, 130, 1024}) {
    WakeList stage, dst, ref;
    stage.init(n, false);
    dst.init(n, false);
    ref.init(n, false);
    std::vector<bool> staged(n);
    for (int i = 0; i < n; ++i) {
      if (rng.next_bool(0.1)) {
        stage.mark(i);
        staged[i] = true;
      }
      if (rng.next_bool(0.3)) {
        dst.mark(i);
        ref.mark(i);
      }
    }
    for (int i = 0; i < n; ++i) {
      if (staged[i]) ref.mark(i);
    }
    stage.drain_into(dst);
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(dst.live(i), ref.live(i)) << n << " " << i;
      ASSERT_FALSE(stage.live(i)) << n << " " << i;
    }
    // A whole-list word scan agrees too.
    std::vector<int> seen;
    dst.for_each_live(0, n, [&](int id) { seen.push_back(id); });
    std::vector<int> expect;
    for (int i = 0; i < n; ++i) {
      if (ref.live(i)) expect.push_back(i);
    }
    EXPECT_EQ(seen, expect) << n;
  }
}

TEST(Arbiter, GrantsOnlyRequesters) {
  RoundRobinArbiter a(4);
  EXPECT_EQ(a.arbitrate(0b0000), -1);
  EXPECT_EQ(a.arbitrate(0b0100), 2);
}

TEST(Arbiter, RotatesPastWinner) {
  RoundRobinArbiter a(3);
  const std::uint64_t all = 0b111;
  EXPECT_EQ(a.arbitrate(all), 0);
  EXPECT_EQ(a.arbitrate(all), 1);
  EXPECT_EQ(a.arbitrate(all), 2);
  EXPECT_EQ(a.arbitrate(all), 0);
}

TEST(Arbiter, FairUnderContention) {
  RoundRobinArbiter a(4);
  std::vector<int> grants(4, 0);
  for (int i = 0; i < 400; ++i) grants[a.arbitrate(0b1111)]++;
  for (int g : grants) EXPECT_EQ(g, 100);
}

TEST(Arbiter, SkipsNonRequesters) {
  RoundRobinArbiter a(4);
  const std::uint64_t req = 0b0101;
  EXPECT_EQ(a.arbitrate(req), 0);
  EXPECT_EQ(a.arbitrate(req), 2);
  EXPECT_EQ(a.arbitrate(req), 0);
}

class ArbiterSizes : public ::testing::TestWithParam<int> {};

TEST_P(ArbiterSizes, EveryRequesterEventuallyWins) {
  const int n = GetParam();
  RoundRobinArbiter a(n);
  const std::uint64_t req = (std::uint64_t{1} << n) - 1;
  std::vector<bool> won(n, false);
  for (int i = 0; i < 2 * n; ++i) {
    const int w = a.arbitrate(req);
    ASSERT_GE(w, 0);
    won[w] = true;
  }
  for (int i = 0; i < n; ++i) EXPECT_TRUE(won[i]) << i;
}

INSTANTIATE_TEST_SUITE_P(Sizes, ArbiterSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 20));

}  // namespace
}  // namespace flov
