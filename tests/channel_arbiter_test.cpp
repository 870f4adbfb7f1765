// Unit tests for the pipelined channel and the round-robin arbiter.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "noc/arbiter.hpp"
#include "noc/channel.hpp"

namespace flov {
namespace {

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

TEST(Channel, RecvAllDrainsDueItems) {
  Channel<int> ch(1);
  ch.send(0, 1);
  ch.send(0, 2);
  ch.send(5, 3);
  const auto due = ch.recv_all(1);
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
  EXPECT_TRUE(ch.recv_all(0).empty());
  EXPECT_EQ(flag, 0) << "recv with nothing due";
  EXPECT_TRUE(ch.recv(1).has_value());
  EXPECT_EQ(flag, 1) << "recv";
  ch.send(1, 2);
  flag = 0;
  EXPECT_EQ(ch.recv_all(2).size(), 1u);
  EXPECT_EQ(flag, 1) << "recv_all";
  flag = 0;
  ch.clear();
  EXPECT_EQ(flag, 1) << "clear";

  // A dropped item still flags: the sender's credit refund is a change.
  flag = 0;
  ch.set_fault_hook([](Cycle, int&) { return std::optional<Cycle>(); });
  ch.send(3, 3);
  EXPECT_EQ(flag, 1) << "dropped send";
}

TEST(Channel, StagingChannelFlagsAtTheMerge) {
  std::uint8_t flag = 0;
  Channel<int> ch(1);
  ch.set_activity_flag(&flag);
  ch.set_staging(true);
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
