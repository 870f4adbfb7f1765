// Unit tests for common/: geometry, RNG, statistics, configuration.
#include <gtest/gtest.h>

#include <set>

#include "common/config.hpp"
#include "common/geometry.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace flov {
namespace {

// ---------------------------------------------------------------- geometry

TEST(Geometry, IdCoordRoundTrip) {
  MeshGeometry g(8, 8);
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    EXPECT_EQ(g.id(g.coord(id)), id);
  }
}

TEST(Geometry, RowMajorFromTopMatchesPaperFig5) {
  // In the paper's 4x4 example, router 9 is SOUTH of router 5 and router 6
  // is EAST of router 5.
  MeshGeometry g(4, 4);
  EXPECT_EQ(g.neighbor(5, Direction::South), 9);
  EXPECT_EQ(g.neighbor(5, Direction::East), 6);
  EXPECT_EQ(g.neighbor(5, Direction::North), 1);
  EXPECT_EQ(g.neighbor(5, Direction::West), 4);
}

TEST(Geometry, EdgesReturnInvalid) {
  MeshGeometry g(4, 4);
  EXPECT_EQ(g.neighbor(0, Direction::North), kInvalidNode);
  EXPECT_EQ(g.neighbor(0, Direction::West), kInvalidNode);
  EXPECT_EQ(g.neighbor(15, Direction::South), kInvalidNode);
  EXPECT_EQ(g.neighbor(15, Direction::East), kInvalidNode);
  EXPECT_EQ(g.neighbor(3, Direction::North), kInvalidNode);
  EXPECT_EQ(g.neighbor(12, Direction::West), kInvalidNode);
}

TEST(Geometry, FlovLinkEligibility) {
  MeshGeometry g(4, 4);
  // Corners: no FLOV links at all.
  for (NodeId c : {0, 3, 12, 15}) {
    EXPECT_TRUE(g.is_corner(c)) << c;
    EXPECT_FALSE(g.has_both_horizontal_neighbors(c));
    EXPECT_FALSE(g.has_both_vertical_neighbors(c));
  }
  // Top edge (id 1): X-FLOV only.
  EXPECT_TRUE(g.has_both_horizontal_neighbors(1));
  EXPECT_FALSE(g.has_both_vertical_neighbors(1));
  // Left edge (id 4): Y-FLOV only.
  EXPECT_FALSE(g.has_both_horizontal_neighbors(4));
  EXPECT_TRUE(g.has_both_vertical_neighbors(4));
  // Interior (id 5): both.
  EXPECT_TRUE(g.has_both_horizontal_neighbors(5));
  EXPECT_TRUE(g.has_both_vertical_neighbors(5));
}

TEST(Geometry, AonColumnIsLastColumn) {
  MeshGeometry g(4, 4);
  for (NodeId id : {3, 7, 11, 15}) EXPECT_TRUE(g.is_aon_column(id)) << id;
  for (NodeId id : {0, 1, 2, 4, 8, 12, 14}) {
    EXPECT_FALSE(g.is_aon_column(id)) << id;
  }
}

TEST(Geometry, ManhattanHops) {
  MeshGeometry g(8, 8);
  EXPECT_EQ(g.hops(0, 63), 14);
  EXPECT_EQ(g.hops(0, 0), 0);
  EXPECT_EQ(g.hops(0, 7), 7);
  EXPECT_EQ(g.hops(7, 0), 7);
}

TEST(Geometry, OppositeDirections) {
  EXPECT_EQ(opposite(Direction::North), Direction::South);
  EXPECT_EQ(opposite(Direction::South), Direction::North);
  EXPECT_EQ(opposite(Direction::East), Direction::West);
  EXPECT_EQ(opposite(Direction::West), Direction::East);
  EXPECT_EQ(opposite(Direction::Local), Direction::Local);
}

TEST(Geometry, RectangularMesh) {
  MeshGeometry g(8, 4);
  EXPECT_EQ(g.num_nodes(), 32);
  EXPECT_EQ(g.coord(31).x, 7);
  EXPECT_EQ(g.coord(31).y, 3);
  EXPECT_EQ(g.neighbor(8, Direction::North), 0);
}

// --------------------------------------------------------------------- rng

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    if (va != c.next_u64()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Rng, NextBelowBounds) {
  Rng r(7);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    EXPECT_EQ(r.next_below(1), 0u);
  }
}

TEST(Rng, NextIntInclusiveRange) {
  Rng r(9);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = r.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliRate) {
  Rng r(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += r.next_bool(0.25);
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
  EXPECT_FALSE(r.next_bool(0.0));
  EXPECT_TRUE(r.next_bool(1.0));
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(17);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, SplitStreamsDiffer) {
  Rng r(19);
  Rng a = r.split();
  Rng b = r.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

// ------------------------------------------------------------------- stats

TEST(Stats, AccumulatorBasics) {
  StatAccumulator s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.25);
}

TEST(Stats, AccumulatorMergeMatchesCombined) {
  StatAccumulator a, b, all;
  Rng r(3);
  for (int i = 0; i < 100; ++i) {
    const double x = r.next_double() * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, AccumulatorMergeWithEmpty) {
  StatAccumulator a, empty;
  for (double x : {2.0, 4.0, 6.0}) a.add(x);
  const double mean = a.mean(), var = a.variance();

  a.merge(empty);  // merging an empty accumulator changes nothing
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  EXPECT_DOUBLE_EQ(a.variance(), var);

  StatAccumulator b;
  b.merge(a);  // merging INTO an empty adopts the other wholesale
  EXPECT_EQ(b.count(), 3u);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
  EXPECT_DOUBLE_EQ(b.variance(), var);
  EXPECT_DOUBLE_EQ(b.min(), 2.0);
  EXPECT_DOUBLE_EQ(b.max(), 6.0);
}

TEST(Stats, AccumulatorMergeOrderIndependentForSameData) {
  // The sweep fold relies on merge producing the same moments regardless
  // of how the samples were split across per-run accumulators.
  StatAccumulator ab, ba, a1, b1, a2, b2;
  Rng r(5);
  for (int i = 0; i < 50; ++i) {
    const double x = r.next_double() * 100 - 50;
    (i < 25 ? a1 : b1).add(x);
    (i < 25 ? a2 : b2).add(x);
  }
  ab = a1;
  ab.merge(b1);
  ba = b2;
  ba.merge(a2);
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_NEAR(ab.mean(), ba.mean(), 1e-12);
  EXPECT_NEAR(ab.variance(), ba.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(ab.min(), ba.min());
  EXPECT_DOUBLE_EQ(ab.max(), ba.max());
}

TEST(Stats, HistogramPercentiles) {
  Histogram h(0, 100, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.percentile(50), 50, 1.5);
  EXPECT_NEAR(h.percentile(90), 90, 1.5);
  EXPECT_EQ(h.count(), 100u);
}

TEST(Stats, HistogramClampsOutOfRange) {
  Histogram h(0, 10, 10);
  h.add(-5);
  h.add(50);
  EXPECT_EQ(h.bins().front(), 1u);
  EXPECT_EQ(h.bins().back(), 1u);
}

TEST(Stats, HistogramEmptyPercentile) {
  Histogram h(0, 100, 10);
  EXPECT_EQ(h.count(), 0u);
  // Percentiles of an empty histogram must not crash; any in-range
  // constant is acceptable as long as it is deterministic.
  const double p50 = h.percentile(50);
  EXPECT_EQ(p50, h.percentile(50));
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, 100.0);
}

TEST(Stats, HistogramSingleBin) {
  Histogram h(0, 10, 1);
  for (int i = 0; i < 7; ++i) h.add(5.0);
  EXPECT_EQ(h.count(), 7u);
  // With one bin, every percentile interpolates within [0, 10).
  EXPECT_GE(h.percentile(0), 0.0);
  EXPECT_LE(h.percentile(100), 10.0);
  EXPECT_LE(h.percentile(10), h.percentile(90));
}

TEST(Stats, HistogramPercentileExtremes) {
  Histogram h(0, 100, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_LE(h.percentile(0), h.percentile(1));
  EXPECT_LE(h.percentile(99), h.percentile(100));
  EXPECT_NEAR(h.percentile(0), 0.0, 1.5);
  EXPECT_NEAR(h.percentile(100), 100.0, 1.5);
}

TEST(Stats, HistogramClampCountersVisible) {
  // The clamp counters make saturation visible: a p99 read off a
  // histogram with non-zero clamped_high() is a lower bound.
  Histogram h(0, 10, 10);
  for (int i = 0; i < 90; ++i) h.add(5.0);
  EXPECT_EQ(h.clamped_low(), 0u);
  EXPECT_EQ(h.clamped_high(), 0u);
  for (int i = 0; i < 10; ++i) h.add(1e6);
  h.add(-1.0);
  EXPECT_EQ(h.clamped_high(), 10u);
  EXPECT_EQ(h.clamped_low(), 1u);
  EXPECT_EQ(h.count(), 101u);
  // All clamped-high mass sits in the last bin, so the p99 saturates just
  // below the upper bound instead of reporting the true 1e6.
  EXPECT_LE(h.percentile(99), 10.0);
}

TEST(Stats, HistogramMergeAddsBinsAndClamps) {
  Histogram a(0, 10, 10), b(0, 10, 10);
  a.add(1.5);
  a.add(99.0);  // clamped high
  b.add(1.5);
  b.add(-3.0);  // clamped low
  b.add(8.5);
  a.merge(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_EQ(a.bins()[1], 2u);  // both 1.5 samples
  EXPECT_EQ(a.clamped_high(), 1u);
  EXPECT_EQ(a.clamped_low(), 1u);
}

TEST(Stats, TimeSeriesBuckets) {
  TimeSeries ts(100);
  ts.add(10, 1.0);
  ts.add(20, 3.0);
  ts.add(150, 10.0);
  ts.add(950, 7.0);
  auto pts = ts.points();
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[0].window_start, 0u);
  EXPECT_DOUBLE_EQ(pts[0].mean, 2.0);
  EXPECT_EQ(pts[1].window_start, 100u);
  EXPECT_DOUBLE_EQ(pts[1].mean, 10.0);
  EXPECT_EQ(pts[2].window_start, 900u);
}

TEST(Stats, TimeSeriesOutOfOrderInsert) {
  TimeSeries ts(10);
  ts.add(100, 1.0);
  ts.add(5, 2.0);  // earlier window after a later one
  auto pts = ts.points();
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].window_start, 0u);
  EXPECT_EQ(pts[1].window_start, 100u);
}

TEST(Stats, TimeSeriesWindowBoundaries) {
  // Samples at cycle k*W-1 and k*W must land in DIFFERENT windows: the
  // bucket covers [k*W, (k+1)*W).
  TimeSeries ts(100);
  ts.add(99, 1.0);
  ts.add(100, 2.0);
  ts.add(199, 3.0);
  ts.add(200, 4.0);
  auto pts = ts.points();
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[0].window_start, 0u);
  EXPECT_EQ(pts[0].count, 1u);
  EXPECT_EQ(pts[1].window_start, 100u);
  EXPECT_EQ(pts[1].count, 2u);
  EXPECT_DOUBLE_EQ(pts[1].mean, 2.5);
  EXPECT_EQ(pts[2].window_start, 200u);
  EXPECT_EQ(pts[2].count, 1u);
}

TEST(Stats, TimeSeriesCycleZero) {
  TimeSeries ts(50);
  ts.add(0, 9.0);
  auto pts = ts.points();
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].window_start, 0u);
  EXPECT_DOUBLE_EQ(pts[0].mean, 9.0);
}

TEST(Stats, TimeSeriesMergeCombinesOverlappingWindows) {
  TimeSeries a(100), b(100);
  a.add(10, 1.0);
  a.add(250, 5.0);
  b.add(20, 3.0);   // overlaps a's first window
  b.add(400, 8.0);  // new window
  a.merge(b);
  auto pts = a.points();
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts[0].window_start, 0u);
  EXPECT_EQ(pts[0].count, 2u);
  EXPECT_DOUBLE_EQ(pts[0].mean, 2.0);
  EXPECT_EQ(pts[1].window_start, 200u);
  EXPECT_EQ(pts[2].window_start, 400u);
  EXPECT_DOUBLE_EQ(pts[2].mean, 8.0);
}

// ------------------------------------------------------------------ config

TEST(Config, TypedAccessAndDefaults) {
  Config c;
  c.set("a", 42ll);
  c.set("b", 2.5);
  c.set("flag", true);
  c.set("s", std::string("hello"));
  EXPECT_EQ(c.get_int("a"), 42);
  EXPECT_DOUBLE_EQ(c.get_double("b"), 2.5);
  EXPECT_TRUE(c.get_bool("flag"));
  EXPECT_EQ(c.get_string("s"), "hello");
  EXPECT_EQ(c.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(c.get_double("a"), 42.0);  // int readable as double
  c.set("inj", std::string("0.02,0.08"));
  EXPECT_EQ(c.get_double_list("inj", {}), (std::vector<double>{0.02, 0.08}));
  EXPECT_EQ(c.get_string_list("inj", {}).size(), 2u);
  EXPECT_EQ(c.get_int_list("missing", {7}), (std::vector<long long>{7}));
}

TEST(Config, MissingKeyThrows) {
  Config c;
  EXPECT_THROW(c.get_int("nope"), std::logic_error);
  EXPECT_THROW(c.get_string("nope"), std::logic_error);
}

TEST(Config, TypeErrorsThrow) {
  Config c;
  c.set("s", std::string("abc"));
  EXPECT_THROW(c.get_int("s"), std::logic_error);
  EXPECT_THROW(c.get_bool("s"), std::logic_error);
  // A list element passes the same check as a scalar value.
  for (const char* bad : {"0.02,abc", "0.02,", ""}) {
    c.set("inj", std::string(bad));
    EXPECT_THROW(c.get_double_list("inj", {}), std::logic_error) << bad;
  }
}

TEST(Config, ParseArgs) {
  const char* argv[] = {"prog", "x=1", "noise", "y = 2.5", "name=mesh"};
  Config c;
  c.parse_args(5, const_cast<char**>(argv));
  EXPECT_EQ(c.get_int("x"), 1);
  EXPECT_DOUBLE_EQ(c.get_double("y"), 2.5);
  EXPECT_EQ(c.get_string("name"), "mesh");
  EXPECT_FALSE(c.has("noise"));
}

// Every removed family: multi-process stepping (use threads=) and sweep
// checkpoint/resume (re-run the sweep). Each key fails naming itself and
// what to do instead.
TEST(Config, RemovedMultiProcessKeysFailLoudly) {
  const struct {
    const char* key;
    const char* message;
  } removed[] = {
      {"procs", "multi-process stepping was removed; use threads="},
      {"noc.step_procs", "multi-process stepping was removed; use threads="},
      {"sim.snapshot_period",
       "multi-process stepping was removed; use threads="},
      {"runstate", "multi-process stepping was removed; use threads="},
      {"sim.max_recoveries",
       "multi-process stepping was removed; use threads="},
      {"checkpoint", "sweep checkpoint/resume was removed; a run is a pure "
                     "function of its config, so re-run the sweep"},
      {"resume", "sweep checkpoint/resume was removed; a run is a pure "
                 "function of its config, so re-run the sweep"},
      {"tiles", "2-D tile domains were removed; threads=N steps N row bands"},
      {"noc.step_tiles_x",
       "2-D tile domains were removed; threads=N steps N row bands"},
      {"noc.step_tiles_y",
       "2-D tile domains were removed; threads=N steps N row bands"},
  };
  for (const auto& [key, message] : removed) {
    SCOPED_TRACE(key);
    Config c;
    c.set(key, std::string("2"));
    try {
      reject_removed_keys(c);
      FAIL() << "removed key accepted";
    } catch (const std::logic_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(std::string("config key ") + key), std::string::npos)
          << msg;
      EXPECT_NE(msg.find(message), std::string::npos) << msg;
    }
  }
  // parse_args runs the same check, so every CLI and bench rejects them.
  const char* argv[] = {"prog", "threads=4", "procs=2"};
  Config c;
  EXPECT_THROW(c.parse_args(3, const_cast<char**>(argv)), std::logic_error);
  Config ok;
  ok.set("threads", std::string("4"));
  EXPECT_NO_THROW(reject_removed_keys(ok));
}

TEST(Config, TracksWhichKeysWereRead) {
  const char* argv[] = {"prog", "noc.width=4", "noc.widht=4", "seed=3"};
  Config c;
  c.parse_args(4, const_cast<char**>(argv));
  EXPECT_TRUE(c.has("seed"));  // has() is not a read
  EXPECT_EQ(c.get_int("noc.width", 8), 4);
  EXPECT_EQ(c.unread_keys(), (std::vector<std::string>{"noc.widht", "seed"}));
  try {
    reject_unread_keys(c);
    FAIL() << "unread keys accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("noc.widht, seed"), std::string::npos);
  }
  c.get_int_list("seed", {});
  c.get_int("noc.widht");
  EXPECT_NO_THROW(reject_unread_keys(c));
}

TEST(Config, ParseTextWithComments) {
  Config c;
  c.parse_text("a = 1\n# comment\nb = two # trailing\n\n");
  EXPECT_EQ(c.get_int("a"), 1);
  EXPECT_EQ(c.get_string("b"), "two");
}

TEST(Config, KeysSortedAndRoundTrip) {
  Config c;
  c.set("zz", 1ll);
  c.set("aa", 2ll);
  const auto keys = c.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "aa");
  Config d;
  d.parse_text(c.to_string());
  EXPECT_EQ(d.get_int("zz"), 1);
  EXPECT_EQ(d.get_int("aa"), 2);
}

TEST(RingBuffer, FifoOrderAcrossGrowth) {
  std::size_t len = 7;
  RingBuffer<int, std::size_t> rb;
  rb.bind_count(&len);
  EXPECT_TRUE(rb.empty());
  for (int i = 0; i < 100; ++i) rb.push_back(i);
  EXPECT_EQ(rb.size(), 100u);
  EXPECT_EQ(len, 100u) << "the bound cell is the length";
  EXPECT_EQ(rb.front(), 0);
  EXPECT_EQ(rb.back(), 99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rb.front(), i);
    rb.pop_front();
  }
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, WrapAroundReusesStorage) {
  std::size_t len = 0;
  RingBuffer<int, std::size_t> rb;
  rb.bind_count(&len);
  for (int i = 0; i < 8; ++i) rb.push_back(i);
  // Steady-state churn: pop one, push one — must wrap, never grow.
  for (int i = 8; i < 1000; ++i) {
    EXPECT_EQ(rb.front(), i - 8);
    rb.pop_front();
    rb.push_back(i);
    EXPECT_EQ(rb.size(), 8u);
  }
  int expect = 992;
  for (const int v : rb) EXPECT_EQ(v, expect++);
}

TEST(RingBuffer, GrowWhileWrappedPreservesOrder) {
  std::size_t len = 0;
  RingBuffer<int, std::size_t> rb;
  rb.bind_count(&len);
  for (int i = 0; i < 8; ++i) rb.push_back(i);
  for (int i = 0; i < 5; ++i) rb.pop_front();  // head_ now mid-array
  for (int i = 8; i < 40; ++i) rb.push_back(i);  // forces growth while wrapped
  ASSERT_EQ(rb.size(), 35u);
  for (int i = 5; i < 40; ++i) {
    EXPECT_EQ(rb.front(), i);
    rb.pop_front();
  }
}

TEST(RingBuffer, IndexEmplaceAndClear) {
  std::uint8_t len = 0;
  RingBuffer<std::pair<int, int>, std::uint8_t> rb;
  rb.bind_count(&len);
  rb.emplace_back(1, 2);
  rb.emplace_back(3, 4);
  EXPECT_EQ(rb[0].first, 1);
  EXPECT_EQ(rb[1].second, 4);
  auto it = rb.begin();
  EXPECT_EQ(it->first, 1);
  ++it;
  EXPECT_EQ((*it).second, 4);
  ++it;
  EXPECT_EQ(it, rb.end());
  rb.clear();
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.begin(), rb.end());
}

}  // namespace
}  // namespace flov
