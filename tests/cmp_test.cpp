// CMP substrate tests: L1 cache behaviour, MESI directory protocol
// transactions, benchmark profiles, and end-to-end full-system runs.
#include <gtest/gtest.h>

#include <deque>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "cmp/cmp_system.hpp"
#include "cmp/directory.hpp"
#include "cmp/l1_cache.hpp"
#include "sim/sweep.hpp"

namespace flov {
namespace {

// ------------------------------------------------------------ L1 in vitro

struct L1Fixture {
  L1Fixture()
      : l1(1, /*capacity=*/4, /*seed=*/7,
           [this](const CoherenceMsg& m) { sent.push_back(m); },
           [](Addr) { return NodeId{0}; }) {}

  CoherenceMsg data_for(Addr a, Grant g) {
    CoherenceMsg d;
    d.type = MsgType::kData;
    d.addr = a;
    d.src = 0;
    d.dst = 1;
    d.grant = g;
    return d;
  }

  std::vector<CoherenceMsg> sent;
  L1Cache l1;
};

TEST(L1Cache, MissSendsGetSAndBlocksUntilData) {
  L1Fixture f;
  EXPECT_FALSE(f.l1.access(100, false));
  ASSERT_EQ(f.sent.size(), 1u);
  EXPECT_EQ(f.sent[0].type, MsgType::kGetS);
  EXPECT_EQ(f.sent[0].dst, 0);
  EXPECT_TRUE(f.l1.miss_outstanding());
  f.l1.on_message(f.data_for(100, Grant::kS));
  EXPECT_FALSE(f.l1.miss_outstanding());
  EXPECT_TRUE(f.l1.access(100, false));  // now a hit
}

TEST(L1Cache, StoreMissSendsGetM) {
  L1Fixture f;
  EXPECT_FALSE(f.l1.access(100, true));
  EXPECT_EQ(f.sent[0].type, MsgType::kGetM);
  f.l1.on_message(f.data_for(100, Grant::kM));
  EXPECT_TRUE(f.l1.access(100, true));   // M hit
  EXPECT_TRUE(f.l1.access(100, false));  // read hit in M
}

TEST(L1Cache, UpgradeFromSToMIsAMiss) {
  L1Fixture f;
  f.l1.access(100, false);
  f.l1.on_message(f.data_for(100, Grant::kS));  // now S
  f.sent.clear();
  EXPECT_FALSE(f.l1.access(100, true));  // store on S -> GetM
  ASSERT_EQ(f.sent.size(), 1u);
  EXPECT_EQ(f.sent[0].type, MsgType::kGetM);
}

TEST(L1Cache, CapacityEvictionWritesBackDirty) {
  L1Fixture f;  // capacity 4
  for (Addr a = 0; a < 4; ++a) {
    f.l1.access(a, true);
    f.l1.on_message(f.data_for(a, Grant::kM));
  }
  f.sent.clear();
  f.l1.access(10, false);
  f.l1.on_message(f.data_for(10, Grant::kS));  // triggers an eviction
  bool saw_putm = false;
  for (const auto& m : f.sent) saw_putm |= (m.type == MsgType::kPutM);
  EXPECT_TRUE(saw_putm);
  EXPECT_LE(f.l1.cached_blocks(), 4u);
}

TEST(L1Cache, InvalidationDropsAndAcks) {
  L1Fixture f;
  f.l1.access(100, false);
  f.l1.on_message(f.data_for(100, Grant::kS));
  f.sent.clear();
  CoherenceMsg inv;
  inv.type = MsgType::kInv;
  inv.addr = 100;
  inv.src = 0;
  inv.dst = 1;
  f.l1.on_message(inv);
  ASSERT_EQ(f.sent.size(), 1u);
  EXPECT_EQ(f.sent[0].type, MsgType::kInvAck);
  EXPECT_FALSE(f.l1.access(100, false));  // miss again
}

TEST(L1Cache, FwdGetSSuppliesBothRequesterAndDir) {
  L1Fixture f;
  f.l1.access(100, true);
  f.l1.on_message(f.data_for(100, Grant::kM));  // owner in M
  f.sent.clear();
  CoherenceMsg fwd;
  fwd.type = MsgType::kFwdGetS;
  fwd.addr = 100;
  fwd.src = 0;       // directory
  fwd.dst = 1;
  fwd.requester = 5;
  f.l1.on_message(fwd);
  ASSERT_EQ(f.sent.size(), 2u);
  EXPECT_EQ(f.sent[0].type, MsgType::kData);
  EXPECT_EQ(f.sent[0].dst, 5);
  EXPECT_EQ(f.sent[1].type, MsgType::kDataToDir);
  EXPECT_EQ(f.sent[1].dst, 0);
}

TEST(L1Cache, FlushEmitsAllBlocksThenCompletes) {
  L1Fixture f;
  for (Addr a = 0; a < 3; ++a) {
    f.l1.access(a, a == 0);
    f.l1.on_message(f.data_for(a, a == 0 ? Grant::kM : Grant::kS));
  }
  f.sent.clear();
  f.l1.begin_flush();
  for (int i = 0; i < 10; ++i) f.l1.flush_step();
  // One PutM (block 0 dirty) + two PutS.
  int putm = 0, puts = 0;
  for (const auto& m : f.sent) {
    putm += m.type == MsgType::kPutM;
    puts += m.type == MsgType::kPutS;
  }
  EXPECT_EQ(putm, 1);
  EXPECT_EQ(puts, 2);
  EXPECT_FALSE(f.l1.flush_done());  // PutM awaits its ack
  CoherenceMsg ack;
  ack.type = MsgType::kPutAck;
  ack.addr = 0;
  f.l1.on_message(ack);
  EXPECT_TRUE(f.l1.flush_done());
  EXPECT_EQ(f.l1.cached_blocks(), 0u);
}

// ----------------------------------------------------- directory in vitro

struct DirFixture {
  DirFixture()
      : bank(0, DirectoryConfig{16, 2, 10},
             [this](const CoherenceMsg& m) { sent.push_back(m); }) {}

  void run(int cycles) {
    for (int i = 0; i < cycles; ++i) bank.step(now++);
  }

  CoherenceMsg req(MsgType t, Addr a, NodeId from) {
    CoherenceMsg m;
    m.type = t;
    m.addr = a;
    m.src = from;
    m.dst = 0;
    m.requester = from;
    return m;
  }

  std::vector<CoherenceMsg> sent;
  DirectoryBank bank;
  Cycle now = 0;
};

TEST(Directory, GetSReturnsExclusiveDataAfterMemoryLatency) {
  DirFixture f;
  f.bank.enqueue(f.req(MsgType::kGetS, 100, 3));
  f.run(1);
  EXPECT_TRUE(f.sent.empty());  // DRAM latency pending
  f.run(15);
  ASSERT_EQ(f.sent.size(), 1u);
  EXPECT_EQ(f.sent[0].type, MsgType::kData);
  EXPECT_EQ(f.sent[0].dst, 3);
  EXPECT_EQ(f.sent[0].grant, Grant::kE);  // MESI: sole reader gets E
  EXPECT_EQ(f.bank.l2_misses(), 1u);
}

TEST(Directory, SecondGetSAfterPutEHitsL2Faster) {
  DirFixture f;
  f.bank.enqueue(f.req(MsgType::kGetS, 100, 3));
  f.run(20);  // 3 holds E
  f.bank.enqueue(f.req(MsgType::kPutE, 100, 3));  // clean eviction
  f.run(3);
  f.sent.clear();
  const Cycle before = f.now;
  f.bank.enqueue(f.req(MsgType::kGetS, 100, 4));
  while (f.sent.empty()) f.run(1);
  EXPECT_LE(f.now - before, 5u);  // L2 hit latency only
  EXPECT_EQ(f.bank.l2_misses(), 1u);
  EXPECT_EQ(f.sent[0].grant, Grant::kE);  // block uncached again -> E
}

TEST(Directory, GetMOverSharersInvalidatesAndCollectsAcks) {
  DirFixture f;
  f.bank.enqueue(f.req(MsgType::kGetS, 100, 3));
  f.run(20);  // 3 holds E
  f.bank.enqueue(f.req(MsgType::kGetS, 100, 4));  // Fwd to owner 3
  f.run(3);
  f.bank.enqueue(f.req(MsgType::kDataToDir, 100, 3));  // now S{3,4}
  f.run(3);
  f.sent.clear();
  f.bank.enqueue(f.req(MsgType::kGetM, 100, 5));
  f.run(5);
  // Invalidations to 3 and 4 went out; data held until acks return.
  int invs = 0;
  for (const auto& m : f.sent) invs += m.type == MsgType::kInv;
  ASSERT_EQ(invs, 2);
  bool data_sent = false;
  for (const auto& m : f.sent) data_sent |= m.type == MsgType::kData;
  EXPECT_FALSE(data_sent);
  f.bank.enqueue(f.req(MsgType::kInvAck, 100, 3));
  f.bank.enqueue(f.req(MsgType::kInvAck, 100, 4));
  f.run(5);
  data_sent = false;
  for (const auto& m : f.sent) {
    if (m.type == MsgType::kData) {
      data_sent = true;
      EXPECT_EQ(m.grant, Grant::kM);
      EXPECT_EQ(m.dst, 5);
    }
  }
  EXPECT_TRUE(data_sent);
}

TEST(Directory, GetSOnModifiedForwardsToOwner) {
  DirFixture f;
  f.bank.enqueue(f.req(MsgType::kGetM, 100, 3));
  f.run(20);  // 3 owns in M

  f.sent.clear();
  f.bank.enqueue(f.req(MsgType::kGetS, 100, 4));
  f.run(3);
  ASSERT_EQ(f.sent.size(), 1u);
  EXPECT_EQ(f.sent[0].type, MsgType::kFwdGetS);
  EXPECT_EQ(f.sent[0].dst, 3);
  EXPECT_EQ(f.sent[0].requester, 4);
  // Owner responds to dir; transaction completes without dir data.
  f.sent.clear();
  f.bank.enqueue(f.req(MsgType::kDataToDir, 100, 3));
  f.run(3);
  EXPECT_TRUE(f.sent.empty());
}

TEST(Directory, RequestsQueueBehindBusyBlock) {
  DirFixture f;
  f.bank.enqueue(f.req(MsgType::kGetS, 100, 3));  // E grant
  f.bank.enqueue(f.req(MsgType::kGetS, 100, 4));  // queues; then Fwd to 3
  f.run(30);
  f.bank.enqueue(f.req(MsgType::kDataToDir, 100, 3));
  f.run(5);
  int datas = 0, fwds = 0;
  for (const auto& m : f.sent) {
    datas += m.type == MsgType::kData;
    fwds += m.type == MsgType::kFwdGetS;
  }
  EXPECT_EQ(datas, 1);
  EXPECT_EQ(fwds, 1);
  EXPECT_EQ(f.bank.transactions(), 2u);
}

TEST(Directory, PutMFromOwnerRetiresOwnership) {
  DirFixture f;
  f.bank.enqueue(f.req(MsgType::kGetM, 100, 3));
  f.run(20);
  f.sent.clear();
  f.bank.enqueue(f.req(MsgType::kPutM, 100, 3));
  f.run(3);
  ASSERT_EQ(f.sent.size(), 1u);
  EXPECT_EQ(f.sent[0].type, MsgType::kPutAck);
  // Next GetS is served from L2 (no forward).
  f.sent.clear();
  f.bank.enqueue(f.req(MsgType::kGetS, 100, 4));
  f.run(10);
  ASSERT_EQ(f.sent.size(), 1u);
  EXPECT_EQ(f.sent[0].type, MsgType::kData);
}

TEST(Directory, StalePutMIsAckedAndIgnored) {
  DirFixture f;
  f.bank.enqueue(f.req(MsgType::kGetM, 100, 3));
  f.run(20);
  f.bank.enqueue(f.req(MsgType::kPutM, 100, 9));  // not the owner
  f.run(3);
  bool acked = false;
  for (const auto& m : f.sent) {
    if (m.type == MsgType::kPutAck && m.dst == 9) acked = true;
  }
  EXPECT_TRUE(acked);
  // 3 still owns: a GetS must forward.
  f.sent.clear();
  f.bank.enqueue(f.req(MsgType::kGetS, 100, 4));
  f.run(3);
  ASSERT_FALSE(f.sent.empty());
  EXPECT_EQ(f.sent[0].type, MsgType::kFwdGetS);
}

TEST(Directory, QueuedRequestsDrainAfterInlineMessages) {
  // Regression: requests queued behind a busy transaction must still be
  // served when the queue head is a PutS/PutM handled without starting a
  // new transaction (the pump must keep draining).
  DirFixture f;
  f.bank.enqueue(f.req(MsgType::kGetM, 100, 3));  // busy (DRAM fetch)
  f.bank.enqueue(f.req(MsgType::kPutM, 100, 9));  // queues; stale, inline
  f.bank.enqueue(f.req(MsgType::kGetS, 100, 4));  // queues behind the PutM
  f.run(40);
  bool acked9 = false, fwd3 = false;
  for (const auto& m : f.sent) {
    acked9 |= m.type == MsgType::kPutAck && m.dst == 9;
    fwd3 |= m.type == MsgType::kFwdGetS && m.dst == 3;
  }
  EXPECT_TRUE(acked9);  // the inline PutM was pumped...
  EXPECT_TRUE(fwd3);    // ...and the GetS behind it was served too
}

TEST(Directory, NewRequestsDoNotJumpTheWaitingQueue) {
  DirFixture f;
  f.bank.enqueue(f.req(MsgType::kGetS, 100, 3));  // -> E grant to 3
  f.bank.enqueue(f.req(MsgType::kGetM, 100, 4));  // waits behind the GetS
  f.run(40);  // GetS completes; GetM starts: FwdGetM to owner 3
  f.bank.enqueue(f.req(MsgType::kDataToDir, 100, 3));
  f.run(10);  // GetM completes, 4 owns M
  f.bank.enqueue(f.req(MsgType::kGetS, 100, 5));  // forwarded to owner 4
  f.run(10);
  f.bank.enqueue(f.req(MsgType::kDataToDir, 100, 4));
  f.run(10);
  int datas = 0, fwd_s = 0, fwd_m = 0;
  for (const auto& m : f.sent) {
    datas += m.type == MsgType::kData;
    fwd_s += m.type == MsgType::kFwdGetS;
    fwd_m += m.type == MsgType::kFwdGetM;
  }
  EXPECT_EQ(datas, 2);  // E grant to 3, M grant to 4 (5 served by owner 4)
  EXPECT_EQ(fwd_m, 1);
  EXPECT_EQ(fwd_s, 1);
  EXPECT_EQ(f.bank.transactions(), 3u);
  EXPECT_TRUE(f.bank.idle());
}

TEST(Directory, QueuedRequestsStayFifoPerBlock) {
  // Two blocks, both busy, with GetMs to them arriving interleaved. Each
  // block must grant M to its own requesters in arrival order; a stand-in
  // owner answers every forward, so the queues drain to an idle bank.
  DirFixture f;
  const NodeId order100[] = {3, 4, 6, 8};
  const NodeId order200[] = {5, 7, 9, 11};
  for (int i = 0; i < 4; ++i) {
    f.bank.enqueue(f.req(MsgType::kGetM, 100, order100[i]));
    f.bank.enqueue(f.req(MsgType::kGetM, 200, order200[i]));
  }
  std::vector<NodeId> granted100, granted200;
  std::size_t seen = 0;
  f.run(8);  // all eight taken in: two fetch from DRAM, six queue
  EXPECT_FALSE(f.bank.idle());
  for (int c = 0; c < 400 && !f.bank.idle(); ++c) {
    f.run(1);
    for (; seen < f.sent.size(); ++seen) {
      const CoherenceMsg m = f.sent[seen];
      if (m.type == MsgType::kFwdGetM) {
        f.bank.enqueue(f.req(MsgType::kDataToDir, m.addr, m.dst));
      } else if (m.type == MsgType::kData) {
        EXPECT_EQ(m.grant, Grant::kM);
        (m.addr == 100 ? granted100 : granted200).push_back(m.dst);
      }
    }
  }
  EXPECT_EQ(granted100, std::vector<NodeId>(std::begin(order100),
                                            std::end(order100)));
  EXPECT_EQ(granted200, std::vector<NodeId>(std::begin(order200),
                                            std::end(order200)));
  EXPECT_EQ(f.bank.transactions(), 8u);
  EXPECT_TRUE(f.bank.idle());
}

TEST(Directory, GatedOracleSkipsSleepingSharers) {
  DirFixture f;
  f.bank.set_gated_oracle([](NodeId n) { return n == 4; });
  f.bank.enqueue(f.req(MsgType::kGetS, 100, 3));
  f.run(20);  // 3 holds E
  f.bank.enqueue(f.req(MsgType::kGetS, 100, 4));  // Fwd dance -> S{3,4}
  f.run(3);
  f.bank.enqueue(f.req(MsgType::kDataToDir, 100, 3));
  f.run(3);
  f.sent.clear();
  f.bank.enqueue(f.req(MsgType::kGetM, 100, 5));
  f.run(5);
  int invs = 0;
  for (const auto& m : f.sent) {
    if (m.type == MsgType::kInv) {
      ++invs;
      EXPECT_NE(m.dst, 4);  // the gated core is never contacted
    }
  }
  EXPECT_EQ(invs, 1);
}

// ----------------------------------------------------------- profiles

TEST(Profiles, SuiteHasNineDistinctBenchmarks) {
  const auto suite = BenchmarkProfile::parsec_suite();
  ASSERT_EQ(suite.size(), 9u);
  std::set<std::string> names;
  for (const auto& p : suite) {
    names.insert(p.name);
    EXPECT_GT(p.mem_access_rate, 0.0);
    EXPECT_LT(p.mem_access_rate, 0.5);
    EXPECT_GT(p.active_fraction, 0.0);
    EXPECT_LE(p.active_fraction, 1.0);
    EXPECT_GE(p.imbalance, 0.0);
    EXPECT_LT(p.imbalance, 1.0);
  }
  EXPECT_EQ(names.size(), 9u);
  EXPECT_NO_THROW(BenchmarkProfile::by_name("canneal"));
  EXPECT_THROW(BenchmarkProfile::by_name("doom"), std::logic_error);
}

// ------------------------------------------------------------- end-to-end

CmpConfig small_cmp(Scheme s) {
  CmpConfig c;
  c.scheme = s;
  c.noc.width = 4;
  c.noc.height = 4;
  c.profile = BenchmarkProfile::by_name("swaptions");
  c.profile.base_instructions = 4000;
  c.seed = 1;
  c.max_cycles = 400000;
  return c;
}

class CmpSchemes : public ::testing::TestWithParam<Scheme> {};

TEST_P(CmpSchemes, RunsToCompletionWithCoherentTraffic) {
  const CmpResult r = run_cmp(small_cmp(GetParam()));
  EXPECT_GT(r.runtime, 0u);
  EXPECT_GT(r.packets, 0u);
  EXPECT_GT(r.dir_transactions, 0u);
  EXPECT_GT(r.l1_hits, 0u);
  EXPECT_GT(r.final_gated_cores, 0);
  EXPECT_GT(r.power.total_energy_pj, 0.0);
}

INSTANTIATE_TEST_SUITE_P(All, CmpSchemes,
                         ::testing::Values(Scheme::kBaseline, Scheme::kRp,
                                           Scheme::kRFlov, Scheme::kGFlov),
                         [](const ::testing::TestParamInfo<Scheme>& i) {
                           return std::string(to_string(i.param));
                         });

TEST(CmpSystem, WorkloadIsDeterministicPerSeed) {
  const CmpResult a = run_cmp(small_cmp(Scheme::kBaseline));
  const CmpResult b = run_cmp(small_cmp(Scheme::kBaseline));
  EXPECT_EQ(a.runtime, b.runtime);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.l1_misses, b.l1_misses);
}

// Replies the eject callback enqueues leave in the ejection cycle only on
// the serial schedule (row bands replay ejections after the barrier), so a
// banded CMP system is refused, naming the key.
TEST(CmpSystem, RejectsRowBandsNamingTheKey) {
  CmpConfig c = small_cmp(Scheme::kBaseline);
  c.noc.step_threads = 2;
  try {
    CmpSystem sys(c);
    FAIL() << "a CMP system with noc.step_threads=2 was built";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("noc.step_threads"),
              std::string::npos)
        << e.what();
  }
}

TEST(CmpSystem, GFlovSavesStaticEnergyAtSmallRuntimeCost) {
  const CmpResult base = run_cmp(small_cmp(Scheme::kBaseline));
  const CmpResult gf = run_cmp(small_cmp(Scheme::kGFlov));
  EXPECT_LT(gf.power.static_energy_pj, base.power.static_energy_pj);
  EXPECT_LT(gf.runtime, base.runtime * 1.15);
}

// One small canneal run per scheme (the most sharing and the largest
// footprint of the suite), pinned exactly. A container swap that reorders
// the Inv fan-out (`Entry::sharers`) or the L1 victim choice
// (`L1Cache::blocks_`) moves these values: swapping either for an ordered
// container changes every scheme's runtime. At a twentieth of the
// instructions the sharer swap went unseen, so the run keeps a fifth.
struct PinnedCmp {
  Scheme scheme;
  Cycle runtime;
  std::uint64_t packets, l1_misses, l2_misses, dir_transactions;
  int final_gated_cores;
  double avg_pkt_latency;
};

// Both ways to run the CMP give these values: run_cmp's CmpResult, and the
// registry of a bench=canneal sweep point (expand_sweep, then run_sweep)
// with the same fifth of the instructions.
TEST(CmpSystem, OutputsMatchPinnedValues) {
  const PinnedCmp pinned[] = {
      {Scheme::kBaseline, 99300, 16843, 4360, 4033, 4360, 12,
       85.972273347978387},
      {Scheme::kRp, 104715, 16850, 4360, 4033, 4360, 12, 102.92504451038576},
      {Scheme::kRFlov, 97840, 16838, 4359, 4033, 4359, 12,
       91.855683572870888},
      {Scheme::kGFlov, 97605, 16839, 4359, 4033, 4359, 12,
       90.350198942930106},
  };
  for (const PinnedCmp& p : pinned) {
    SCOPED_TRACE(to_string(p.scheme));
    CmpConfig c = small_cmp(p.scheme);
    c.profile = BenchmarkProfile::by_name("canneal");
    c.profile.base_instructions /= 5;
    const CmpResult r = run_cmp(c);
    EXPECT_EQ(r.runtime, p.runtime);
    EXPECT_EQ(r.packets, p.packets);
    EXPECT_EQ(r.l1_misses, p.l1_misses);
    EXPECT_EQ(r.l2_misses, p.l2_misses);
    EXPECT_EQ(r.dir_transactions, p.dir_transactions);
    EXPECT_EQ(r.final_gated_cores, p.final_gated_cores);
    EXPECT_EQ(r.avg_pkt_latency, p.avg_pkt_latency);
  }

  Config block;
  block.parse_text(
      "bench = canneal\nscheme = baseline,rp,rflov,gflov\nseed = 1\n"
      "noc.width = 4\nnoc.height = 4\nsim.max_cycles_hard = 400000\n");
  std::vector<SyntheticExperimentConfig> points;
  for (const SweepPoint& sp : expand_sweep(block, {})) {
    points.push_back(sp.experiment);
    points.back().profile.base_instructions /= 5;
  }
  SweepOptions opts;
  opts.jobs = 2;
  const std::vector<RunResult> results = run_sweep(points, opts);
  ASSERT_EQ(results.size(), std::size(pinned));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PinnedCmp& p = pinned[i];
    SCOPED_TRACE(std::string("sweep ") + to_string(p.scheme));
    const RunResult& r = results[i];
    const telemetry::MetricsRegistry& reg = *r.metrics;
    EXPECT_EQ(r.scheme, to_string(p.scheme));
    EXPECT_FALSE(r.aborted);
    EXPECT_EQ(reg.counter_value("cmp.runtime_cycles"), p.runtime);
    EXPECT_EQ(r.packets_measured, p.packets);
    EXPECT_EQ(reg.counter_value("cmp.l1_misses"), p.l1_misses);
    EXPECT_EQ(reg.counter_value("cmp.l2_misses"), p.l2_misses);
    EXPECT_EQ(reg.counter_value("cmp.dir_transactions"), p.dir_transactions);
    EXPECT_EQ(reg.counter_value("cmp.final_gated_cores"),
              static_cast<std::uint64_t>(p.final_gated_cores));
    EXPECT_EQ(r.avg_latency, p.avg_pkt_latency);
  }
}

}  // namespace
}  // namespace flov
