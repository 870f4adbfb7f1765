// Invariant-verifier unit tests: the verifier must stay silent on healthy
// runs (all four schemes) and must abort — with a FLOV_CHECK death, on the
// cycle of the corruption — when handed a fabric whose conservation laws
// were deliberately broken, including state that sat untouched for a
// thousand cycles before (the checks re-run only where stamps say
// something changed).
// Also covers the drain-abort-timeout promotion into NocParams/Config
// (PROTOCOL.md §2) and the new recovery knobs' config plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/config.hpp"
#include "fault/fault_model.hpp"
#include "flov/flov_network.hpp"
#include "sim/experiment.hpp"
#include "verify/invariant_verifier.hpp"

namespace flov {
namespace {

NocParams small_mesh() {
  NocParams p;
  p.width = 4;
  p.height = 4;
  return p;
}

// --- healthy runs stay silent -------------------------------------------

TEST(Verifier, CleanOnExistingScenariosAllSchemes) {
  for (Scheme s : kAllSchemes) {
    SyntheticExperimentConfig cfg;
    cfg.noc = small_mesh();
    cfg.scheme = s;
    cfg.inj_rate_flits = 0.05;
    cfg.gated_fraction = s == Scheme::kBaseline ? 0.0 : 0.4;
    cfg.warmup = 2000;
    cfg.measure = 8000;
    const RunResult r = run_synthetic(cfg);  // verify defaults to on
    EXPECT_EQ(r.verifier_violations, 0u) << to_string(s);
    EXPECT_GT(r.verifier_checks, 0u) << to_string(s);
    EXPECT_EQ(r.watchdog_recoveries, 0u) << to_string(s);
  }
}

TEST(Verifier, CountsInsteadOfAbortingWhenNonFatal) {
  FlovNetwork sys(small_mesh(), FlovMode::kGeneralized, EnergyParams{});
  VerifierOptions vo;
  vo.fatal = false;
  InvariantVerifier verifier(sys, vo);
  PacketRecord rec;
  rec.packet_id = 42;
  rec.src = 0;
  rec.dest = 5;
  verifier.observe_eject(rec);
  EXPECT_EQ(verifier.violations(), 0u);
  verifier.observe_eject(rec);
  EXPECT_EQ(verifier.violations(), 1u);
  EXPECT_NE(verifier.last_violation().find("ejected 2 times"),
            std::string::npos);
}

// --- deliberate corruption must die (FLOV_CHECK fatal = throws) ----------

/// Runs `f` expecting a FLOV_CHECK failure; returns its message.
template <typename F>
std::string expect_fatal(F&& f) {
  try {
    f();
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "corruption went undetected";
  return {};
}

TEST(VerifierDeath, DoubleEjectAborts) {
  FlovNetwork sys(small_mesh(), FlovMode::kGeneralized, EnergyParams{});
  InvariantVerifier verifier(sys);  // fatal by default
  PacketRecord rec;
  rec.packet_id = 7;
  rec.eject_cycle = 40;
  verifier.observe_eject(rec);
  rec.eject_cycle = 57;
  const std::string msg =
      expect_fatal([&] { verifier.observe_eject(rec); });
  EXPECT_NE(msg.find("ejected 2 times"), std::string::npos) << msg;
  EXPECT_EQ(verifier.last_violation_cycle(), 57u);
}

TEST(VerifierDeath, CreditOverReturnAborts) {
  FlovNetwork sys(small_mesh(), FlovMode::kGeneralized, EnergyParams{});
  InvariantVerifier verifier(sys);
  Cycle now = 0;
  for (; now < 20; ++now) {
    sys.step(now);
    verifier.step(now);
  }
  // A credit nobody earned: over-return on router 5's East credit wire.
  Channel<Credit>* wire = sys.network().router(5).credit_in(Direction::East);
  ASSERT_NE(wire, nullptr);
  sys.step(now);
  wire->send(now, Credit{0});
  const std::string msg = expect_fatal([&] { verifier.step(now); });
  EXPECT_NE(msg.find("credit conservation broken"), std::string::npos) << msg;
  EXPECT_EQ(verifier.last_violation_cycle(), now);
}

TEST(VerifierDeath, VanishedFlitAborts) {
  FlovNetwork sys(small_mesh(), FlovMode::kGeneralized, EnergyParams{});
  InvariantVerifier verifier(sys);
  PacketDescriptor pd;
  pd.src = 0;
  pd.dest = 3;  // straight east across row 0
  pd.size_flits = 4;
  sys.network().enqueue(pd);
  Channel<Flit>* wire = sys.network().flit_channel(0, Direction::East);
  ASSERT_NE(wire, nullptr);
  Cycle now = 0;
  while (wire->empty() && now < 50) {
    sys.step(now);
    verifier.step(now);
    ++now;
  }
  ASSERT_FALSE(wire->empty()) << "flit never reached the wire";
  wire->clear();  // unaccounted loss: not a registered fault
  const std::string msg = expect_fatal([&] { verifier.step(now); });
  EXPECT_NE(msg.find("flit conservation broken"), std::string::npos) << msg;
  EXPECT_EQ(verifier.last_violation_cycle(), now);
}

// --- packed occupancy: the checks read the components' own cells --------
// Flit conservation sums the packed buffer lengths and the credit check
// reads the packed credit run, so a cell changed behind its component's
// back must be reported on that cycle. A check that read a cache (the
// routers' resident counts, the FabricCounters) would stay silent.

TEST(VerifierPacked, DecrementedVcLengthBreaksFlitConservation) {
  FlovNetwork sys(small_mesh(), FlovMode::kGeneralized, EnergyParams{});
  VerifierOptions vo;
  vo.fatal = false;
  vo.check_credits = false;  // the same loss would also break a segment
  InvariantVerifier verifier(sys, vo);
  PacketDescriptor pd;
  pd.src = 0;
  pd.dest = 3;
  pd.size_flits = 4;
  sys.network().enqueue(pd);
  std::vector<VcLength>& in_len = sys.network().hot_state().in_len;
  Cycle now = 0;
  for (;; ++now) {
    ASSERT_LT(now, 50u) << "no flit was ever buffered";
    sys.step(now);
    const auto buffered = std::find_if(in_len.begin(), in_len.end(),
                                       [](VcLength n) { return n > 0; });
    if (buffered != in_len.end()) {
      --*buffered;
      verifier.step(now);
      break;
    }
    verifier.step(now);
    ASSERT_EQ(verifier.violations(), 0u);
  }
  EXPECT_EQ(verifier.violations(), 1u);
  EXPECT_EQ(verifier.last_violation_cycle(), now);
  EXPECT_NE(verifier.last_violation().find("flit conservation broken"),
            std::string::npos)
      << verifier.last_violation();
}

TEST(VerifierPacked, BumpedOutputCreditBreaksCreditConservation) {
  FlovNetwork sys(small_mesh(), FlovMode::kGeneralized, EnergyParams{});
  VerifierOptions vo;
  vo.fatal = false;
  InvariantVerifier verifier(sys, vo);
  Cycle now = 0;
  for (; now < 20; ++now) {
    sys.step(now);
    verifier.step(now);
  }
  ASSERT_EQ(verifier.violations(), 0u);
  // Router 5 gains an East credit for VC 2 that router 6's buffer does not
  // back. wake_router announces it the way a credit handover would, so the
  // incremental check re-reads every segment.
  MeshHotState& hot = sys.network().hot_state();
  hot.out_credits[hot.vc_slot(5, dir_index(Direction::East)) + 2]++;
  sys.network().wake_router(5);
  sys.step(now);
  verifier.step(now);
  EXPECT_EQ(verifier.violations(), 1u);
  EXPECT_EQ(verifier.last_violation_cycle(), now);
  EXPECT_NE(verifier.last_violation().find(
                "credit conservation broken on segment 5 -> 6 dir=E vc=2"),
            std::string::npos)
      << verifier.last_violation();
}

// --- incremental checking: exact on long-quiet state ---------------------

/// A gated 8x8 FLOV mesh without traffic: the routers in `gated` sleep, so
/// the credit segment u -> c runs across them and stays quiet. After at
/// least 1000 quiet cycles, `plant` breaks the segment at cycle `now` (after
/// the system step, before the verifier's); a non-fatal verifier must
/// report on exactly that cycle, having been silent until then.
template <typename Plant>
void expect_report_on_plant_cycle(FlovMode mode, std::vector<NodeId> gated,
                                  NodeId u, NodeId c, Plant plant) {
  NocParams p;
  p.width = 8;
  p.height = 8;
  FlovNetwork sys(p, mode, EnergyParams{});
  VerifierOptions vo;
  vo.fatal = false;
  InvariantVerifier verifier(sys, vo);
  for (NodeId id : gated) sys.set_core_gated(id, true, 0);
  Cycle now = 0;
  for (; now < 3000; ++now) {
    sys.step(now);
    verifier.step(now);
  }
  for (NodeId id : gated) {
    ASSERT_EQ(sys.hsc(id).state(), PowerState::kSleep) << id;
    ASSERT_GE(sys.hsc(id).sleep_cycles(now), 1000u) << id;
  }
  ASSERT_EQ(sys.network().router(u).mode(), RouterMode::kPipeline);
  ASSERT_EQ(sys.network().router(c).mode(), RouterMode::kPipeline);
  ASSERT_EQ(verifier.violations(), 0u);
  for (;; ++now) {
    ASSERT_LT(now, 4000u) << "the plant never broke anything";
    sys.step(now);
    const bool planted = plant(sys, now);
    verifier.step(now);
    if (!planted) {
      ASSERT_EQ(verifier.violations(), 0u) << "report before the plant";
      continue;
    }
    EXPECT_GE(verifier.violations(), 1u);
    EXPECT_EQ(verifier.last_violation_cycle(), now);
    return;
  }
}

/// Plants a credit nobody earned on u's credit wire from the first
/// sleeping router (the segment's first hop toward East).
auto unearned_credit(NodeId u) {
  return [u](FlovNetwork& sys, Cycle now) {
    sys.network().router(u).credit_in(Direction::East)->send(now, Credit{0});
    return true;
  };
}

/// Sends one single-flit packet u -> dest along the row; the cycle its flit
/// is on the wire leaving the last sleeping router (`last`), the wire loses
/// it.
auto vanishing_flit(NodeId u, NodeId last, NodeId dest) {
  return [u, last, dest, sent = false](FlovNetwork& sys, Cycle now) mutable {
    if (!sent) {
      PacketDescriptor pd;
      pd.src = u;
      pd.dest = dest;
      pd.size_flits = 1;
      pd.gen_cycle = now;
      sys.network().enqueue(pd);
      sent = true;
      return false;
    }
    Channel<Flit>* wire = sys.network().flit_channel(last, Direction::East);
    if (wire->empty()) return false;
    wire->clear();
    return true;
  };
}

TEST(VerifierIncremental, QuietRFlovSegmentReportsOnThePlantCycle) {
  // Router 19 (row 2) sleeps; segment 18 -> 20 flies over it.
  expect_report_on_plant_cycle(FlovMode::kRestricted, {19}, 18, 20,
                               unearned_credit(18));
  expect_report_on_plant_cycle(FlovMode::kRestricted, {19}, 18, 20,
                               vanishing_flit(18, 19, 21));
}

TEST(VerifierIncremental, QuietGFlovSegmentReportsOnThePlantCycle) {
  // Routers 19 and 20 sleep side by side; segment 18 -> 21 flies over both.
  expect_report_on_plant_cycle(FlovMode::kGeneralized, {19, 20}, 18, 21,
                               unearned_credit(18));
  expect_report_on_plant_cycle(FlovMode::kGeneralized, {19, 20}, 18, 21,
                               vanishing_flit(18, 20, 22));
}

TEST(VerifierIncremental, OracleCatchesAChangeWithoutAStamp) {
#ifdef NDEBUG
  GTEST_SKIP() << "the full-pass oracle runs only where FLOV_DCHECK is "
                  "live (Debug builds)";
#else
  FlovNetwork sys(small_mesh(), FlovMode::kGeneralized, EnergyParams{});
  InvariantVerifier verifier(sys);
  Cycle now = 0;
  for (; now < 100; ++now) {
    sys.step(now);
    verifier.step(now);
  }
  // Router 5 loses an East credit behind every channel's back and without
  // wake_router(): the incremental check has no stamp to notice it by, so
  // only the oracle's full pass sees the broken segment.
  const NocParams& p = sys.network().params();
  std::vector<int> credits(static_cast<std::size_t>(p.total_vcs()),
                           p.buffer_depth);
  credits[0] = p.buffer_depth - 1;
  sys.network().router(5).reload_output_credits(Direction::East, credits);
  sys.step(now);
  const std::string msg = expect_fatal([&] { verifier.step(now); });
  EXPECT_NE(msg.find("diverged from the full pass"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("credit conservation broken on segment 5 -> 6"),
            std::string::npos)
      << msg;
#endif
}

// --- drain-abort timeout: param promotion + regression (PROTOCOL.md §2) --

TEST(DrainAbort, TimeoutIsConfigurableViaConfig) {
  Config cfg;
  cfg.set("noc.drain_abort_timeout", 123ll);
  cfg.set("noc.hs_retry_timeout", 11ll);
  cfg.set("noc.hs_retry_limit", 3ll);
  cfg.set("noc.trigger_retry_timeout", 44ll);
  cfg.set("noc.sleep_reannounce_interval", 55ll);
  cfg.set("noc.psr_block_timeout", 66ll);
  const NocParams p = NocParams::from_config(cfg, {});
  EXPECT_EQ(p.drain_abort_timeout, 123u);
  EXPECT_EQ(p.hs_retry_timeout, 11u);
  EXPECT_EQ(p.hs_retry_limit, 3);
  EXPECT_EQ(p.trigger_retry_timeout, 44u);
  EXPECT_EQ(p.sleep_reannounce_interval, 55u);
  EXPECT_EQ(p.psr_block_timeout, 66u);
  EXPECT_EQ(NocParams{}.drain_abort_timeout, 2048u);  // Table-I era default
}

TEST(DrainAbort, StalledDrainAbortsWithinTimeout) {
  NocParams p = small_mesh();
  p.drain_idle_threshold = 4;
  p.drain_abort_timeout = 64;
  FlovNetwork sys(p, FlovMode::kGeneralized, EnergyParams{});
  InvariantVerifier verifier(sys);
  // Hotspot: row 1 and column 3 flood node 7, congesting the 5 -> 6 -> 7
  // path. Gating core 5 mid-congestion starts a drain that cannot empty
  // router 5's buffers; the deadline must kick it back to Active instead
  // of wedging in Draining forever.
  Cycle now = 0;
  for (; now < 2000; ++now) {
    if (now % 2 == 0) {
      for (NodeId s : {4, 3, 11, 15}) {
        PacketDescriptor pd;
        pd.src = s;
        pd.dest = 7;
        pd.size_flits = 4;
        pd.gen_cycle = now;
        sys.network().enqueue(pd);
      }
    }
    if (now == 200) sys.set_core_gated(5, true, now);
    sys.step(now);
    verifier.step(now);
    if (sys.hsc(5).drain_aborts() > 0) break;
  }
  EXPECT_GE(sys.hsc(5).drain_aborts(), 1u)
      << "drain neither completed nor hit the abort deadline";
  EXPECT_EQ(verifier.violations(), 0u);
}

}  // namespace
}  // namespace flov
