// Fault-injection fuzz: gating churn + live uniform traffic on a lossy
// control fabric. Handshake signals are dropped / delayed / duplicated,
// flits are delayed on the wire, and spurious WakeupTriggers fire — while
// the invariant verifier proves conservation, credit and PSR coherence
// every cycle (fatal: any violation aborts the test).
//
// The recovery machinery under test: bounded handshake retries, wakeup
// trigger re-arming, sleep re-announcement heartbeats, stale blocked-flag
// expiry, and the scheme-level attempt_recovery escalation.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_model.hpp"
#include "fault/fault_wiring.hpp"
#include "flov/flov_network.hpp"
#include "sim/baseline_network.hpp"
#include "traffic/traffic_pattern.hpp"
#include "verify/invariant_verifier.hpp"

namespace flov {
namespace {

NocParams harden(NocParams p) {
  // Recovery knobs tuned for a lossy fabric (defaults keep the heartbeat
  // and block-expiry off for paper fidelity).
  p.width = 6;
  p.height = 6;
  p.drain_idle_threshold = 8;
  p.hs_retry_timeout = 32;
  p.hs_retry_limit = 16;
  p.trigger_retry_timeout = 64;
  p.sleep_reannounce_interval = 128;
  p.psr_block_timeout = 192;
  return p;
}

FaultParams lossy_signals(std::uint64_t seed) {
  FaultParams f;
  f.signal_drop_rate = 0.01;  // the ISSUE's headline fault rate
  f.signal_delay_rate = 0.02;
  f.signal_delay_max = 4;
  f.signal_dup_rate = 0.01;
  f.flit_delay_rate = 0.01;  // flit DROPS stay off: delivery must be exact
  f.flit_delay_max = 4;
  f.spurious_wakeup_rate = 0.0005;
  f.seed = seed;
  return f;
}

/// One churn episode under faults; returns the verifier so callers can
/// inspect counters. Asserts full delivery, quiescence and all-Active.
void run_churn(FlovMode mode, std::uint64_t seed, Cycle churn_cycles) {
  FlovNetwork sys(harden(NocParams{}), mode, EnergyParams{},
                  lossy_signals(seed));
  const MeshGeometry& g = sys.network().geom();

  VerifierOptions vo;
  vo.settle_window = 512;  // heals (retries, heartbeats) need headroom
  InvariantVerifier verifier(sys, vo);

  std::uint64_t delivered = 0;
  sys.network().set_eject_callback(
      [&](const PacketRecord&) { ++delivered; });

  Rng rng(9000 + seed);
  UniformPattern pattern(g);
  std::vector<bool> gated(g.num_nodes(), false);
  std::uint64_t generated = 0;
  Cycle now = 0;
  std::uint64_t last_delivered = 0;
  Cycle last_check = 0;
  bool recovery_armed = true;

  for (Cycle step = 0; step < churn_cycles; ++step) {
    if (rng.next_bool(1.0 / 150.0)) {
      const NodeId n = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      gated[n] = !gated[n];
      sys.set_core_gated(n, gated[n], now);
    }
    std::vector<bool> mask(g.num_nodes());
    for (NodeId n = 0; n < g.num_nodes(); ++n) mask[n] = !gated[n];
    const ActiveCores active(mask);
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      if (gated[s] || !rng.next_bool(0.01)) continue;
      const NodeId d = pattern.dest(s, active, rng);
      if (d == kInvalidNode) continue;
      PacketDescriptor pd;
      pd.src = s;
      pd.dest = d;
      pd.size_flits = 4;
      pd.gen_cycle = now;
      sys.network().enqueue(pd);
      ++generated;
    }
    sys.step(now);
    verifier.step(now);
    ++now;

    // Watchdog: one scheme-level recovery per stall episode; a stall that
    // survives the recovery is a failure (the "zero aborts" criterion).
    if (now - last_check >= 4000) {
      if (!sys.network().in_flight_empty() && delivered == last_delivered) {
        ASSERT_TRUE(recovery_armed)
            << "stall survived attempt_recovery at cycle " << now;
        sys.attempt_recovery(now);
        recovery_armed = false;
      } else {
        recovery_armed = true;
      }
      last_delivered = delivered;
      last_check = now;
    }
  }

  // Quiesce: all cores on, no new traffic; the fabric must fully drain AND
  // every router must complete its way back to Active, even though the
  // wind-down handshakes themselves run over lossy wires.
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    if (gated[n]) sys.set_core_gated(n, false, now);
  }
  const auto settled = [&] {
    if (!sys.network().idle()) return false;
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      if (sys.hsc(n).state() != PowerState::kActive) return false;
    }
    return true;
  };
  for (int i = 0; i < 20000 && !settled(); ++i) {
    sys.step(now);
    verifier.step(now);
    ++now;
  }
  if (!settled()) {
    sys.attempt_recovery(now);
    for (int i = 0; i < 20000 && !settled(); ++i) {
      sys.step(now);
      verifier.step(now);
      ++now;
    }
  }
  ASSERT_TRUE(sys.network().idle()) << "fabric failed to quiesce";
  verifier.final_check(now);

  EXPECT_EQ(delivered, generated);
  EXPECT_EQ(sys.network().total_injected_flits(),
            sys.network().total_ejected_flits());
  EXPECT_EQ(verifier.violations(), 0u);
  EXPECT_GT(verifier.checks_run(), 0u);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_EQ(sys.hsc(n).state(), PowerState::kActive) << n;
  }
}

using Param = std::tuple<FlovMode, int /*seed*/>;

class FaultFuzz : public ::testing::TestWithParam<Param> {};

TEST_P(FaultFuzz, ChurnSurvivesLossyControlFabric) {
  run_churn(std::get<0>(GetParam()),
            static_cast<std::uint64_t>(std::get<1>(GetParam())),
            /*churn_cycles=*/6000);
}

// 28 seeds x 2 modes = 56 fuzz runs (the ISSUE asks for >= 50).
INSTANTIATE_TEST_SUITE_P(
    Seeds, FaultFuzz,
    ::testing::Combine(::testing::Values(FlovMode::kRestricted,
                                         FlovMode::kGeneralized),
                       ::testing::Range(1, 29)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(std::get<0>(info.param) == FlovMode::kRestricted
                             ? "rFLOV"
                             : "gFLOV") +
             "_s" + std::to_string(std::get<1>(info.param));
    });

// Flit drops are diagnostic-only faults (no retransmission layer), so
// delivery is not exact — but the verifier must still hold: conservation
// is dimensioned by the injector's drop counter, credits degrade to an
// upper bound, and the fabric must stay live and quiesce.
TEST(FaultFuzzFlitLoss, ConservationHoldsWithDroppedFlits) {
  NocParams p = harden(NocParams{});
  FaultParams f = lossy_signals(/*seed=*/77);
  f.flit_drop_rate = 0.002;
  FlovNetwork sys(p, FlovMode::kGeneralized, EnergyParams{}, f);
  const MeshGeometry& g = sys.network().geom();

  VerifierOptions vo;
  vo.settle_window = 512;
  InvariantVerifier verifier(sys, vo);

  Rng rng(4242);
  UniformPattern pattern(g);
  std::vector<bool> gated(g.num_nodes(), false);
  Cycle now = 0;
  for (Cycle step = 0; step < 6000; ++step) {
    if (rng.next_bool(1.0 / 150.0)) {
      const NodeId n = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      gated[n] = !gated[n];
      sys.set_core_gated(n, gated[n], now);
    }
    std::vector<bool> mask(g.num_nodes());
    for (NodeId n = 0; n < g.num_nodes(); ++n) mask[n] = !gated[n];
    const ActiveCores active(mask);
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      if (gated[s] || !rng.next_bool(0.01)) continue;
      const NodeId d = pattern.dest(s, active, rng);
      if (d == kInvalidNode) continue;
      PacketDescriptor pd;
      pd.src = s;
      pd.dest = d;
      pd.size_flits = 4;
      pd.gen_cycle = now;
      sys.network().enqueue(pd);
    }
    sys.step(now);
    verifier.step(now);
    ++now;
  }
  ASSERT_GT(sys.fault_injector()->counters().flits_dropped, 0u)
      << "fault rate too low to exercise the drop path";
  EXPECT_EQ(verifier.violations(), 0u);
}

TEST(SoftFlitFlips, HeadFlipReachesTheRecordAndBodyFlipsDoNot) {
  // A packet has one payload, and the head carries it: a bit flipped on
  // the head's wire is what the destination reads, while flips on body
  // and tail flits are counted (the packet is corrupted) but change
  // nothing delivered. Every flit flips here; the packet crosses one link.
  FaultParams faults;
  faults.seed = 9;
  faults.soft_flit_flip_rate = 1.0;
  NocParams p;
  p.width = 4;
  p.height = 4;
  BaselineNetwork sys(p, EnergyParams{}, faults);
  std::vector<PacketRecord> got;
  sys.network().set_eject_callback(
      [&](const PacketRecord& r) { got.push_back(r); });
  PacketDescriptor pd;
  pd.src = 0;
  pd.dest = 1;  // one hop East
  pd.size_flits = 4;
  pd.payload = 0x0123456789ABCDEFull;
  sys.network().enqueue(pd);
  for (Cycle now = 0; now < 50 && got.empty(); ++now) sys.step(now);
  ASSERT_EQ(got.size(), 1u);

  FaultInjector twin(faults, 16);
  const std::uint32_t link = link_fate_key(0, Direction::East);
  std::uint64_t masks[4];
  for (int i = 0; i < 4; ++i) {
    Flit f;
    f.flit_index = static_cast<std::uint16_t>(i);
    masks[i] = twin.payload_flip_mask(f, got[0].packet_id, link);
    ASSERT_NE(masks[i], 0u);
  }
  ASSERT_NE(masks[1] ^ masks[2] ^ masks[3], 0u)
      << "body flips cancel out; pick another seed";
  EXPECT_EQ(got[0].payload, pd.payload ^ masks[0]);
  EXPECT_EQ(sys.fault_injector()->counters().payload_flips, 4u);
  EXPECT_TRUE(sys.fault_injector()->packet_corrupted(got[0].packet_id));
}

}  // namespace
}  // namespace flov
