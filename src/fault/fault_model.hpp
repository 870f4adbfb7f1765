// Fault model for the FLOV control and data planes.
//
// The paper assumes perfectly reliable out-of-band handshake wires and
// links. This module relaxes that: every handshake-signal hop and every
// inter-router flit traversal can independently be dropped, delayed or
// (signals only) duplicated, and spurious WakeupTriggers can fire — all
// driven by a seeded deterministic RNG so any failing run replays exactly.
// Rates are per-event probabilities; everything defaults to 0 (disabled),
// and a disabled model installs no hooks at all (zero cost on hot paths).
#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "common/types.hpp"

namespace flov {

struct FaultParams {
  // --- handshake-signal faults, applied per hop ---
  double signal_drop_rate = 0.0;
  double signal_delay_rate = 0.0;
  Cycle signal_delay_max = 4;  ///< extra cycles, uniform in [1, max]
  double signal_dup_rate = 0.0;

  // --- data-plane faults, applied per link traversal ---
  /// A dropped flit loses its packet unless noc.reliable retransmits it;
  /// the verifier's conservation check balances it with the dropped-flit
  /// count instead of flagging a violation.
  double flit_drop_rate = 0.0;
  double flit_delay_rate = 0.0;
  Cycle flit_delay_max = 4;

  /// Per-cycle probability of a spurious WakeupTrigger at a random router.
  double spurious_wakeup_rate = 0.0;

  // --- soft errors (seeded bit flips; certification fault axis) ---
  /// Per-link-traversal probability that one bit of the flit's payload
  /// word flips in transit. Routing/protocol metadata is never touched —
  /// the payload is opaque to the NoC, so a flip is a pure data-integrity
  /// fault: the packet still delivers, but delivers CORRUPTED (tracked per
  /// packet; see RunResult::packets_corrupted and the certify harness's
  /// clean-delivery metric). Fates are stateless hashes of
  /// (seed, packet, flit, link): thread-schedule-independent.
  double soft_flit_flip_rate = 0.0;
  /// Per-signal-hop probability that the PSR-carrying field of a handshake
  /// message is corrupted in transit: kSleepNotify's logical_beyond or
  /// kWakeupTrigger's target is rewritten to a different (valid or
  /// invalid) node id. Protocol framing (type/epoch/travel) is never
  /// corrupted — that would model a broken router, not a noisy wire. The
  /// control plane's recovery layers (sleep re-announce, stale-block
  /// expiry, trigger retry) are what certification exercises here.
  double soft_psr_flip_rate = 0.0;

  // --- permanent (hard) faults ---
  /// At cycle `hard_at_cycle` a seeded subset of routers/links dies and
  /// stays dead for the rest of the run. Fates are pure hashes of
  /// (seed, router id) / (seed, link key), so they are identical across
  /// thread counts and across schemes sharing a seed. Rates are the
  /// per-router / per-directed-link death probabilities. hard_at_cycle == 0
  /// disarms hard faults entirely (cycle 0 never steps a death).
  double hard_router_pct = 0.0;
  double hard_link_pct = 0.0;
  Cycle hard_at_cycle = 0;

  std::uint64_t seed = 1;

  bool hard_faults_armed() const {
    return hard_at_cycle > 0 && (hard_router_pct > 0.0 || hard_link_pct > 0.0);
  }

  bool soft_errors_armed() const {
    return soft_flit_flip_rate > 0.0 || soft_psr_flip_rate > 0.0;
  }

  bool any() const {
    return signal_drop_rate > 0.0 || signal_delay_rate > 0.0 ||
           signal_dup_rate > 0.0 || flit_drop_rate > 0.0 ||
           flit_delay_rate > 0.0 || spurious_wakeup_rate > 0.0 ||
           soft_errors_armed() || hard_faults_armed();
  }

  static FaultParams from_config(const Config& cfg, FaultParams p) {
    p.signal_drop_rate =
        cfg.get_double("fault.signal_drop_rate", p.signal_drop_rate);
    p.signal_delay_rate =
        cfg.get_double("fault.signal_delay_rate", p.signal_delay_rate);
    p.signal_delay_max =
        cfg.get_int("fault.signal_delay_max", p.signal_delay_max);
    p.signal_dup_rate =
        cfg.get_double("fault.signal_dup_rate", p.signal_dup_rate);
    p.flit_drop_rate =
        cfg.get_double("fault.flit_drop_rate", p.flit_drop_rate);
    p.flit_delay_rate =
        cfg.get_double("fault.flit_delay_rate", p.flit_delay_rate);
    p.flit_delay_max = cfg.get_int("fault.flit_delay_max", p.flit_delay_max);
    p.spurious_wakeup_rate =
        cfg.get_double("fault.spurious_wakeup_rate", p.spurious_wakeup_rate);
    p.soft_flit_flip_rate =
        cfg.get_double("fault.soft_flit_flip_rate", p.soft_flit_flip_rate);
    p.soft_psr_flip_rate =
        cfg.get_double("fault.soft_psr_flip_rate", p.soft_psr_flip_rate);
    p.hard_router_pct =
        cfg.get_double("fault.hard_router_pct", p.hard_router_pct);
    p.hard_link_pct = cfg.get_double("fault.hard_link_pct", p.hard_link_pct);
    p.hard_at_cycle = cfg.get_int("fault.hard_at_cycle", p.hard_at_cycle);
    p.seed = static_cast<std::uint64_t>(
        cfg.get_int("fault.seed", static_cast<long long>(p.seed)));
    return p;
  }

  /// Writes every fault.* knob back into `cfg` with its resolved value, so
  /// run manifests carry the full fault configuration even for defaulted
  /// knobs (validate_telemetry.py --diff-manifests then catches a silently
  /// defaulted fault setting differing between two runs).
  void echo_to_config(Config& cfg) const {
    cfg.set("fault.signal_drop_rate", signal_drop_rate);
    cfg.set("fault.signal_delay_rate", signal_delay_rate);
    cfg.set("fault.signal_delay_max", static_cast<long long>(signal_delay_max));
    cfg.set("fault.signal_dup_rate", signal_dup_rate);
    cfg.set("fault.flit_drop_rate", flit_drop_rate);
    cfg.set("fault.flit_delay_rate", flit_delay_rate);
    cfg.set("fault.flit_delay_max", static_cast<long long>(flit_delay_max));
    cfg.set("fault.spurious_wakeup_rate", spurious_wakeup_rate);
    cfg.set("fault.soft_flit_flip_rate", soft_flit_flip_rate);
    cfg.set("fault.soft_psr_flip_rate", soft_psr_flip_rate);
    cfg.set("fault.hard_router_pct", hard_router_pct);
    cfg.set("fault.hard_link_pct", hard_link_pct);
    cfg.set("fault.hard_at_cycle", static_cast<long long>(hard_at_cycle));
    cfg.set("fault.seed", static_cast<long long>(seed));
  }
};

}  // namespace flov
