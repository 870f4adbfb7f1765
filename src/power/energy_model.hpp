// DSENT-substitute energy/power model.
//
// The paper uses DSENT at 32 nm, 2 GHz, 16-byte (128-bit) links, 50%
// switching activity. DSENT is an external tool, so we embed an
// event-energy + leakage model with constants calibrated to the same
// operating point: at this node static power is roughly half of total NoC
// power under nominal load (the paper cites 47.7% at 32 nm), per-flit
// datapath energies are in the low-pJ range, a FLOV latch traversal costs a
// small fraction of a full 3-stage pipeline pass, and a power-gating
// transition costs 17.7 pJ (Table I). Every constant is overridable through
// Config keys ("energy.<field>") so ablations can probe sensitivity.
#pragma once

#include <array>
#include <cstdint>

#include "common/config.hpp"
#include "common/types.hpp"

namespace flov {

/// Dynamic energy event classes counted by the NoC components.
enum class EnergyEvent : int {
  kBufferWrite = 0,   ///< flit written into an input VC buffer
  kBufferRead,        ///< flit read out of an input VC buffer (at ST)
  kVcArb,             ///< a granted VC allocation
  kSwArb,             ///< a granted switch allocation
  kCrossbar,          ///< flit through the crossbar
  kLinkTraversal,     ///< flit over a 1 mm inter-router link
  kFlovLatch,         ///< flit through a FLOV output latch (fly-over hop)
  kCreditRelay,       ///< credit relayed across a sleeping router
  kHandshakeSignal,   ///< one HSC out-of-band signal hop
  kPgTransition,      ///< one power-gating transition (sleep->wake), 17.7 pJ
  kCount,
};

inline constexpr int kNumEnergyEvents = static_cast<int>(EnergyEvent::kCount);

inline const char* to_string(EnergyEvent e) {
  switch (e) {
    case EnergyEvent::kBufferWrite: return "buffer_write";
    case EnergyEvent::kBufferRead: return "buffer_read";
    case EnergyEvent::kVcArb: return "vc_arb";
    case EnergyEvent::kSwArb: return "sw_arb";
    case EnergyEvent::kCrossbar: return "crossbar";
    case EnergyEvent::kLinkTraversal: return "link_traversal";
    case EnergyEvent::kFlovLatch: return "flov_latch";
    case EnergyEvent::kCreditRelay: return "credit_relay";
    case EnergyEvent::kHandshakeSignal: return "handshake_signal";
    case EnergyEvent::kPgTransition: return "pg_transition";
    case EnergyEvent::kCount: break;
  }
  return "?";
}

/// Leakage-relevant operating mode of a router tile.
enum class RouterPowerMode : std::uint8_t {
  kOn = 0,       ///< baseline router powered (full leakage)
  kFlovSleep,    ///< baseline portion gated; FLOV latches + HSC remain on
  kRpParked,     ///< fully parked (RP): only a tiny retention residual
};

/// All model constants. Units: energies in pJ, leakage in mW, frequency GHz.
struct EnergyParams {
  // --- dynamic event energies (pJ) ---
  double buffer_write_pj = 1.8;
  double buffer_read_pj = 1.2;
  double vc_arb_pj = 0.20;
  double sw_arb_pj = 0.25;
  double crossbar_pj = 2.6;
  double link_pj = 2.0;          // 1 mm, 128-bit @ 50% activity
  double flov_latch_pj = 0.7;    // latch write+read, no RC/VA/SA/xbar
  double credit_relay_pj = 0.05;
  double handshake_pj = 0.01;
  double pg_transition_pj = 17.7;  // Table I power-gating overhead

  // --- leakage (mW) ---
  double router_leak_mw = 1.9;   // full 5-port 3-stage VC router @32nm
  double link_leak_mw = 0.05;    // per unidirectional 1 mm link driver

  // Residual leakage fractions relative to router_leak_mw.
  double flov_sleep_leak_fraction = 0.05;  // 4 latches + HSC + PSRs stay on
  double rp_park_leak_fraction = 0.02;     // retention/wake circuitry only
  // Extra leakage a FLOV-capable router pays while ACTIVE (muxes/HSC; the
  // latches themselves are power-gated when the router is on). The paper
  // quotes 3% area overhead; the always-on share of it is small.
  double flov_active_overhead_fraction = 0.01;

  double clock_freq_ghz = 2.0;

  /// Overrides the fields of `p` from keys "energy.<field>" (e.g.
  /// "energy.link_pj").
  static EnergyParams from_config(const Config& cfg, EnergyParams p);

  /// Energy in pJ for one event.
  double event_pj(EnergyEvent e) const;

  /// Router leakage in mW for a mode (flov_hardware: pays latch overhead).
  double router_leak(RouterPowerMode mode, bool flov_hardware) const;

  /// Link driver leakage in mW for the mode of the driving router. FLOV
  /// links keep their drivers on while sleeping; RP parks them.
  double link_leak(RouterPowerMode mode) const;

  /// Converts (mW * cycles) to pJ given the clock frequency:
  /// E[pJ] = P[mW] * cycles / f[GHz].
  double leak_energy_pj(double mw, Cycle cycles) const {
    return mw * static_cast<double>(cycles) / clock_freq_ghz;
  }
};

}  // namespace flov
