#include "power/energy_model.hpp"

#include "common/log.hpp"

namespace flov {

EnergyParams EnergyParams::from_config(const Config& cfg, EnergyParams p) {
  p.buffer_write_pj = cfg.get_double("energy.buffer_write_pj", p.buffer_write_pj);
  p.buffer_read_pj = cfg.get_double("energy.buffer_read_pj", p.buffer_read_pj);
  p.vc_arb_pj = cfg.get_double("energy.vc_arb_pj", p.vc_arb_pj);
  p.sw_arb_pj = cfg.get_double("energy.sw_arb_pj", p.sw_arb_pj);
  p.crossbar_pj = cfg.get_double("energy.crossbar_pj", p.crossbar_pj);
  p.link_pj = cfg.get_double("energy.link_pj", p.link_pj);
  p.flov_latch_pj = cfg.get_double("energy.flov_latch_pj", p.flov_latch_pj);
  p.credit_relay_pj = cfg.get_double("energy.credit_relay_pj", p.credit_relay_pj);
  p.handshake_pj = cfg.get_double("energy.handshake_pj", p.handshake_pj);
  p.pg_transition_pj = cfg.get_double("energy.pg_transition_pj", p.pg_transition_pj);
  p.router_leak_mw = cfg.get_double("energy.router_leak_mw", p.router_leak_mw);
  p.link_leak_mw = cfg.get_double("energy.link_leak_mw", p.link_leak_mw);
  p.flov_sleep_leak_fraction =
      cfg.get_double("energy.flov_sleep_leak_fraction", p.flov_sleep_leak_fraction);
  p.rp_park_leak_fraction =
      cfg.get_double("energy.rp_park_leak_fraction", p.rp_park_leak_fraction);
  p.flov_active_overhead_fraction = cfg.get_double(
      "energy.flov_active_overhead_fraction", p.flov_active_overhead_fraction);
  p.clock_freq_ghz = cfg.get_double("energy.clock_freq_ghz", p.clock_freq_ghz);
  return p;
}

double EnergyParams::event_pj(EnergyEvent e) const {
  switch (e) {
    case EnergyEvent::kBufferWrite: return buffer_write_pj;
    case EnergyEvent::kBufferRead: return buffer_read_pj;
    case EnergyEvent::kVcArb: return vc_arb_pj;
    case EnergyEvent::kSwArb: return sw_arb_pj;
    case EnergyEvent::kCrossbar: return crossbar_pj;
    case EnergyEvent::kLinkTraversal: return link_pj;
    case EnergyEvent::kFlovLatch: return flov_latch_pj;
    case EnergyEvent::kCreditRelay: return credit_relay_pj;
    case EnergyEvent::kHandshakeSignal: return handshake_pj;
    case EnergyEvent::kPgTransition: return pg_transition_pj;
    case EnergyEvent::kCount: break;
  }
  FLOV_CHECK(false, "bad energy event");
  return 0.0;
}

double EnergyParams::router_leak(RouterPowerMode mode,
                                 bool flov_hardware) const {
  switch (mode) {
    case RouterPowerMode::kOn:
      return router_leak_mw *
             (1.0 + (flov_hardware ? flov_active_overhead_fraction : 0.0));
    case RouterPowerMode::kFlovSleep:
      return router_leak_mw * flov_sleep_leak_fraction;
    case RouterPowerMode::kRpParked:
      return router_leak_mw * rp_park_leak_fraction;
  }
  return router_leak_mw;
}

double EnergyParams::link_leak(RouterPowerMode mode) const {
  switch (mode) {
    case RouterPowerMode::kOn:
    case RouterPowerMode::kFlovSleep:
      return link_leak_mw;  // FLOV links keep driving flits while asleep
    case RouterPowerMode::kRpParked:
      return link_leak_mw * rp_park_leak_fraction;
  }
  return link_leak_mw;
}

}  // namespace flov
