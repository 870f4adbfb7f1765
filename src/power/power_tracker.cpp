#include "power/power_tracker.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace flov {

PowerTracker::PowerTracker(const MeshGeometry& geom,
                           const EnergyParams& params, bool flov_hardware)
    : params_(params),
      flov_hardware_(flov_hardware),
      modes_(geom.num_nodes(), RouterPowerMode::kOn),
      mode_since_(geom.num_nodes(), 0),
      static_energy_pj_(geom.num_nodes(), 0.0),
      out_links_(geom.num_nodes(), 0),
      node_event_counts_(geom.num_nodes()) {
  for (NodeId r = 0; r < geom.num_nodes(); ++r) {
    for (Direction d : kMeshDirections) {
      if (geom.neighbor(r, d) != kInvalidNode) ++out_links_[r];
    }
  }
}

double PowerTracker::tile_leak_mw(NodeId r, RouterPowerMode m) const {
  return params_.router_leak(m, flov_hardware_) +
         out_links_[r] * params_.link_leak(m);
}

void PowerTracker::set_mode(NodeId router, RouterPowerMode mode, Cycle now) {
  FLOV_DCHECK(router >= 0 && router < static_cast<NodeId>(modes_.size()),
              "bad router id");
  const Cycle since = std::max(mode_since_[router], window_start_);
  if (now > since) {
    static_energy_pj_[router] +=
        params_.leak_energy_pj(tile_leak_mw(router, modes_[router]),
                               now - since);
  }
  FLOV_TRACE(telemetry::kTracePower, telemetry::TraceEventType::kPowerMode,
             now, router, static_cast<std::uint64_t>(mode),
             static_cast<std::uint64_t>(modes_[router]));
  modes_[router] = mode;
  mode_since_[router] = now;
}

void PowerTracker::begin_window(Cycle now) {
  window_start_ = now;
  std::fill(static_energy_pj_.begin(), static_energy_pj_.end(), 0.0);
  for (auto& s : mode_since_) s = std::max(s, now);
  event_counts_.fill(0);
  for (auto& cell : node_event_counts_) cell.fill(0);
}

PowerTracker::Report PowerTracker::report(Cycle now) const {
  Report rep;
  FLOV_CHECK(now >= window_start_, "report before window start");
  rep.cycles = now - window_start_;

  double static_pj = 0.0;
  for (NodeId r = 0; r < static_cast<NodeId>(modes_.size()); ++r) {
    static_pj += static_energy_pj_[r];
    const Cycle since = std::max(mode_since_[r], window_start_);
    if (now > since) {
      static_pj += params_.leak_energy_pj(tile_leak_mw(r, modes_[r]),
                                          now - since);
    }
  }

  double dynamic_pj = 0.0;
  for (int e = 0; e < kNumEnergyEvents; ++e) {
    dynamic_pj += static_cast<double>(event_count(static_cast<EnergyEvent>(e))) *
                  params_.event_pj(static_cast<EnergyEvent>(e));
  }

  rep.static_energy_pj = static_pj;
  rep.dynamic_energy_pj = dynamic_pj;
  rep.total_energy_pj = static_pj + dynamic_pj;
  if (rep.cycles > 0) {
    // P[mW] = E[pJ] * f[GHz] / cycles.
    const double cycles = static_cast<double>(rep.cycles);
    rep.static_mw = static_pj * params_.clock_freq_ghz / cycles;
    rep.dynamic_mw = dynamic_pj * params_.clock_freq_ghz / cycles;
    rep.total_mw = rep.static_mw + rep.dynamic_mw;
  }
  return rep;
}

void PowerTracker::publish_metrics(telemetry::MetricsRegistry& reg,
                                   Cycle now) const {
  for (int e = 0; e < kNumEnergyEvents; ++e) {
    const EnergyEvent ev = static_cast<EnergyEvent>(e);
    reg.counter(std::string("power.events.") + to_string(ev)) +=
        event_count(ev);
  }
  const Report rep = report(now);
  reg.gauge("power.static_mw") = rep.static_mw;
  reg.gauge("power.dynamic_mw") = rep.dynamic_mw;
  reg.gauge("power.total_mw") = rep.total_mw;
  reg.gauge("power.static_energy_pj") = rep.static_energy_pj;
  reg.gauge("power.dynamic_energy_pj") = rep.dynamic_energy_pj;
  reg.gauge("power.total_energy_pj") = rep.total_energy_pj;
  reg.gauge("power.window_cycles") = static_cast<double>(rep.cycles);
}

PowerTracker::Report PowerTracker::Report::from_metrics(
    const telemetry::MetricsRegistry& reg) {
  Report r;
  r.cycles = static_cast<Cycle>(reg.gauge_value("power.window_cycles"));
  r.static_mw = reg.gauge_value("power.static_mw");
  r.dynamic_mw = reg.gauge_value("power.dynamic_mw");
  r.total_mw = reg.gauge_value("power.total_mw");
  r.static_energy_pj = reg.gauge_value("power.static_energy_pj");
  r.dynamic_energy_pj = reg.gauge_value("power.dynamic_energy_pj");
  r.total_energy_pj = reg.gauge_value("power.total_energy_pj");
  return r;
}

}  // namespace flov
