// Runtime telemetry knobs, parsed from the flat key=value config:
//   telemetry.trace          category mask ("all", "flit,power", "0x7f"; "" = off)
//   telemetry.trace_capacity ring-buffer capacity in events
//   telemetry.metrics_window time-series sample interval in cycles (0 = off)
#pragma once

#include <cstdint>
#include <string>

#include "common/config.hpp"
#include "common/types.hpp"
#include "telemetry/trace.hpp"

namespace flov::telemetry {

struct TelemetryOptions {
  /// Trace category mask (TraceCategory bits). 0 = tracing off; no Tracer
  /// is even allocated, so an untraced run pays nothing at runtime.
  std::uint32_t trace_mask = 0;
  std::size_t trace_capacity = 1u << 20;
  /// Sample interval for the fabric time-series metrics (0 = final
  /// snapshot only).
  Cycle metrics_window = 0;

  static TelemetryOptions from_config(const Config& cfg, TelemetryOptions o) {
    if (cfg.has("telemetry.trace")) {
      o.trace_mask = trace_mask_from_string(cfg.get_string("telemetry.trace"));
    }
    o.trace_capacity = static_cast<std::size_t>(cfg.get_int(
        "telemetry.trace_capacity", static_cast<long long>(o.trace_capacity)));
    o.metrics_window =
        cfg.get_int("telemetry.metrics_window", o.metrics_window);
    return o;
  }
};

}  // namespace flov::telemetry
