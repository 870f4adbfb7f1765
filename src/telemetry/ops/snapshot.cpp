#include "telemetry/ops/snapshot.hpp"

#include <cstdio>

#include "telemetry/json.hpp"

namespace flov::ops {

namespace {

using telemetry::JsonWriter;

template <typename T>
std::string uint_array(const std::vector<T>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(static_cast<std::uint64_t>(v[i]));
  }
  out += "]";
  return out;
}

/// Formats a double the same way JsonWriter does (%.17g round-trip).
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string OpsSnapshot::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "flyover-snapshot-v1");
  w.kv("seq", seq);
  w.kv("cycle", cycle);
  w.kv("total_cycles", total_cycles);
  w.kv("scheme", scheme);
  w.kv("width", width);
  w.kv("height", height);
  w.kv("progress", progress);
  w.kv("stalled", stalled);
  w.key("globals");
  {
    JsonWriter g;
    g.begin_object();
    g.kv("injected_flits", injected_flits);
    g.kv("ejected_flits", ejected_flits);
    g.kv("in_network_flits", in_network_flits);
    g.kv("queued_packets", queued_packets);
    g.kv("gated_routers", gated_routers);
    g.kv("hist_overflow", hist_overflow);
    g.end_object();
    w.raw(g.take());
  }
  w.key("incidents");
  {
    JsonWriter g;
    g.begin_object();
    g.kv("total", incidents_total);
    g.kv("hard_fault_summary", incidents_hard_fault);
    g.kv("watchdog_stall", incidents_watchdog_stall);
    g.end_object();
    w.raw(g.take());
  }
  if (campaign) {
    w.key("campaign");
    JsonWriter g;
    g.begin_object();
    g.kv("points_done", points_done);
    g.kv("points_total", points_total);
    g.end_object();
    w.raw(g.take());
  }
  if (width > 0 && height > 0) {
    w.key("nodes");
    JsonWriter g;
    g.begin_object();
    g.key("mode");
    g.raw(uint_array(mode));
    g.key("power_state");
    g.raw(uint_array(power_state));
    g.key("occupancy");
    g.raw(uint_array(occupancy));
    g.key("queued");
    g.raw(uint_array(queued));
    g.key("ejected_packets");
    g.raw(uint_array(ejected_packets));
    g.key("latency_sum");
    g.raw(uint_array(latency_sum));
    g.key("gated_cycles");
    g.raw(uint_array(gated_cycles));
    g.end_object();
    w.raw(g.take());
  }
  w.end_object();
  return w.take();
}

std::string OpsSnapshot::heatmap_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "flyover-heatmap-v1");
  w.kv("cycle", cycle);
  w.kv("scheme", scheme);
  w.kv("width", width);
  w.kv("height", height);
  w.key("grids");
  {
    // Each grid is height rows of width values, row y = nodes
    // [y*width, (y+1)*width) — the render script indexes grid[y][x].
    auto emit_grid = [&](const char* name, auto value_at) {
      std::string out = "\"";
      out += name;
      out += "\":[";
      for (int y = 0; y < height; ++y) {
        if (y != 0) out += ",";
        out += "[";
        for (int x = 0; x < width; ++x) {
          if (x != 0) out += ",";
          out += value_at(y * width + x);
        }
        out += "]";
      }
      out += "]";
      return out;
    };
    std::string grids = "{";
    grids += emit_grid("mode", [&](int i) {
      return std::to_string(static_cast<int>(mode[i]));
    });
    grids += ",";
    grids += emit_grid("power_state", [&](int i) {
      return std::to_string(static_cast<int>(power_state[i]));
    });
    grids += ",";
    grids += emit_grid("occupancy", [&](int i) {
      return std::to_string(occupancy[i]);
    });
    grids += ",";
    grids += emit_grid("queued",
                       [&](int i) { return std::to_string(queued[i]); });
    grids += ",";
    grids += emit_grid("avg_latency", [&](int i) {
      return ejected_packets[i] == 0
                 ? std::string("0")
                 : fmt_double(static_cast<double>(latency_sum[i]) /
                              static_cast<double>(ejected_packets[i]));
    });
    grids += ",";
    grids += emit_grid("gated_cycles", [&](int i) {
      return std::to_string(gated_cycles[i]);
    });
    grids += "}";
    w.raw(grids);
  }
  w.end_object();
  return w.take();
}

std::string OpsSnapshot::prometheus_text() const {
  std::string out;
  out.reserve(2048);
  auto metric = [&out](const char* name, const char* type, const char* help,
                       const std::string& value) {
    out += "# HELP ";
    out += name;
    out += " ";
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += " ";
    out += type;
    out += "\n";
    out += name;
    out += " ";
    out += value;
    out += "\n";
  };
  auto u = [](std::uint64_t v) { return std::to_string(v); };

  metric("flyover_snapshot_seq", "counter", "Snapshot publications", u(seq));
  metric("flyover_cycle", "gauge", "Current simulation cycle", u(cycle));
  metric("flyover_progress_ratio", "gauge", "Run/campaign progress in [0,1]",
         fmt_double(progress));
  if (!campaign) {
    metric("flyover_injected_flits_total", "counter",
           "Flits injected by all NIs", u(injected_flits));
    metric("flyover_ejected_flits_total", "counter",
           "Flits ejected by all NIs", u(ejected_flits));
    metric("flyover_in_network_flits", "gauge",
           "Flits currently inside the fabric", u(in_network_flits));
    metric("flyover_queued_packets", "gauge",
           "Packets waiting in NI source queues", u(queued_packets));
    metric("flyover_gated_routers", "gauge",
           "Routers currently power-gated (non-pipeline mode)",
           u(gated_routers));
  } else {
    metric("flyover_campaign_points_done", "counter",
           "Campaign points completed", u(points_done));
    metric("flyover_campaign_points_total", "gauge",
           "Campaign points planned", u(points_total));
  }
  metric("flyover_latency_hist_overflow_total", "counter",
         "Latency samples clamped into the histogram's top bucket",
         u(hist_overflow));
  metric("flyover_incidents_total", "counter",
         "Structured incidents recorded", u(incidents_total));
  metric("flyover_hard_fault_incidents_total", "counter",
         "hard_fault_summary incidents recorded", u(incidents_hard_fault));
  metric("flyover_watchdog_stall_incidents_total", "counter",
         "watchdog_stall incidents recorded", u(incidents_watchdog_stall));
  metric("flyover_stalled", "gauge",
         "1 when ejections made no progress since the previous snapshot",
         u(stalled ? 1 : 0));
  return out;
}

}  // namespace flov::ops
