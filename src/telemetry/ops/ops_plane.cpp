#include "telemetry/ops/ops_plane.hpp"

#include <cstdio>

#include "common/config.hpp"
#include "noc/system_iface.hpp"
#include "telemetry/json.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/structured_sink.hpp"

namespace flov::ops {

OpsOptions OpsOptions::from_config(const Config& cfg) {
  OpsOptions o;
  if (cfg.has("serve")) o.serve_port = static_cast<int>(cfg.get_int("serve"));
  o.stream_path = cfg.get_string("ops_stream", "");
  o.profile = cfg.get_bool("profile", false);
  o.profile_out = cfg.get_string("profile_out", "");
  o.period =
      static_cast<std::uint64_t>(cfg.get_int("ops.period", 4096));
  if (o.period == 0) o.period = 1;
  return o;
}

OpsPlane::OpsPlane(OpsOptions opt) : opt_(std::move(opt)) {
  start_ns_ = telemetry::profile_now_ns();
  if (opt_.profile) {
    profiler_ = std::make_unique<telemetry::PhaseProfiler>();
  }
  if (!opt_.stream_path.empty()) {
    stream_ = std::fopen(opt_.stream_path.c_str(), "w");
    if (stream_ == nullptr) {
      std::fprintf(stderr, "[ops] cannot open ops_stream %s\n",
                   opt_.stream_path.c_str());
    }
  }
  if (opt_.serve_port >= 0) {
    const bool ok = server_.start(
        static_cast<std::uint16_t>(opt_.serve_port),
        [this](const std::string& path) { return handle(path); });
    if (ok) {
      std::fprintf(stderr, "[ops] serving http://127.0.0.1:%u\n",
                   static_cast<unsigned>(server_.port()));
    }
  }
}

OpsPlane::~OpsPlane() {
  server_.stop();
  if (stream_ != nullptr) std::fclose(stream_);
}

void OpsPlane::begin_run(const RunContext& ctx) {
  ctx_ = ctx;
  run_active_ = true;
  next_fold_ = 0;
  last_fold_cycle_ = 0;
  last_ejected_ = 0;
  have_last_ejected_ = false;
  incidents_seen_ = 0;
  incidents_hard_fault_ = 0;
  incidents_watchdog_ = 0;
  const int n = ctx_.sys->network().num_nodes();
  node_latency_sum_.assign(static_cast<std::size_t>(n), 0);
  node_ejected_packets_.assign(static_cast<std::size_t>(n), 0);
  node_gated_cycles_.assign(static_cast<std::size_t>(n), 0);
  // Passive observer: fires between step barriers in node-id order, writes
  // only ops-owned accumulators — the sim cannot observe it.
  ctx_.sys->network().add_eject_callback([this](const PacketRecord& rec) {
    if (!run_active_) return;
    node_latency_sum_[rec.dest] +=
        static_cast<std::uint64_t>(rec.total_latency());
    node_ejected_packets_[rec.dest] += 1;
  });
}

void OpsPlane::tick(Cycle now) {
  fold(now);
  next_fold_ = now + opt_.period;
}

void OpsPlane::end_run(Cycle now) {
  if (!run_active_) return;
  // Final fold, even off-period: the last published snapshot always
  // reflects the run's end state (this is what ops_test byte-compares
  // across threads= / tiles=).
  if (now != last_fold_cycle_ || seq_ == 0) fold(now);
  run_active_ = false;
  ctx_ = RunContext{};
}

void OpsPlane::fold(Cycle now) {
  Network& net = ctx_.sys->network();
  const int n = net.num_nodes();

  OpsSnapshot s;
  s.seq = ++seq_;
  s.cycle = now;
  s.total_cycles = ctx_.total_cycles;
  s.scheme = ctx_.scheme;
  s.width = net.params().width;
  s.height = net.params().height;
  s.injected_flits = net.total_injected_flits();
  s.ejected_flits = net.total_ejected_flits();
  s.in_network_flits = net.in_network_flits();
  s.queued_packets = net.total_queued_packets();
  s.hist_overflow = ctx_.hist_overflow ? ctx_.hist_overflow() : 0;
  s.progress = ctx_.total_cycles == 0
                   ? 0.0
                   : static_cast<double>(now) /
                         static_cast<double>(ctx_.total_cycles);

  s.mode.resize(static_cast<std::size_t>(n));
  s.power_state.resize(static_cast<std::size_t>(n));
  s.occupancy.resize(static_cast<std::size_t>(n));
  s.queued.resize(static_cast<std::size_t>(n));
  const Cycle interval = now - last_fold_cycle_;
  for (NodeId id = 0; id < n; ++id) {
    const RouterMode m = net.router(id).mode();
    s.mode[id] = static_cast<std::uint8_t>(m);
    s.power_state[id] = ctx_.sys->power_state_code(id);
    s.occupancy[id] =
        static_cast<std::uint32_t>(net.router(id).buffered_flits());
    s.queued[id] = static_cast<std::uint32_t>(net.ni(id).queued_packets());
    if (m == RouterMode::kBypass || m == RouterMode::kParked) {
      s.gated_routers++;
      node_gated_cycles_[id] += interval;
    } else if (m != RouterMode::kPipeline) {
      // Dead routers are off too; the heatmap should show them dark.
      node_gated_cycles_[id] += interval;
    }
  }
  s.ejected_packets = node_ejected_packets_;
  s.latency_sum = node_latency_sum_;
  s.gated_cycles = node_gated_cycles_;

  if (ctx_.incidents != nullptr) {
    const auto& recs = ctx_.incidents->records();
    for (; incidents_seen_ < recs.size(); ++incidents_seen_) {
      telemetry::JsonValue v;
      if (!telemetry::JsonValue::try_parse(recs[incidents_seen_], &v) ||
          !v.is_object() || !v.has("kind")) {
        continue;
      }
      const std::string& kind = v.at("kind").str;
      if (kind == "hard_fault_summary") incidents_hard_fault_++;
      if (kind == "watchdog_stall") incidents_watchdog_++;
    }
    s.incidents_total = static_cast<std::uint64_t>(recs.size());
  }
  s.incidents_hard_fault = incidents_hard_fault_;
  s.incidents_watchdog_stall = incidents_watchdog_;

  // Liveness: no ejection progress since the previous fold while flits sit
  // in the fabric. Cycle-based, so the flag itself is deterministic.
  s.stalled = have_last_ejected_ && s.ejected_flits == last_ejected_ &&
              s.in_network_flits > 0;
  last_ejected_ = s.ejected_flits;
  have_last_ejected_ = true;
  last_fold_cycle_ = now;

  if (stream_ != nullptr) {
    const std::string line = s.to_json();
    std::fwrite(line.data(), 1, line.size(), stream_);
    std::fputc('\n', stream_);
    std::fflush(stream_);
  }
  publisher_.publish(std::move(s));
}

void OpsPlane::begin_campaign(const std::string& kind,
                              std::uint64_t points_total,
                              const std::string& checkpoint_path) {
  std::lock_guard<std::mutex> lock(campaign_mu_);
  campaign_active_ = true;
  campaign_kind_ = kind;
  campaign_total_ = points_total;
  campaign_checkpoint_ = checkpoint_path;
  campaign_last_done_ = 0;
  seq_ = 0;
  campaign_progress_locked_(0);
}

void OpsPlane::campaign_progress(std::uint64_t points_done) {
  std::lock_guard<std::mutex> lock(campaign_mu_);
  if (!campaign_active_) return;
  // Monotonic filter: under jobs=N completion callbacks may race; the
  // published sequence of done-counts only ever moves forward, and the
  // final snapshot (done == total) is identical for any job count.
  if (points_done < campaign_last_done_) return;
  campaign_progress_locked_(points_done);
}

void OpsPlane::campaign_progress_locked_(std::uint64_t points_done) {
  campaign_last_done_ = points_done;
  OpsSnapshot s;
  s.seq = ++seq_;
  s.campaign = true;
  s.scheme = campaign_kind_;
  s.points_done = points_done;
  s.points_total = campaign_total_;
  s.checkpoint_path = campaign_checkpoint_;
  s.progress = campaign_total_ == 0
                   ? 0.0
                   : static_cast<double>(points_done) /
                         static_cast<double>(campaign_total_);
  if (stream_ != nullptr) {
    const std::string line = s.to_json();
    std::fwrite(line.data(), 1, line.size(), stream_);
    std::fputc('\n', stream_);
    std::fflush(stream_);
  }
  publisher_.publish(std::move(s));
}

void OpsPlane::finish_profile(std::FILE* f) {
  if (!profiler_) return;
#if !defined(FLYOVER_PROFILING) || !FLYOVER_PROFILING
  std::fprintf(f,
               "[profile] note: FLOV_PROFILE hook points are compiled out "
               "(build with -DFLYOVER_PROFILING=ON); report is empty\n");
#endif
  profiler_->print(f);
  if (!opt_.profile_out.empty()) {
    std::FILE* out = std::fopen(opt_.profile_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "[ops] cannot open profile_out %s\n",
                   opt_.profile_out.c_str());
      return;
    }
    const std::string json = profiler_->report_json();
    std::fwrite(json.data(), 1, json.size(), out);
    std::fputc('\n', out);
    std::fclose(out);
  }
}

std::string OpsPlane::healthz_json() const {
  auto snap = publisher_.current();
  const OpsSnapshot empty;
  const OpsSnapshot& s = snap ? *snap : empty;
  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("schema", "flyover-healthz-v1");
  w.kv("status", s.stalled ? "stalled" : "ok");
  w.kv("build", telemetry::build_git_describe());
  w.kv("scheme", s.scheme);
  w.kv("campaign", s.campaign);
  w.kv("cycle", s.cycle);
  w.kv("total_cycles", s.total_cycles);
  w.kv("progress", s.progress);
  w.kv("snapshot_seq", s.seq);
  w.kv("stalled", s.stalled);
  w.kv("uptime_seconds",
       static_cast<double>(telemetry::profile_now_ns() - start_ns_) / 1e9);
  w.key("incidents");
  {
    telemetry::JsonWriter g;
    g.begin_object();
    g.kv("total", s.incidents_total);
    g.kv("hard_fault_summary", s.incidents_hard_fault);
    g.kv("watchdog_stall", s.incidents_watchdog_stall);
    g.end_object();
    w.raw(g.take());
  }
  w.kv("hist_overflow", s.hist_overflow);
  w.end_object();
  return w.take();
}

HttpResponse OpsPlane::handle(const std::string& path) const {
  auto snap = publisher_.current();
  const OpsSnapshot empty;
  const OpsSnapshot& s = snap ? *snap : empty;
  HttpResponse r;
  if (path == "/metrics") {
    r.content_type = "text/plain; version=0.0.4";
    r.body = s.prometheus_text();
  } else if (path == "/snapshot") {
    r.body = s.to_json();
  } else if (path == "/heatmap") {
    if (s.width <= 0 || s.height <= 0) {
      r.status = 404;
      r.body = "{\"error\":\"no spatial snapshot (campaign mode?)\"}";
    } else {
      r.body = s.heatmap_json();
    }
  } else if (path == "/healthz") {
    r.body = healthz_json();
  } else {
    r.status = 404;
    r.body = "{\"error\":\"unknown endpoint\",\"endpoints\":[\"/metrics\","
             "\"/snapshot\",\"/heatmap\",\"/healthz\"]}";
  }
  return r;
}

std::function<void(std::uint64_t, std::uint64_t)> campaign_progress_fn(
    OpsPlane* plane, bool print, std::string label, std::string unit,
    std::string checkpoint) {
  if (plane == nullptr && !print) return {};
  return [=](std::uint64_t done, std::uint64_t total) {
    if (plane != nullptr) plane->campaign_progress(done);
    if (print) {
      std::fprintf(stderr, "[%s] %llu/%llu %s%s%s\n", label.c_str(),
                   static_cast<unsigned long long>(done),
                   static_cast<unsigned long long>(total), unit.c_str(),
                   checkpoint.empty() ? "" : " checkpoint=",
                   checkpoint.c_str());
    }
  };
}

}  // namespace flov::ops
