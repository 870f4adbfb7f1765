// Ops-plane tests: the PR-level invariants from docs/OBSERVABILITY.md.
//
//   * Read-only: a run with the ops plane attached produces byte-identical
//     results (metrics registry, manifest) to the same run without it.
//   * Deterministic snapshots: the final fold of a run is byte-identical
//     across threads=1/N; campaign snapshots converge
//     to the same final document for any completion-callback order.
//   * Live surface: every endpoint answers — both through the socketless
//     handle() dispatch and over a real TCP round-trip on an ephemeral
//     port — with schema-tagged payloads.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "sim/experiment.hpp"
#include "telemetry/json.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/ops/ops_plane.hpp"
#include "telemetry/ops/profile.hpp"
#include "telemetry/ops/snapshot.hpp"

namespace flov {
namespace {

using ops::OpsOptions;
using ops::OpsPlane;
using ops::OpsSnapshot;
using telemetry::JsonValue;

SyntheticExperimentConfig small_run() {
  SyntheticExperimentConfig ex;
  ex.noc.width = 4;
  ex.noc.height = 4;
  ex.scheme = Scheme::kGFlov;
  ex.inj_rate_flits = 0.05;
  ex.gated_fraction = 0.4;
  ex.warmup = 500;
  ex.measure = 3000;
  ex.seed = 7;
  return ex;
}

OpsOptions plain_options() {
  OpsOptions opt;
  opt.period = 512;
  // profile=1 makes any() true without needing a server or stream file;
  // the profiler itself never influences results.
  opt.profile = true;
  return opt;
}

/// Renders the run's manifest the way flov_sim_cli does, minus the
/// volatile wall clock, so two runs can be compared byte-for-byte.
std::string manifest_bytes(const RunResult& r) {
  telemetry::RunManifest m;
  m.name = "ops_test";
  m.scheme = r.scheme;
  m.seed = 7;
  m.wall_seconds = 0.0;
  m.metrics = r.metrics.get();
  m.incidents = r.incidents.get();
  return m.to_json();
}

// A run with the ops plane folding snapshots every 512 cycles must leave
// every result byte — including the manifest — exactly as a plain run
// does. This is the "observability is read-only" contract.
TEST(OpsPlane, ManifestByteIdenticalWithOpsAttached) {
  SyntheticExperimentConfig plain = small_run();
  const RunResult r_plain = run_synthetic(plain);

  OpsPlane plane(plain_options());
  SyntheticExperimentConfig with_ops = small_run();
  with_ops.ops = &plane;
  const RunResult r_ops = run_synthetic(with_ops);

  EXPECT_EQ(manifest_bytes(r_plain), manifest_bytes(r_ops));
  EXPECT_EQ(r_plain.packets_measured, r_ops.packets_measured);
  EXPECT_EQ(r_plain.ejected_flits, r_ops.ejected_flits);
  EXPECT_DOUBLE_EQ(r_plain.avg_latency, r_ops.avg_latency);

  // The plane did publish along the way.
  auto snap = plane.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_GT(snap->seq, 0u);
}

// The final snapshot is a pure function of (config, seed, cycle): stepping
// with one thread or several row bands must publish the same bytes.
TEST(OpsPlane, FinalSnapshotIdenticalAcrossThreads) {
  std::string reference;
  for (int threads : {1, 2, 4}) {
    OpsPlane plane(plain_options());
    SyntheticExperimentConfig ex = small_run();
    ex.noc.step_threads = threads;
    ex.ops = &plane;
    run_synthetic(ex);
    auto snap = plane.snapshot();
    ASSERT_NE(snap, nullptr);
    const std::string bytes = snap->to_json();
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(reference, bytes) << "threads=" << threads;
    }
  }
  // Sanity: the reference snapshot is a well-formed run-mode document.
  const JsonValue v = JsonValue::parse(reference);
  EXPECT_EQ(v.at("schema").str, "flyover-snapshot-v1");
  EXPECT_EQ(static_cast<int>(v.at("width").num), 4);
  ASSERT_TRUE(v.has("nodes"));
  EXPECT_EQ(v.at("nodes").at("mode").arr.size(), 16u);
  EXPECT_EQ(v.at("nodes").at("latency_sum").arr.size(), 16u);
}

// Endpoint payloads through the socketless dispatch used by the HTTP
// thread: schema tags, prometheus families, 404 shape.
TEST(OpsPlane, EndpointPayloads) {
  OpsPlane plane(plain_options());
  SyntheticExperimentConfig ex = small_run();
  ex.ops = &plane;
  run_synthetic(ex);

  const auto metrics = plane.handle("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE flyover_cycle gauge"),
            std::string::npos);
  for (const char* series :
       {"flyover_snapshot_seq", "flyover_injected_flits_total",
        "flyover_gated_routers", "flyover_latency_hist_overflow_total",
        "flyover_incidents_total", "flyover_hard_fault_incidents_total",
        "flyover_watchdog_stall_incidents_total", "flyover_stalled"}) {
    EXPECT_NE(metrics.body.find(series), std::string::npos) << series;
  }

  const auto snapshot = plane.handle("/snapshot");
  EXPECT_EQ(JsonValue::parse(snapshot.body).at("schema").str,
            "flyover-snapshot-v1");

  const auto heatmap = plane.handle("/heatmap");
  const JsonValue h = JsonValue::parse(heatmap.body);
  EXPECT_EQ(h.at("schema").str, "flyover-heatmap-v1");
  EXPECT_EQ(h.at("grids").at("occupancy").arr.size(), 4u);

  const auto healthz = plane.handle("/healthz");
  const JsonValue hz = JsonValue::parse(healthz.body);
  EXPECT_EQ(hz.at("schema").str, "flyover-healthz-v1");
  EXPECT_EQ(hz.at("status").str, "ok");
  EXPECT_TRUE(hz.at("incidents").has("hard_fault_summary"));

  const auto missing = plane.handle("/nope");
  EXPECT_EQ(missing.status, 404);
}

/// Minimal HTTP GET against 127.0.0.1:port; returns the full response.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::write(fd, req.data(), req.size());
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

// Real TCP round-trip on an ephemeral port.
TEST(OpsPlane, HttpServerRoundTrip) {
  OpsOptions opt = plain_options();
  opt.serve_port = 0;  // ephemeral
  OpsPlane plane(opt);
  ASSERT_TRUE(plane.serving());
  ASSERT_GT(plane.http_port(), 0);

  SyntheticExperimentConfig ex = small_run();
  ex.ops = &plane;
  run_synthetic(ex);

  const std::string resp = http_get(plane.http_port(), "/healthz");
  ASSERT_NE(resp.find("HTTP/1.0 200"), std::string::npos) << resp;
  const std::size_t body_at = resp.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const JsonValue hz = JsonValue::parse(resp.substr(body_at + 4));
  EXPECT_EQ(hz.at("schema").str, "flyover-healthz-v1");

  const std::string notfound = http_get(plane.http_port(), "/nope");
  EXPECT_NE(notfound.find("HTTP/1.0 404"), std::string::npos);
}

// Campaign mode: out-of-order completion callbacks (jobs=N races) must
// never move the published done-count backwards, and the final snapshot
// is the same for any callback order.
TEST(OpsPlane, CampaignProgressIsMonotonic) {
  OpsPlane plane(plain_options());
  plane.begin_campaign("sweep", 8);
  plane.campaign_progress(3);
  plane.campaign_progress(5);
  plane.campaign_progress(2);  // late straggler: ignored
  plane.campaign_progress(8);

  auto snap = plane.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_TRUE(snap->campaign);
  EXPECT_EQ(snap->points_done, 8u);
  EXPECT_EQ(snap->points_total, 8u);
  EXPECT_DOUBLE_EQ(snap->progress, 1.0);

  // Campaign snapshots carry no spatial grids; /heatmap declines.
  EXPECT_EQ(plane.handle("/heatmap").status, 404);
  const auto metrics = plane.handle("/metrics");
  EXPECT_NE(metrics.body.find("flyover_campaign_points_done 8"),
            std::string::npos);
  const JsonValue v = JsonValue::parse(plane.handle("/snapshot").body);
  EXPECT_EQ(v.at("campaign").at("points_total").num, 8.0);
}

// The profiler aggregates per-(domain, phase) and reports a parseable
// flyover-profile-v1 document whether or not the FLOV_PROFILE hook points
// were compiled in.
TEST(PhaseProfiler, ReportShapesAndImbalance) {
  telemetry::PhaseProfiler prof;
  prof.ensure_domains(2);
  prof.add(0, telemetry::ProfilePhase::kRoute, 1000);
  prof.add(0, telemetry::ProfilePhase::kBarrier, 500);
  prof.add(1, telemetry::ProfilePhase::kRoute, 4000);

  const auto report = prof.report();
  ASSERT_EQ(report.domains.size(), 2u);
  EXPECT_EQ(report.domains[0].busy_ns(), 1000u);  // barrier excluded
  EXPECT_EQ(report.domains[1].busy_ns(), 4000u);
  EXPECT_DOUBLE_EQ(report.busy_imbalance(), 4.0);
  EXPECT_EQ(report.merged.total_ns(), 5500u);

  const JsonValue v = JsonValue::parse(prof.report_json());
  EXPECT_EQ(v.at("schema").str, "flyover-profile-v1");
  EXPECT_EQ(static_cast<int>(v.at("num_domains").num), 2);
  EXPECT_DOUBLE_EQ(v.at("busy_imbalance").num, 4.0);
  EXPECT_EQ(v.at("merged").at("route").at("calls").num, 2.0);
}

// ProfileScope binding: timers only charge a bound profiler, and the
// previous binding is restored on scope exit.
TEST(PhaseProfiler, ScopeBindingIsScoped) {
  telemetry::PhaseProfiler prof;
  prof.ensure_domains(1);
  {
    telemetry::ProfileScope scope(&prof, 0);
    EXPECT_EQ(telemetry::thread_profile_state().profiler, &prof);
  }
  EXPECT_EQ(telemetry::thread_profile_state().profiler, nullptr);
}

}  // namespace
}  // namespace flov
