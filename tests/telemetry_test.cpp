// Unit tests for src/telemetry: JSON writer/parser round-trips, the
// metrics registry and its deterministic merge, the event tracer ring and
// its Chrome-trace exporter (full round-trip over every event type), run
// manifests and the structured incident sink — plus an end-to-end
// experiment check that the harness populates all three.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "telemetry/json.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/structured_sink.hpp"
#include "telemetry/telemetry_options.hpp"
#include "telemetry/trace.hpp"

namespace flov {
namespace {

using telemetry::JsonValue;
using telemetry::JsonWriter;
using telemetry::MetricsRegistry;
using telemetry::StructuredSink;
using telemetry::TraceEvent;
using telemetry::TraceEventType;
using telemetry::Tracer;
using telemetry::TraceScope;

// -------------------------------------------------------------------- json

TEST(Json, WriterProducesParseableObject) {
  JsonWriter w;
  w.begin_object();
  w.kv("int", std::int64_t{-5});
  w.kv("uint", std::uint64_t{18446744073709551615ull});
  w.kv("dbl", 2.5);
  w.kv("str", "he\"llo\n\t\\");
  w.kv("flag", true);
  w.key("arr");
  w.begin_array();
  w.value(1);
  w.value("two");
  w.null();
  w.end_array();
  w.key("nested");
  w.begin_object();
  w.kv("k", "v");
  w.end_object();
  w.end_object();

  const JsonValue v = JsonValue::parse(w.str());
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.at("int").num, -5.0);
  EXPECT_DOUBLE_EQ(v.at("dbl").num, 2.5);
  EXPECT_EQ(v.at("str").str, "he\"llo\n\t\\");
  EXPECT_TRUE(v.at("flag").b);
  ASSERT_TRUE(v.at("arr").is_array());
  ASSERT_EQ(v.at("arr").arr.size(), 3u);
  EXPECT_EQ(v.at("arr").arr[1].str, "two");
  EXPECT_EQ(v.at("arr").arr[2].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.at("nested").at("k").str, "v");
}

TEST(Json, DoubleRoundTripsBitExactly) {
  // %.17g is the manifest-determinism foundation: a double survives
  // write -> parse -> write unchanged.
  for (double x : {1.0 / 3.0, 0.1, 123456789.123456789, 2.2250738585072014e-308}) {
    JsonWriter w;
    w.begin_object();
    w.kv("x", x);
    w.end_object();
    const JsonValue v = JsonValue::parse(w.str());
    EXPECT_EQ(v.at("x").num, x);
  }
}

// ----------------------------------------------------------------- metrics

TEST(Metrics, CounterGaugeStatBasics) {
  MetricsRegistry reg;
  reg.counter("a.count") += 3;
  reg.counter("a.count") += 2;
  reg.gauge("a.gauge") = 1.5;
  reg.stat("a.stat").add(10);
  reg.stat("a.stat").add(20);
  EXPECT_EQ(reg.counter_value("a.count"), 5u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("a.gauge"), 1.5);
  EXPECT_DOUBLE_EQ(reg.stats().at("a.stat").mean(), 15.0);
  EXPECT_EQ(reg.counter_value("missing"), 0u);
  EXPECT_FALSE(reg.has_counter("missing"));
}

TEST(Metrics, MergeCountersAddStatsFoldGaugesSample) {
  MetricsRegistry a, b;
  a.counter("n") = 2;
  b.counter("n") = 3;
  a.gauge("power_mw") = 10.0;
  b.gauge("power_mw") = 30.0;
  a.stat("lat").add(1);
  b.stat("lat").add(3);
  a.merge(b);
  EXPECT_EQ(a.counter_value("n"), 5u);
  // Gauges become samples of a same-named stat in the merged registry.
  EXPECT_EQ(a.stats().at("power_mw").count(), 1u);
  EXPECT_DOUBLE_EQ(a.stats().at("power_mw").mean(), 30.0);
  EXPECT_EQ(a.stats().at("lat").count(), 2u);
  EXPECT_DOUBLE_EQ(a.stats().at("lat").mean(), 2.0);
}

TEST(Metrics, MergedJsonIsFoldOrderDeterministic) {
  // The same per-run registries folded in the same submission order must
  // serialize byte-identically — this is what makes a jobs=N sweep's
  // manifest bit-identical to jobs=1 (workers never fold concurrently;
  // run_sweep's result vector is ordered by submission index).
  auto make = [](int salt) {
    MetricsRegistry r;
    r.counter("c") = static_cast<std::uint64_t>(salt);
    r.gauge("g") = 0.1 * salt;
    r.stat("s").add(salt);
    r.histogram("h", 0, 10, 10).add(salt % 10);
    r.series("t").add(static_cast<Cycle>(salt * 100), salt);
    return r;
  };
  MetricsRegistry fold1, fold2;
  for (int i = 0; i < 5; ++i) fold1.merge(make(i));
  for (int i = 0; i < 5; ++i) fold2.merge(make(i));
  JsonWriter w1, w2;
  fold1.write_json(w1);
  fold2.write_json(w2);
  EXPECT_EQ(w1.str(), w2.str());
}

TEST(Metrics, EmptyStatWritesNullNotZero) {
  MetricsRegistry r;
  (void)r.stat("empty");
  r.stat("one").add(4);
  JsonWriter w;
  r.write_json(w);
  const JsonValue v = JsonValue::parse(w.str());
  const JsonValue& empty = v.at("stats").at("empty");
  const JsonValue& one = v.at("stats").at("one");
  EXPECT_DOUBLE_EQ(empty.at("count").num, 0.0);
  EXPECT_DOUBLE_EQ(one.at("count").num, 1.0);
  for (const char* f : {"mean", "min", "max", "stddev"}) {
    EXPECT_EQ(empty.at(f).kind, JsonValue::Kind::kNull) << f;
    EXPECT_EQ(one.at(f).kind, JsonValue::Kind::kNumber) << f;
  }
  EXPECT_DOUBLE_EQ(one.at("mean").num, 4.0);
}

TEST(Metrics, RegistryJsonParses) {
  MetricsRegistry r;
  r.counter("c") = 1;
  r.histogram("h", 0, 100, 10).add(42);
  r.series("t").add(0, 1.0);
  JsonWriter w;
  r.write_json(w);
  const JsonValue v = JsonValue::parse(w.str());
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.at("counters").at("c").num, 1.0);
  EXPECT_DOUBLE_EQ(v.at("histograms").at("h").at("count").num, 1.0);
  ASSERT_TRUE(v.at("series").at("t").at("points").is_array());
}

// ------------------------------------------------------------------ tracer

TEST(Trace, MaskParsing) {
  EXPECT_EQ(telemetry::trace_mask_from_string(""), 0u);
  EXPECT_EQ(telemetry::trace_mask_from_string("none"), 0u);
  EXPECT_EQ(telemetry::trace_mask_from_string("all"), telemetry::kTraceAll);
  EXPECT_EQ(telemetry::trace_mask_from_string("flit"), telemetry::kTraceFlit);
  EXPECT_EQ(telemetry::trace_mask_from_string("flit,power"),
            telemetry::kTraceFlit | telemetry::kTracePower);
  EXPECT_EQ(telemetry::trace_mask_from_string("0x7f"), 0x7fu);
  EXPECT_EQ(telemetry::trace_mask_from_string("5"), 5u);
}

TEST(Trace, RingRecordsInOrder) {
  Tracer t(telemetry::kTraceAll, 8);
  for (int i = 0; i < 5; ++i) {
    t.record(TraceEventType::kPacketGen, static_cast<Cycle>(i), i, 10u + i,
             20u + i);
  }
  const auto ev = t.events();
  ASSERT_EQ(ev.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ev[static_cast<std::size_t>(i)].cycle, static_cast<Cycle>(i));
    EXPECT_EQ(ev[static_cast<std::size_t>(i)].a, 10u + i);
  }
  EXPECT_EQ(t.overwritten(), 0u);
}

TEST(Trace, RingOverwritesOldestWhenFull) {
  Tracer t(telemetry::kTraceAll, 4);
  for (int i = 0; i < 10; ++i) {
    t.record(TraceEventType::kPacketGen, static_cast<Cycle>(i), 0, 0, 0);
  }
  const auto ev = t.events();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev.front().cycle, 6u);  // the most recent window survives
  EXPECT_EQ(ev.back().cycle, 9u);
  EXPECT_EQ(t.overwritten(), 6u);
}

TEST(Trace, EveryEventTypeRoundTripsThroughChromeTrace) {
  const int n = static_cast<int>(TraceEventType::kNumTraceEventTypes);
  Tracer t(telemetry::kTraceAll, 64);
  for (int i = 0; i < n; ++i) {
    const auto type = static_cast<TraceEventType>(i);
    t.record(type, static_cast<Cycle>(100 + i), i % 7 - 1,
             static_cast<std::uint64_t>(i) * 3, static_cast<std::uint64_t>(i) + 1);
  }
  const std::string json = t.chrome_trace_json();
  const std::vector<TraceEvent> parsed = Tracer::parse_chrome_trace(json);
  const std::vector<TraceEvent> original = t.events();
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_TRUE(parsed[i] == original[i])
        << "event " << i << " ("
        << telemetry::trace_event_name(original[i].type)
        << ") did not survive the chrome-trace round trip";
  }
}

TEST(Trace, EventMetaIsCompleteAndUnique) {
  const int n = static_cast<int>(TraceEventType::kNumTraceEventTypes);
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) {
    const auto type = static_cast<TraceEventType>(i);
    const std::string name = telemetry::trace_event_name(type);
    EXPECT_FALSE(name.empty());
    for (const std::string& seen : names) EXPECT_NE(name, seen);
    names.push_back(name);
    // Each event maps into exactly one category bit inside the mask.
    const auto cat = telemetry::trace_event_category(type);
    EXPECT_NE(cat & telemetry::kTraceAll, 0u);
    EXPECT_EQ(cat & (cat - 1), 0u) << name << " category is not one bit";
    EXPECT_NE(telemetry::trace_event_arg0(type), nullptr);
    EXPECT_NE(telemetry::trace_event_arg1(type), nullptr);
  }
}

TEST(Trace, ScopeInstallsAndRestores) {
  auto& tts = telemetry::thread_trace_state();
  ASSERT_EQ(tts.tracer, nullptr);
  ASSERT_EQ(tts.mask, 0u);
  {
    Tracer t(telemetry::kTraceFlit, 16);
    TraceScope scope(&t);
    EXPECT_EQ(telemetry::thread_trace_state().tracer, &t);
    EXPECT_EQ(telemetry::thread_trace_state().mask, telemetry::kTraceFlit);
    {
      TraceScope inner(nullptr);
      EXPECT_EQ(telemetry::thread_trace_state().mask, 0u);
    }
    EXPECT_EQ(telemetry::thread_trace_state().tracer, &t);
  }
  EXPECT_EQ(telemetry::thread_trace_state().tracer, nullptr);
  EXPECT_EQ(telemetry::thread_trace_state().mask, 0u);
}

// --------------------------------------------------------------- manifests

TEST(Manifest, RunManifestEmitsRequiredFields) {
  MetricsRegistry reg;
  reg.counter("x") = 1;
  StructuredSink sink;
  {
    JsonWriter w;
    w.begin_object();
    w.kv("kind", "test_incident");
    w.end_object();
    sink.add(w.take());
  }
  telemetry::RunManifest m;
  m.name = "unit";
  m.scheme = "gFLOV";
  m.config.set("seed", 3ll);
  m.seed = 3;
  m.wall_seconds = 1.25;
  m.trace_path = "t.json";
  m.metrics = &reg;
  m.incidents = &sink;

  const JsonValue v = JsonValue::parse(m.to_json());
  EXPECT_EQ(v.at("schema").str, "flyover-run-manifest-v1");
  EXPECT_EQ(v.at("name").str, "unit");
  EXPECT_EQ(v.at("scheme").str, "gFLOV");
  EXPECT_FALSE(v.at("git_describe").str.empty());
  EXPECT_DOUBLE_EQ(v.at("seed").num, 3.0);
  EXPECT_EQ(v.at("config").at("seed").str, "3");
  EXPECT_DOUBLE_EQ(v.at("wall_seconds").num, 1.25);
  EXPECT_DOUBLE_EQ(v.at("metrics").at("counters").at("x").num, 1.0);
  ASSERT_EQ(v.at("incidents").arr.size(), 1u);
  EXPECT_EQ(v.at("incidents").arr[0].at("kind").str, "test_incident");
}

TEST(Manifest, SweepManifestEmitsPointsAndMergedMetrics) {
  MetricsRegistry p0, p1, merged;
  p0.counter("n") = 1;
  p1.counter("n") = 2;
  merged.merge(p0);
  merged.merge(p1);
  telemetry::SweepManifest m;
  m.name = "fig6";
  m.jobs = 4;
  telemetry::SweepPointEntry e0{"gFLOV", "uniform", 0.02, 0.4, 1, &p0};
  telemetry::SweepPointEntry e1{"RP", "uniform", 0.02, 0.4, 1, &p1};
  m.points = {e0, e1};
  m.merged = &merged;

  const JsonValue v = JsonValue::parse(m.to_json());
  EXPECT_EQ(v.at("schema").str, "flyover-sweep-manifest-v1");
  ASSERT_EQ(v.at("points").arr.size(), 2u);
  EXPECT_EQ(v.at("points").arr[0].at("scheme").str, "gFLOV");
  EXPECT_DOUBLE_EQ(v.at("points").arr[1].at("metrics").at("counters").at("n").num,
                   2.0);
  EXPECT_DOUBLE_EQ(v.at("merged_metrics").at("counters").at("n").num, 3.0);
}

TEST(Manifest, StructuredSinkWritesStandaloneFile) {
  StructuredSink sink;
  JsonWriter w;
  w.begin_object();
  w.kv("kind", "watchdog_stall");
  w.kv("cycle", std::uint64_t{42});
  w.end_object();
  sink.add(w.take());
  ASSERT_EQ(sink.size(), 1u);

  const std::string path = ::testing::TempDir() + "incidents_test.json";
  sink.write(path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[512];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);
  std::remove(path.c_str());

  const JsonValue v = JsonValue::parse(text);
  EXPECT_EQ(v.at("schema").str, "flyover-incidents-v1");
  ASSERT_EQ(v.at("incidents").arr.size(), 1u);
  EXPECT_DOUBLE_EQ(v.at("incidents").arr[0].at("cycle").num, 42.0);
}

// --------------------------------------------------- experiment integration

SyntheticExperimentConfig small_cfg(Scheme scheme) {
  SyntheticExperimentConfig cfg;
  cfg.noc.width = 4;
  cfg.noc.height = 4;
  cfg.scheme = scheme;
  cfg.inj_rate_flits = 0.02;
  cfg.gated_fraction = 0.4;
  cfg.warmup = 500;
  cfg.measure = 2000;
  cfg.seed = 7;
  return cfg;
}

TEST(ExperimentTelemetry, RunPopulatesMetricsRegistry) {
  SyntheticExperimentConfig cfg = small_cfg(Scheme::kGFlov);
  cfg.telemetry.metrics_window = 500;
  const RunResult r = run_synthetic(cfg);
  ASSERT_NE(r.metrics, nullptr);
  ASSERT_NE(r.incidents, nullptr);
  // Spot-check one metric from each publishing subsystem.
  EXPECT_EQ(r.metrics->counter_value("net.injected_flits"), r.injected_flits);
  EXPECT_EQ(r.metrics->counter_value("latency.packets_measured"),
            r.packets_measured);
  EXPECT_EQ(r.metrics->counter_value("flov.sleeps"), r.protocol_sleeps);
  EXPECT_EQ(r.metrics->counter_value("run.packets_generated"),
            r.packets_generated);
  EXPECT_EQ(r.metrics->counter_value("verify.checks"), r.verifier_checks);
  EXPECT_TRUE(r.metrics->gauges().count("power.total_mw"));
  // The sampled time-series exists and spans the run.
  ASSERT_TRUE(r.metrics->all_series().count("series.in_network_flits"));
  EXPECT_FALSE(
      r.metrics->all_series().at("series.in_network_flits").points().empty());
}

TEST(ExperimentTelemetry, RpRunPublishesFabricMetrics) {
  const RunResult r = run_synthetic(small_cfg(Scheme::kRp));
  ASSERT_NE(r.metrics, nullptr);
  EXPECT_TRUE(r.metrics->has_counter("rp.reconfigurations"));
  EXPECT_TRUE(r.metrics->gauges().count("rp.parked_routers"));
}

TEST(ExperimentTelemetry, MetricsJsonIsRunDeterministic) {
  const SyntheticExperimentConfig cfg = small_cfg(Scheme::kGFlov);
  const RunResult a = run_synthetic(cfg);
  const RunResult b = run_synthetic(cfg);
  JsonWriter wa, wb;
  a.metrics->write_json(wa);
  b.metrics->write_json(wb);
  EXPECT_EQ(wa.str(), wb.str());
}

TEST(ExperimentTelemetry, SweepMergeFoldsAllPoints) {
  std::vector<SyntheticExperimentConfig> points{small_cfg(Scheme::kGFlov),
                                                small_cfg(Scheme::kBaseline)};
  SweepOptions sopts;
  sopts.jobs = 1;
  const auto results = run_sweep(points, sopts);
  const MetricsRegistry merged = merge_sweep_metrics(results);
  EXPECT_EQ(merged.counter_value("run.packets_generated"),
            results[0].packets_generated + results[1].packets_generated);
}

TEST(ExperimentTelemetry, TraceCapturesFlitLifecycle) {
#if !defined(FLYOVER_TRACING) || !FLYOVER_TRACING
  GTEST_SKIP() << "build compiled the trace hook points out "
                  "(FLYOVER_TRACING=OFF)";
#else
  SyntheticExperimentConfig cfg = small_cfg(Scheme::kGFlov);
  cfg.telemetry.trace_mask = telemetry::kTraceAll;
  const RunResult r = run_synthetic(cfg);
  ASSERT_NE(r.trace, nullptr);
  ASSERT_GT(r.trace->size(), 0u);
  bool saw_gen = false, saw_eject = false, saw_power = false;
  for (const TraceEvent& e : r.trace->events()) {
    saw_gen |= e.type == TraceEventType::kPacketGen;
    saw_eject |= e.type == TraceEventType::kPacketEject;
    saw_power |= e.type == TraceEventType::kPowerMode;
  }
  EXPECT_TRUE(saw_gen);
  EXPECT_TRUE(saw_eject);
  EXPECT_TRUE(saw_power);
  // The exported trace must survive a full re-parse (Perfetto loadability
  // proxy) and reproduce the recorded events verbatim.
  const auto parsed = Tracer::parse_chrome_trace(r.trace->chrome_trace_json());
  const auto original = r.trace->events();
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    ASSERT_TRUE(parsed[i] == original[i]) << "event " << i;
  }
#endif
}

TEST(ExperimentTelemetry, CategoryMaskFiltersEvents) {
#if !defined(FLYOVER_TRACING) || !FLYOVER_TRACING
  GTEST_SKIP() << "build compiled the trace hook points out "
                  "(FLYOVER_TRACING=OFF)";
#else
  SyntheticExperimentConfig cfg = small_cfg(Scheme::kGFlov);
  cfg.telemetry.trace_mask = telemetry::kTracePower;  // power only
  const RunResult r = run_synthetic(cfg);
  ASSERT_NE(r.trace, nullptr);
  ASSERT_GT(r.trace->size(), 0u);
  for (const TraceEvent& e : r.trace->events()) {
    EXPECT_EQ(telemetry::trace_event_category(e.type), telemetry::kTracePower)
        << telemetry::trace_event_name(e.type);
  }
#endif
}

}  // namespace
}  // namespace flov
