#include "sim/checkpoint.hpp"

#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>

#include "common/rng.hpp"

namespace flov {

namespace {

using telemetry::JsonValue;
using telemetry::JsonWriter;

std::uint64_t mix_d(std::uint64_t h, double v) {
  return hash_mix(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t mix_s(std::uint64_t h, const std::string& s) {
  h = hash_mix(h, s.size());
  for (char c : s) h = hash_mix(h, static_cast<unsigned char>(c));
  return h;
}

/// A JSON number that is an exact non-negative integer below 2^64. A
/// checkpoint line is outside input: a negative, fractional, non-finite or
/// out-of-range value (all undefined behaviour to cast) makes the line
/// unusable, so the caller rejects it and the point re-runs.
std::optional<std::uint64_t> u64_of(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kNumber) return std::nullopt;
  const double d = v.num;
  if (!(d >= 0.0 && d < 0x1p64) || d != std::floor(d)) return std::nullopt;
  return static_cast<std::uint64_t>(d);
}

/// u64_of restricted to [0, INT_MAX] (indices and bin counts).
std::optional<int> int_of(const JsonValue& v) {
  const std::optional<std::uint64_t> u = u64_of(v);
  if (!u || *u > static_cast<std::uint64_t>(INT_MAX)) return std::nullopt;
  return static_cast<int>(*u);
}

/// Raw Welford tuple from values[first..first+5]: [count, sum, min, max,
/// running_mean, m2].
std::optional<StatAccumulator> acc_of(const std::vector<JsonValue>& values,
                                      std::size_t first) {
  const std::optional<std::uint64_t> count = u64_of(values[first]);
  if (!count) return std::nullopt;
  return StatAccumulator::restore(*count, values[first + 1].number_or(0.0),
                                  values[first + 2].number_or(0.0),
                                  values[first + 3].number_or(0.0),
                                  values[first + 4].number_or(0.0),
                                  values[first + 5].number_or(0.0));
}

}  // namespace

std::uint64_t sweep_point_fingerprint(const SyntheticExperimentConfig& cfg) {
  std::uint64_t h = 0x464c4f56u;  // "FLOV"
  h = hash_mix(h, static_cast<std::uint64_t>(cfg.scheme));
  h = mix_s(h, cfg.pattern);
  h = mix_d(h, cfg.inj_rate_flits);
  h = mix_d(h, cfg.gated_fraction);
  h = hash_mix(h, cfg.warmup);
  h = hash_mix(h, cfg.measure);
  h = hash_mix(h, cfg.seed);
  h = hash_mix(h, cfg.gating_changes.size());
  for (Cycle c : cfg.gating_changes) h = hash_mix(h, c);
  h = hash_mix(h, cfg.timeline_window);
  h = hash_mix(h, cfg.watchdog);
  h = hash_mix(h, cfg.drain_max);
  h = hash_mix(h, cfg.max_cycles_hard);
  h = hash_mix(h, cfg.verify ? 1 : 0);
  h = hash_mix(h, cfg.verifier.check_interval);
  h = hash_mix(h, cfg.verifier.settle_window);
  h = hash_mix(h, (cfg.verifier.check_conservation ? 1 : 0) |
                      (cfg.verifier.check_credits ? 2 : 0) |
                      (cfg.verifier.check_psr ? 4 : 0) |
                      (cfg.verifier.fatal ? 8 : 0));
  h = hash_mix(h, cfg.telemetry.metrics_window);

  // step_threads and step_tiles_x/y excluded: volatile knobs — any tiling
  // is bit-identical to serial, so a checkpoint taken at threads=8 must
  // resume cleanly at threads=1 (and any tiles=).
  const NocParams& n = cfg.noc;
  h = hash_mix(h, static_cast<std::uint64_t>(n.width));
  h = hash_mix(h, static_cast<std::uint64_t>(n.height));
  h = hash_mix(h, static_cast<std::uint64_t>(n.num_vnets));
  h = hash_mix(h, static_cast<std::uint64_t>(n.vcs_per_vnet));
  h = hash_mix(h, static_cast<std::uint64_t>(n.escape_vc + 1));
  h = hash_mix(h, static_cast<std::uint64_t>(n.buffer_depth));
  h = hash_mix(h, static_cast<std::uint64_t>(n.packet_size));
  h = hash_mix(h, n.link_latency);
  h = hash_mix(h, n.deadlock_timeout);
  h = hash_mix(h, n.enable_escape_diversion ? 1 : 0);
  h = hash_mix(h, n.wakeup_latency);
  h = hash_mix(h, n.drain_idle_threshold);
  h = hash_mix(h, n.drain_abort_timeout);
  h = hash_mix(h, n.hs_retry_timeout);
  h = hash_mix(h, static_cast<std::uint64_t>(n.hs_retry_limit));
  h = hash_mix(h, n.trigger_retry_timeout);
  h = hash_mix(h, n.sleep_reannounce_interval);
  h = hash_mix(h, n.psr_block_timeout);
  h = hash_mix(h, n.latency_hist_max);
  h = hash_mix(h, n.reliable ? 1 : 0);
  h = hash_mix(h, n.retx_timeout);
  h = hash_mix(h, static_cast<std::uint64_t>(n.retx_backoff_cap));
  h = hash_mix(h, static_cast<std::uint64_t>(n.retx_limit));
  h = hash_mix(h, n.ack_delay);

  const FaultParams& f = cfg.faults;
  h = mix_d(h, f.signal_drop_rate);
  h = mix_d(h, f.signal_delay_rate);
  h = hash_mix(h, f.signal_delay_max);
  h = mix_d(h, f.signal_dup_rate);
  h = mix_d(h, f.flit_drop_rate);
  h = mix_d(h, f.flit_delay_rate);
  h = hash_mix(h, f.flit_delay_max);
  h = mix_d(h, f.spurious_wakeup_rate);
  h = mix_d(h, f.soft_flit_flip_rate);
  h = mix_d(h, f.soft_psr_flip_rate);
  h = mix_d(h, f.hard_router_pct);
  h = mix_d(h, f.hard_link_pct);
  h = hash_mix(h, f.hard_at_cycle);
  h = hash_mix(h, f.seed);

  const EnergyParams& e = cfg.energy;
  h = mix_d(h, e.buffer_write_pj);
  h = mix_d(h, e.buffer_read_pj);
  h = mix_d(h, e.vc_arb_pj);
  h = mix_d(h, e.sw_arb_pj);
  h = mix_d(h, e.crossbar_pj);
  h = mix_d(h, e.link_pj);
  h = mix_d(h, e.flov_latch_pj);
  h = mix_d(h, e.credit_relay_pj);
  h = mix_d(h, e.handshake_pj);
  h = mix_d(h, e.pg_transition_pj);
  h = mix_d(h, e.router_leak_mw);
  h = mix_d(h, e.link_leak_mw);
  h = mix_d(h, e.flov_sleep_leak_fraction);
  h = mix_d(h, e.rp_park_leak_fraction);
  h = mix_d(h, e.flov_active_overhead_fraction);
  h = mix_d(h, e.clock_freq_ghz);
  return h;
}

void write_registry_lossless(JsonWriter& w,
                             const telemetry::MetricsRegistry& reg) {
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, v] : reg.counters()) w.kv(name, v);
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, v] : reg.gauges()) w.kv(name, v);
  w.end_object();
  // Stats as the raw Welford tuple, NOT the derived mean/stddev the
  // manifest shows: [count, sum, min, max, running_mean, m2].
  w.key("stats");
  w.begin_object();
  for (const auto& [name, a] : reg.stats()) {
    w.key(name);
    w.begin_array();
    w.value(a.count());
    w.value(a.sum());
    w.value(a.min());
    w.value(a.max());
    w.value(a.welford_mean());
    w.value(a.m2());
    w.end_array();
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, hist] : reg.histograms()) {
    w.key(name);
    w.begin_object();
    w.kv("lo", hist.lo());
    w.kv("hi", hist.hi());
    w.kv("nbins", hist.num_bins());
    w.kv("total", hist.count());
    w.kv("clamped_low", hist.clamped_low());
    w.kv("clamped_high", hist.clamped_high());
    w.key("bins");
    w.begin_array();
    // Sparse [index, count] pairs; empty bins reconstruct as zero.
    for (std::size_t i = 0; i < hist.bins().size(); ++i) {
      if (hist.bins()[i] == 0) continue;
      w.begin_array();
      w.value(static_cast<std::uint64_t>(i));
      w.value(hist.bins()[i]);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.key("series");
  w.begin_object();
  for (const auto& [name, ts] : reg.all_series()) {
    w.key(name);
    w.begin_object();
    w.kv("window", static_cast<std::uint64_t>(ts.window()));
    w.key("buckets");
    w.begin_array();
    for (const auto& [idx, acc] : ts.buckets()) {
      w.begin_array();
      w.value(idx);
      w.value(acc.count());
      w.value(acc.sum());
      w.value(acc.min());
      w.value(acc.max());
      w.value(acc.welford_mean());
      w.value(acc.m2());
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

bool restore_registry_lossless(const JsonValue& v,
                               telemetry::MetricsRegistry* out) {
  if (!v.is_object() || !v.has("counters") || !v.has("gauges") ||
      !v.has("stats") || !v.has("histograms") || !v.has("series")) {
    return false;
  }
  for (const auto& [name, c] : v.at("counters").obj) {
    const std::optional<std::uint64_t> n = u64_of(c);
    if (!n) return false;
    out->counter(name) = *n;
  }
  for (const auto& [name, g] : v.at("gauges").obj) {
    out->gauge(name) = g.number_or(0.0);
  }
  for (const auto& [name, a] : v.at("stats").obj) {
    if (!a.is_array() || a.arr.size() != 6) return false;
    const std::optional<StatAccumulator> acc = acc_of(a.arr, 0);
    if (!acc) return false;
    out->stat(name) = *acc;
  }
  for (const auto& [name, hv] : v.at("histograms").obj) {
    if (!hv.is_object()) return false;
    for (const char* k : {"lo", "hi", "nbins", "total", "clamped_low",
                          "clamped_high", "bins"}) {
      if (!hv.has(k)) return false;
    }
    const std::optional<int> nbins = int_of(hv.at("nbins"));
    const std::optional<std::uint64_t> total = u64_of(hv.at("total"));
    const std::optional<std::uint64_t> low = u64_of(hv.at("clamped_low"));
    const std::optional<std::uint64_t> high = u64_of(hv.at("clamped_high"));
    if (!nbins || *nbins == 0 || !total || !low || !high) return false;
    std::vector<std::uint64_t> bins(static_cast<std::size_t>(*nbins), 0);
    for (const JsonValue& pair : hv.at("bins").arr) {
      if (!pair.is_array() || pair.arr.size() != 2) return false;
      const std::optional<std::uint64_t> i = u64_of(pair.arr[0]);
      const std::optional<std::uint64_t> n = u64_of(pair.arr[1]);
      if (!i || *i >= bins.size() || !n) return false;
      bins[*i] = *n;
    }
    const double lo = hv.at("lo").number_or(0.0);
    const double hi = hv.at("hi").number_or(0.0);
    if (!(hi > lo)) return false;
    out->histogram(name, lo, hi, *nbins) =
        Histogram::restore(lo, hi, std::move(bins), *total, *low, *high);
  }
  for (const auto& [name, sv] : v.at("series").obj) {
    if (!sv.is_object() || !sv.has("window") || !sv.has("buckets")) {
      return false;
    }
    const std::optional<std::uint64_t> window = u64_of(sv.at("window"));
    if (!window || *window == 0) return false;
    TimeSeries& ts = out->series(name, *window);
    std::optional<std::uint64_t> prev;
    for (const JsonValue& b : sv.at("buckets").arr) {
      if (!b.is_array() || b.arr.size() != 7) return false;
      const std::optional<std::uint64_t> idx = u64_of(b.arr[0]);
      if (!idx || (prev && *idx <= *prev)) return false;  // strictly sorted
      const std::optional<StatAccumulator> acc = acc_of(b.arr, 1);
      if (!acc) return false;
      ts.restore_bucket(*idx, *acc);
      prev = idx;
    }
  }
  return true;
}

namespace {

constexpr const char* kCheckpointSchema = "flyover-sweep-checkpoint-v2";

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool parse_hex16(const std::string& s, std::uint64_t* out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else return false;
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  *out = v;
  return true;
}

}  // namespace

std::string encode_sweep_checkpoint_line(int index,
                                         const SyntheticExperimentConfig& cfg,
                                         const RunResult& r) {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", kCheckpointSchema);
  w.kv("index", index);
  w.kv("fp", hex16(sweep_point_fingerprint(cfg)));
  w.kv("scheme", r.scheme);
  w.key("timeline");
  w.begin_array();
  for (const TimeSeries::Point& p : r.timeline) {
    w.begin_array();
    w.value(static_cast<std::uint64_t>(p.window_start));
    w.value(p.mean);
    w.value(p.count);
    w.end_array();
  }
  w.end_array();
  const telemetry::MetricsRegistry no_metrics;
  w.key("metrics");
  write_registry_lossless(w, r.metrics ? *r.metrics : no_metrics);
  // Incidents ride as STRING values (escaped), not spliced objects: the
  // decode path can then recover each record byte-for-byte from the string
  // instead of re-serializing a parsed tree (which would reorder keys and
  // break the resumed manifest's byte-identity).
  w.key("incidents");
  w.begin_array();
  if (r.incidents) {
    for (const std::string& rec : r.incidents->records()) w.value(rec);
  }
  w.end_array();
  w.end_object();
  return w.take();
}

bool decode_sweep_checkpoint_line(const std::string& line, int* index,
                                  std::uint64_t* fingerprint, RunResult* out) {
  JsonValue v;
  if (!JsonValue::try_parse(line, &v) || !v.is_object()) return false;
  for (const char* k : {"schema", "index", "fp", "scheme", "timeline",
                        "metrics", "incidents"}) {
    if (!v.has(k)) return false;
  }
  if (v.at("schema").str != kCheckpointSchema ||
      v.at("scheme").kind != JsonValue::Kind::kString) {
    return false;
  }
  const std::optional<int> idx = int_of(v.at("index"));
  std::uint64_t fp = 0;
  if (!idx || !parse_hex16(v.at("fp").str, &fp)) return false;

  auto reg = std::make_shared<telemetry::MetricsRegistry>();
  if (!restore_registry_lossless(v.at("metrics"), reg.get())) return false;
  // fold_run_result casts these gauges to integers: reject any value the
  // cast cannot hold.
  const JsonValue& gauges = v.at("metrics").at("gauges");
  if (gauges.has("power.window_cycles") &&
      !u64_of(gauges.at("power.window_cycles"))) {
    return false;
  }
  for (const char* k : {"flov.gated_routers_end", "rp.parked_routers",
                        "fault.dead_routers", "fault.dead_links"}) {
    if (gauges.has(k) && !int_of(gauges.at(k))) return false;
  }
  RunResult r = fold_run_result(v.at("scheme").str, *reg);
  r.metrics = std::move(reg);
  for (const JsonValue& p : v.at("timeline").arr) {
    if (!p.is_array() || p.arr.size() != 3) return false;
    const std::optional<std::uint64_t> start = u64_of(p.arr[0]);
    const std::optional<std::uint64_t> count = u64_of(p.arr[2]);
    if (!start || !count) return false;
    r.timeline.push_back(
        TimeSeries::Point{*start, p.arr[1].number_or(0.0), *count});
  }
  auto sink = std::make_shared<telemetry::StructuredSink>();
  for (const JsonValue& inc : v.at("incidents").arr) {
    if (inc.kind != JsonValue::Kind::kString) return false;
    sink->add(inc.str);
  }
  r.incidents = std::move(sink);

  *index = *idx;
  *fingerprint = fp;
  *out = std::move(r);
  return true;
}

int load_sweep_checkpoint(const std::string& path,
                          const std::vector<SyntheticExperimentConfig>& points,
                          std::vector<RunResult>* results,
                          std::vector<char>* have) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return 0;
  std::string content;
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);

  int restored = 0;
  std::size_t pos = 0;
  while (pos < content.size()) {
    std::size_t nl = content.find('\n', pos);
    const bool last = nl == std::string::npos;
    const std::string line =
        content.substr(pos, last ? std::string::npos : nl - pos);
    pos = last ? content.size() : nl + 1;
    if (line.empty()) continue;
    int index = -1;
    std::uint64_t fp = 0;
    RunResult r;
    if (!decode_sweep_checkpoint_line(line, &index, &fp, &r)) continue;
    if (index < 0 || index >= static_cast<int>(points.size())) continue;
    const std::size_t i = static_cast<std::size_t>(index);
    if ((*have)[i]) continue;  // first intact line wins
    if (fp != sweep_point_fingerprint(points[i])) continue;  // stale config
    (*results)[i] = std::move(r);
    (*have)[i] = 1;
    restored++;
  }
  return restored;
}

}  // namespace flov
