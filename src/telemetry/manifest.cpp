#include "telemetry/manifest.hpp"

#include <cstdio>

#include "common/log.hpp"
#include "telemetry/json.hpp"

namespace flov::telemetry {

std::string build_git_describe() {
#ifdef FLYOVER_GIT_DESCRIBE
  return FLYOVER_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

namespace {

void write_config(JsonWriter& w, const Config& cfg) {
  w.begin_object();
  for (const std::string& k : cfg.keys()) w.kv(k, cfg.get_string(k));
  w.end_object();
}

void write_to_file(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  FLOV_CHECK(f != nullptr, "cannot open manifest file " + path);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

}  // namespace

std::string RunManifest::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", schema);
  w.kv("name", name);
  w.kv("scheme", scheme);
  w.kv("git_describe", build_git_describe());
  w.kv("seed", seed);
  w.key("config");
  write_config(w, config);
  w.kv("wall_seconds", wall_seconds);
  w.kv("trace_path", trace_path);
  w.key("metrics");
  if (metrics) {
    metrics->write_json(w);
  } else {
    w.null();
  }
  w.key("incidents");
  if (incidents) {
    incidents->append_json(w);
  } else {
    w.begin_array();
    w.end_array();
  }
  w.end_object();
  return w.take();
}

void RunManifest::write(const std::string& path) const {
  write_to_file(path, to_json());
}

std::string SweepManifest::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", schema);
  w.kv("name", name);
  w.kv("git_describe", build_git_describe());
  w.key("config");
  write_config(w, config);
  w.kv("jobs", static_cast<std::int64_t>(jobs));
  w.kv("wall_seconds", wall_seconds);
  w.key("points");
  w.begin_array();
  for (const SweepPointEntry& p : points) {
    w.begin_object();
    w.key("config");
    write_config(w, p.config);
    w.key("metrics");
    if (p.metrics) {
      p.metrics->write_json(w);
    } else {
      w.null();
    }
    w.end_object();
  }
  w.end_array();
  w.key("merged_metrics");
  if (merged) {
    merged->write_json(w);
  } else {
    w.null();
  }
  w.key("incidents");
  if (incidents) {
    incidents->append_json(w);
  } else {
    w.begin_array();
    w.end_array();
  }
  w.end_object();
  return w.take();
}

void SweepManifest::write(const std::string& path) const {
  write_to_file(path, to_json());
}

std::string CertificateManifest::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", schema);
  w.kv("name", name);
  w.kv("git_describe", build_git_describe());
  w.key("config");
  write_config(w, config);
  w.kv("config_fingerprint", config_fingerprint);
  w.kv("seed_base", seed_base);
  w.kv("replications", replications);
  w.kv("max_replications", max_replications);
  w.kv("confidence", confidence);
  w.kv("target_metric", target_metric);
  w.kv("target", target);
  w.kv("stop_reason", stop_reason);
  w.kv("jobs", static_cast<std::int64_t>(jobs));
  w.kv("wall_seconds", wall_seconds);
  w.key("metrics");
  w.begin_array();
  for (const CertifiedMetric& m : metrics) {
    w.begin_object();
    w.kv("name", m.name);
    w.kv("successes", m.successes);
    w.kv("trials", m.trials);
    w.kv("point", m.point);
    w.kv("wilson_lower", m.wilson_lower);
    w.kv("wilson_upper", m.wilson_upper);
    w.kv("clopper_pearson_lower", m.clopper_pearson_lower);
    w.kv("clopper_pearson_upper", m.clopper_pearson_upper);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

void CertificateManifest::write(const std::string& path) const {
  write_to_file(path, to_json());
}

}  // namespace flov::telemetry
