// Shared helpers for the figure-reproduction benches: argument handling and
// table printing. Every bench accepts "key=value" overrides, e.g.
//   bench_fig6_uniform cycles=20000 noc.width=6 noc.height=6 seed=3 jobs=4
// and fails on any key it does not read.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "telemetry/manifest.hpp"

namespace flov::bench {

/// A synthetic bench's command line, parsed once: the shared keys over the
/// bench's defaults (SyntheticExperimentConfig::from_config), seed= and
/// jobs= (0 = all hardware threads, 1 = the serial reference path). A bench
/// reads its own keys and builds its sinks, then calls reject_unread_keys.
struct BenchArgs {
  BenchArgs(int argc, char** argv, SyntheticExperimentConfig defaults = {}) {
    cfg.parse_args(argc, argv);
    ex = SyntheticExperimentConfig::from_config(cfg, std::move(defaults));
    ex.seed = static_cast<std::uint64_t>(
        cfg.get_int("seed", static_cast<long long>(ex.seed)));
    sweep.jobs = static_cast<int>(cfg.get_int("jobs", 0));
  }

  Config cfg;
  SyntheticExperimentConfig ex;
  SweepOptions sweep;
};

/// The gating fractions of Figs. 6/7/9 (0% .. 80%).
inline std::vector<double> gating_fractions() {
  return {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8};
}

inline void print_header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

/// Optional CSV sink: pass csv=<path> to a bench to also dump the raw
/// sweep data (one row per run) for external plotting. The file is created
/// at the first row, so a run that fails on its config writes nothing.
class CsvSink {
 public:
  CsvSink(const Config& cfg, const char* header)
      : path_(cfg.get_string("csv", "")), header_(header) {}
  ~CsvSink() {
    if (file_) std::fclose(file_);
  }
  CsvSink(const CsvSink&) = delete;
  CsvSink& operator=(const CsvSink&) = delete;

  /// Writes one printf-formatted row.
  template <typename... Args>
  void row(const char* fmt, Args... args) {
    if (path_.empty()) return;
    if (!file_) {
      file_ = std::fopen(path_.c_str(), "w");
      if (!file_) return;
      std::fprintf(file_, "%s\n", header_);
    }
    std::fprintf(file_, fmt, args...);
    std::fprintf(file_, "\n");
  }

 private:
  std::string path_;
  const char* header_;
  std::FILE* file_ = nullptr;
};

/// Optional manifest sink: pass manifest=<path> to a bench to write a
/// flyover-sweep-manifest-v1 covering the whole sweep. The CI determinism
/// gate diffs these between jobs=1 and jobs=4 runs.
class ManifestSink {
 public:
  ManifestSink(const BenchArgs& args, const char* bench_name)
      : args_(args),
        name_(bench_name),
        path_(args.cfg.get_string("manifest", "")),
        start_(std::chrono::steady_clock::now()) {}

  /// Call once after the sweeps; a no-op without manifest=<path>.
  void write(const std::vector<SyntheticExperimentConfig>& points,
             const std::vector<RunResult>& results) const {
    if (path_.empty()) return;
    telemetry::SweepManifest m;
    m.name = name_;
    m.config = manifest_config(args_.cfg, args_.ex.faults);
    m.jobs = args_.sweep.jobs;
    m.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    write_sweep_manifest(std::move(m), path_, points, results);
    std::printf("manifest written to %s\n", path_.c_str());
  }

 private:
  const BenchArgs& args_;
  const char* name_;
  std::string path_;
  std::chrono::steady_clock::time_point start_;
};

/// Appends the standard per-run CSV fields for a synthetic sweep row.
inline void csv_run_row(CsvSink& csv, const char* figure,
                        const char* pattern, double inj, double gated,
                        const RunResult& r) {
  csv.row("%s,%s,%.3f,%.2f,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,"
          "%d,%llu",
          figure, pattern, inj, gated, r.scheme.c_str(), r.avg_latency,
          r.breakdown.router, r.breakdown.link, r.breakdown.serialization,
          r.breakdown.contention, r.breakdown.flov, r.power.static_mw,
          r.power.dynamic_mw, r.power.total_mw, r.gated_routers_end,
          static_cast<unsigned long long>(r.packets_measured));
}

inline constexpr const char* kCsvHeader =
    "figure,pattern,inj,gated,scheme,latency,router,link,serialization,"
    "contention,flov,static_mw,dynamic_mw,total_mw,gated_routers,packets";

/// The Fig. 6/7 panels for `ex.pattern`: average latency, dynamic and total
/// power vs the gated fraction for all four schemes, at injection 0.02 and
/// 0.08 flits/node/cycle; each panel is headed "<title>, injection ...".
/// Every point and result is appended, in submission order, to
/// `all_points`/`all_results` when they are non-null (for a manifest).
inline void run_load_figure(SyntheticExperimentConfig ex, const char* figure,
                            const char* title, CsvSink& csv,
                            const SweepOptions& sweep,
                            std::vector<SyntheticExperimentConfig>* all_points,
                            std::vector<RunResult>* all_results) {
  const auto fractions = gating_fractions();
  for (double inj : {0.02, 0.08}) {
    ex.inj_rate_flits = inj;
    // One independent sweep point per (fraction, scheme); the pool runs
    // them concurrently, results come back in this submission order.
    std::vector<SyntheticExperimentConfig> points;
    for (double f : fractions) {
      for (Scheme s : kAllSchemes) {
        ex.scheme = s;
        ex.gated_fraction = f;
        points.push_back(ex);
      }
    }
    const std::vector<RunResult> results = run_sweep(points, sweep);
    for (std::size_t i = 0; i < results.size(); ++i) {
      csv_run_row(csv, figure, ex.pattern.c_str(), inj, fractions[i / 4],
                  results[i]);
    }
    if (all_points && all_results) {
      all_points->insert(all_points->end(), points.begin(), points.end());
      all_results->insert(all_results->end(), results.begin(), results.end());
    }

    char header[160];
    std::snprintf(header, sizeof(header), "%s, injection %.2f flits/node/cycle",
                  title, inj);
    print_header(header);
    struct Metric {
      const char* name;
      double (*get)(const RunResult&);
    };
    const Metric metrics[] = {
        {"avg latency (cycles)",
         [](const RunResult& r) { return r.avg_latency; }},
        {"dynamic power (mW)",
         [](const RunResult& r) { return r.power.dynamic_mw; }},
        {"total power (mW)",
         [](const RunResult& r) { return r.power.total_mw; }},
    };
    for (const Metric& m : metrics) {
      std::printf("\n%s\n", m.name);
      std::printf("%-8s %10s %10s %10s %10s\n", "gated%", "Baseline", "RP",
                  "rFLOV", "gFLOV");
      for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
        std::printf("%-8.0f", fractions[fi] * 100);
        for (std::size_t si = 0; si < 4; ++si) {
          std::printf(" %10.2f", m.get(results[fi * 4 + si]));
        }
        std::printf("\n");
      }
    }
  }
}

}  // namespace flov::bench
