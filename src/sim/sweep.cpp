#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/log.hpp"

namespace flov {

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int resolve_jobs(int jobs, int threads_per_job) {
  if (threads_per_job < 1) threads_per_job = 1;
  const int hw = resolve_jobs(0);
  if (jobs > 0) {
    // An explicit jobs= is always respected, but jobs x step-threads
    // beyond the core count silently serializes the domain barriers —
    // worth a warning, not an override.
    if (jobs * threads_per_job > hw) {
      std::fprintf(stderr,
                   "[sweep] warning: jobs=%d x threads=%d oversubscribes "
                   "hardware_concurrency=%d; expect barrier stalls (drop "
                   "jobs= or threads=)\n",
                   jobs, threads_per_job, hw);
    }
    return jobs;
  }
  const int budget = hw / threads_per_job;
  return budget < 1 ? 1 : budget;
}

void parallel_run(int n, int jobs, const std::function<void(int)>& fn) {
  FLOV_CHECK(n >= 0, "parallel_run with negative point count");
  if (n == 0) return;
  jobs = resolve_jobs(jobs);
  if (jobs == 1 || n == 1) {
    // Serial reference path: same thread, same order, no pool machinery.
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  if (jobs > n) jobs = n;

  std::atomic<int> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;
  int first_error_index = n;

  auto worker = [&] {
    while (true) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        // Keep going (other points are independent) but remember the
        // failure with the smallest index, so which error surfaces does
        // not depend on thread timing.
        std::lock_guard<std::mutex> lock(err_mu);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::current_exception();
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs));
  for (int t = 0; t < jobs; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<RunResult> run_sweep(
    const std::vector<SyntheticExperimentConfig>& points,
    const SweepOptions& opts) {
  std::vector<RunResult> results(points.size());
  const int n = static_cast<int>(points.size());

  // Budget jobs against the intra-run parallelism of the points themselves:
  // a sweep of points that each step on 4 domain workers should not also
  // spawn hardware_concurrency sweep workers.
  int max_step_threads = 1;
  for (const auto& p : points) {
    max_step_threads = std::max(max_step_threads, p.noc.step_threads);
  }
  const int jobs = resolve_jobs(opts.jobs, max_step_threads);
  std::mutex progress_mu;
  std::atomic<int> done{0};
  parallel_run(n, jobs, [&](int i) {
    results[static_cast<std::size_t>(i)] =
        run_synthetic(points[static_cast<std::size_t>(i)]);
    const int d = done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (opts.progress) {
      std::lock_guard<std::mutex> lock(progress_mu);
      opts.progress(d, n);
    }
  });
  return results;
}

telemetry::MetricsRegistry merge_sweep_metrics(
    const std::vector<RunResult>& results) {
  telemetry::MetricsRegistry merged;
  for (const RunResult& r : results) {
    if (r.metrics) merged.merge(*r.metrics);
  }
  return merged;
}

std::vector<Config> parse_sweep_spec(const std::string& text) {
  std::vector<Config> blocks;
  std::string block;
  const auto flush = [&] {
    Config c;
    c.parse_text(block);
    block.clear();
    if (c.keys().empty()) return;
    reject_removed_keys(c);
    blocks.push_back(std::move(c));
  };
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) {
    if (line.substr(0, line.find_last_not_of(" \t\r") + 1) == "---") {
      flush();
    } else {
      block += line + '\n';
    }
  }
  flush();
  return blocks;
}

std::vector<SweepPoint> expand_sweep(const Config& block,
                                     const Config& defaults) {
  Config base = block;
  for (const std::string& k : defaults.keys()) {
    if (!base.has(k)) base.set(k, defaults.get_string(k));
  }
  constexpr std::size_t kFixed = 5;
  std::vector<std::string> order = {"scheme", "pattern", "inj", "gated",
                                    "seed"};
  for (const std::string& k : base.keys()) {
    if (std::find(order.begin(), order.begin() + kFixed, k) ==
            order.begin() + kFixed &&
        k != "changes" && k != "telemetry.trace") {
      order.push_back(k);
    }
  }
  // Read the lists off a copy: the points' configs must start unread.
  const Config probe = base;
  std::vector<std::pair<std::string, std::vector<std::string>>> axes;
  std::vector<std::string> extra_axes;
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::vector<std::string> values = probe.get_string_list(order[i], {});
    if (values.size() < 2) continue;
    if (i >= kFixed) extra_axes.push_back(order[i]);
    axes.emplace_back(order[i], std::move(values));
  }

  std::vector<SweepPoint> points;
  std::vector<std::size_t> at(axes.size(), 0);
  while (true) {
    SweepPoint p;
    p.config = base;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      p.config.set(axes[a].first, axes[a].second[at[a]]);
    }
    p.experiment = SyntheticExperimentConfig::from_config(p.config, {});
    p.config.set("scheme", std::string(to_string(p.experiment.scheme)));
    p.extra_axes = extra_axes;
    points.push_back(std::move(p));
    std::size_t a = axes.size();
    for (; a > 0; --a) {
      if (++at[a - 1] < axes[a - 1].second.size()) break;
      at[a - 1] = 0;
    }
    if (a == 0) return points;
  }
}

void write_sweep_manifest(telemetry::SweepManifest m, const std::string& path,
                          const std::vector<SweepPoint>& points,
                          const std::vector<RunResult>& results) {
  const telemetry::MetricsRegistry merged = merge_sweep_metrics(results);
  telemetry::StructuredSink incidents;
  for (std::size_t i = 0; i < points.size(); ++i) {
    m.points.push_back({manifest_config(points[i].config,
                                        points[i].experiment.faults),
                        results[i].metrics.get()});
    if (results[i].incidents) {
      for (const std::string& rec : results[i].incidents->records()) {
        incidents.add(rec);
      }
    }
  }
  m.merged = &merged;
  m.incidents = &incidents;
  m.write(path);
}

}  // namespace flov
