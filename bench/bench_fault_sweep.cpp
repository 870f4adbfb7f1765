// Robustness sweep: FLOV schemes under an increasingly lossy control
// fabric, then under permanent hard faults (PROTOCOL.md §8).
//
// Table 1 — transient signal loss: for each scheme x signal-drop-rate cell
// the fabric runs gating churn (epoch re-draws) with the recovery knobs
// enabled and the invariant verifier in counting mode; the table shows what
// the faults cost (latency, handshake retries) and that correctness held
// (violations, watchdog escalations).
//
// Table 2 — hard faults: routers die mid-run (fault.hard_router_pct) with
// end-to-end reliable delivery on; the table shows the delivered fraction,
// the retransmit traffic the survival costs, and the packets the fabric had
// to declare dead because their destination no longer exists.
//
//   bench_fault_sweep [warmup=5000] [cycles=25000] [seed=3] [csv=out.csv]
//                     [manifest=out.json]  flyover-sweep-manifest-v1 rows
//
// Certification-convergence mode: certify=1 replaces the tables with a
// Monte-Carlo certification campaign on the hard-fault config and prints
// one row per batch — certified bound vs replications spent — showing the
// sequential stopping rule terminating before the cap.
//
//   bench_fault_sweep certify=1 [certify_max=200] [certify_target=0.9]
//                     [certify_measure=2500] [csv=out.csv]
#include "bench_util.hpp"
#include "sim/certify.hpp"

namespace {

void run_fault_sweep(flov::SyntheticExperimentConfig ex,
                     flov::bench::CsvSink& csv,
                     const flov::SweepOptions& sweep,
                     std::vector<flov::SyntheticExperimentConfig>* all_points,
                     std::vector<flov::RunResult>* all_results) {
  using namespace flov;
  using namespace flov::bench;

  // Recovery hardening (off by default for paper fidelity).
  ex.noc.hs_retry_timeout = 32;
  ex.noc.hs_retry_limit = 16;
  ex.noc.trigger_retry_timeout = 64;
  ex.noc.sleep_reannounce_interval = 128;
  ex.noc.psr_block_timeout = 192;
  ex.pattern = "uniform";
  ex.inj_rate_flits = 0.05;
  ex.gated_fraction = 0.4;
  // Gating churn: re-draw the gated set three times mid-run.
  const Cycle total = ex.warmup + ex.measure;
  ex.gating_changes = {total / 4, total / 2, (3 * total) / 4};

  const double drop_rates[] = {0.0, 0.001, 0.01, 0.05};

  std::vector<SyntheticExperimentConfig> points;
  for (Scheme s : {Scheme::kRFlov, Scheme::kGFlov}) {
    for (double rate : drop_rates) {
      ex.scheme = s;
      ex.faults = FaultParams{};
      if (rate > 0.0) {
        ex.faults.signal_drop_rate = rate;
        ex.faults.signal_delay_rate = rate;
        ex.faults.signal_dup_rate = rate / 2;
        ex.faults.seed = ex.seed;
      }
      points.push_back(ex);
    }
  }
  const std::vector<RunResult> results = run_sweep(points, sweep);

  print_header("Fault sweep — signal loss vs. FLOV recovery (uniform, "
               "40% gated, churn)");
  std::printf("%-8s %-10s %10s %10s %10s %10s %10s %10s\n", "scheme",
              "drop_rate", "latency", "hs_resend", "trig_rsnd", "recover",
              "violation", "delivered");
  std::size_t idx = 0;
  for (Scheme s : {Scheme::kRFlov, Scheme::kGFlov}) {
    (void)s;
    for (double rate : drop_rates) {
      const RunResult& r = results[idx++];
      std::printf("%-8s %-10.3f %10.2f %10llu %10llu %10llu %10llu %10llu\n",
                  r.scheme.c_str(), rate, r.avg_latency,
                  static_cast<unsigned long long>(r.hs_resends),
                  static_cast<unsigned long long>(r.trigger_resends),
                  static_cast<unsigned long long>(r.watchdog_recoveries),
                  static_cast<unsigned long long>(r.verifier_violations),
                  static_cast<unsigned long long>(r.packets_measured));
      csv.row("fault_sweep,%s,%.4f,%.4f,%llu,%llu,%llu,%llu,%llu",
              r.scheme.c_str(), rate, r.avg_latency,
              static_cast<unsigned long long>(r.hs_resends),
              static_cast<unsigned long long>(r.trigger_resends),
              static_cast<unsigned long long>(r.watchdog_recoveries),
              static_cast<unsigned long long>(r.verifier_violations),
              static_cast<unsigned long long>(r.packets_measured));
    }
  }
  all_points->insert(all_points->end(), points.begin(), points.end());
  all_results->insert(all_results->end(), results.begin(), results.end());
}

void run_hard_fault_sweep(
    flov::SyntheticExperimentConfig ex, flov::bench::CsvSink& csv,
    const flov::SweepOptions& sweep,
    std::vector<flov::SyntheticExperimentConfig>* all_points,
    std::vector<flov::RunResult>* all_results) {
  using namespace flov;
  using namespace flov::bench;

  // End-to-end reliability carries the traffic across the deaths; the
  // drain tail lets every flow resolve to acked-or-dead so the delivered
  // fraction below is exact, not racing the cutoff.
  ex.noc.reliable = true;
  ex.noc.retx_timeout = 256;
  ex.noc.sleep_reannounce_interval = 128;
  ex.noc.psr_block_timeout = 192;
  ex.pattern = "uniform";
  ex.inj_rate_flits = 0.05;
  ex.drain_max = 40000;
  ex.max_cycles_hard = 4 * (ex.warmup + ex.measure) + ex.drain_max;

  const double death_rates[] = {0.0, 0.03, 0.06, 0.12};

  std::vector<SyntheticExperimentConfig> points;
  for (Scheme s : {Scheme::kRFlov, Scheme::kGFlov}) {
    for (double pct : death_rates) {
      ex.scheme = s;
      // FLOV gating keeps exercising the survival paths while routers die.
      ex.gated_fraction = 0.3;
      ex.faults = FaultParams{};
      if (pct > 0.0) {
        ex.faults.hard_router_pct = pct;
        ex.faults.hard_link_pct = pct / 2;
        ex.faults.hard_at_cycle = ex.warmup + ex.measure / 4;
        ex.faults.seed = ex.seed;
      }
      points.push_back(ex);
    }
  }
  const std::vector<RunResult> results = run_sweep(points, sweep);

  print_header("Hard-fault sweep — routers die mid-run, reliable delivery "
               "(uniform, 30% gated)");
  std::printf("%-8s %-9s %5s %5s | %10s %9s %9s %9s %9s %9s\n", "scheme",
              "router%", "dead", "links", "latency", "acked", "dead_pkt",
              "retx", "deliv%", "violation");
  std::size_t idx = 0;
  for (Scheme s : {Scheme::kRFlov, Scheme::kGFlov}) {
    (void)s;
    for (double pct : death_rates) {
      const RunResult& r = results[idx++];
      const std::uint64_t settled = r.packets_acked + r.packets_dead;
      const double delivered =
          settled ? 100.0 * static_cast<double>(r.packets_acked) /
                        static_cast<double>(settled)
                  : 100.0;
      std::printf(
          "%-8s %-9.2f %5d %5d | %10.2f %9llu %9llu %9llu %8.2f%% %9llu\n",
          r.scheme.c_str(), 100 * pct, r.dead_routers, r.dead_links,
          r.avg_latency, static_cast<unsigned long long>(r.packets_acked),
          static_cast<unsigned long long>(r.packets_dead),
          static_cast<unsigned long long>(r.retransmits), delivered,
          static_cast<unsigned long long>(r.verifier_violations));
      csv.row("hard_fault,%s,%.4f,%.4f,%llu,%llu,%llu,%llu,%llu",
              r.scheme.c_str(), pct, r.avg_latency,
              static_cast<unsigned long long>(r.packets_acked),
              static_cast<unsigned long long>(r.packets_dead),
              static_cast<unsigned long long>(r.retransmits),
              static_cast<unsigned long long>(r.verifier_violations),
              static_cast<unsigned long long>(
                  static_cast<std::uint64_t>(r.dead_routers)));
    }
  }
  all_points->insert(all_points->end(), points.begin(), points.end());
  all_results->insert(all_results->end(), results.begin(), results.end());
}

// certify=1: Monte-Carlo certification on the hard-fault survival config.
// One row per folded batch — the running Wilson bound on delivery vs the
// replications spent so far — so the convergence (and the sequential rule
// stopping before the cap) is visible in the output, not just asserted.
int run_certify_convergence(const flov::bench::BenchArgs& args) {
  using namespace flov;
  using namespace flov::bench;

  // Same hardening as the hard-fault table, scaled down per replication:
  // a certification campaign buys its statistical power from replication
  // count, not from one long run.
  const Config& cfg = args.cfg;
  SyntheticExperimentConfig ex = args.ex;
  ex.scheme = Scheme::kGFlov;
  ex.noc.reliable = true;
  ex.noc.retx_timeout = 256;
  ex.noc.sleep_reannounce_interval = 128;
  ex.noc.psr_block_timeout = 192;
  ex.pattern = "uniform";
  ex.inj_rate_flits = 0.05;
  ex.gated_fraction = 0.3;
  ex.warmup = 500;
  ex.measure = cfg.get_int("certify_measure", 2500);
  ex.drain_max = 30000;
  ex.max_cycles_hard = 4 * (ex.warmup + ex.measure) + ex.drain_max;
  ex.faults = FaultParams{};
  ex.faults.hard_router_pct = 0.03;
  ex.faults.hard_link_pct = 0.015;
  ex.faults.hard_at_cycle = ex.warmup + ex.measure / 4;
  ex.faults.seed = ex.seed;

  CertifyOptions opts;
  opts.metric = "delivery";
  opts.confidence = 0.95;
  opts.target = cfg.get_double("certify_target", 0.9);
  opts.indifference = 0.02;
  opts.min_replications = 32;
  opts.max_replications =
      static_cast<std::uint64_t>(cfg.get_int("certify_max", 200));
  opts.batch = 16;
  opts.seed_base = ex.seed;
  opts.jobs = args.sweep.jobs;

  CsvSink conv_csv(
      cfg, "reps,successes,trials,point,wilson_lower,wilson_upper,half_width");
  reject_unread_keys(cfg);

  print_header(
      "Certification convergence — delivery bound vs replications "
      "(gFLOV 8x8, routers die mid-run)");
  std::printf("%6s %10s %8s %8s %14s %14s %11s\n", "reps", "successes",
              "trials", "point", "wilson_lower", "wilson_upper",
              "half_width");
  opts.batch_hook = [&conv_csv](std::uint64_t reps,
                                const CertifyEstimate& e) {
    std::printf("%6llu %10llu %8llu %8.5f %14.5f %14.5f %11.5f\n",
                static_cast<unsigned long long>(reps),
                static_cast<unsigned long long>(e.successes),
                static_cast<unsigned long long>(e.trials), e.point,
                e.wilson.lower, e.wilson.upper, e.wilson.half_width());
    conv_csv.row("%llu,%llu,%llu,%.6f,%.6f,%.6f,%.6f",
                 static_cast<unsigned long long>(reps),
                 static_cast<unsigned long long>(e.successes),
                 static_cast<unsigned long long>(e.trials), e.point,
                 e.wilson.lower, e.wilson.upper, e.wilson.half_width());
  };

  const CertifyResult res = run_certification(ex, opts);
  std::printf("stop: %s after %llu/%llu replications%s\n",
              res.stop_reason.c_str(),
              static_cast<unsigned long long>(res.replications),
              static_cast<unsigned long long>(opts.max_replications),
              res.stopped_early ? " (early)" : "");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flov::bench;
  flov::SyntheticExperimentConfig defaults;
  defaults.warmup = 5000;
  defaults.measure = 25000;
  // Count violations and report them in the tables; let lossy handshakes
  // settle before the PSR check judges them.
  defaults.verifier.fatal = false;
  defaults.verifier.settle_window = 512;
  const BenchArgs args(argc, argv, defaults);
  if (args.cfg.get_bool("certify", false)) {
    return run_certify_convergence(args);
  }
  CsvSink csv(args.cfg,
              "figure,scheme,drop_rate,latency,hs_resends,trigger_resends,"
              "recoveries,violations,packets");
  ManifestSink manifest(args, "bench_fault_sweep");
  flov::reject_unread_keys(args.cfg);
  std::vector<flov::SyntheticExperimentConfig> all_points;
  std::vector<flov::RunResult> all_results;
  run_fault_sweep(args.ex, csv, args.sweep, &all_points, &all_results);
  run_hard_fault_sweep(args.ex, csv, args.sweep, &all_points, &all_results);
  manifest.write(all_points, all_results);
  return 0;
}
