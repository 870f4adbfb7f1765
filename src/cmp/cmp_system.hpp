// Full-system CMP model: 64 cores + private L1s + 4 corner L2/dir/MC banks
// over any of the four NoC schemes, running one PARSEC-like profile.
//
// This substitutes for the paper's gem5+PARSEC stack (see DESIGN.md): the
// cores execute profile-shaped instruction streams; coherence runs a real
// blocking-MESI directory protocol over 3 virtual networks; cores that
// finish their work flush their L1 and are power-gated by the "OS", which
// drives the router power-gating schemes. Energy = average power x runtime,
// so both power savings and performance degradation feed Fig. 8(c,d).
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cmp/benchmark_profile.hpp"
#include "cmp/core.hpp"
#include "cmp/directory.hpp"
#include "cmp/l1_cache.hpp"
#include "cmp/message.hpp"
#include "noc/system_iface.hpp"
#include "sim/builder.hpp"
#include "sim/latency_stats.hpp"
#include "telemetry/metrics.hpp"

namespace flov {

struct CmpConfig {
  Scheme scheme = Scheme::kBaseline;
  NocParams noc;             ///< overridden to 3 vnets internally
  EnergyParams energy;
  BenchmarkProfile profile;
  DirectoryConfig dir;
  std::uint64_t seed = 1;
  /// Cycle bound: a run that reaches it stops and publishes run.aborted.
  Cycle max_cycles = 2000000;
  /// RP's fabric manager; it reconfigures at most every 20000 cycles
  /// (epoch batching of core sleeps).
  FabricManagerConfig rp{.min_epoch_gap = 20000};

  /// Fatal (naming the key) unless noc.step_threads is 1: the coherence
  /// layer sends replies from the eject callback, and only the serial
  /// schedule sends them in the cycle they were ejected.
  void validate() const;
};

/// A completed run, folded from the registry CmpSystem::run published.
struct CmpResult {
  Cycle runtime = 0;          ///< last core finished (performance metric)
  Cycle drained = 0;          ///< network fully drained
  PowerTracker::Report power; ///< over [0, drained]
  double avg_pkt_latency = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t dir_transactions = 0;
  std::uint64_t l2_misses = 0;
  int final_gated_cores = 0;
};

class CmpSystem {
 public:
  explicit CmpSystem(const CmpConfig& cfg);

  /// Runs until every core is done and the system idle, or to
  /// cfg.max_cycles (run.aborted; stall dump on stderr). Publishes net.*,
  /// latency.*, power.* over [0, end], the scheme's metrics, run.cycles
  /// and the cmp.* counters CmpResult folds into `reg`.
  void run(telemetry::MetricsRegistry& reg);

  /// run() into a fresh registry, folded to a CmpResult; fatal when the
  /// run hit its cycle bound.
  CmpResult run();

  NocSystem& noc() { return *built_.system; }

 private:
  void send(const CoherenceMsg& msg);
  void deliver(const CoherenceMsg& msg);
  NodeId home_of(Addr a) const { return mc_tiles_[a % mc_tiles_.size()]; }
  bool is_mc_tile(NodeId n) const;
  int bank_of(NodeId tile) const;

  CmpConfig cfg_;
  BuiltSystem built_;
  std::vector<NodeId> mc_tiles_;
  std::vector<std::unique_ptr<L1Cache>> l1s_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<std::unique_ptr<DirectoryBank>> banks_;
  /// Same-tile messages bypass the NoC with a 1-cycle local loop.
  std::deque<std::pair<Cycle, CoherenceMsg>> local_loop_;
  /// In-flight coherence messages keyed by packet payload id.
  std::vector<CoherenceMsg> msg_table_;
  std::deque<std::uint64_t> free_ids_;
  Cycle now_ = 0;
};

/// CmpSystem(cfg).run(): one full-system run, folded to its CmpResult.
CmpResult run_cmp(const CmpConfig& cfg);

}  // namespace flov
