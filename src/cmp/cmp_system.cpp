#include "cmp/cmp_system.hpp"

#include <algorithm>
#include <cstdio>

#include "common/log.hpp"

namespace flov {

void CmpConfig::validate() const {
  // The eject callback enqueues replies during an NI's eject(), and the
  // same NI's inject() sends them that cycle; row bands replay ejections
  // after the barrier, so the replies would leave a cycle later.
  FLOV_CHECK(noc.step_threads == 1,
             "config key noc.step_threads must be 1 for CMP runs (got " +
                 std::to_string(noc.step_threads) +
                 "): replies sent from the eject callback leave in the "
                 "ejection cycle only when stepped serially");
}

CmpSystem::CmpSystem(const CmpConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  cfg_.noc.num_vnets = 3;  // request / forward / response (Table I)
  const MeshGeometry geom(cfg_.noc.width, cfg_.noc.height);
  mc_tiles_ = {geom.id(0, 0), geom.id(geom.width() - 1, 0),
               geom.id(0, geom.height() - 1),
               geom.id(geom.width() - 1, geom.height() - 1)};

  // RP must never park the MC routers.
  std::vector<bool> always_on(geom.num_nodes(), false);
  for (NodeId m : mc_tiles_) always_on[m] = true;
  built_ = build_system(cfg_.scheme, cfg_.noc, cfg_.energy, always_on,
                        /*faults=*/{}, cfg_.rp);

  Rng seeder(cfg_.seed * 1299721 + 17);
  const int n = geom.num_nodes();

  // Thread placement: only active_fraction of the cores have work (seeded
  // random placement); the rest are gated by the OS from the start.
  std::vector<NodeId> order(n);
  for (NodeId t = 0; t < n; ++t) order[t] = t;
  seeder.shuffle(order);
  const int workers =
      std::max(1, static_cast<int>(cfg_.profile.active_fraction * n + 0.5));
  std::vector<int> worker_rank(n, -1);
  for (int i = 0; i < workers; ++i) worker_rank[order[i]] = i;

  auto send_fn = [this](const CoherenceMsg& m) { send(m); };
  for (NodeId t = 0; t < n; ++t) {
    l1s_.push_back(std::make_unique<L1Cache>(
        t, /*capacity_blocks=*/512, seeder.next_u64(), send_fn,
        [this](Addr a) { return home_of(a); }));
    std::uint64_t insts = 0;
    if (worker_rank[t] >= 0) {
      const double frac = workers > 1 ? static_cast<double>(worker_rank[t]) /
                                            static_cast<double>(workers - 1)
                                      : 0.0;
      insts = static_cast<std::uint64_t>(cfg_.profile.base_instructions *
                                         (1.0 - cfg_.profile.imbalance * frac));
    }
    cores_.push_back(std::make_unique<Core>(t, cfg_.profile, insts,
                                            seeder.next_u64(),
                                            l1s_.back().get()));
  }
  for (NodeId m : mc_tiles_) {
    banks_.push_back(
        std::make_unique<DirectoryBank>(m, cfg_.dir, send_fn));
    banks_.back()->set_gated_oracle(
        [this](NodeId c) { return built_.system->core_gated(c); });
  }
}

bool CmpSystem::is_mc_tile(NodeId n) const {
  return std::find(mc_tiles_.begin(), mc_tiles_.end(), n) != mc_tiles_.end();
}

int CmpSystem::bank_of(NodeId tile) const {
  for (std::size_t i = 0; i < mc_tiles_.size(); ++i) {
    if (mc_tiles_[i] == tile) return static_cast<int>(i);
  }
  FLOV_CHECK(false, "not an MC tile");
  return -1;
}

void CmpSystem::send(const CoherenceMsg& msg) {
  if (msg.src == msg.dst) {
    local_loop_.emplace_back(now_ + 1, msg);
    return;
  }
  std::uint64_t id;
  if (!free_ids_.empty()) {
    id = free_ids_.front();
    free_ids_.pop_front();
    msg_table_[id] = msg;
  } else {
    id = msg_table_.size();
    msg_table_.push_back(msg);
  }
  PacketDescriptor p;
  p.src = msg.src;
  p.dest = msg.dst;
  p.vnet = vnet_of(msg.type);
  p.size_flits = flits_of(msg.type);
  p.gen_cycle = now_;
  p.payload = id;
  built_.system->network().enqueue(p);
}

void CmpSystem::deliver(const CoherenceMsg& msg) {
  const VnetId vnet = vnet_of(msg.type);
  const bool to_dir = (vnet == 0) || msg.type == MsgType::kDataToDir ||
                      msg.type == MsgType::kInvAck;
  if (to_dir) {
    banks_[bank_of(msg.dst)]->enqueue(msg);
  } else {
    l1s_[msg.dst]->on_message(msg);
  }
}

void CmpSystem::run(telemetry::MetricsRegistry& reg) {
  NocSystem& sys = *built_.system;
  Network& net = sys.network();

  LatencyStats pkt_stats(/*router_pipeline_cycles=*/3, /*timeline_window=*/0,
                         cfg_.noc.latency_hist_max);
  net.set_eject_callback([this, &pkt_stats](const PacketRecord& r) {
    pkt_stats.record(r);
    const CoherenceMsg msg = msg_table_[r.payload];
    free_ids_.push_back(r.payload);
    deliver(msg);
  });

  const int n = net.num_nodes();
  Cycle runtime = 0;
  int cores_done = 0;
  for (now_ = 0; now_ < cfg_.max_cycles; ++now_) {
    // Local (same-tile) deliveries.
    while (!local_loop_.empty() && local_loop_.front().first <= now_) {
      const CoherenceMsg m = local_loop_.front().second;
      local_loop_.pop_front();
      deliver(m);
    }
    for (NodeId t = 0; t < n; ++t) {
      if (cores_[t]->step(now_)) {
        ++cores_done;
        // OS gates the finished core — unless its tile hosts an MC, whose
        // router must stay reachable.
        if (!is_mc_tile(t)) sys.set_core_gated(t, true, now_);
      }
    }
    for (auto& b : banks_) b->step(now_);
    sys.step(now_);

    if (cores_done == n && runtime == 0) runtime = now_;
    if (cores_done == n) {
      bool banks_idle = true;
      for (auto& b : banks_) banks_idle &= b->idle();
      if (banks_idle && local_loop_.empty() && net.idle()) break;
    }
  }
  const bool aborted = now_ >= cfg_.max_cycles;
  if (aborted) {
    // Stall diagnostics: what is stuck when the bound stopped the run.
    std::fprintf(stderr, "[cmp stall] %s on %s: %d/%d cores done\n",
                 cfg_.profile.name.c_str(), sys.name(), cores_done, n);
    for (NodeId t = 0; t < n; ++t) {
      if (cores_[t]->done()) continue;
      std::fprintf(stderr,
                   "  core %d state=%d retired=%llu/%llu mshr=%d flush=%d\n",
                   t, static_cast<int>(cores_[t]->state()),
                   static_cast<unsigned long long>(cores_[t]->retired()),
                   static_cast<unsigned long long>(cores_[t]->instructions()),
                   l1s_[t]->miss_outstanding(), l1s_[t]->flushing());
    }
    for (std::size_t b = 0; b < banks_.size(); ++b) {
      std::fprintf(stderr, "  bank %zu idle=%d\n", b, banks_[b]->idle());
    }
    std::fprintf(stderr, "  net in_flight_empty=%d idle=%d queued=%llu\n",
                 net.in_flight_empty(), net.idle(),
                 static_cast<unsigned long long>(net.total_queued_packets()));
    sys.dump_state(now_);
  }

  net.publish_metrics(reg);
  pkt_stats.publish_metrics(reg);
  built_.power->publish_metrics(reg, now_);
  sys.publish_metrics(reg, now_);
  // A drained run stepped cycle now_ too; an aborted one stopped before it.
  reg.counter("run.cycles") += aborted ? now_ : now_ + 1;
  if (aborted) reg.counter("run.aborted") += 1;
  reg.counter("cmp.runtime_cycles") += runtime;
  reg.counter("cmp.drained_cycles") += now_;
  for (const auto& l1 : l1s_) {
    reg.counter("cmp.l1_hits") += l1->hits();
    reg.counter("cmp.l1_misses") += l1->misses();
  }
  for (const auto& b : banks_) {
    reg.counter("cmp.dir_transactions") += b->transactions();
    reg.counter("cmp.l2_misses") += b->l2_misses();
  }
  const auto& gated = sys.core_gated_mask();
  reg.counter("cmp.final_gated_cores") +=
      gated.size() - std::count(gated.begin(), gated.end(), std::uint8_t{0});
}

CmpResult CmpSystem::run() {
  telemetry::MetricsRegistry reg;
  run(reg);
  const auto count = [&reg](const char* k) { return reg.counter_value(k); };
  FLOV_CHECK(count("run.aborted") == 0,
             "CMP run hit the cycle bound: " + cfg_.profile.name + " on " +
                 noc().name());
  CmpResult r;
  r.runtime = count("cmp.runtime_cycles");
  r.drained = count("cmp.drained_cycles");
  r.power = PowerTracker::Report::from_metrics(reg);
  r.avg_pkt_latency = reg.stats().at("latency.total").mean();
  r.packets = count("latency.packets_measured");
  r.l1_misses = count("cmp.l1_misses");
  r.l1_hits = count("cmp.l1_hits");
  r.dir_transactions = count("cmp.dir_transactions");
  r.l2_misses = count("cmp.l2_misses");
  r.final_gated_cores = static_cast<int>(count("cmp.final_gated_cores"));
  return r;
}

CmpResult run_cmp(const CmpConfig& cfg) { return CmpSystem(cfg).run(); }

}  // namespace flov
