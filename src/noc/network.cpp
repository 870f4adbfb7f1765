#include "noc/network.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "telemetry/metrics.hpp"

namespace flov {

Network::Network(const NocParams& params, RoutingFunction* routing,
                 PowerTracker* power)
    : params_(params), geom_(params.width, params.height) {
  params_.validate();
  const int n = geom_.num_nodes();

  // Tile-grid domain decomposition. Explicit step_tiles_x/y wins; otherwise
  // auto-tile from step_threads: row bands first (only N/S links cross a
  // row split), adding columns only once the thread count exceeds the row
  // count. Sized FIRST: the NIs below capture pointers into
  // counter_shards_, and nothing here may move afterwards.
  if (params_.step_tiles_x > 0 || params_.step_tiles_y > 0) {
    tiles_x_ = std::clamp(std::max(params_.step_tiles_x, 1), 1, params_.width);
    tiles_y_ = std::clamp(std::max(params_.step_tiles_y, 1), 1, params_.height);
  } else {
    tiles_y_ = std::min(params_.step_threads, params_.height);
    tiles_x_ = std::min(std::max(1, params_.step_threads / tiles_y_),
                        params_.width);
    // Never spin up more domains than requested threads.
    while (tiles_x_ > 1 && tiles_x_ * tiles_y_ > params_.step_threads) {
      --tiles_x_;
    }
  }
  num_domains_ = tiles_x_ * tiles_y_;
  FLOV_CHECK(num_domains_ >= 1, "need at least one step domain");
  node_domain_.resize(static_cast<std::size_t>(n));
  domain_rect_.resize(static_cast<std::size_t>(num_domains_));
  counter_shards_.resize(static_cast<std::size_t>(num_domains_));
  for (int ty = 0; ty < tiles_y_; ++ty) {
    for (int tx = 0; tx < tiles_x_; ++tx) {
      const int dom = ty * tiles_x_ + tx;
      DomainRect& r = domain_rect_[dom];
      r.x0 = tx * params_.width / tiles_x_;
      r.x1 = (tx + 1) * params_.width / tiles_x_;
      r.y0 = ty * params_.height / tiles_y_;
      r.y1 = (ty + 1) * params_.height / tiles_y_;
      FLOV_CHECK(r.x0 < r.x1 && r.y0 < r.y1, "empty tile domain");
      for (int y = r.y0; y < r.y1; ++y) {
        for (int x = r.x0; x < r.x1; ++x) {
          node_domain_[y * params_.width + x] = dom;
        }
      }
    }
  }
  if (num_domains_ > 1) {
    wake_stages_.resize(static_cast<std::size_t>(num_domains_));
    for (auto& s : wake_stages_) s.init(n, /*live=*/false);
    eject_stage_.resize(static_cast<std::size_t>(num_domains_));
  }

  // The SoA slab every router/NI binds into — sized once, never resized.
  hot_.init(n, params_.total_vcs(), params_.buffer_depth);

  // Channels, routers and NIs live by value in exact-reserved vectors:
  // everything downstream holds raw pointers into them, so compute the
  // final counts up front and FLOV_CHECK them after wiring.
  const std::size_t edges = 2 * static_cast<std::size_t>(
      (params_.width - 1) * params_.height +
      (params_.height - 1) * params_.width);
  const std::size_t flit_cap = edges + 2 * static_cast<std::size_t>(n);
  const std::size_t credit_cap = edges + 2 * static_cast<std::size_t>(n);
  flit_channels_.reserve(flit_cap);
  credit_channels_.reserve(credit_cap);
  channel_activity_.assign(flit_cap + credit_cap, 1);

  routers_.reserve(static_cast<std::size_t>(n));
  nis_.reserve(static_cast<std::size_t>(n));
  flit_out_.resize(static_cast<std::size_t>(n));
  router_live_.init(n);
  ni_live_.init(n);
  for (NodeId id = 0; id < n; ++id) {
    routers_.emplace_back(id, geom_, params_, routing, power, &hot_);
    nis_.emplace_back(id, params_, &hot_);
    routers_[id].set_wake_target(&router_live_, id);
    nis_[id].set_fabric_hooks(&counter_shards_[node_domain_[id]].c, &ni_live_,
                              id);
    flit_out_[id].fill(nullptr);
  }

  auto new_flit_channel = [&](Cycle latency) {
    FLOV_CHECK(flit_channels_.size() < flit_cap, "flit channel over-reserve");
    flit_channels_.emplace_back(latency);
    flit_channels_.back().set_activity_flag(
        &channel_activity_[flit_channels_.size() - 1]);
    return &flit_channels_.back();
  };
  auto new_credit_channel = [&](Cycle latency) {
    FLOV_CHECK(credit_channels_.size() < credit_cap,
               "credit channel over-reserve");
    credit_channels_.emplace_back(latency);
    credit_channels_.back().set_activity_flag(
        &channel_activity_[flit_cap + credit_channels_.size() - 1]);
    return &credit_channels_.back();
  };

  // Inter-router links: one flit channel and one credit back-channel per
  // directed edge. Every channel wakes its RECEIVER on send — the sender is
  // already live (it just stepped), and the receiver must not stay parked
  // while something is in flight toward it. Edges whose endpoints lie in
  // different domains (N/S links across a row split, E/W links across a
  // column split) are put into staging mode: sends collect sender-side and
  // the wake mark goes to the sender's domain stage, both merged at the
  // barrier.
  for (NodeId a = 0; a < n; ++a) {
    for (Direction d : kMeshDirections) {
      const NodeId b = geom_.neighbor(a, d);
      if (b == kInvalidNode) continue;
      Channel<Flit>* fch = new_flit_channel(params_.link_latency);
      routers_[a].connect_flit_out(d, fch);
      routers_[b].connect_flit_in(opposite(d), fch);
      flit_out_[a][dir_index(d)] = fch;

      Channel<Credit>* cch = new_credit_channel(1);
      routers_[b].connect_credit_out(opposite(d), cch);
      routers_[a].connect_credit_in(d, cch);

      if (node_domain_[a] != node_domain_[b]) {
        // Flit channel: sender a, receiver b. Credit channel: sender b.
        fch->set_staging(true);
        fch->set_wake_target(&wake_stages_[node_domain_[a]], b);
        boundary_flit_.push_back(fch);
        cch->set_staging(true);
        cch->set_wake_target(&wake_stages_[node_domain_[b]], a);
        boundary_credit_.push_back(cch);
      } else {
        fch->set_wake_target(&router_live_, b);
        cch->set_wake_target(&router_live_, a);
      }
    }
  }

  // Local ports: NI <-> router. Always node-local, never cross a domain.
  for (NodeId id = 0; id < n; ++id) {
    Channel<Flit>* inj = new_flit_channel(1);
    nis_[id].connect_to_router(inj);
    routers_[id].connect_flit_in(Direction::Local, inj);
    inj->set_wake_target(&router_live_, id);
    flit_out_[id][dir_index(Direction::Local)] = nullptr;

    Channel<Flit>* ej = new_flit_channel(1);
    routers_[id].connect_flit_out(Direction::Local, ej);
    nis_[id].connect_from_router(ej);
    ej->set_wake_target(&ni_live_, id);

    Channel<Credit>* cr_up = new_credit_channel(1);
    routers_[id].connect_credit_out(Direction::Local, cr_up);
    nis_[id].connect_credit_from_router(cr_up);
    cr_up->set_wake_target(&ni_live_, id);

    Channel<Credit>* cr_down = new_credit_channel(1);
    nis_[id].connect_credit_to_router(cr_down);
    routers_[id].connect_credit_in(Direction::Local, cr_down);
    cr_down->set_wake_target(&router_live_, id);
  }
  FLOV_CHECK(flit_channels_.size() == flit_cap, "flit channel under-reserve");
  FLOV_CHECK(credit_channels_.size() == credit_cap,
             "credit channel under-reserve");

  if (num_domains_ > 1) {
    // With >1 domain the NIs report ejections into per-domain stages
    // (tagged with the NI's node id); the barrier replays them in node-id
    // order through the stored callback + observers (see
    // set_eject_callback).
    for (NodeId id = 0; id < n; ++id) {
      const int dom = node_domain_[id];
      nis_[id].set_eject_callback([this, dom, id](const PacketRecord& rec) {
        eject_stage_[dom].emplace_back(id, rec);
      });
    }
    pool_ = std::make_unique<StepPool>(
        num_domains_ - 1, [this](int w, Cycle now) {
#if defined(FLYOVER_TRACING) && FLYOVER_TRACING
          telemetry::Tracer* t = step_tracer_;
          telemetry::TraceScope scope(t ? t->shard(w + 1) : nullptr);
#endif
#if defined(FLYOVER_PROFILING) && FLYOVER_PROFILING
          telemetry::ProfileScope pscope(step_profiler_, w + 1);
#endif
          step_domain(w + 1, now);
        });
  }
}

void Network::step_domain(int dom, Cycle now) {
  // Node-id order within the domain (ids are row-major, so scanning the
  // tile rect row by row IS ascending-id order), same as stepping
  // everything serially: the only cross-router ordering observable within
  // a cycle is via shared callbacks (e.g. the wakeup-trigger dedup, which
  // the FLOV layer stages and replays in id order), and skipping a
  // quiescent router is equivalent to stepping it (its step would be a
  // pure no-op; its VA round-robin tick is replayed when it next runs —
  // Router::step).
  const DomainRect& rect = domain_rect_[dom];
  for (int y = rect.y0; y < rect.y1; ++y) {
    const NodeId row = y * params_.width;
    for (int x = rect.x0; x < rect.x1; ++x) {
      const NodeId id = row + x;
      if (!router_live_.live(id)) continue;
      Router& r = routers_[id];
      r.step(now);
      // A quiescent router stays parked until a send/mode-switch re-arms
      // it. Note this runs AFTER the step: anything the step produced went
      // out through channels (marking the receivers), so clearing here is
      // safe. Cross-domain arrivals the router cannot see yet (staged)
      // re-mark it via the wake-stage merge at the barrier.
      if (r.quiescent()) router_live_.clear(id);
    }
  }
  FLOV_PROFILE(kNi);  // covers the NI loop (the remainder of this domain)
  for (int y = rect.y0; y < rect.y1; ++y) {
    const NodeId row = y * params_.width;
    for (int x = rect.x0; x < rect.x1; ++x) {
      const NodeId id = row + x;
      if (!ni_live_.live(id)) continue;
      NetworkInterface& ni = nis_[id];
      ni.step(now);
      if (ni.quiescent()) ni_live_.clear(id);
    }
  }
}

void Network::merge_domains() {
  // All merges below are deterministic folds in fixed (wiring or node-id)
  // order; none depend on worker timing.
  for (Channel<Flit>* ch : boundary_flit_) ch->merge_staged();
  for (Channel<Credit>* ch : boundary_credit_) ch->merge_staged();
  for (auto& stage : wake_stages_) stage.drain_into(router_live_);
  // Ejection replay: each domain's stage is already ascending by node id
  // (stepping order), and domains own disjoint id sets, so a k-way
  // min-front merge reproduces exactly the serial callback order. (With
  // tile grids, plain stage concatenation would NOT be id-sorted — a tile
  // in the top-right holds smaller ids than one in the bottom-left but a
  // larger domain index.)
  auto& pos = eject_merge_pos_;
  pos.assign(eject_stage_.size(), 0);
  for (;;) {
    int best = -1;
    NodeId best_id = 0;
    for (int d = 0; d < num_domains_; ++d) {
      if (pos[d] >= eject_stage_[d].size()) continue;
      const NodeId id = eject_stage_[d][pos[d]].first;
      if (best < 0 || id < best_id) {
        best = d;
        best_id = id;
      }
    }
    if (best < 0) break;
    const PacketRecord& rec = eject_stage_[best][pos[best]].second;
    if (user_eject_cb_) user_eject_cb_(rec);
    for (const auto& cb : eject_observers_) cb(rec);
    ++pos[best];
  }
  for (auto& stage : eject_stage_) stage.clear();
}

void Network::step(Cycle now) {
  if (num_domains_ == 1) {
    step_domain(0, now);
    return;
  }
#if defined(FLYOVER_PROFILING) && FLYOVER_PROFILING
  telemetry::PhaseProfiler* prof = telemetry::thread_profile_state().profiler;
  if (prof != nullptr) prof->ensure_domains(num_domains_);
  step_profiler_ = prof;  // published to workers by the pool's epoch fence
#endif
#if defined(FLYOVER_TRACING) && FLYOVER_TRACING
  telemetry::Tracer* parent = telemetry::thread_trace_state().tracer;
  if (parent != nullptr) parent->ensure_shards(num_domains_);
  step_tracer_ = parent;  // published to workers by the pool's epoch fence
  {
    telemetry::TraceScope scope(parent ? parent->shard(0) : nullptr);
    pool_->run_cycle(now, [this, now] { step_domain(0, now); });
  }
#else
  pool_->run_cycle(now, [this, now] { step_domain(0, now); });
#endif
  {
    FLOV_PROFILE(kMerge);
    merge_domains();
  }
}

void Network::set_eject_callback(
    std::function<void(const PacketRecord&)> cb) {
  if (num_domains_ > 1) {
    // The NIs keep their staging callback; the user callback runs at the
    // barrier replay instead.
    user_eject_cb_ = std::move(cb);
    return;
  }
  for (auto& ni : nis_) ni.set_eject_callback(cb);
}

void Network::add_eject_callback(
    std::function<void(const PacketRecord&)> cb) {
  if (num_domains_ > 1) {
    eject_observers_.push_back(std::move(cb));
    return;
  }
  for (auto& ni : nis_) ni.add_eject_callback(cb);
}

FabricCounters Network::counters() const {
  FabricCounters total;
  for (const CounterShard& s : counter_shards_) {
    total.injected_flits += s.c.injected_flits;
    total.ejected_flits += s.c.ejected_flits;
    total.dropped_flits += s.c.dropped_flits;
    total.queued_packets += s.c.queued_packets;
    total.open_streams += s.c.open_streams;
  }
  return total;
}

std::uint64_t Network::in_network_flits() const {
  const std::uint64_t cached = counters().in_network();
  FLOV_DCHECK(cached == recount_in_network_flits(),
              "cached in-network flit count drifted from recount");
  return cached;
}

bool Network::idle() const {
  const FabricCounters c = counters();
  const bool cached =
      c.in_network() == 0 && c.queued_packets == 0 && c.open_streams == 0;
  FLOV_DCHECK(cached == recount_idle(), "cached idle() drifted from recount");
  return cached;
}

bool Network::in_flight_empty() const {
  const FabricCounters c = counters();
  const bool cached = c.in_network() == 0 && c.open_streams == 0;
  FLOV_DCHECK(cached == recount_in_flight_empty(),
              "cached in_flight_empty() drifted from recount");
  return cached;
}

std::uint64_t Network::total_injected_flits() const {
  return counters().injected_flits;
}

std::uint64_t Network::total_ejected_flits() const {
  return counters().ejected_flits;
}

std::uint64_t Network::total_queued_packets() const {
  return counters().queued_packets;
}

std::uint64_t Network::recount_in_network_flits() const {
  std::uint64_t n = 0;
  for (const Router& r : routers_) {
    n += static_cast<std::uint64_t>(r.buffered_flits());
  }
  for (const auto& ch : flit_channels_) n += ch.in_flight();
  return n;
}

bool Network::recount_idle() const {
  for (const Router& r : routers_) {
    if (!r.completely_empty()) return false;
  }
  for (const NetworkInterface& ni : nis_) {
    if (!ni.idle()) return false;
  }
  for (const auto& ch : flit_channels_) {
    if (!ch.empty()) return false;
  }
  return true;
}

bool Network::recount_in_flight_empty() const {
  for (const Router& r : routers_) {
    if (!r.completely_empty()) return false;
  }
  for (const NetworkInterface& ni : nis_) {
    if (ni.streams_active()) return false;
  }
  for (const auto& ch : flit_channels_) {
    if (!ch.empty()) return false;
  }
  return true;
}

void Network::publish_metrics(telemetry::MetricsRegistry& reg) const {
  const FabricCounters c = counters();
  reg.counter("net.injected_flits") += c.injected_flits;
  reg.counter("net.ejected_flits") += c.ejected_flits;
  reg.counter("net.dropped_flits") += c.dropped_flits;
  std::uint64_t traversed = 0, flown_over = 0, diversions = 0, captures = 0;
  for (const Router& r : routers_) {
    traversed += r.flits_traversed();
    flown_over += r.flits_flown_over();
    diversions += r.escape_diversions();
    captures += r.self_captures();
  }
  reg.counter("net.flits_traversed") += traversed;
  reg.counter("net.flits_flown_over") += flown_over;
  reg.counter("net.escape_diversions") += diversions;
  reg.counter("net.self_captures") += captures;
}

}  // namespace flov
