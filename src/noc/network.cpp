#include "noc/network.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>
#include <utility>

#include "common/log.hpp"
#include "telemetry/metrics.hpp"

namespace flov {

namespace {

/// Sum of `n` byte cells, eight per 64-bit word: each word folds into four
/// 16-bit lanes (two bytes each), and a batch of 128 words keeps every lane
/// below 2^16 before the lanes are folded into the total.
std::uint64_t sum_bytes(const std::uint8_t* p, std::size_t n) {
  constexpr std::uint64_t kBytes = 0x00FF00FF00FF00FFull;
  constexpr std::uint64_t kHalves = 0x0000FFFF0000FFFFull;
  std::uint64_t total = 0;
  std::size_t i = 0;
  const std::size_t words_end = n - n % 8;
  while (i < words_end) {
    std::uint64_t lanes = 0;
    const std::size_t batch_end = std::min(words_end, i + 8 * 128);
    for (; i < batch_end; i += 8) {
      std::uint64_t w;
      std::memcpy(&w, p + i, sizeof w);
      lanes += (w & kBytes) + ((w >> 8) & kBytes);
    }
    lanes = (lanes & kHalves) + ((lanes >> 16) & kHalves);
    total += (lanes & 0xFFFFFFFFull) + (lanes >> 32);
  }
  for (; i < n; ++i) total += p[i];
  return total;
}

/// Set bits in `n` bytes, one popcount per eight bytes.
std::uint64_t count_bits(const std::uint8_t* p, std::size_t n) {
  std::uint64_t total = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, sizeof w);
    total += static_cast<std::uint64_t>(std::popcount(w));
  }
  for (; i < n; ++i) total += static_cast<std::uint64_t>(std::popcount(p[i]));
  return total;
}

}  // namespace

Network::Network(const NocParams& params, RoutingFunction* routing,
                 PowerTracker* power)
    : params_(params), geom_(params.width, params.height) {
  params_.validate();
  const int n = geom_.num_nodes();

  // Row-band domain decomposition: band d covers rows
  // [d*H/D, (d+1)*H/D), so only N/S links cross a split and each band is
  // one contiguous id range. Sized FIRST: the NIs below capture pointers
  // into counter_shards_, and nothing here may move afterwards.
  num_domains_ = std::min(params_.step_threads, params_.height);
  node_domain_.resize(static_cast<std::size_t>(n));
  domain_begin_.resize(static_cast<std::size_t>(num_domains_) + 1);
  counter_shards_.resize(static_cast<std::size_t>(num_domains_));
  for (int d = 0; d < num_domains_; ++d) {
    domain_begin_[d + 1] =
        (d + 1) * params_.height / num_domains_ * params_.width;
    std::fill(node_domain_.begin() + domain_begin_[d],
              node_domain_.begin() + domain_begin_[d + 1], d);
  }
  if (num_domains_ > 1) {
    wake_stages_.resize(static_cast<std::size_t>(num_domains_));
    for (auto& s : wake_stages_) s.init(n, /*live=*/false);
    merge_lists_.resize(static_cast<std::size_t>(num_domains_));
    eject_stage_.resize(static_cast<std::size_t>(num_domains_));
  }

  // Channels, routers and NIs live by value in exact-reserved vectors:
  // everything downstream holds raw pointers into them, so compute the
  // final counts up front and FLOV_CHECK them after wiring.
  const std::size_t edges = 2 * static_cast<std::size_t>(
      (params_.width - 1) * params_.height +
      (params_.height - 1) * params_.width);
  const std::size_t flit_cap = edges + 2 * static_cast<std::size_t>(n);
  const std::size_t credit_cap = edges + 2 * static_cast<std::size_t>(n);

  // The SoA slab every router/NI/channel binds into — sized once, never
  // resized.
  hot_.init(n, params_.total_vcs(), params_.buffer_depth,
            static_cast<int>(flit_cap + credit_cap));

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
    const std::size_t index = flit_channels_.size();
    flit_channels_.emplace_back(latency, &hot_.ch_len[index]);
    flit_channels_.back().set_activity_flag(&channel_activity_[index]);
    return &flit_channels_.back();
  };
  auto new_credit_channel = [&](Cycle latency) {
    FLOV_CHECK(credit_channels_.size() < credit_cap,
               "credit channel over-reserve");
    const std::size_t index = flit_cap + credit_channels_.size();
    credit_channels_.emplace_back(latency, &hot_.ch_len[index]);
    credit_channels_.back().set_activity_flag(&channel_activity_[index]);
    return &credit_channels_.back();
  };

  // Inter-router links: one flit channel and one credit back-channel per
  // directed edge. Every channel wakes its RECEIVER on send — the sender is
  // already live (it just stepped), and the receiver must not stay parked
  // while something is in flight toward it. Edges whose endpoints lie in
  // different domains (N/S links across a band split) are put into staging
  // mode: sends collect sender-side and the wake mark goes to the sender's
  // domain stage, both merged at the barrier.
  std::vector<std::size_t> boundary_ends(merge_lists_.size(), 0);
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
        const int da = node_domain_[a];
        const int db = node_domain_[b];
        fch->set_staging(&merge_lists_[da].flit, &merge_lists_[db].flit);
        fch->set_wake_target(&wake_stages_[da], b);
        cch->set_staging(&merge_lists_[db].credit, &merge_lists_[da].credit);
        cch->set_wake_target(&wake_stages_[db], a);
        ++boundary_ends[da];
        ++boundary_ends[db];
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
  // A channel lists itself at most once per end between merges, and each
  // boundary link has one flit and one credit channel.
  for (std::size_t d = 0; d < merge_lists_.size(); ++d) {
    merge_lists_[d].flit.reserve(boundary_ends[d]);
    merge_lists_[d].credit.reserve(boundary_ends[d]);
  }

  if (num_domains_ > 1) {
    // With >1 domain the NIs report ejections into per-domain stages; the
    // barrier replays them in node-id order through the stored callback +
    // observers (see set_eject_callback).
    for (NodeId id = 0; id < n; ++id) {
      const int dom = node_domain_[id];
      nis_[id].set_eject_callback([this, dom](const PacketRecord& rec) {
        eject_stage_[dom].push_back(rec);
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
  // Node-id order within the domain, same as stepping everything serially:
  // the only cross-router ordering observable within a cycle is via shared
  // callbacks (e.g. the wakeup-trigger dedup, which the FLOV layer stages
  // and replays in id order), and skipping a quiescent router is
  // equivalent to stepping it (its step would be a pure no-op; its VA
  // round-robin tick is replayed when it next runs — Router::step).
  // for_each_live reads only this domain's flag bytes, so the scan never
  // races another worker's writes to its own band.
  const NodeId begin = domain_begin_[dom];
  const NodeId end = domain_begin_[dom + 1];
  router_live_.for_each_live(begin, end, [&](NodeId id) {
    Router& r = routers_[id];
    r.step(now);
    // A quiescent router stays parked until a send/mode-switch re-arms it.
    // Note this runs AFTER the step: anything the step produced went out
    // through channels (marking the receivers), so clearing here is safe.
    // Cross-domain arrivals the router cannot see yet (staged) re-mark it
    // via the wake-stage merge at the barrier.
    if (r.quiescent()) router_live_.clear(id);
  });
  FLOV_PROFILE(kNi);  // covers the NI loop (the remainder of this domain)
  ni_live_.for_each_live(begin, end, [&](NodeId id) {
    NetworkInterface& ni = nis_[id];
    ni.step(now);
    if (ni.quiescent()) ni_live_.clear(id);
  });
}

void Network::merge_domains() {
  // Channel merges touch only their own channel (and OR idempotent flag
  // bits), so the list order is free; the ejection replay below is a
  // deterministic fold in node-id order. Nothing depends on worker timing.
  for (MergeLists& lists : merge_lists_) {
    for (Channel<Flit>* ch : lists.flit) ch->merge_staged();
    lists.flit.clear();
    for (Channel<Credit>* ch : lists.credit) ch->merge_staged();
    lists.credit.clear();
  }
#ifndef NDEBUG
  for (const auto& ch : flit_channels_) {
    FLOV_DCHECK(!ch.merge_pending(),
                "boundary channel left unmerged: flit channel " +
                    std::to_string(channel_index(ch)));
  }
  for (const auto& ch : credit_channels_) {
    FLOV_DCHECK(!ch.merge_pending(),
                "boundary channel left unmerged: credit channel " +
                    std::to_string(channel_index(ch)));
  }
#endif
  for (auto& stage : wake_stages_) stage.drain_into(router_live_);
  // Ejection replay: each stage is ascending by node id (stepping order)
  // and the bands ascend in id, so concatenating the stages in domain order
  // reproduces exactly the serial callback order.
  for (auto& stage : eject_stage_) {
    for (const PacketRecord& rec : stage) {
      if (user_eject_cb_) user_eject_cb_(rec);
      for (const auto& cb : eject_observers_) cb(rec);
    }
    stage.clear();
  }
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

// The three recounts are flat sums over the packed arrays (the components'
// own length cells and counters), a few KB at 8x8.
std::uint64_t Network::recount_in_network_flits() const {
  static_assert(sizeof(VcLength) == 1, "sum_bytes sums byte cells");
  std::uint64_t n = sum_bytes(hot_.in_len.data(), hot_.in_len.size()) +
                    count_bits(hot_.latch_full.data(), hot_.latch_full.size());
  const ChannelLength* flit_len = hot_.ch_len.data();
  for (std::size_t i = 0; i < flit_channels_.size(); ++i) n += flit_len[i];
  return n;
}

std::uint64_t Network::recount_injected_flits() const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : hot_.ni_injected) n += c;
  return n;
}

std::uint64_t Network::recount_ejected_flits() const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : hot_.ni_ejected) n += c;
  return n;
}

bool Network::caches_match_packed_sums() const {
  for (const Router& r : routers_) {
    if (!r.resident_matches_recount()) return false;
  }
  const FabricCounters c = counters();
  return c.injected_flits == recount_injected_flits() &&
         c.ejected_flits == recount_ejected_flits() &&
         c.in_network() == recount_in_network_flits();
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
