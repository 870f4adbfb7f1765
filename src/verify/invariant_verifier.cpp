#include "verify/invariant_verifier.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/log.hpp"
#include "fault/fault_injector.hpp"
#include "flov/flov_network.hpp"
#include "telemetry/json.hpp"
#include "telemetry/structured_sink.hpp"
#include "telemetry/trace.hpp"

namespace flov {

InvariantVerifier::InvariantVerifier(NocSystem& sys, VerifierOptions opts)
    : InvariantVerifier(sys.network(), opts, sys.fault_injector(), &sys) {}

InvariantVerifier::InvariantVerifier(Network& net, VerifierOptions opts,
                                     const FaultInjector* fault)
    : InvariantVerifier(net, opts, fault, nullptr) {}

InvariantVerifier::InvariantVerifier(Network& net, VerifierOptions opts,
                                     const FaultInjector* fault,
                                     NocSystem* sys)
    : net_(net),
      sys_(sys),
      flov_(dynamic_cast<FlovNetwork*>(sys)),
      fault_(fault),
      opts_(opts) {
  FLOV_CHECK(opts_.check_interval >= 1, "verifier interval must be >= 1");
  const int n = net_.num_nodes();
  ejected_.resize(n);
  net_.add_eject_callback(
      [this](const PacketRecord& rec) { observe_eject(rec); });
  if (!flov_) {
    opts_.check_credits = false;  // meaningful only with the FLOV handover
    opts_.check_psr = false;
    return;
  }
  prev_state_.assign(n, PowerState::kActive);
  last_fsm_change_.assign(n, 0);
  psr_fail_streak_.assign(n, {0, 0, 0, 0});
  psr_due_.assign(n, 0);
  activity_ = &net_.claim_channel_activity();
  credits_exact_ = !fault_ || (fault_->params().flit_drop_rate <= 0.0 &&
                               !fault_->params().hard_faults_armed());
}

PowerState InvariantVerifier::state_of(NodeId id) const {
  return flov_->hsc(id).state();
}

void InvariantVerifier::violation(Cycle now, const std::string& what) {
  std::fprintf(stderr, "[verifier] cycle %llu: %s\n",
               static_cast<unsigned long long>(now), what.c_str());
  if (sys_) sys_->dump_state(now);
  if (opts_.sink) {
    // Machine-parseable mirror of the stderr dump: the violated invariant
    // plus the coordinates / datapath mode / protocol state of every router
    // that is not plainly powered (the interesting ones in any power-gating
    // incident).
    telemetry::JsonWriter w;
    w.begin_object();
    w.kv("kind", "verifier_violation");
    w.kv("cycle", static_cast<std::uint64_t>(now));
    w.kv("what", what);
    w.key("gated_routers");
    w.begin_array();
    for (NodeId id = 0; id < net_.num_nodes(); ++id) {
      const RouterMode m = net_.router(id).mode();
      const PowerState ps = flov_ ? state_of(id) : PowerState::kActive;
      if (m == RouterMode::kPipeline && ps == PowerState::kActive) continue;
      const Coord c = net_.geom().coord(id);
      w.begin_object();
      w.kv("router", id);
      w.kv("x", c.x);
      w.kv("y", c.y);
      w.kv("mode", to_string(m));
      if (flov_) w.kv("power_state", to_string(ps));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    opts_.sink->add(w.take());
  }
  FLOV_TRACE(telemetry::kTraceVerify,
             telemetry::TraceEventType::kVerifyViolation, now, -1,
             violations_ + 1, 0);
  last_violation_ = what;
  last_violation_cycle_ = now;
  violations_++;
  FLOV_CHECK(!opts_.fatal, "invariant violation: " + what);
}

void InvariantVerifier::observe_eject(const PacketRecord& rec) {
  const std::uint64_t n = ejected_.size();
  std::vector<std::uint8_t>& seen = ejected_[rec.packet_id % n];
  const std::size_t slot = rec.packet_id / n;
  if (slot >= seen.size()) seen.resize(slot + 1);
  std::uint64_t times = 1;
  if (seen[slot]) {
    times = ++eject_repeats_.try_emplace(rec.packet_id, 1).first->second;
  } else {
    seen[slot] = 1;
  }
  if (times > 1) {
    std::ostringstream os;
    os << "packet " << rec.packet_id << " (src=" << rec.src
       << " dest=" << rec.dest << ") ejected " << times << " times";
    violation(rec.eject_cycle, os.str());
  }
}

void InvariantVerifier::track_fsm_changes(Cycle now) {
  // A state can only have changed where a PSR stamp landed since the
  // previous call; everywhere else the old sample still holds.
  const std::vector<Cycle>& stamps = flov_->psr_stamps();
  const bool any = flov_->psr_latest() >= last_step_;
  for (NodeId id = 0; any && id < net_.num_nodes(); ++id) {
    if (stamps[id] < last_step_) continue;
    const PowerState s = state_of(id);
    if (s != prev_state_[id]) {
      prev_state_[id] = s;
      last_fsm_change_[id] = now;
    }
  }
  last_step_ = now;
}

void InvariantVerifier::step(Cycle now) {
  if (flov_) track_fsm_changes(now);
  if (now % opts_.check_interval != 0) return;
  run_checks(now, /*full=*/false);
}

void InvariantVerifier::final_check(Cycle now) {
  run_checks(now, /*full=*/true);
}

void InvariantVerifier::run_checks(Cycle now, bool full) {
  checks_run_++;
  findings_.clear();
#ifndef NDEBUG
  const Streaks streaks_before = psr_fail_streak_;
#endif
  // A control-plane touch (handover, mode switch, hard fault) may have
  // changed any router behind the channels and the segment topology with
  // it: those cycles — rare outside gating transitions — re-read
  // everything.
  const bool all = full || net_.control_epoch() != seen_epoch_;
  seen_epoch_ = net_.control_epoch();
  // Flit conservation is a full recount every check (docs/PERFORMANCE.md
  // §6).
  if (opts_.check_conservation) {
    eval_conservation(count_flits(), findings_);
    if (net_.params().reliable) check_delivery(findings_);
  }

  if (opts_.check_credits) {
    update_segments(all);
    // Due segments in ascending index order, as the full pass visits them;
    // one that holds leaves the set.
    for (std::size_t w = 0; w < segment_due_.size(); ++w) {
      for (std::uint64_t due = segment_due_[w]; due != 0; due &= due - 1) {
        const int bit = std::countr_zero(due);
        if (eval_segment(segments_[w * 64 + bit], hops_, findings_)) {
          segment_due_[w] &= ~(std::uint64_t{1} << bit);
        }
      }
    }
  }

  // Inclusive: the watchdog's recovery refreshes views after the check of
  // the cycle it stamps.
  const bool psr_stamped = flov_ && flov_->psr_latest() >= last_check_;
  if (opts_.check_psr && (full || psr_stamped || now >= psr_next_due_)) {
    const int n = net_.num_nodes();
    if (!full && psr_stamped) {
      const std::vector<Cycle>& stamps = flov_->psr_stamps();
      for (NodeId id = 0; id < n; ++id) {
        if (stamps[id] >= last_check_) mark_psr_readers(id);
      }
    }
    psr_next_due_ = kNeverCycle;
    for (NodeId id = 0; id < n; ++id) {
      if (full || psr_due_[id] <= now) {
        psr_due_[id] = eval_psr(id, now, psr_fail_streak_, findings_);
      }
      psr_next_due_ = std::min(psr_next_due_, psr_due_[id]);
    }
  }

#ifndef NDEBUG
  if (!full) oracle_check(now, streaks_before);
#endif
  last_check_ = now;
  for (const std::string& what : findings_) violation(now, what);
}

void InvariantVerifier::oracle_check(Cycle now, Streaks streaks) {
  Findings expected;
  if (opts_.check_conservation) {
    eval_conservation(count_flits(), expected);
    if (net_.params().reliable) check_delivery(expected);
  }
  if (opts_.check_credits) {
    std::vector<Segment> segments;
    std::vector<Hop> hops;
    build_segments(segments, hops);
    for (const Segment& s : segments) eval_segment(s, hops, expected);
  }
  if (opts_.check_psr) {
    for (NodeId id = 0; id < net_.num_nodes(); ++id) {
      eval_psr(id, now, streaks, expected);
    }
  }
  FLOV_DCHECK(expected == findings_ && streaks == psr_fail_streak_,
              "incremental invariant check diverged from the full pass at "
              "cycle " + std::to_string(now) + ": full pass finds " +
                  std::to_string(expected.size()) +
                  " violation(s), incremental " +
                  std::to_string(findings_.size()) +
                  (expected.empty() ? std::string()
                                    : " (first: " + expected.front() + ")") +
                  " — a state change no channel flag, control epoch or PSR "
                  "stamp announced");
}

// --- flit conservation -----------------------------------------------------

InvariantVerifier::FlitSums InvariantVerifier::count_flits() const {
  // Ground truth only: the per-NI counters and every buffer, latch and
  // flit channel's own length, summed over the packed arrays. The
  // network's O(1) cached aggregates must NOT be used here — a cache that
  // drifted would make the equation tautologically true (the cache IS
  // injected - ejected - dropped).
  FlitSums s;
  s.injected = net_.recount_injected_flits();
  s.ejected = net_.recount_ejected_flits();
  s.inside = net_.recount_in_network_flits();
  return s;
}

void InvariantVerifier::eval_conservation(const FlitSums& sums,
                                          Findings& out) const {
  const std::uint64_t dropped = fault_ ? fault_->dropped_flits() : 0;
  if (sums.injected != sums.ejected + sums.inside + dropped) {
    std::ostringstream os;
    os << "flit conservation broken: injected=" << sums.injected
       << " ejected=" << sums.ejected << " in_network=" << sums.inside
       << " fault_dropped=" << dropped;
    out.push_back(os.str());
    return;  // a cache-drift report would just restate the same loss
  }
  // Conservation holds on ground truth; now hold the cached aggregates the
  // active-set scheduler runs on to the same standard.
  const FabricCounters c = net_.counters();
  if (c.injected_flits != sums.injected || c.ejected_flits != sums.ejected ||
      c.dropped_flits != dropped || c.in_network() != sums.inside) {
    std::ostringstream os;
    os << "cached fabric counters drifted: cached injected="
       << c.injected_flits << "/" << sums.injected << " ejected="
       << c.ejected_flits << "/" << sums.ejected << " dropped="
       << c.dropped_flits << "/" << dropped << " in_network="
       << c.in_network() << "/" << sums.inside;
    out.push_back(os.str());
    return;
  }
  FLOV_DCHECK(net_.caches_match_packed_sums(),
              "a router's resident-flit cache drifted from its packed "
              "buffer lengths and latch bits");
}

void InvariantVerifier::check_delivery(Findings& out) const {
  // Always a full pass: NI retransmit timers declare flows dead without
  // any channel operation, and the walk is cheap.
  for (NodeId id = 0; id < net_.num_nodes(); ++id) {
    const auto& ni = net_.ni(id);
    const std::uint64_t alloc = ni.seq_allocated();
    const std::uint64_t acked = ni.packets_acked();
    const std::uint64_t dead = ni.packets_dead();
    const std::uint64_t outstanding = ni.tx_outstanding();
    if (alloc != acked + dead + outstanding) {
      std::ostringstream os;
      os << "reliable-delivery accounting broken at NI " << id
         << ": seq_allocated=" << alloc << " acked=" << acked
         << " declared_dead=" << dead << " outstanding=" << outstanding;
      out.push_back(os.str());
    }
  }
}

// --- credit conservation ---------------------------------------------------

void InvariantVerifier::build_segments(std::vector<Segment>& segments,
                                       std::vector<Hop>& hops) const {
  const MeshGeometry& g = net_.geom();
  segments.clear();
  hops.clear();
  for (NodeId u = 0; u < net_.num_nodes(); ++u) {
    if (net_.router(u).mode() != RouterMode::kPipeline) continue;
    for (Direction d : kMeshDirections) {
      // Nearest powered (pipeline-datapath) router: the one whose input
      // buffer u's output credits track across the sleeping run.
      NodeId c = g.neighbor(u, d);
      while (c != kInvalidNode &&
             net_.router(c).mode() != RouterMode::kPipeline) {
        c = g.neighbor(c, d);
      }
      if (c == kInvalidNode) continue;
      const int first = static_cast<int>(hops.size());
      for (NodeId r = u; r != c; r = g.neighbor(r, d)) {
        const Channel<Flit>* flit = net_.flit_channel(r, d);
        const Channel<Credit>* credit = net_.router(r).credit_in(d);
        hops.push_back(Hop{flit, credit, net_.channel_index(*flit),
                           net_.channel_index(*credit),
                           r == u ? kInvalidNode : r});
      }
      const MeshHotState& hot = net_.hot_state();
      segments.push_back(Segment{u, d, c, first,
                                 static_cast<int>(hops.size()),
                                 hot.vc_slot(u, dir_index(d)),
                                 hot.vc_slot(c, dir_index(opposite(d)))});
    }
  }
}

void InvariantVerifier::update_segments(bool all) {
  std::vector<std::uint8_t>& flags = *activity_;
  const std::size_t count = flags.size();
  if (all) {
    build_segments(segments_, hops_);
    const int n = static_cast<int>(segments_.size());
    channel_segment_.assign(count, n);
    for (int i = 0; i < n; ++i) {
      const Segment& s = segments_[i];
      for (int h = s.first_hop; h < s.end_hop; ++h) {
        channel_segment_[hops_[h].flit_index] = i;
        channel_segment_[hops_[h].credit_index] = i;
      }
    }
    // One bit per segment plus the sink's, which stays clear.
    segment_due_.assign(static_cast<std::size_t>(n) / 64 + 1, 0);
    for (int i = 0; i < n; ++i) {
      segment_due_[i / 64] |= std::uint64_t{1} << (i % 64);
    }
    std::fill(flags.begin(), flags.end(), 0);
    return;
  }
  // The fixed cost every check pays, without a data-dependent branch until
  // the flagged channels themselves: each word of eight 0/1 flags packs
  // into eight bits of a fresh-channel bitmap (byte b's flag to bit b), the
  // flags are cleared wholesale, and only the set bits are visited.
  // Channels outside every segment mark the sink bit, cleared after.
  static_assert(std::endian::native == std::endian::little,
                "flag b of a word is byte b assumes little-endian words");
  constexpr std::uint64_t kPackLowBits = 0x0102040810204080ull;
  fresh_.assign((count + 63) / 64, 0);
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, &flags[i], sizeof word);
    fresh_[i / 64] |= ((word * kPackLowBits) >> 56) << (i % 64);
  }
  for (; i < count; ++i) {
    fresh_[i / 64] |= std::uint64_t{flags[i]} << (i % 64);
  }
  std::fill(flags.begin(), flags.end(), 0);
  for (std::size_t w = 0; w < fresh_.size(); ++w) {
    for (std::uint64_t bits = fresh_[w]; bits != 0; bits &= bits - 1) {
      const int seg = channel_segment_[w * 64 + std::countr_zero(bits)];
      segment_due_[seg / 64] |= std::uint64_t{1} << (seg % 64);
    }
  }
  const std::size_t sink = segments_.size();
  segment_due_[sink / 64] &= ~(std::uint64_t{1} << (sink % 64));
}

bool InvariantVerifier::eval_segment(const Segment& s,
                                     const std::vector<Hop>& hops,
                                     Findings& out) {
  // Inputs: u's output credits toward d, the segment's flit channels,
  // credit back-channels and latches, and c's input buffers — each changes
  // only with an operation on one of the segment's channels. All but the
  // per-VC contents of a non-empty wire or a full latch are packed cells:
  // a quiet hop costs two length loads and a latch bit.
  const NocParams& p = net_.params();
  const MeshHotState& hot = net_.hot_state();
  const int nvc = p.total_vcs();
  const int di = dir_index(s.d);
  const std::uint8_t latch_bit = static_cast<std::uint8_t>(1u << di);
  int* flits = flits_scratch_.data();
  int* credits_back = credits_scratch_.data();
  std::fill_n(flits, nvc, 0);
  std::fill_n(credits_back, nvc, 0);
  for (int h = s.first_hop; h < s.end_hop; ++h) {
    const Hop& hop = hops[h];
    if (hot.ch_len[hop.flit_index] != 0) {
      hop.flit->for_each_in_flight([&](const Flit& f) { flits[f.vc]++; });
    }
    if (hot.ch_len[hop.credit_index] != 0) {
      hop.credit->for_each_in_flight(
          [&](const Credit& cr) { credits_back[cr.vc]++; });
    }
    if (hop.latch_node != kInvalidNode &&
        (hot.latch_full[hop.latch_node] & latch_bit) != 0) {
      const std::size_t l =
          static_cast<std::size_t>(hop.latch_node) * kNumMeshDirs + di;
      flits[hot.latch[l].flit.vc]++;
    }
  }
  const VcLength* in_len = &hot.in_len[s.occupied];
  const CreditCount* out_credits = &hot.out_credits[s.credits];
  bool holds = true;
  for (int v = 0; v < nvc; ++v) {
    const int occupied = in_len[v];
    const int credits = out_credits[v];
    const int sum = credits + flits[v] + credits_back[v] + occupied;
    const bool bad =
        credits_exact_ ? sum != p.buffer_depth : sum > p.buffer_depth;
    if (bad || credits < 0) {
      std::ostringstream os;
      os << "credit conservation broken on segment " << s.u << " -> " << s.c
         << " dir=" << to_string(s.d) << " vc=" << v
         << ": credits=" << credits << " flits_in_flight=" << flits[v]
         << " credits_in_flight=" << credits_back[v]
         << " occupied=" << occupied << " (depth=" << p.buffer_depth << ", "
         << (credits_exact_ ? "exact" : "bound") << ")";
      out.push_back(os.str());
      holds = false;
    }
  }
  return holds;
}

// --- PSR coherence ---------------------------------------------------------

Cycle InvariantVerifier::settled_at(NodeId from, Direction d,
                                    NodeId to) const {
  const MeshGeometry& g = net_.geom();
  Cycle at = opts_.settle_window;
  for (NodeId cur = from; cur != kInvalidNode; cur = g.neighbor(cur, d)) {
    at = std::max(at, last_fsm_change_[cur] + opts_.settle_window);
    if (cur == to) break;
  }
  return at;
}

void InvariantVerifier::mark_psr_readers(NodeId x) {
  // eval_psr(y) reads the states along each of y's directions up to and
  // including the first non-sleeping router, plus y's East/South neighbors
  // (rFLOV adjacency). So x's readers are x itself and, walking out of x
  // each way, every router up to and including the first non-sleeping one.
  const MeshGeometry& g = net_.geom();
  psr_due_[x] = 0;
  for (Direction d : kMeshDirections) {
    for (NodeId y = g.neighbor(x, d); y != kInvalidNode; y = g.neighbor(y, d)) {
      psr_due_[y] = 0;
      if (state_of(y) != PowerState::kSleep) break;
    }
  }
}

Cycle InvariantVerifier::eval_psr(NodeId id, Cycle now, Streaks& streaks,
                                  Findings& out) const {
  const MeshGeometry& g = net_.geom();
  const bool restricted = flov_->mode() == FlovMode::kRestricted;
  const PowerState s = state_of(id);
  Cycle due = kNeverCycle;

  // rFLOV adjacency: two physically adjacent gated routers can never
  // legitimately coexist, transients included (drain entry requires all
  // neighbors Active and arbitration serializes), so check instantly.
  if (restricted && (s == PowerState::kSleep || s == PowerState::kWakeup) &&
      !flov_->router_dead(id)) {
    for (Direction d : {Direction::East, Direction::South}) {
      const NodeId m = g.neighbor(id, d);
      if (m == kInvalidNode) continue;
      // Hard faults do not respect the adjacency rule: two neighbors can
      // die together, and a dead router sleeps forever regardless of who
      // is next to it.
      if (flov_->router_dead(m)) continue;
      const PowerState ms = state_of(m);
      if (ms == PowerState::kSleep || ms == PowerState::kWakeup) {
        std::ostringstream os;
        os << "rFLOV adjacency broken: routers " << id << " ("
           << to_string(s) << ") and " << m << " (" << to_string(ms)
           << ") are both gated";
        out.push_back(os.str());
        due = now + 1;
      }
    }
  }

  // Logical-pointer coherence (powered routers' views only; a gated
  // router's view is refreshed on wakeup).
  if (s != PowerState::kActive && s != PowerState::kDraining) return due;
  const NeighborhoodView& v = net_.router(id).view();
  for (Direction d : kMeshDirections) {
    const int di = dir_index(d);
    NodeId expected = g.neighbor(id, d);
    while (expected != kInvalidNode &&
           state_of(expected) == PowerState::kSleep) {
      expected = g.neighbor(expected, d);
    }
    const Cycle settle = settled_at(id, d, expected);
    if (now < settle) {
      streaks[id][di] = 0;
      due = std::min(due, settle);
      continue;
    }
    if (v.logical[di] != expected) {
      // Two consecutive failing samples: a heal (retry / re-announce)
      // may be mid-flight on the first.
      if (++streaks[id][di] >= 2) {
        std::ostringstream os;
        os << "stale logical PSR at router " << id << " dir="
           << to_string(d) << ": points at " << v.logical[di]
           << ", true nearest powered router is " << expected;
        out.push_back(os.str());
        streaks[id][di] = 0;
      }
      due = now + 1;
      continue;
    }
    streaks[id][di] = 0;

    // gFLOV forbidden logical pairs, flagged only when persistent: both
    // FSMs stable a full settle window (the settled neighborhood includes
    // both ends) yet still paired means the arbitration/priority signals
    // were lost beyond recovery.
    if (!restricted && s == PowerState::kDraining &&
        expected != kInvalidNode && !flov_->router_dead(id) &&
        !flov_->router_dead(expected)) {
      const PowerState es = state_of(expected);
      if (es == PowerState::kDraining || es == PowerState::kWakeup) {
        std::ostringstream os;
        os << "gFLOV forbidden pair stuck: router " << id
           << " Draining with logical neighbor " << expected << " "
           << to_string(es) << " dir=" << to_string(d);
        out.push_back(os.str());
        due = now + 1;
      }
    }
  }
  return due;
}

}  // namespace flov
