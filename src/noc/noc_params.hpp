// Network configuration parameters (the paper's Table I defaults).
#pragma once

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/types.hpp"

namespace flov {

struct NocParams {
  int width = 8;
  int height = 8;
  int num_vnets = 1;      ///< 1 for synthetic traffic, 3 for the CMP system
  int vcs_per_vnet = 4;   ///< 3 regular + 1 escape (Table I)
  int escape_vc = 3;      ///< per-vnet index of the escape VC; -1 = none
  int buffer_depth = 6;   ///< flits per VC (Table I)
  int packet_size = 4;    ///< flits per synthetic packet (Table I)
  Cycle link_latency = 1; ///< 1 mm, 1 cycle (Table I)
  Cycle deadlock_timeout = 128;  ///< head-of-line wait before escape VC
  /// Whether blocked packets may divert into the escape sub-network.
  /// Enabled for FLOV (Duato-style recovery); disabled for Baseline/RP,
  /// whose routing functions are inherently deadlock-free.
  bool enable_escape_diversion = true;
  Cycle wakeup_latency = 10;     ///< power-on delay (Table I)
  Cycle drain_idle_threshold = 16;  ///< local-port quiet time before drain
  /// How long a drain may stall before aborting back to Active (the
  /// deadlock-breaking engineering addition documented in PROTOCOL.md §2).
  Cycle drain_abort_timeout = 2048;
  /// Handshake-recovery knobs (PROTOCOL.md §7). A drainer/waker re-sends its
  /// DrainReq/WakeupNotify to partners whose DrainDone is overdue by
  /// `hs_retry_timeout` cycles, at most `hs_retry_limit` times (0 disables).
  Cycle hs_retry_timeout = 64;
  int hs_retry_limit = 8;
  /// A holder re-issues an unanswered WakeupTrigger after this many cycles
  /// (0 = single-shot trigger, the pre-recovery behaviour).
  Cycle trigger_retry_timeout = 128;
  /// Sleeping routers re-broadcast SleepNotify every this many cycles so a
  /// lost notification heals (0 = off; enable when injecting faults).
  Cycle sleep_reannounce_interval = 0;
  /// A stale output_blocked PSR flag is optimistically cleared after this
  /// many cycles without reinforcement (0 = off; enable with faults).
  Cycle psr_block_timeout = 0;
  /// Upper clamp of the packet-latency percentile histogram (1-cycle bins;
  /// latencies at or above this land in the top bin and are counted by the
  /// latency.hist_overflow metric). Raise it for congested / faulty runs
  /// where p99 saturates at the cap.
  Cycle latency_hist_max = 4096;
  /// End-to-end reliable delivery in the NI (PROTOCOL.md §8): per-flow
  /// sequence numbers, a retransmit buffer with capped exponential backoff,
  /// and 1-flit ack control packets. Off by default — the fault-free
  /// schemes need none of it and the knob must not perturb existing runs.
  bool reliable = false;
  /// Base retransmit timeout, measured from the cycle the tail flit left
  /// the source queue. The n-th retry waits timeout << min(n,
  /// retx_backoff_cap) cycles.
  Cycle retx_timeout = 512;
  int retx_backoff_cap = 3;
  /// Retries before a packet is declared dead and surfaced as a structured
  /// incident (rather than hanging the drain loop forever).
  int retx_limit = 4;
  /// Grace period before a pending ack is promoted to a standalone 1-flit
  /// control packet; within it the ack may piggyback on a data head flit
  /// already headed to the same node.
  Cycle ack_delay = 8;
  /// Worker threads for intra-run domain-parallel stepping (1 = serial).
  /// The mesh is split into min(step_threads, height) row bands stepped
  /// under a per-cycle barrier; results are bit-identical to
  /// step_threads=1 by construction (docs/PERFORMANCE.md, "The lookahead
  /// invariant"), so this is a purely volatile knob — run manifests treat
  /// it like `jobs`.
  int step_threads = 1;

  int total_vcs() const { return num_vnets * vcs_per_vnet; }
  int vnet_of_vc(VcId vc) const { return vc / vcs_per_vnet; }
  int vc_in_vnet(VcId vc) const { return vc % vcs_per_vnet; }
  bool is_escape_vc(VcId vc) const {
    return escape_vc >= 0 && vc_in_vnet(vc) == escape_vc;
  }

  /// Overrides the fields of `p` whose noc.* key `cfg` sets.
  static NocParams from_config(const Config& cfg, NocParams p) {
    p.width = static_cast<int>(cfg.get_int("noc.width", p.width));
    p.height = static_cast<int>(cfg.get_int("noc.height", p.height));
    p.num_vnets = static_cast<int>(cfg.get_int("noc.num_vnets", p.num_vnets));
    p.vcs_per_vnet =
        static_cast<int>(cfg.get_int("noc.vcs_per_vnet", p.vcs_per_vnet));
    p.escape_vc = static_cast<int>(cfg.get_int("noc.escape_vc", p.escape_vc));
    p.buffer_depth =
        static_cast<int>(cfg.get_int("noc.buffer_depth", p.buffer_depth));
    p.packet_size =
        static_cast<int>(cfg.get_int("noc.packet_size", p.packet_size));
    p.link_latency = cfg.get_int("noc.link_latency", p.link_latency);
    p.deadlock_timeout =
        cfg.get_int("noc.deadlock_timeout", p.deadlock_timeout);
    p.enable_escape_diversion = cfg.get_bool("noc.enable_escape_diversion",
                                             p.enable_escape_diversion);
    p.wakeup_latency = cfg.get_int("noc.wakeup_latency", p.wakeup_latency);
    p.drain_idle_threshold =
        cfg.get_int("noc.drain_idle_threshold", p.drain_idle_threshold);
    p.drain_abort_timeout =
        cfg.get_int("noc.drain_abort_timeout", p.drain_abort_timeout);
    p.hs_retry_timeout = cfg.get_int("noc.hs_retry_timeout", p.hs_retry_timeout);
    p.hs_retry_limit =
        static_cast<int>(cfg.get_int("noc.hs_retry_limit", p.hs_retry_limit));
    p.trigger_retry_timeout =
        cfg.get_int("noc.trigger_retry_timeout", p.trigger_retry_timeout);
    p.sleep_reannounce_interval = cfg.get_int("noc.sleep_reannounce_interval",
                                              p.sleep_reannounce_interval);
    p.psr_block_timeout =
        cfg.get_int("noc.psr_block_timeout", p.psr_block_timeout);
    p.latency_hist_max =
        cfg.get_int("noc.latency_hist_max", p.latency_hist_max);
    p.reliable = cfg.get_bool("noc.reliable", p.reliable);
    p.retx_timeout = cfg.get_int("noc.retx_timeout", p.retx_timeout);
    p.retx_backoff_cap =
        static_cast<int>(cfg.get_int("noc.retx_backoff_cap", p.retx_backoff_cap));
    p.retx_limit = static_cast<int>(cfg.get_int("noc.retx_limit", p.retx_limit));
    p.ack_delay = cfg.get_int("noc.ack_delay", p.ack_delay);
    p.step_threads =
        static_cast<int>(cfg.get_int("noc.step_threads", p.step_threads));
    p.validate();
    return p;
  }

  void validate() const {
    FLOV_CHECK(width >= 2 && height >= 2, "mesh must be at least 2x2");
    FLOV_CHECK(num_vnets >= 1, "need at least one vnet");
    FLOV_CHECK(vcs_per_vnet >= 1, "need at least one VC per vnet");
    FLOV_CHECK(escape_vc < vcs_per_vnet, "escape VC out of range");
    // Buffer lengths and credits are one-byte cells (noc/hot_state.hpp).
    FLOV_CHECK(buffer_depth >= 1 && buffer_depth <= 127,
               "buffer depth must be in 1..127");
    FLOV_CHECK(packet_size >= 1, "packet size must be positive");
    FLOV_CHECK(latency_hist_max >= 1, "latency histogram cap must be >= 1");
    FLOV_CHECK(step_threads >= 1, "step_threads must be >= 1");
    FLOV_CHECK(retx_timeout >= 1, "retransmit timeout must be >= 1 cycle");
    FLOV_CHECK(retx_backoff_cap >= 0 && retx_backoff_cap < 32,
               "retransmit backoff cap out of range");
    FLOV_CHECK(retx_limit >= 0, "retransmit limit must be >= 0");
  }
};

}  // namespace flov
