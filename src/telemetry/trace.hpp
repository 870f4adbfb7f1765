// Low-overhead event tracer: per-thread ring buffers of typed simulator
// events with a Chrome-trace-event JSON exporter (loads directly in
// Perfetto / chrome://tracing).
//
// Cost model (the zero-overhead rule, see docs/OBSERVABILITY.md):
//   * compiled out (FLYOVER_TRACING=0, the Release default): every
//     FLOV_TRACE site is an empty statement — no code, no data;
//   * compiled in but no tracer installed, or the event's category masked
//     off: one thread-local load + one branch;
//   * enabled: one bounds check + a 32-byte store into a preallocated ring
//     (the ring overwrites its oldest events when full, keeping the most
//     recent window — the useful one when diagnosing how a run ended).
//
// Each sweep-runner thread installs its own Tracer via TraceScope (the
// thread-local current-tracer pointer), so concurrent runs never share a
// buffer and traces are bit-identical to serial execution.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace flov::telemetry {

/// Runtime category mask: an event is recorded iff its category bit is set
/// in the installed tracer's mask.
enum TraceCategory : std::uint32_t {
  kTraceFlit = 1u << 0,       ///< flit lifecycle: gen/inject/VA/SA/ST/latch/eject
  kTraceHandshake = 1u << 1,  ///< HSC episodes: begin/retry/abort/complete
  kTracePower = 1u << 2,      ///< router power-mode transitions
  kTraceEpoch = 1u << 3,      ///< RP fabric-manager reconfiguration epochs
  kTraceRecovery = 1u << 4,   ///< watchdog stalls and recovery attempts
  kTraceFault = 1u << 5,      ///< injected faults (signal/flit fates)
  kTraceVerify = 1u << 6,     ///< invariant-verifier violations
  kTraceAll = (1u << 7) - 1,
};

/// Parses a category-mask spec: "all", "none", a comma-separated category
/// list ("flit,power,handshake"), or a raw number ("0x7f"/"35").
std::uint32_t trace_mask_from_string(const std::string& spec);

enum class TraceEventType : std::uint8_t {
  // kTraceFlit
  kPacketGen = 0,     ///< descriptor entered the source NI queue
  kPacketInject,      ///< head flit left the source queue (stream opened)
  kVcAlloc,           ///< head flit won VC allocation
  kSwitchGrant,       ///< switch allocation granted (head flit at front)
  kSwitchTraversal,   ///< head flit crossed the switch (+link if non-local)
  kFlovLatch,         ///< head flit forwarded by a FLOV bypass latch
  kPacketEject,       ///< tail consumed at the destination NI
  kEscapeDivert,      ///< deadlock timeout diverted the packet to escape VCs
  // kTraceHandshake
  kHsDrainBegin,
  kHsWakeBegin,
  kHsRetry,
  kHsDrainAbort,
  kHsSleepEnter,      ///< drain episode completed -> Sleep
  kHsWakeComplete,    ///< wake episode completed -> Active
  // kTracePower
  kPowerMode,
  // kTraceEpoch
  kEpochBegin,
  kEpochApply,
  kEpochComplete,
  // kTraceRecovery
  kWatchdogStall,
  kRecoveryAttempt,
  // kTraceFault
  kFaultSignalDrop,
  kFaultSignalDelay,
  kFaultSignalDup,
  kFaultFlitDrop,
  kFaultFlitDelay,
  kFaultSpuriousWake,
  kFaultPayloadFlip,
  kFaultPsrFlip,
  // kTraceVerify
  kVerifyViolation,
  kNumTraceEventTypes
};

const char* trace_event_name(TraceEventType t);
TraceCategory trace_event_category(TraceEventType t);
const char* trace_category_name(TraceCategory c);
/// Per-type semantic names for the two payload words (shown in Perfetto).
const char* trace_event_arg0(TraceEventType t);
const char* trace_event_arg1(TraceEventType t);

/// 32-byte POD event record.
struct TraceEvent {
  Cycle cycle = 0;
  std::uint64_t a = 0;  ///< first payload word (meaning depends on type)
  std::uint64_t b = 0;  ///< second payload word
  std::int32_t node = -1;  ///< router/NI id; -1 = system-wide
  TraceEventType type = TraceEventType::kPacketGen;

  bool operator==(const TraceEvent& o) const {
    return cycle == o.cycle && a == o.a && b == o.b && node == o.node &&
           type == o.type;
  }
};

/// Cache-line aligned (64 bytes): per-domain shard tracers are written
/// concurrently by the domain workers (record() bumps head_/size_ and the
/// ring slot every traced event), so two shards' member blocks must never
/// share a line.
class alignas(64) Tracer {
 public:
  explicit Tracer(std::uint32_t mask, std::size_t capacity = 1u << 20);

  std::uint32_t mask() const { return mask_; }
  bool enabled(std::uint32_t category) const { return (mask_ & category) != 0; }

  void record(TraceEventType type, Cycle cycle, std::int32_t node,
              std::uint64_t a, std::uint64_t b) {
    if (size_ < ring_.size()) {
      ring_[(head_ + size_) % ring_.size()] =
          TraceEvent{cycle, a, b, node, type};
      size_++;
    } else {
      ring_[head_] = TraceEvent{cycle, a, b, node, type};
      head_ = (head_ + 1) % ring_.size();
      overwritten_++;
    }
  }

  /// Events in record order (oldest surviving first). When shards exist
  /// (domain-parallel stepping), returns the merge of every shard plus
  /// this ring, stable-sorted by cycle — within a cycle, domain order
  /// first, control-plane (parent-ring) events last, matching the serial
  /// intra-cycle order.
  std::vector<TraceEvent> events() const;
  std::size_t size() const;
  /// Events evicted because a ring wrapped (summed over shards).
  std::uint64_t overwritten() const;

  /// Lazily creates `n` per-domain shard rings (same mask; capacity split
  /// n ways, >= 1024 each) so each domain worker records into its own ring
  /// with zero synchronization. Export merges on demand (events()).
  void ensure_shards(int n);
  Tracer* shard(int i) const { return shards_[static_cast<std::size_t>(i)].get(); }

  /// Chrome-trace-event JSON (object form, {"traceEvents": [...]}).
  /// Handshake episodes additionally emit async begin/end pairs so they
  /// render as spans; every recorded event appears as an instant event.
  std::string chrome_trace_json() const;
  void write_chrome_trace(const std::string& path) const;

  /// Re-parses the instant events of a chrome_trace_json() document back
  /// into TraceEvent records (the round-trip test's other half).
  static std::vector<TraceEvent> parse_chrome_trace(const std::string& json);

 private:
  void append_own(std::vector<TraceEvent>& out) const;

  std::uint32_t mask_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t overwritten_ = 0;
  std::vector<std::unique_ptr<Tracer>> shards_;  ///< per-domain sub-rings
};

/// Thread-local tracer binding. `mask` is 0 whenever no tracer is
/// installed, so the FLOV_TRACE fast path is a single masked branch.
struct ThreadTraceState {
  std::uint32_t mask = 0;
  Tracer* tracer = nullptr;
};
ThreadTraceState& thread_trace_state();

/// RAII installer: binds `t` as the calling thread's tracer for the scope
/// (restores the previous binding on destruction). Pass null for "off".
class TraceScope {
 public:
  explicit TraceScope(Tracer* t);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  ThreadTraceState prev_;
};

}  // namespace flov::telemetry

// Hook-point macro. Compiled to nothing unless the build defines
// FLYOVER_TRACING=1 (CMake option; ON by default except in Release).
#if defined(FLYOVER_TRACING) && FLYOVER_TRACING
#define FLOV_TRACE(category, type, cycle, node, a, b)                     \
  do {                                                                    \
    auto& _flov_tts = ::flov::telemetry::thread_trace_state();            \
    if (_flov_tts.mask & (category)) {                                    \
      _flov_tts.tracer->record((type), (cycle),                           \
                               static_cast<std::int32_t>(node),           \
                               static_cast<std::uint64_t>(a),             \
                               static_cast<std::uint64_t>(b));            \
    }                                                                     \
  } while (0)
#else
#define FLOV_TRACE(category, type, cycle, node, a, b) \
  do {                                                \
  } while (0)
#endif
