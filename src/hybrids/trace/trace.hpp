// Sampled operation tracing with per-phase latency attribution.
//
// Telemetry (telemetry/) answers "how much, in aggregate"; this layer
// answers "where inside one operation the time went". A configurable 1-in-N
// sample of operations is traced end to end across the offload lifecycle:
//
//   host thread                      combiner / NMP partition
//   -----------                      ------------------------
//   kOp ──────────────────────────────────────────────────────┐ (whole op)
//     kHostDescend  host-portion traversal                    │
//     kPublish      writing the publication slot + kPending   │
//                   kQueueWait  kPending -> combiner pickup   │
//                   kBatchSort  key-sorting a combiner batch  │
//                   kApply      partition handler execution   │
//                   kReply      response write + kDone + wake │
//     kWake         kDone -> host resumes                     │
//     kScanChunk    one stitched kScan chunk (wraps the above)│
//     kRetry        instant: host re-posted after a retry ────┘
//
// Recording is a push into a per-thread fixed-capacity ring buffer (one
// plain Event store + a release tail bump; no locks, no allocation). Rings
// overwrite oldest on overflow and count what they dropped. Sampling is
// deterministic given (--trace-sample N, seed, thread ordinal), so repeated
// runs trace the same operations. Cross-thread attribution rides the
// publication protocol itself: the sampled op's id travels in
// `Request::trace_id`, and the combiner's completion timestamp travels back
// in `PubSlot::done_ns` / `SimSlot::done_at` (plain stores sequenced before
// the kDone release store, like every other slot field).
//
// The whole layer compiles out under HYBRIDS_NO_TELEMETRY (it depends on
// telemetry's clock and thread ordinals): every function below becomes an
// empty inline and instrumented call sites dead-code behind `tok.sampled()`
// / `trace_id == 0` checks. With tracing compiled in but the sample rate at
// 0 (the default), begin_op() is a single relaxed atomic load.
//
// Export: trace/export.hpp turns a drained trace into Chrome trace-event
// JSON (chrome://tracing, https://ui.perfetto.dev) and a per-phase latency
// breakdown table. See docs/TRACING.md.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hybrids/telemetry/counters.hpp"

namespace hybrids::trace {

#if defined(HYBRIDS_NO_TELEMETRY)
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

/// Lifecycle phases of one (possibly offloaded) operation. kOp is the
/// enclosing span; every other span phase nests inside it. kRetry,
/// kFailover, and kCacheLookup are instant markers, not spans (kFailover:
/// the op was bounced off a fenced partition and will re-route through the
/// retry machinery; kCacheLookup: the op hit the host-side hot-key cache —
/// a value hit ends the op right there, a shortcut hit skips the host
/// descent). Keep phase_name() in sync.
enum class Phase : std::uint8_t {
  kOp = 0,
  kHostDescend,
  kPublish,
  kQueueWait,
  kBatchSort,
  kApply,
  kReply,
  kWake,
  kScanChunk,
  kRetry,
  kFailover,
  kCacheLookup,
};
inline constexpr int kPhaseCount = static_cast<int>(Phase::kCacheLookup) + 1;

inline const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kOp: return "op";
    case Phase::kHostDescend: return "host_descend";
    case Phase::kPublish: return "publish";
    case Phase::kQueueWait: return "queue_wait";
    case Phase::kBatchSort: return "batch_sort";
    case Phase::kApply: return "apply";
    case Phase::kReply: return "reply";
    case Phase::kWake: return "wake";
    case Phase::kScanChunk: return "scan_chunk";
    case Phase::kRetry: return "retry";
    case Phase::kFailover: return "failover";
    case Phase::kCacheLookup: return "cache_lookup";
  }
  return "?";
}

/// Event flags.
inline constexpr std::uint8_t kFlagInstant = 0x1;    // point event, dur_ns = 0
inline constexpr std::uint8_t kFlagOffloaded = 0x2;  // on kOp: op left the host

/// One trace record. Timestamps are nanoseconds: wall-clock
/// (telemetry::now_ns) on the real runtime, simulated time
/// (time_base() + ticks_to_ns) under the cycle simulator.
struct Event {
  std::uint64_t op_id = 0;     // sampled-operation id (begin_op), never 0
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;    // 0 for instants
  std::uint32_t track = 0;     // display track (host thread / combiner)
  std::int16_t partition = -1; // NMP partition, -1 when host-only/unknown
  Phase phase = Phase::kOp;
  std::uint8_t op = 0;         // nmp::OpCode when known
  std::uint8_t flags = 0;
};

/// Display track for a partition's combiner lane (host threads use their
/// telemetry ordinal, which stays far below this).
inline constexpr std::uint32_t kCombinerTrackBase = 1000;
/// record_* track argument meaning "the calling thread's own track".
inline constexpr std::uint32_t kTrackSelf = 0xFFFFFFFFu;

/// Deterministic 1-in-N sampler. The first fire happens after a
/// seed/stream-dependent offset (splitmix64 of seed ^ stream, mod N) so
/// threads don't sample in lockstep; afterwards every N-th call fires.
/// Always compiled (standalone-testable) — only the global recording API
/// below is subject to the compile-out.
class Sampler {
 public:
  Sampler() = default;
  Sampler(std::uint64_t seed, std::uint64_t stream, std::uint32_t every) {
    reseed(seed, stream);
    set_every(every);
  }

  void reseed(std::uint64_t seed, std::uint64_t stream) {
    state_ = mix(seed ^ (stream + 1) * 0x9E3779B97F4A7C15ull);
  }

  /// n == 0 disables the sampler (fire() always false).
  void set_every(std::uint32_t n) {
    every_ = n;
    state_ = mix(state_);
    skip_ = n ? state_ % n : 0;
  }
  std::uint32_t every() const { return every_; }

  /// True on the ops to trace: deterministic for a given (seed, stream,
  /// every) across runs.
  bool fire() {
    if (every_ == 0) return false;
    if (skip_ > 0) {
      --skip_;
      return false;
    }
    skip_ = every_ - 1;
    return true;
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  std::uint64_t state_ = 0;
  std::uint64_t skip_ = 0;
  std::uint32_t every_ = 0;
};

/// Fixed-capacity single-writer ring that overwrites oldest on overflow
/// (late events — notably the enclosing kOp spans, recorded at op end —
/// survive; what was overwritten is counted as dropped). The owning thread
/// pushes; snapshot()/clear() are for quiescent readers (after joins).
/// Always compiled, like Sampler.
class Ring {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 14;  // events/thread

  explicit Ring(std::size_t capacity = kDefaultCapacity)
      : buf_(capacity ? capacity : 1) {}

  void push(const Event& e) {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    buf_[static_cast<std::size_t>(t % buf_.size())] = e;
    // Release so a quiescent drainer that acquires the tail sees the slot
    // contents written above.
    tail_.store(t + 1, std::memory_order_release);
  }

  std::uint64_t pushed() const {
    return tail_.load(std::memory_order_acquire);
  }
  std::size_t capacity() const { return buf_.size(); }
  std::size_t size() const {
    const std::uint64_t t = pushed();
    return t < buf_.size() ? static_cast<std::size_t>(t) : buf_.size();
  }
  std::uint64_t dropped() const {
    const std::uint64_t t = pushed();
    return t > buf_.size() ? t - buf_.size() : 0;
  }

  /// Oldest-first copy of the retained events. Quiescent-only.
  std::vector<Event> snapshot() const {
    const std::uint64_t t = pushed();
    const std::size_t n = size();
    std::vector<Event> out;
    out.reserve(n);
    // Oldest retained event is at push index t - n.
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(buf_[static_cast<std::size_t>((t - n + i) % buf_.size())]);
    }
    return out;
  }

  /// Quiescent-only.
  void clear() { tail_.store(0, std::memory_order_release); }

 private:
  std::vector<Event> buf_;
  std::atomic<std::uint64_t> tail_{0};
};

/// Handle for one sampled operation: id 0 means "not sampled" and every
/// record call keyed by it no-ops. begin_ns is the op's start timestamp.
struct OpToken {
  std::uint64_t id = 0;
  std::uint64_t begin_ns = 0;
  bool sampled() const { return id != 0; }
};

/// Everything drained from the per-thread rings, oldest-first.
struct TraceData {
  std::vector<Event> events;
  std::uint64_t dropped = 0;      // overwritten ring entries, all threads
  std::uint64_t sampled_ops = 0;  // ops begin_op() elected to trace
};

#if defined(HYBRIDS_NO_TELEMETRY)

// Compiled out: the API keeps its shape so call sites and benches build
// unchanged; everything is an empty inline and tokens never sample.
inline void set_sample_every(std::uint32_t) {}
inline std::uint32_t sample_every() { return 0; }
inline void set_sample_seed(std::uint64_t) {}
inline void set_ring_capacity(std::size_t) {}
inline OpToken begin_op() { return {}; }
inline OpToken begin_op_at(std::uint64_t) { return {}; }
inline void record_span(std::uint64_t, Phase, std::uint64_t, std::uint64_t,
                        std::uint8_t = 0, std::int16_t = -1,
                        std::uint8_t = 0, std::uint32_t = kTrackSelf) {}
inline void record_instant(std::uint64_t, Phase, std::uint64_t,
                           std::uint8_t = 0, std::int16_t = -1,
                           std::uint32_t = kTrackSelf) {}
inline void end_op(const OpToken&, std::uint64_t, std::uint8_t = 0,
                   std::int16_t = -1, bool = false,
                   std::uint32_t = kTrackSelf) {}
inline std::uint64_t time_base() { return 0; }
inline void advance_time_base(std::uint64_t) {}
inline TraceData drain() { return {}; }
inline void reset() {}

#else  // tracing compiled in

/// Trace 1 in `n` operations; 0 (the default) disables sampling. Runtime-
/// settable; takes effect at each thread's next begin_op().
void set_sample_every(std::uint32_t n);
std::uint32_t sample_every();

/// Seed for the deterministic samplers (mixed with each thread's ordinal).
void set_sample_seed(std::uint64_t seed);

/// Per-thread ring capacity, in events; applies to rings created afterwards
/// (configure before the workload threads first record).
void set_ring_capacity(std::size_t events);

/// Sampling decision for one operation. Returns an unsampled token unless
/// this op is elected (1 in sample_every()). begin_op() stamps
/// telemetry::now_ns(); begin_op_at() lets the simulator supply its own
/// clock (time_base() + ticks_to_ns).
OpToken begin_op();
OpToken begin_op_at(std::uint64_t now_ns);

/// Record a [start_ns, end_ns] span for a sampled op into the calling
/// thread's ring. No-op when op_id == 0, so call sites need no branch.
/// `track` defaults to the calling thread's lane; combiners pass
/// kCombinerTrackBase + partition.
void record_span(std::uint64_t op_id, Phase phase, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint8_t op = 0,
                 std::int16_t partition = -1, std::uint8_t flags = 0,
                 std::uint32_t track = kTrackSelf);

/// Point event (e.g. kRetry). No-op when op_id == 0.
void record_instant(std::uint64_t op_id, Phase phase, std::uint64_t at_ns,
                    std::uint8_t op = 0, std::int16_t partition = -1,
                    std::uint32_t track = kTrackSelf);

/// Close the enclosing kOp span for a sampled op. `offloaded` marks ops
/// that actually left the host (the phase-coverage denominator).
void end_op(const OpToken& tok, std::uint64_t end_ns, std::uint8_t op = 0,
            std::int16_t partition = -1, bool offloaded = false,
            std::uint32_t track = kTrackSelf);

/// Monotonic offset added to simulator timestamps so consecutive sim runs
/// (each restarting at tick 0) don't overlap in the exported trace.
/// advance_time_base() raises it to at least `to_at_least` (call it with
/// the previous run's base + final sim time).
std::uint64_t time_base();
void advance_time_base(std::uint64_t to_at_least);

/// Collect every thread's retained events (oldest-first across threads) and
/// overflow counts. Quiescent-only: call after worker threads joined. Also
/// folds the overflow delta into the `trace.dropped_events` counter.
TraceData drain();

/// Clear all rings and restart op ids / the time base. Quiescent-only
/// (tests and multi-run benches).
void reset();

#endif  // compile-out

}  // namespace hybrids::trace
