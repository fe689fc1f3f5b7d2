#include "hybrids/trace/trace.hpp"

#if !defined(HYBRIDS_NO_TELEMETRY)

#include <algorithm>
#include <memory>
#include <mutex>

#include "hybrids/telemetry/registry.hpp"

namespace hybrids::trace {

namespace {

// Runtime configuration. Bumping the epoch makes every thread re-derive its
// sampler (seed, stride) at its next begin_op, so set_sample_* are safe to
// call between runs without touching other threads' state.
std::atomic<std::uint32_t> g_every{0};
std::atomic<std::uint64_t> g_seed{0x48794272694453ull};  // "HyBriDS"
std::atomic<std::uint64_t> g_epoch{1};
std::atomic<std::uint64_t> g_next_op{0};
std::atomic<std::uint64_t> g_time_base{0};
std::atomic<std::size_t> g_ring_capacity{Ring::kDefaultCapacity};

/// One per recording thread, owned by the process-lifetime registry below
/// (threads come and go; rings must survive until drain()).
struct ThreadRec {
  explicit ThreadRec(std::size_t cap) : ring(cap) {}
  Ring ring;
  Sampler sampler;
  std::uint64_t epoch = 0;
};

struct RecRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadRec>> recs;
  std::uint64_t dropped_reported = 0;  // already folded into the counter
};

RecRegistry& registry() {
  static RecRegistry* r = new RecRegistry();  // never freed: threads may
  return *r;                                  // record during static dtors
}

ThreadRec& local_rec() {
  thread_local ThreadRec* rec = [] {
    auto owned = std::make_unique<ThreadRec>(
        g_ring_capacity.load(std::memory_order_relaxed));
    ThreadRec* raw = owned.get();
    RecRegistry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.recs.push_back(std::move(owned));
    return raw;
  }();
  return *rec;
}

telemetry::Counter& sampled_counter() {
  static telemetry::Counter* c =
      &telemetry::counter(telemetry::names::kTraceSampledOps);
  return *c;
}

telemetry::Counter& dropped_counter() {
  static telemetry::Counter* c =
      &telemetry::counter(telemetry::names::kTraceDroppedEvents);
  return *c;
}

}  // namespace

void set_sample_every(std::uint32_t n) {
  g_every.store(n, std::memory_order_relaxed);
  g_epoch.fetch_add(1, std::memory_order_relaxed);
}

std::uint32_t sample_every() {
  return g_every.load(std::memory_order_relaxed);
}

void set_sample_seed(std::uint64_t seed) {
  g_seed.store(seed, std::memory_order_relaxed);
  g_epoch.fetch_add(1, std::memory_order_relaxed);
}

void set_ring_capacity(std::size_t events) {
  g_ring_capacity.store(events ? events : 1, std::memory_order_relaxed);
}

OpToken begin_op_at(std::uint64_t now_ns) {
  const std::uint32_t every = g_every.load(std::memory_order_relaxed);
  if (every == 0) return {};
  ThreadRec& rec = local_rec();
  const std::uint64_t epoch = g_epoch.load(std::memory_order_relaxed);
  if (rec.epoch != epoch) {
    rec.epoch = epoch;
    rec.sampler.reseed(g_seed.load(std::memory_order_relaxed),
                       telemetry::this_thread_ordinal());
    rec.sampler.set_every(every);
  }
  if (!rec.sampler.fire()) return {};
  OpToken tok;
  tok.id = g_next_op.fetch_add(1, std::memory_order_relaxed) + 1;
  tok.begin_ns = now_ns;
  sampled_counter().inc();
  return tok;
}

OpToken begin_op() { return begin_op_at(telemetry::now_ns()); }

void record_span(std::uint64_t op_id, Phase phase, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint8_t op, std::int16_t partition,
                 std::uint8_t flags, std::uint32_t track) {
  if (op_id == 0) return;
  Event e;
  e.op_id = op_id;
  e.start_ns = start_ns;
  e.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  e.track = track == kTrackSelf ? telemetry::this_thread_ordinal() : track;
  e.partition = partition;
  e.phase = phase;
  e.op = op;
  e.flags = flags;
  local_rec().ring.push(e);
}

void record_instant(std::uint64_t op_id, Phase phase, std::uint64_t at_ns,
                    std::uint8_t op, std::int16_t partition,
                    std::uint32_t track) {
  record_span(op_id, phase, at_ns, at_ns, op, partition, kFlagInstant, track);
}

void end_op(const OpToken& tok, std::uint64_t end_ns, std::uint8_t op,
            std::int16_t partition, bool offloaded, std::uint32_t track) {
  record_span(tok.id, Phase::kOp, tok.begin_ns, end_ns, op, partition,
              offloaded ? kFlagOffloaded : std::uint8_t{0}, track);
}

std::uint64_t time_base() {
  return g_time_base.load(std::memory_order_relaxed);
}

void advance_time_base(std::uint64_t to_at_least) {
  std::uint64_t cur = g_time_base.load(std::memory_order_relaxed);
  while (cur < to_at_least &&
         !g_time_base.compare_exchange_weak(cur, to_at_least,
                                            std::memory_order_relaxed)) {
  }
}

TraceData drain() {
  TraceData out;
  RecRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::uint64_t dropped = 0;
  for (const auto& rec : reg.recs) {
    std::vector<Event> events = rec->ring.snapshot();
    out.events.insert(out.events.end(), events.begin(), events.end());
    dropped += rec->ring.dropped();
  }
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const Event& a, const Event& b) {
                     return a.start_ns < b.start_ns;
                   });
  out.dropped = dropped;
  out.sampled_ops = g_next_op.load(std::memory_order_relaxed);
  if (dropped > reg.dropped_reported) {
    dropped_counter().add(dropped - reg.dropped_reported);
    reg.dropped_reported = dropped;
  }
  return out;
}

void reset() {
  RecRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& rec : reg.recs) rec->ring.clear();
  reg.dropped_reported = 0;
  g_next_op.store(0, std::memory_order_relaxed);
  g_time_base.store(0, std::memory_order_relaxed);
  g_epoch.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace hybrids::trace

#endif  // compiled in
