// Tests for the sampled operation-tracing layer (trace.hpp / export.hpp):
// ring wrap/overflow drop accounting, sampling determinism under a fixed
// seed, Chrome trace-event JSON validity, and the per-phase latency
// breakdown's attribution/coverage arithmetic.
//
// Sampler and Ring are always compiled, so their tests run even in
// -DHYBRIDS_NO_TELEMETRY builds; tests of the global recording API skip
// there (the API collapses to empty inlines).

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "hybrids/trace/export.hpp"
#include "hybrids/trace/trace.hpp"

namespace {

using namespace hybrids;

trace::Event make_event(std::uint64_t op_id, trace::Phase phase,
                        std::uint64_t start_ns, std::uint64_t dur_ns,
                        std::uint8_t flags = 0, std::uint32_t track = 0,
                        std::int16_t partition = -1) {
  trace::Event e;
  e.op_id = op_id;
  e.start_ns = start_ns;
  e.dur_ns = dur_ns;
  e.track = track;
  e.partition = partition;
  e.phase = phase;
  e.op = 0;
  e.flags = flags;
  return e;
}

// ---------------------------------------------------------------------------
// Ring

TEST(Ring, RetainsEverythingBeforeWrap) {
  trace::Ring ring(8);
  for (std::uint64_t i = 0; i < 3; ++i) {
    ring.push(make_event(i + 1, trace::Phase::kOp, /*start_ns=*/i, 1));
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
  const std::vector<trace::Event> events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(events[i].start_ns, i);
}

TEST(Ring, WrapOverwritesOldestAndCountsDropped) {
  trace::Ring ring(8);
  for (std::uint64_t i = 0; i < 11; ++i) {
    ring.push(make_event(i + 1, trace::Phase::kOp, /*start_ns=*/i, 1));
  }
  EXPECT_EQ(ring.pushed(), 11u);
  EXPECT_EQ(ring.size(), 8u);    // capacity retained
  EXPECT_EQ(ring.dropped(), 3u);  // the 3 oldest were overwritten
  const std::vector<trace::Event> events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first: events 3..10 survive, 0..2 were overwritten.
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(events[i].start_ns, i + 3);
}

TEST(Ring, ClearResets) {
  trace::Ring ring(4);
  for (int i = 0; i < 9; ++i) {
    ring.push(make_event(1, trace::Phase::kOp, 0, 1));
  }
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

// ---------------------------------------------------------------------------
// Sampler

std::vector<bool> fire_sequence(trace::Sampler& s, int n) {
  std::vector<bool> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(s.fire());
  return out;
}

TEST(Sampler, DeterministicForSeedStreamEvery) {
  trace::Sampler a(/*seed=*/42, /*stream=*/7, /*every=*/4);
  trace::Sampler b(/*seed=*/42, /*stream=*/7, /*every=*/4);
  const std::vector<bool> sa = fire_sequence(a, 256);
  const std::vector<bool> sb = fire_sequence(b, 256);
  EXPECT_EQ(sa, sb);
  // After the initial offset, every 4th op fires: 256/4 = 64 +/- 1.
  const auto fired =
      static_cast<int>(std::count(sa.begin(), sa.end(), true));
  EXPECT_GE(fired, 63);
  EXPECT_LE(fired, 65);
  // Consecutive fires are exactly `every` apart.
  int last = -1;
  for (int i = 0; i < 256; ++i) {
    if (!sa[static_cast<std::size_t>(i)]) continue;
    if (last >= 0) {
      EXPECT_EQ(i - last, 4);
    }
    last = i;
  }
}

TEST(Sampler, StreamsDecorrelate) {
  // Different streams (thread ordinals) must not all sample in lockstep:
  // at least two of a handful of streams start at different offsets.
  trace::Sampler base(/*seed=*/42, /*stream=*/0, /*every=*/64);
  const std::vector<bool> s0 = fire_sequence(base, 64);
  bool any_different = false;
  for (std::uint64_t stream = 1; stream <= 8 && !any_different; ++stream) {
    trace::Sampler s(/*seed=*/42, stream, /*every=*/64);
    any_different = fire_sequence(s, 64) != s0;
  }
  EXPECT_TRUE(any_different);
}

TEST(Sampler, ZeroDisables) {
  trace::Sampler s(/*seed=*/1, /*stream=*/1, /*every=*/0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(s.fire());
}

// ---------------------------------------------------------------------------
// Global recording API (compiled-out builds skip)

class TraceApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if constexpr (!trace::kCompiledIn) {
      GTEST_SKIP() << "tracing compiled out";
    }
    trace::set_sample_every(0);
    trace::reset();
  }
  void TearDown() override {
    trace::set_sample_every(0);
    trace::set_ring_capacity(trace::Ring::kDefaultCapacity);
    trace::reset();
  }
};

TEST_F(TraceApiTest, BeginOpUnsampledWhenDisabled) {
  trace::set_sample_every(0);
  const trace::OpToken tok = trace::begin_op();
  EXPECT_FALSE(tok.sampled());
  EXPECT_EQ(tok.id, 0u);
  // Records keyed by an unsampled token are dropped without branching at
  // the call site.
  trace::record_span(tok.id, trace::Phase::kHostDescend, 0, 10);
  EXPECT_TRUE(trace::drain().events.empty());
}

TEST_F(TraceApiTest, SamplingDeterministicAcrossRuns) {
  auto run_mask = [] {
    trace::reset();
    trace::set_sample_seed(42);
    trace::set_sample_every(4);
    std::vector<bool> mask;
    for (int i = 0; i < 128; ++i) {
      mask.push_back(trace::begin_op().sampled());
    }
    return mask;
  };
  const std::vector<bool> first = run_mask();
  const std::vector<bool> second = run_mask();
  EXPECT_EQ(first, second);
  const auto fired =
      static_cast<int>(std::count(first.begin(), first.end(), true));
  EXPECT_GE(fired, 31);  // 128/4, +/- the initial offset
  EXPECT_LE(fired, 33);
}

TEST_F(TraceApiTest, DrainSortsByStartAndCountsSampledOps) {
  // SetUp already GTEST_SKIPs when compiled out; the compile-time return
  // additionally discards the body so gcc doesn't const-fold drain() to an
  // empty vector and flag the element accesses (-Warray-bounds).
  if constexpr (!trace::kCompiledIn) return;
  trace::set_sample_every(1);
  const trace::OpToken a = trace::begin_op_at(100);
  const trace::OpToken b = trace::begin_op_at(200);
  ASSERT_TRUE(a.sampled());
  ASSERT_TRUE(b.sampled());
  // Record out of start order; drain must sort.
  trace::record_span(b.id, trace::Phase::kHostDescend, 200, 230);
  trace::record_span(a.id, trace::Phase::kHostDescend, 100, 120);
  trace::end_op(b, 260, 0, -1, /*offloaded=*/true);
  trace::end_op(a, 150, 0, -1, /*offloaded=*/true);
  const trace::TraceData data = trace::drain();
  ASSERT_EQ(data.events.size(), 4u);
  for (std::size_t i = 1; i < data.events.size(); ++i) {
    EXPECT_LE(data.events[i - 1].start_ns, data.events[i].start_ns);
  }
  EXPECT_EQ(data.sampled_ops, 2u);
  EXPECT_EQ(data.dropped, 0u);
}

TEST_F(TraceApiTest, DrainReportsRingOverflowAsDropped) {
  if constexpr (!trace::kCompiledIn) return;  // see above
  // Capacity applies to rings created afterwards, so record from a fresh
  // thread (its ring is created at its first record).
  trace::set_ring_capacity(8);
  trace::set_sample_every(1);
  std::thread recorder([] {
    const trace::OpToken tok = trace::begin_op_at(0);
    ASSERT_TRUE(tok.sampled());
    for (std::uint64_t i = 0; i < 20; ++i) {
      trace::record_span(tok.id, trace::Phase::kRetry, i, i + 1);
    }
  });
  recorder.join();
  const trace::TraceData data = trace::drain();
  EXPECT_EQ(data.dropped, 12u);  // 20 pushed into a capacity-8 ring
  // The retained events are the newest 8.
  ASSERT_EQ(data.events.size(), 8u);
  EXPECT_EQ(data.events.front().start_ns, 12u);
  EXPECT_EQ(data.events.back().start_ns, 19u);
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON exporter

// Minimal recursive-descent JSON validator: structure only, no data model.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '\\') { pos_ += 2; continue; }
      if (c == '"') { ++pos_; return true; }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

trace::TraceData synthetic_trace() {
  trace::TraceData data;
  // One offloaded op whose leaf phases tile it exactly.
  data.events.push_back(make_event(1, trace::Phase::kOp, 0, 1000,
                                   trace::kFlagOffloaded, /*track=*/0));
  data.events.push_back(
      make_event(1, trace::Phase::kHostDescend, 0, 100, 0, 0));
  data.events.push_back(make_event(1, trace::Phase::kPublish, 100, 50, 0, 0));
  data.events.push_back(make_event(1, trace::Phase::kQueueWait, 150, 250, 0,
                                   trace::kCombinerTrackBase + 2, 2));
  data.events.push_back(make_event(1, trace::Phase::kApply, 400, 400, 0,
                                   trace::kCombinerTrackBase + 2, 2));
  data.events.push_back(make_event(1, trace::Phase::kReply, 800, 50, 0,
                                   trace::kCombinerTrackBase + 2, 2));
  data.events.push_back(make_event(1, trace::Phase::kWake, 850, 150, 0, 0));
  // A retry instant and a host-only (non-offloaded) op.
  data.events.push_back(
      make_event(1, trace::Phase::kRetry, 40, 0, trace::kFlagInstant, 0));
  data.events.push_back(make_event(2, trace::Phase::kOp, 2000, 300, 0, 1));
  data.sampled_ops = 2;
  data.dropped = 5;
  return data;
}

TEST(TraceExport, ChromeJsonIsValid) {
  const trace::TraceData data = synthetic_trace();
  const std::string json = trace::to_chrome_json(data);
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("hybrids.trace.v1"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete spans
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // retry instant
}

TEST(TraceExport, ChromeJsonOfEmptyTraceIsValid) {
  const std::string json = trace::to_chrome_json(trace::TraceData{});
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(TraceExport, BreakdownAttributesLeafPhases) {
  const trace::Breakdown b = trace::breakdown(synthetic_trace());
  // Only op 1 is flagged offloaded; op 2 stays out of the denominator.
  EXPECT_EQ(b.offloaded_ops, 1u);
  EXPECT_EQ(b.offloaded_op_ns, 1000u);
  // The six leaf phases tile the op exactly: coverage 1.0.
  EXPECT_EQ(b.attributed_ns, 1000u);
  EXPECT_DOUBLE_EQ(b.coverage(), 1.0);
  auto stat = [&](trace::Phase p) {
    return b.phases[static_cast<std::size_t>(p)];
  };
  EXPECT_EQ(stat(trace::Phase::kQueueWait).count, 1u);
  EXPECT_EQ(stat(trace::Phase::kQueueWait).total_ns, 250u);
  EXPECT_EQ(stat(trace::Phase::kApply).total_ns, 400u);
  EXPECT_EQ(stat(trace::Phase::kRetry).count, 1u);
  EXPECT_EQ(stat(trace::Phase::kRetry).total_ns, 0u);  // instant
}

TEST(TraceExport, BreakdownTableIsHumanReadable) {
  const std::string table =
      trace::breakdown_table(trace::breakdown(synthetic_trace()));
  EXPECT_NE(table.find("coverage"), std::string::npos);
  EXPECT_NE(table.find("queue_wait"), std::string::npos);
  EXPECT_NE(table.find("apply"), std::string::npos);
}

}  // namespace
