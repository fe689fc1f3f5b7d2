// hybench — the ledger benchmark for the real HybriDS runtime.
//
// Drives the threaded runtime (ds -> cache / host / nmp / mem) through the
// public structure APIs, one workload per process:
//
//   hybench --workload NAME --seed N --seconds S [--trace 0|1] [--smoke]
//           [--trace-json FILE]
//
// Load model: a closed loop of kHostThreads host threads against
// kPartitions NMP partitions (one combiner thread each), so host threads +
// combiners = 4 = nproc on the reference box. Each host thread issues its
// next op only when the previous one returns (depth 1), or keeps `depth` ops
// in flight through one host::Frame (depth 8).
//
// A run sets the structure up kSetups times (setup_s is the median) and
// gives each setup an equal share of the --seconds: an untimed warmup, then
// rounds of pre-generated ops. Each round's ops come from workload::OpStream
// before the round starts, with insert values rewritten to value = key so
// every read and scan result can be checked exactly; after each share the
// structure is checked while quiescent. Throughput and latency quantiles are
// medians over all rounds. With --trace 1 there is one setup and its time is
// split: the first half runs untraced (every counter and latency metric comes
// from it), the second half arms the trace sampler and yields the per-phase
// metrics and the tracing overhead.
//
// Output: one line per metric on stderr ("name value unit n=samples"), and a
// JSON document (schema hybench.run.v1) as the last line of stdout. Exit 0
// when every check passed, 1 on a wrong result, 2 on a usage error.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <sched.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "hybrids/ds/hybrid_btree.hpp"
#include "hybrids/ds/hybrid_skiplist.hpp"
#include "hybrids/host/interleave.hpp"
#include "hybrids/telemetry/registry.hpp"
#include "hybrids/trace/export.hpp"
#include "hybrids/trace/trace.hpp"
#include "hybrids/workload/workload.hpp"
#include "hybrids/workload/ycsb.hpp"

namespace {

namespace hd = hybrids::ds;
namespace hh = hybrids::host;
namespace hw = hybrids::workload;
namespace tn = hybrids::telemetry::names;
using hybrids::Key;
using hybrids::ScanEntry;
using hybrids::Value;

constexpr std::uint32_t kHostThreads = 2;
constexpr std::uint32_t kPartitions = 2;
// Host/NMP split target: the same 1 MiB sizing rule the figure benches use
// (§3.3 skiplist levels, §3.4 B+tree levels).
constexpr std::size_t kSplitLlcBytes = 1 << 20;
constexpr std::uint32_t kMaxScanLen = 100;
constexpr std::size_t kTraceRingEvents = 1 << 18;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// CPU placement. Host thread t runs on the t-th allowed CPU; the threads a
// structure starts while it is constructed (combiners, watchdog) inherit the
// remaining CPUs from the constructing thread. A fixed placement keeps two
// busy threads from sharing a CPU in some runs and not in others. Off when
// fewer than kHostThreads + kPartitions CPUs are allowed.

void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

class Placement {
 public:
  Placement() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) all_.push_back(c);
    }
  }
  bool pinned() const { return all_.size() >= kHostThreads + kPartitions; }
  /// Pins the calling thread to host thread t's CPU.
  void host(std::uint32_t t) const {
    if (pinned()) set_affinity({all_[t]});
  }
  /// Restricts the calling thread (and threads it starts) to the CPUs the
  /// host threads leave free.
  void library() const {
    if (pinned()) set_affinity({all_.begin() + kHostThreads, all_.end()});
  }
  void restore() const {
    if (pinned()) set_affinity(all_);
  }

 private:
  std::vector<int> all_;
};

const Placement& placement() {
  static const Placement p;
  return p;
}

// ---------------------------------------------------------------------------
// Host threads: started once per process, pinned, and kept for every setup
// and window. The runtime shards its counters and node pool by a thread's
// first-use ordinal (telemetry::this_thread_ordinal); two host threads whose
// ordinals collide modulo the shard count would bounce one cache line on
// every op. Starting them one after another, once, gives them consecutive
// ordinals that never change between setups.

class HostThreads {
 public:
  HostThreads() {
    for (std::uint32_t t = 0; t < kHostThreads; ++t) {
      threads_.emplace_back([this, t] { loop(t); });
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return started_ == t + 1; });
    }
  }
  ~HostThreads() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      ++gen_;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  HostThreads(const HostThreads&) = delete;
  HostThreads& operator=(const HostThreads&) = delete;

  /// Runs job(tid) on every host thread; returns when all have finished.
  void run(const std::function<void(std::uint32_t)>& job) {
    std::unique_lock<std::mutex> lock(mu_);
    job_ = &job;
    done_ = 0;
    ++gen_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return done_ == kHostThreads; });
    job_ = nullptr;
  }

 private:
  void loop(std::uint32_t t) {
    placement().host(t);
    (void)hybrids::telemetry::this_thread_ordinal();
    std::uint64_t seen = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++started_;
      seen = gen_;
    }
    cv_.notify_all();
    while (true) {
      const std::function<void(std::uint32_t)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return gen_ != seen; });
        seen = gen_;
        if (stop_) return;
        job = job_;
      }
      (*job)(t);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++done_;
      }
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  const std::function<void(std::uint32_t)>* job_ = nullptr;
  std::uint64_t gen_ = 0;
  std::uint32_t started_ = 0;
  std::uint32_t done_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: started after the state above
};

// ---------------------------------------------------------------------------
// Workloads. Names are part of the ledger's format: never rename one.

enum class Structure { kSkipList, kBTree };

struct Workload {
  const char* name;
  Structure structure;
  std::uint64_t keys;        // preload size
  std::uint64_t smoke_keys;  // preload size under --smoke
  hw::WorkloadSpec (*spec)(std::uint64_t keys, std::uint64_t seed);
  std::uint32_t depth;  // ops in flight per host thread
  bool cache;           // hot-key cache at 1/16 of keys x 8 B
  // Set-ups per untraced run, each measured for an equal share of the
  // seconds. Instances of one structure run at different speeds (YCSB-E
  // set-ups of one run differ by up to 4x), so where setting up is cheap a
  // run averages over many short shares.
  int setups;
  // Upper estimate of trace events one sampled op leaves in its host
  // thread's ring; sizes the 1-in-N sample rate so rings never wrap.
  std::uint32_t trace_events_per_op;
};

const Workload kWorkloads[] = {
    {"skiplist-ycsbc-zipf-7m", Structure::kSkipList, 7'000'000, 8192,
     [](std::uint64_t k, std::uint64_t s) {
       return hw::ycsb_c(k, kPartitions, s);
     },
     1, true, 3, 8},
    {"skiplist-rw50-uniform-256k", Structure::kSkipList, 1u << 18, 8192,
     [](std::uint64_t k, std::uint64_t s) {
       return hw::sensitivity(k, 50, 25, 25, /*split_heavy=*/false,
                              kPartitions, s);
     },
     1, true, 10, 8},
    {"skiplist-ycsbe-256k", Structure::kSkipList, 1u << 18, 8192,
     [](std::uint64_t k, std::uint64_t s) {
       return hw::ycsb_e(k, kPartitions, s, kMaxScanLen);
     },
     1, true, 10, 48},
    {"btree-rw50-split-12m-il8", Structure::kBTree, 12'000'000, 16384,
     [](std::uint64_t k, std::uint64_t s) {
       return hw::sensitivity(k, 50, 25, 25, /*split_heavy=*/true,
                              kPartitions, s);
     },
     8, false, 5, 12},
};

// ---------------------------------------------------------------------------
// Latency histogram: log-linear, 128 buckets per power of two, so a
// reported quantile (bucket midpoint) is within 0.4% of the recorded value.

class LogHist {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::size_t kBuckets = std::size_t{64} << kSubBits;

  void record(std::uint64_t v) {
    ++counts_[index(v)];
    ++n_;
  }
  void merge(const LogHist& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }
  void clear() {
    std::fill(counts_.begin(), counts_.end(), 0);
    n_ = 0;
  }
  std::uint64_t count() const { return n_; }

  /// Value at rank ceil(q * n); 0 when empty.
  double quantile(double q) const {
    if (n_ == 0) return 0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < (std::uint64_t{1} << kSubBits)) return static_cast<std::size_t>(v);
    const int shift = 63 - __builtin_clzll(v) - kSubBits;
    return (static_cast<std::size_t>(shift) << kSubBits) +
           static_cast<std::size_t>(v >> shift);
  }
  static double midpoint(std::size_t i) {
    const std::size_t octave = i >> kSubBits;
    const int shift = octave == 0 ? 0 : static_cast<int>(octave) - 1;
    const double low = std::ldexp(
        static_cast<double>(i - (static_cast<std::size_t>(shift) << kSubBits)),
        shift);
    return low + (std::ldexp(1.0, shift) - 1.0) / 2.0;
  }

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t n_ = 0;
};

// ---------------------------------------------------------------------------
// Per-op execution and result checks.

enum Cls : int { kRead = 0, kWrite, kScan, kAll, kClasses };
const char* const kClsName[kClasses] = {"read", "write", "scan", "op"};

struct Tally {
  std::uint64_t ops[kClasses] = {};
  std::uint64_t inserts = 0, inserts_ok = 0, removes = 0, removes_ok = 0;
  std::uint64_t reads_ok = 0, scan_entries = 0;
  std::uint64_t bad = 0;  // results that failed a check

  void add(const Tally& o) {
    for (int c = 0; c < kClasses; ++c) ops[c] += o.ops[c];
    inserts += o.inserts;
    inserts_ok += o.inserts_ok;
    removes += o.removes;
    removes_ok += o.removes_ok;
    reads_ok += o.reads_ok;
    scan_entries += o.scan_entries;
    bad += o.bad;
  }
};

struct Outcome {
  bool ok = false;
  Value value = 0;
  std::size_t entries = 0;
};

template <typename DS>
Outcome apply_op(DS& ds, const hw::Op& op, ScanEntry* buf, std::uint32_t tid) {
  Outcome o;
  switch (op.type) {
    case hw::OpType::kInsert:
      o.ok = ds.insert(op.key, op.value, tid);
      break;
    case hw::OpType::kRemove:
      o.ok = ds.remove(op.key, tid);
      break;
    case hw::OpType::kScan:
      o.entries = ds.scan(op.key, op.scan_len, buf, tid);
      break;
    default:
      o.ok = ds.read(op.key, o.value, tid);
      break;
  }
  return o;
}

template <typename DS>
hh::CoTask<Outcome> apply_op_co(DS& ds, const hw::Op op, ScanEntry* buf,
                                std::uint32_t tid) {
  Outcome o;
  switch (op.type) {
    case hw::OpType::kInsert:
      o.ok = co_await ds.insert_co(op.key, op.value, tid);
      break;
    case hw::OpType::kRemove:
      o.ok = co_await ds.remove_co(op.key, tid);
      break;
    case hw::OpType::kScan:
      o.entries = co_await ds.scan_co(op.key, op.scan_len, buf, tid);
      break;
    default:
      o.ok = co_await ds.read_co(op.key, &o.value, tid);
      break;
  }
  co_return o;
}

/// Every value in the structure equals its key (preload and inserts both
/// write value = key), so reads and scans are checkable exactly.
bool result_ok(const hw::Op& op, const Outcome& o, const ScanEntry* buf) {
  switch (op.type) {
    case hw::OpType::kScan:
      if (o.entries > op.scan_len) return false;
      for (std::size_t j = 0; j < o.entries; ++j) {
        if (buf[j].key < op.key || buf[j].value != buf[j].key) return false;
        if (j > 0 && buf[j].key <= buf[j - 1].key) return false;
      }
      return true;
    case hw::OpType::kInsert:
    case hw::OpType::kRemove:
      return true;
    default:
      return !o.ok || o.value == op.key;
  }
}

// ---------------------------------------------------------------------------
// Measured windows: rounds of pre-generated ops, closed loop per thread.

struct ThreadState {
  ThreadState(const hw::WorkloadSpec& spec, std::uint32_t tid,
              std::uint32_t depth)
      : stream(spec, tid), buf(std::size_t{depth} * kMaxScanLen) {}

  hw::OpStream stream;
  std::vector<hw::Op> block;
  std::vector<ScanEntry> buf;  // kMaxScanLen entries per in-flight slot
  LogHist hist[kClasses];
  Tally round;
  std::uint64_t end_ns = 0;
  std::string first_bad;
};

void account(ThreadState& st, const hw::Op& op, const Outcome& o,
             const ScanEntry* buf, std::uint64_t latency_ns) {
  Cls cls = kRead;
  Tally& t = st.round;
  switch (op.type) {
    case hw::OpType::kInsert:
      cls = kWrite;
      ++t.inserts;
      t.inserts_ok += o.ok;
      break;
    case hw::OpType::kRemove:
      cls = kWrite;
      ++t.removes;
      t.removes_ok += o.ok;
      break;
    case hw::OpType::kScan:
      cls = kScan;
      t.scan_entries += o.entries;
      break;
    default:
      t.reads_ok += o.ok;
      break;
  }
  ++t.ops[cls];
  ++t.ops[kAll];
  st.hist[cls].record(latency_ns);
  st.hist[kAll].record(latency_ns);
  if (!result_ok(op, o, buf)) {
    if (t.bad++ == 0 && st.first_bad.empty()) {
      std::ostringstream os;
      os << "op type " << static_cast<int>(op.type) << " key " << op.key
         << " ok " << o.ok << " value " << o.value << " entries "
         << o.entries;
      st.first_bad = os.str();
    }
  }
}

/// Runs st.block in order on host thread `tid`. At depth 1 every op is a
/// blocking call and its latency runs from the previous op's return; deeper,
/// up to `depth` ops are in flight through one host::Frame and an op's
/// latency runs from its submit to its harvest.
template <typename DS>
void run_block(DS& ds, ThreadState& st, std::uint32_t tid,
               std::uint32_t depth) {
  if (depth <= 1) {
    std::uint64_t prev = now_ns();
    for (const hw::Op& op : st.block) {
      const Outcome o = apply_op(ds, op, st.buf.data(), tid);
      const std::uint64_t now = now_ns();
      account(st, op, o, st.buf.data(), now - prev);
      prev = now;
    }
    return;
  }
  hh::Frame frame(depth);
  std::vector<std::optional<hh::CoTask<Outcome>>> slot(depth);
  std::vector<std::size_t> slot_op(depth);
  std::vector<std::uint64_t> slot_t0(depth);
  const std::size_t n = st.block.size();
  std::size_t next = 0, finished = 0;
  while (finished < n) {
    for (std::uint32_t i = 0; i < depth && next < n; ++i) {
      if (slot[i]) continue;
      ScanEntry* buf = st.buf.data() + std::size_t{i} * kMaxScanLen;
      slot[i].emplace(apply_op_co(ds, st.block[next], buf, tid));
      slot_op[i] = next++;
      slot_t0[i] = now_ns();
      (void)frame.submit(slot[i]->handle());
    }
    frame.step();
    for (std::uint32_t i = 0; i < depth; ++i) {
      if (!slot[i] || !slot[i]->done()) continue;
      const ScanEntry* buf = st.buf.data() + std::size_t{i} * kMaxScanLen;
      account(st, st.block[slot_op[i]], slot[i]->result(), buf,
              now_ns() - slot_t0[i]);
      slot[i].reset();
      ++finished;
    }
  }
}

struct RoundStat {
  double secs = 0;
  std::uint64_t ops = 0;
  std::uint64_t scan_entries = 0;
  std::uint64_t n[kClasses] = {};
  double p50[kClasses] = {};
  double p99[kClasses] = {};
};

struct Window {
  std::vector<RoundStat> rounds;
  Tally tally;
  std::uint64_t samples[kClasses] = {};
  double secs = 0;

  void append(const Window& o) {
    rounds.insert(rounds.end(), o.rounds.begin(), o.rounds.end());
    tally.add(o.tally);
    for (int c = 0; c < kClasses; ++c) samples[c] += o.samples[c];
    secs += o.secs;
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Runs rounds of about `round_secs` until `seconds` of measured time have
/// passed. Every round both threads start together on a freshly generated
/// block; the round ends when the slower one finishes.
template <typename DS>
Window run_window(DS& ds, HostThreads& hosts,
                  std::vector<std::unique_ptr<ThreadState>>& ts,
                  std::uint32_t depth, double seconds, double round_secs,
                  std::size_t first_block) {
  Window w;
  std::size_t block = first_block;
  bool stop = false;
  bool starting = true;
  std::uint64_t t0 = 0;
  LogHist merged;
  auto on_phase = [&]() noexcept {
    if (starting) {
      t0 = now_ns();
      starting = false;
      return;
    }
    starting = true;
    RoundStat r;
    std::uint64_t end = t0;
    for (auto& st : ts) {
      end = std::max(end, st->end_ns);
      w.tally.add(st->round);
    }
    r.secs = static_cast<double>(end - t0) * 1e-9;
    for (int c = 0; c < kClasses; ++c) {
      merged.clear();
      for (auto& st : ts) merged.merge(st->hist[c]);
      r.n[c] = merged.count();
      r.p50[c] = merged.quantile(0.50);
      r.p99[c] = merged.quantile(0.99);
      w.samples[c] += r.n[c];
    }
    r.ops = r.n[kAll];
    for (auto& st : ts) r.scan_entries += st->round.scan_entries;
    w.rounds.push_back(r);
    w.secs += r.secs;
    const double left = seconds - w.secs;
    if (left <= 0.5 * round_secs) {
      stop = true;
      return;
    }
    const double per_thread_rate =
        static_cast<double>(r.ops) / static_cast<double>(ts.size()) /
        std::max(r.secs, 1e-6);
    block = static_cast<std::size_t>(std::clamp(
        per_thread_rate * std::min(round_secs, left), 16.0, 5e7));
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(ts.size()), on_phase);
  hosts.run([&](std::uint32_t tid) {
    ThreadState& st = *ts[tid];
    while (true) {
      st.block.resize(block);
      for (hw::Op& op : st.block) {
        op = st.stream.next();
        if (op.type == hw::OpType::kInsert) op.value = op.key;
      }
      for (LogHist& h : st.hist) h.clear();
      st.round = Tally{};
      sync.arrive_and_wait();
      run_block(ds, st, tid, depth);
      st.end_ns = now_ns();
      sync.arrive_and_wait();
      if (stop) break;
    }
  });
  return w;
}

double throughput(const Window& w) {
  std::vector<double> v;
  for (const RoundStat& r : w.rounds) {
    v.push_back(static_cast<double>(r.ops) / r.secs);
  }
  return median(v);
}

/// Median over rounds of a per-round quantile, skipping rounds without
/// samples of the class.
double quantile_median(const Window& w, int cls, bool p99) {
  std::vector<double> v;
  for (const RoundStat& r : w.rounds) {
    if (r.n[cls] > 0) v.push_back(p99 ? r.p99[cls] : r.p50[cls]);
  }
  return median(v);
}

// ---------------------------------------------------------------------------
// Set-up.

/// Resident set size now. (Not getrusage's ru_maxrss: Linux carries the
/// peak of the pre-exec image over, so under a large parent it reads the
/// parent's RSS.)
double rss_mib() {
  std::ifstream statm("/proc/self/statm");
  double size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

void release_freed_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

std::unique_ptr<hd::HybridSkipList> build_skiplist(
    const Workload& w, HostThreads& hosts, const hw::KeyLayout& layout,
    const std::vector<Key>& keys, std::uint64_t seed) {
  hd::HybridSkipList::Config cfg;
  int total = 1;
  while ((std::uint64_t{1} << total) < keys.size()) ++total;
  cfg.nmp_height =
      hd::HybridSkipList::nmp_height_for_cache(keys.size(), kSplitLlcBytes);
  cfg.total_height = total > cfg.nmp_height ? total : cfg.nmp_height + 1;
  cfg.partitions = kPartitions;
  cfg.partition_width = layout.partition_width();
  cfg.max_threads = kHostThreads;
  cfg.slots_per_thread = std::max<std::uint32_t>(w.depth, 4);
  cfg.seed = seed;
  if (w.cache) cfg.cache_budget_bytes = keys.size() * 8 / 16;
  placement().library();
  auto list = std::make_unique<hd::HybridSkipList>(cfg);
  placement().restore();
  // Each host thread inserts one partition's keys in ascending order, so
  // both combiners work in parallel. (Interleaved inserts load slower.) A
  // rejected key shows up in the checks after the first share.
  std::atomic<std::uint64_t> failed{0};
  hosts.run([&](std::uint32_t t) {
    for (const Key k : keys) {
      if (layout.partition_of(k) % kHostThreads != t) continue;
      if (!list->insert(k, k, t)) failed.fetch_add(1);
    }
  });
  if (failed.load() != 0) {
    std::cerr << "hybench: preload rejected " << failed.load() << " keys\n";
  }
  return list;
}

std::unique_ptr<hd::HybridBTree> build_btree(const Workload& w,
                                             const std::vector<Key>& keys) {
  hd::HybridBTree::Config cfg;
  cfg.nmp_levels =
      hd::HybridBTree::nmp_levels_for_cache(keys.size(), kSplitLlcBytes);
  cfg.partitions = kPartitions;
  cfg.max_threads = kHostThreads;
  cfg.slots_per_thread = std::max<std::uint32_t>(w.depth, 4);
  if (w.cache) cfg.cache_budget_bytes = keys.size() * 8 / 16;
  const std::vector<Value> values(keys.begin(), keys.end());
  placement().library();
  auto tree = std::make_unique<hd::HybridBTree>(cfg, keys, values);
  placement().restore();
  return tree;
}

// ---------------------------------------------------------------------------
// Metrics and output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t samples;
};

class Report {
 public:
  void add(const std::string& name, double value, const char* unit,
           std::uint64_t samples) {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back({name, value, unit, samples});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Counters {
  explicit Counters(hybrids::telemetry::Snapshot s) : snap(std::move(s)) {}
  double c(const char* name) const {
    return static_cast<double>(snap.counter_total(name));
  }
  hybrids::util::Histogram h(const char* name) const {
    return snap.histogram_total(name);
  }
  hybrids::telemetry::Snapshot snap;
};

/// Telemetry deltas summed over every measured (untraced) window.
class Deltas {
 public:
  void add(Counters before, Counters after) {
    spans_.emplace_back(std::move(before), std::move(after));
  }
  double c(const char* name) const {
    return sum([&](const Counters& x) { return x.c(name); });
  }
  double h_sum(const char* name) const {
    return sum([&](const Counters& x) { return x.h(name).sum(); });
  }
  double h_count(const char* name) const {
    return sum([&](const Counters& x) {
      return static_cast<double>(x.h(name).count());
    });
  }
  double h_mean(const char* name) const {
    return ratio(h_sum(name), h_count(name));
  }
  double window_ns() const {
    return sum(
        [](const Counters& x) { return static_cast<double>(x.snap.taken_ns); });
  }
  /// Max over partitions / mean over partitions of a partition counter.
  double skew(const char* name) const {
    std::vector<double> per(kPartitions, 0.0);
    for (const auto& [a, b] : spans_) {
      for (const auto& [snap, sign] : {std::pair{&b.snap, 1.0},
                                       std::pair{&a.snap, -1.0}}) {
        for (const auto& s : snap->counters) {
          if (s.name == name && s.partition >= 0 &&
              static_cast<std::uint32_t>(s.partition) < kPartitions) {
            per[static_cast<std::size_t>(s.partition)] +=
                sign * static_cast<double>(s.value);
          }
        }
      }
    }
    double total = 0, mx = 0;
    for (const double v : per) {
      total += v;
      mx = std::max(mx, v);
    }
    return ratio(mx, total / kPartitions);
  }

 private:
  template <typename F>
  double sum(F f) const {
    double s = 0;
    for (const auto& [a, b] : spans_) s += f(b) - f(a);
    return s;
  }
  std::vector<std::pair<Counters, Counters>> spans_;
};

struct CacheDelta {
  double value_hits = 0, shortcut_hits = 0, misses = 0, invalidations = 0;
  void add(const hybrids::cache::HotCache::Stats& a,
           const hybrids::cache::HotCache::Stats& b) {
    value_hits += static_cast<double>(b.value_hits - a.value_hits);
    shortcut_hits += static_cast<double>(b.shortcut_hits - a.shortcut_hits);
    misses += static_cast<double>(b.misses - a.misses);
    invalidations += static_cast<double>(b.invalidations - a.invalidations);
  }
};

struct PhaseStats {
  std::uint64_t n = 0;
  double mean_ns = 0;
  double p99_ns = 0;
  double total_ns = 0;
  double over_1ms = 0;  // share of spans longer than 1 ms
};

PhaseStats phase_stats(const hybrids::trace::TraceData& data,
                       hybrids::trace::Phase phase) {
  std::vector<double> d;
  for (const auto& e : data.events) {
    if (e.phase == phase && (e.flags & hybrids::trace::kFlagInstant) == 0) {
      d.push_back(static_cast<double>(e.dur_ns));
    }
  }
  PhaseStats s;
  s.n = d.size();
  if (d.empty()) return s;
  for (const double x : d) {
    s.total_ns += x;
    s.over_1ms += x > 1e6 ? 1 : 0;
  }
  s.mean_ns = s.total_ns / static_cast<double>(d.size());
  s.over_1ms /= static_cast<double>(d.size());
  const auto k = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(d.size())) - 1);
  std::nth_element(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(k),
                   d.end());
  s.p99_ns = d[k];
  return s;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_json;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hybench: " << why
            << "\nusage: hybench --workload NAME --seed N --seconds S "
               "[--trace 0|1] [--smoke] [--trace-json FILE]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string val;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      val = arg.substr(eq + 1);
      arg.resize(eq);
    }
    const auto value = [&]() -> std::string {
      if (eq != std::string::npos) return val;
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    const auto number = [&](double lo, double hi) {
      const std::string v = value();
      char* end = nullptr;
      const double d = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(d >= lo) || !(d <= hi)) {
        usage("bad value '" + v + "' for " + arg);
      }
      return d;
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = static_cast<std::uint64_t>(number(0, 1e15));
    } else if (arg == "--seconds") {
      o.seconds = number(0.05, 3600);
    } else if (arg == "--trace") {
      o.trace = number(0, 1) != 0;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--trace-json") {
      o.trace_json = value();
    } else {
      usage("unknown option '" + arg + "'");
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

/// Quiescent full-range scan through the public API, one key range per host
/// thread: every entry ascending with value == key, and as many entries as
/// the op tally says are live.
template <typename DS>
bool full_scan_ok(DS& ds, HostThreads& hosts, const hw::KeyLayout& layout,
                  std::uint64_t expect) {
  std::atomic<std::uint64_t> seen{0};
  std::atomic<bool> ok{true};
  hosts.run([&](std::uint32_t t) {
    constexpr std::size_t kPiece = 4096;
    const std::uint64_t span = std::uint64_t{layout.key_space()} / kHostThreads;
    const std::uint64_t hi =
        t + 1 == kHostThreads ? std::uint64_t{1} << 32 : (t + 1) * span;
    std::vector<ScanEntry> buf(kPiece);
    std::uint64_t count = 0;
    auto start = static_cast<Key>(t * span);
    bool have_prev = false;
    Key prev = 0;
    while (true) {
      const std::size_t n = ds.scan(start, kPiece, buf.data(), t);
      std::size_t j = 0;
      for (; j < n && buf[j].key < hi; ++j) {
        if (buf[j].value != buf[j].key || buf[j].key < start ||
            (have_prev && buf[j].key <= prev)) {
          ok = false;
        }
        prev = buf[j].key;
        have_prev = true;
        ++count;
      }
      if (j < n || n < kPiece || prev == ~Key{0}) break;
      start = prev + 1;
    }
    seen += count;
  });
  return ok && seen == expect;
}

/// The structure's own validate(). SeqSkipList::validate rescans the level
/// below for every node (quadratic), so the skiplist runs it only at smoke
/// sizes; the B+tree walk is linear.
template <typename DS>
bool structure_valid(DS& ds, std::uint64_t keys) {
  if constexpr (std::is_same_v<DS, hd::HybridSkipList>) {
    if (keys > (1u << 14)) return true;
  }
  return ds.validate();
}

template <typename DS>
hybrids::cache::HotCache::Stats cache_stats(DS& ds) {
  const hybrids::cache::HotCache* c = ds.hot_cache();
  return c != nullptr ? c->stats() : hybrids::cache::HotCache::Stats{};
}

/// Everything a run measured, over all of its setups.
struct Measured {
  std::vector<double> setup_s;
  double footprint_mib = 0;  // RSS growth over the first setup
  double arena_mib = 0;      // last setup
  Window win;                // untraced rounds of every setup
  Deltas deltas;             // over the untraced windows
  CacheDelta cache;
  double cache_bytes_max = 0;
  std::optional<Window> traced;
  hybrids::trace::TraceData trace;
  std::uint32_t sample_every = 0;
  std::uint64_t attempted = 0;  // every op run, warmup and traced included
  std::uint64_t failed = 0;     // ops whose result failed a check
  // Ops that used up their retry budget. Not failures: past the budget an
  // op backs off and retries from the partition head until it completes,
  // and its result is checked like any other.
  std::uint64_t retry_exhausted = 0;
  bool correct = true;
};

/// One setup's share: warmup, measured window, optional traced window, and
/// the quiescent checks.
template <typename DS>
void measure_setup(DS& ds, HostThreads& hosts, const Workload& w,
                   const Options& opt, const hw::KeyLayout& layout,
                   std::vector<std::unique_ptr<ThreadState>>& ts,
                   std::uint64_t preload, double seconds, double round_secs,
                   const Counters& before_setup, Measured& m) {
  // Warmup: fills the hot-key cache and settles churn; untimed.
  const Window warm =
      run_window(ds, hosts, ts, w.depth, std::min(1.0, seconds / 4),
                 round_secs / 2, 256);
  Tally all = warm.tally;
  const std::size_t first_block = static_cast<std::size_t>(std::max(
      16.0, throughput(warm) / kHostThreads * round_secs));

  Counters c0(hybrids::telemetry::snapshot());
  const auto cs0 = cache_stats(ds);
  const Window win =
      run_window(ds, hosts, ts, w.depth, seconds, round_secs, first_block);
  Counters c1(hybrids::telemetry::snapshot());
  m.cache.add(cs0, cache_stats(ds));
  m.cache_bytes_max =
      std::max(m.cache_bytes_max, c1.h(tn::kCacheBytes).max());
  m.arena_mib = (c1.c(tn::kMemArenaBytes) -
                 before_setup.c(tn::kMemArenaBytes)) /
                (1024.0 * 1024.0);
  m.win.append(win);
  m.deltas.add(std::move(c0), std::move(c1));
  all.add(win.tally);

  if (opt.trace && hybrids::trace::kCompiledIn) {
    // Size the 1-in-N rate from the untraced throughput so that no thread's
    // ring fills past half.
    const double per_thread_ops = throughput(win) / kHostThreads * seconds;
    const double budget =
        static_cast<double>(kTraceRingEvents) / 2 / w.trace_events_per_op;
    m.sample_every = static_cast<std::uint32_t>(
        std::max(1.0, std::ceil(per_thread_ops / budget)));
    hybrids::trace::set_sample_seed(opt.seed);
    hybrids::trace::set_sample_every(m.sample_every);
    m.traced =
        run_window(ds, hosts, ts, w.depth, seconds, round_secs, first_block);
    hybrids::trace::set_sample_every(0);
    all.add(m.traced->tally);
    m.trace = hybrids::trace::drain();
  }

  const std::uint64_t expect = preload + all.inserts_ok - all.removes_ok;
  const std::uint64_t check_t0 = now_ns();
  const bool valid = structure_valid(ds, preload) &&
                     full_scan_ok(ds, hosts, layout, expect);
  const std::uint64_t size = ds.size();
  const auto exhausted = static_cast<std::uint64_t>(
      Counters(hybrids::telemetry::snapshot()).c(tn::kRetryBudgetExhausted) -
      before_setup.c(tn::kRetryBudgetExhausted));
  std::cerr << "hybench: setup " << m.setup_s.size() << ": built in "
            << m.setup_s.back() << " s, checked in "
            << static_cast<double>(now_ns() - check_t0) * 1e-9 << " s\n";
  std::string first_bad;
  for (auto& st : ts) {
    if (first_bad.empty()) first_bad = st->first_bad;
  }
  if (all.bad != 0 || !valid || size != expect) {
    m.correct = false;
    std::cerr << "hybench: CHECK FAILED: wrong results " << all.bad
              << (first_bad.empty() ? "" : " (first: " + first_bad + ")")
              << ", structure " << (valid ? "valid" : "INVALID") << ", size "
              << size << " expected " << expect << "\n";
  }
  m.attempted += all.ops[kAll];
  m.failed += all.bad;
  m.retry_exhausted += exhausted;
}

void report(const Workload& w, const Options& opt, std::uint64_t preload,
            const Measured& m) {
  Report rep;
  const Window& win = m.win;
  const Tally& t = win.tally;
  const double ops = static_cast<double>(t.ops[kAll]);
  const double writes = static_cast<double>(t.inserts + t.removes);
  const double tput = throughput(win);
  const auto n = t.ops[kAll];

  // End-to-end.
  rep.add("throughput_ops_s", tput, "ops/s", n);
  rep.add("p50_us", quantile_median(win, kAll, false) / 1e3, "us", n);
  rep.add("p99_us", quantile_median(win, kAll, true) / 1e3, "us", n);
  for (const int cls : {kRead, kWrite, kScan}) {
    if (win.samples[cls] == 0) continue;
    const std::string c = kClsName[cls];
    rep.add(c + "_p50_us", quantile_median(win, cls, false) / 1e3, "us",
            win.samples[cls]);
    rep.add(c + "_p99_us", quantile_median(win, cls, true) / 1e3, "us",
            win.samples[cls]);
  }
  if (t.ops[kScan] > 0) {
    std::vector<double> v;
    for (const RoundStat& r : win.rounds) {
      v.push_back(static_cast<double>(r.scan_entries) / r.secs);
    }
    rep.add("scan_entries_s", median(v), "entries/s", t.scan_entries);
  }
  if (t.ops[kRead] > 0) {
    // Churn state: under rw50 the loaded keys drain as the run progresses.
    rep.add("read_found_ratio",
            ratio(static_cast<double>(t.reads_ok),
                  static_cast<double>(t.ops[kRead])),
            "ratio", t.ops[kRead]);
  }
  rep.add("failed_op_ratio",
          ratio(static_cast<double>(m.failed), static_cast<double>(m.attempted)),
          "ratio", m.attempted);
  rep.add("setup_s", median(m.setup_s), "s", m.setup_s.size());
  rep.add("footprint_mib", m.footprint_mib, "MiB", 1);

  // Per layer: telemetry deltas over the untraced measured windows.
  const Deltas& d = m.deltas;
  const double inserts = static_cast<double>(t.inserts);
  const double scans = static_cast<double>(t.ops[kScan]);
  const double served = d.c(tn::kServedTotal);
  const auto n_served = static_cast<std::uint64_t>(served);
  const CacheDelta& c = m.cache;
  const double lookups = c.value_hits + c.shortcut_hits + c.misses;
  rep.add("ds.offloads_per_op", ratio(d.c(tn::kOffloadPosted), ops), "1/op", n);
  rep.add("ds.host_only_ratio",
          ratio(c.value_hits + d.c(tn::kHostReadHits), ops), "ratio", n);
  rep.add("ds.retries_per_kop", 1e3 * ratio(d.c(tn::kHostRetryTotal), ops),
          "1/kop", n);
  rep.add("ds.retry_exhausted_per_mop",
          1e6 * ratio(static_cast<double>(m.retry_exhausted),
                      static_cast<double>(m.attempted)),
          "1/Mop", m.attempted);
  rep.add("ds.node_keys_per_op", ratio(d.c(tn::kHostNodeKeysScanned), ops),
          "keys/op", n);
  rep.add("ds.fatnode_splits_per_kinsert",
          1e3 * ratio(d.c(tn::kMemFatnodeSplits), inserts), "1/kinsert",
          t.inserts);
  rep.add("ds.lock_path_per_kop", 1e3 * ratio(d.c(tn::kLockPathTotal), ops),
          "1/kop", n);
  rep.add("ds.scan_chunks_per_scan", ratio(d.c("served_scan"), scans),
          "1/scan", t.ops[kScan]);
  rep.add("ds.scan_hops_per_scan", ratio(d.c(tn::kScanPartitionHops), scans),
          "1/scan", t.ops[kScan]);
  rep.add("cache.hit_ratio", ratio(c.value_hits + c.shortcut_hits, lookups),
          "ratio", static_cast<std::uint64_t>(lookups));
  rep.add("cache.value_hit_ratio",
          ratio(c.value_hits, c.value_hits + c.misses), "ratio",
          static_cast<std::uint64_t>(c.value_hits + c.misses));
  rep.add("cache.shortcut_hit_ratio", ratio(c.shortcut_hits, c.misses),
          "ratio", static_cast<std::uint64_t>(c.misses));
  rep.add("cache.invalidations_per_write", ratio(c.invalidations, writes),
          "1/write", t.inserts + t.removes);
  rep.add("cache.bytes_max", m.cache_bytes_max, "bytes", 1);
  rep.add("host.interleave_depth_mean", d.h_mean(tn::kInterleaveDepth), "ops",
          static_cast<std::uint64_t>(d.h_count(tn::kInterleaveDepth)));
  rep.add("host.yields_per_op", ratio(d.c(tn::kInterleaveYields), ops), "1/op",
          n);
  rep.add("host.fallback_waits_per_kop",
          1e3 * ratio(d.c(tn::kInterleaveFallbackWaits), ops), "1/kop", n);
  rep.add("nmp.combiner_busy_ratio",
          ratio(d.h_sum(tn::kServiceNs), d.window_ns() * kPartitions), "ratio",
          n_served);
  rep.add("nmp.parks_per_served", ratio(d.c(tn::kParkTotal), served), "ratio",
          n_served);
  rep.add("nmp.wakes_per_served", ratio(d.c(tn::kWakeTotal), served), "ratio",
          n_served);
  rep.add("nmp.batch_mean", d.h_mean(tn::kCombinerBatch), "ops",
          static_cast<std::uint64_t>(d.h_count(tn::kCombinerBatch)));
  rep.add("nmp.finger_hit_ratio", ratio(d.c(tn::kBatchFingerHits), served),
          "ratio", n_served);
  rep.add("nmp.wait_timeouts_per_mop",
          1e6 * ratio(d.c(tn::kWaitTimeoutTotal), ops), "1/Mop", n);
  rep.add("nmp.partition_skew", d.skew(tn::kServedTotal), "ratio", n_served);
  rep.add("mem.arena_mib", m.arena_mib, "MiB", 1);
  rep.add("mem.pool_recycled_per_write",
          ratio(d.c(tn::kMemPoolRecycled), writes), "1/write",
          t.inserts + t.removes);
  rep.add("mem.pool_shard_miss_ratio", ratio(d.c(tn::kMemPoolShardMisses), ops),
          "1/op", n);
  rep.add("mem.rss_growth_mib", m.footprint_mib, "MiB", 1);

  if (m.traced) {
    namespace tr = hybrids::trace;
    const tr::TraceData& data = m.trace;
    const PhaseStats op = phase_stats(data, tr::Phase::kOp);
    const PhaseStats descend = phase_stats(data, tr::Phase::kHostDescend);
    const PhaseStats publish = phase_stats(data, tr::Phase::kPublish);
    const PhaseStats queue = phase_stats(data, tr::Phase::kQueueWait);
    const PhaseStats apply = phase_stats(data, tr::Phase::kApply);
    const PhaseStats reply = phase_stats(data, tr::Phase::kReply);
    const PhaseStats wake = phase_stats(data, tr::Phase::kWake);
    const tr::Breakdown bd = tr::breakdown(data);
    rep.add("ds.host_descend_ns_mean", descend.mean_ns, "ns", descend.n);
    rep.add("ds.host_descend_share", ratio(descend.total_ns, op.total_ns),
            "ratio", op.n);
    rep.add("nmp.publish_ns_mean", publish.mean_ns, "ns", publish.n);
    rep.add("nmp.queue_wait_ns_mean", queue.mean_ns, "ns", queue.n);
    rep.add("nmp.queue_wait_ns_p99", queue.p99_ns, "ns", queue.n);
    rep.add("nmp.apply_ns_mean", apply.mean_ns, "ns", apply.n);
    rep.add("nmp.reply_ns_mean", reply.mean_ns, "ns", reply.n);
    rep.add("nmp.wake_ns_mean", wake.mean_ns, "ns", wake.n);
    rep.add("nmp.wake_ns_p99", wake.p99_ns, "ns", wake.n);
    rep.add("nmp.wake_over_1ms_ratio", wake.over_1ms, "ratio", wake.n);
    const double events = static_cast<double>(data.events.size());
    rep.add("trace.overhead_ratio", 1.0 - ratio(throughput(*m.traced), tput),
            "ratio", m.traced->tally.ops[kAll]);
    rep.add("trace.dropped_ratio",
            ratio(static_cast<double>(data.dropped),
                  events + static_cast<double>(data.dropped)),
            "ratio", data.events.size());
    rep.add("trace.coverage", bd.coverage(), "ratio", bd.offloaded_ops);
    std::cerr << "trace: sampled 1 in " << m.sample_every << " ops, "
              << data.sampled_ops << " sampled, " << data.events.size()
              << " events\n"
              << tr::breakdown_table(bd) << "\n";
    if (!opt.trace_json.empty() &&
        !tr::write_chrome_json(opt.trace_json, data)) {
      std::cerr << "hybench: cannot write " << opt.trace_json << "\n";
    }
  }

  for (const Metric& x : rep.metrics()) {
    std::fprintf(stderr, "%-32s %14.6g %-10s n=%llu\n", x.name.c_str(),
                 x.value, x.unit.c_str(),
                 static_cast<unsigned long long>(x.samples));
  }

  std::ostringstream js;
  js << "{\"schema\": \"hybench.run.v1\", \"workload\": "
     << json_string(w.name) << ", \"seed\": " << opt.seed
     << ", \"seconds\": " << json_number(opt.seconds)
     << ", \"traced\": " << (opt.trace ? "true" : "false")
     << ", \"smoke\": " << (opt.smoke ? "true" : "false")
     << ", \"keys\": " << preload << ", \"host_threads\": " << kHostThreads
     << ", \"partitions\": " << kPartitions << ", \"depth\": " << w.depth
     << ", \"pinned\": " << (placement().pinned() ? "true" : "false")
     << ", \"setups\": " << m.setup_s.size() << ", \"round_ops_s\": [";
  for (std::size_t i = 0; i < win.rounds.size(); ++i) {
    const RoundStat& r = win.rounds[i];
    js << (i ? ", " : "")
       << json_number(static_cast<double>(r.ops) / r.secs);
  }
  js << "], \"trace_sample_every\": " << m.sample_every
     << ", \"machine\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"l2_bytes\": " << sysconf(_SC_LEVEL2_CACHE_SIZE)
     << ", \"l3_bytes\": " << sysconf(_SC_LEVEL3_CACHE_SIZE)
     << ", \"mem_bytes\": "
     << static_cast<long long>(sysconf(_SC_PHYS_PAGES)) *
            sysconf(_SC_PAGESIZE)
     << "}, \"correct\": " << (m.correct ? "true" : "false")
     << ", \"attempted\": " << m.attempted << ", \"failed\": " << m.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& x : rep.metrics()) {
    js << (first ? "" : ", ") << json_string(x.name) << ": {\"value\": "
       << json_number(x.value) << ", \"unit\": " << json_string(x.unit)
       << ", \"samples\": " << x.samples << "}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

/// Sets the structure up w.setups times (once when traced or smoke-sized);
/// each setup gets an equal share of the measured time, so a run averages
/// over fresh memory layouts, combiner threads and (skiplist) tower heights.
template <typename DS, typename Build>
int run(const Workload& w, const Options& opt, std::uint64_t keys,
        Build build) {
  HostThreads hosts;
  const hw::WorkloadSpec spec = w.spec(keys, opt.seed);
  std::vector<std::unique_ptr<ThreadState>> ts;
  for (std::uint32_t t = 0; t < kHostThreads; ++t) {
    ts.push_back(std::make_unique<ThreadState>(spec, t, w.depth));
  }
  const hw::KeyLayout layout(keys, kPartitions);
  const std::vector<Key> initial = layout.initial_key_set();

  const int setups = opt.trace || opt.smoke ? 1 : w.setups;
  const double measured = opt.trace ? opt.seconds / 2 : opt.seconds;
  const double share = measured / setups;
  const double round_secs = std::max(0.02, share / 10);
  Measured m;
  for (int s = 0; s < setups; ++s) {
    const Counters before_setup(hybrids::telemetry::snapshot());
    const double rss0 = rss_mib();
    const std::uint64_t t0 = now_ns();
    std::unique_ptr<DS> ds =
        build(hosts, layout, initial, opt.seed * 64 + s);
    m.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (s == 0) m.footprint_mib = rss_mib() - rss0;
    measure_setup(*ds, hosts, w, opt, layout, ts, initial.size(), share,
                  round_secs, before_setup, m);
    ds.reset();
    release_freed_memory();
  }
  report(w, opt, initial.size(), m);
  return m.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (opt.workload == cand.name) w = &cand;
  }
  if (w == nullptr) usage("unknown workload '" + opt.workload + "'");
  if (opt.trace && !hybrids::trace::kCompiledIn) {
    usage("--trace 1 needs the tracing layer compiled in");
  }
  // Rings are created on a thread's first sampled record, by host and
  // combiner threads alike; size them before any structure starts.
  hybrids::trace::set_ring_capacity(kTraceRingEvents);

  const std::uint64_t keys = opt.smoke ? w->smoke_keys : w->keys;
  if (w->structure == Structure::kSkipList) {
    return run<hd::HybridSkipList>(
        *w, opt, keys,
        [&](HostThreads& hosts, const hw::KeyLayout& layout,
            const std::vector<Key>& initial, std::uint64_t seed) {
          return build_skiplist(*w, hosts, layout, initial, seed);
        });
  }
  return run<hd::HybridBTree>(
      *w, opt, keys,
      [&](HostThreads&, const hw::KeyLayout&, const std::vector<Key>& initial,
          std::uint64_t) { return build_btree(*w, initial); });
}
