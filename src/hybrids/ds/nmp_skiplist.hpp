// NMP-based flat-combining skiplist — the prior-work baseline (Liu et al.
// SPAA'17 [44], Choe et al. SPAA'19 [16]) the paper compares against.
//
// The entire skiplist lives in NMP-capable memory, range-partitioned across
// NMP cores; host threads never traverse nodes. Every operation is offloaded
// through the publication list, and the owning NMP core executes the full
// top-to-bottom traversal from its partition's head sentinel.
//
// With `Config::batching` (default on) the combiner serves each scan pass as
// one key-sorted batch: operations are applied in ascending key order with a
// SeqSkipList::Finger, so each op resumes its predecessor search from the
// previous op's position instead of re-descending from the partition head.
// Finger reuse is counted in the per-partition `nmp.batch_finger_hits`
// telemetry counter.
#pragma once

#include <memory>
#include <thread>
#include <vector>

#include "hybrids/cache/hot_cache.hpp"
#include "hybrids/ds/seq_skiplist.hpp"
#include "hybrids/host/interleave.hpp"
#include "hybrids/nmp/partition_set.hpp"
#include "hybrids/telemetry/registry.hpp"
#include "hybrids/types.hpp"
#include "hybrids/util/cache_aligned.hpp"
#include "hybrids/util/rng.hpp"

namespace hybrids::ds {

class NmpSkipList {
 public:
  struct Config {
    int total_height = 22;        // skiplist levels (paper: log2 of item count)
    std::uint32_t partitions = 8; // NMP vaults holding data
    Key partition_width = 0;      // key-range width per partition (required)
    std::uint32_t max_threads = 8;
    std::uint32_t slots_per_thread = 4;  // async publication slots (Frame ops)
    std::uint64_t seed = 1;
    bool batching = true;  // key-sorted batch apply with a traversal finger
    // NMP runtime watchdog / failover passthrough (see nmp::PartitionConfig).
    std::uint32_t watchdog_interval_ms = 10;
    std::uint32_t watchdog_misses_to_degrade = 5;
    std::uint32_t watchdog_misses_to_recover = 3;
    nmp::FailoverPolicy failover = nmp::FailoverPolicy::kRespawn;
    // Host-side hot-key cache budget in bytes (0 = off). The NMP-only
    // skiplist gets the value tier only: its combiner always descends from
    // the partition head sentinel, so a cached begin-node shortcut has
    // nothing to skip and the whole budget goes to values.
    std::size_t cache_budget_bytes = 0;
  };

  explicit NmpSkipList(const Config& config)
      : config_(config), set_(make_partition_config(config)) {
    lists_.reserve(config.partitions);
    for (std::uint32_t p = 0; p < config.partitions; ++p) {
      lists_.push_back(std::make_unique<SeqSkipList>(config.total_height));
      SeqSkipList* list = lists_.back().get();
      telemetry::LatencyRecorder* scan_len =
          &telemetry::latency(telemetry::names::kScanLen,
                              static_cast<std::int32_t>(p));
      set_.set_handler(
          p, [list, scan_len](const nmp::Request& req, nmp::Response& resp) {
            apply(*list, req, resp);
            if (req.op == nmp::OpCode::kScan) scan_len->record(resp.value);
          });
      if (config.batching) {
        telemetry::Counter* finger_hits = &telemetry::counter(
            telemetry::names::kBatchFingerHits, static_cast<std::int32_t>(p));
        set_.set_batch_handler(
            p, [list, finger_hits, scan_len](nmp::BatchOp* ops, std::size_t n) {
              apply_batch(*list, ops, n, finger_hits);
              for (std::size_t i = 0; i < n; ++i) {
                if (ops[i].req->op == nmp::OpCode::kScan) {
                  scan_len->record(ops[i].resp->value);
                }
              }
            });
      }
    }
    rngs_ = std::vector<util::CacheAligned<util::Xoshiro256>>(config.max_threads);
    for (std::uint32_t t = 0; t < config.max_threads; ++t) {
      *rngs_[t] = util::Xoshiro256(config.seed * 0x9E3779B97F4A7C15ULL + t);
    }
    if (config.cache_budget_bytes > 0) {
      cache::HotCache::Config cc;
      cc.budget_bytes = config.cache_budget_bytes;
      cc.value_ratio = 1.0;  // no host descent to shortcut past
      cc.partitions = config.partitions;
      cache_ = std::make_unique<cache::HotCache>(cc);
    }
    set_.start();
  }

  ~NmpSkipList() { set_.stop(); }

  // ----- operations ----------------------------------------------------------
  //
  // Each operation has one body, its `_co` coroutine; the blocking entry
  // points run it inline (host::run_inline). The NMP-only skiplist has no
  // host descent to interleave, so under a host::Frame its only suspension
  // point is the publication round-trip: post async, park on the slot,
  // resume a sibling op meanwhile.

  bool read(Key key, Value& out, std::uint32_t tid) {
    return host::run_inline(read_co(key, &out, tid));
  }

  bool update(Key key, Value value, std::uint32_t tid) {
    return host::run_inline(update_co(key, value, tid));
  }

  bool insert(Key key, Value value, std::uint32_t tid) {
    return host::run_inline(insert_co(key, value, tid));
  }

  bool remove(Key key, std::uint32_t tid) {
    return host::run_inline(remove_co(key, tid));
  }

  /// Blocking range scan; see scan_co.
  std::size_t scan(Key start, std::size_t count, ScanEntry* out,
                   std::uint32_t tid) {
    return host::run_inline(scan_co(start, count, out, tid));
  }

  host::CoTask<bool> read_co(Key key, Value* out, std::uint32_t tid) {
    const std::uint32_t part = set_.partition_of(key);
    if (cache_ != nullptr && cache_->lookup_value(key, *out)) {
      co_return true;
    }
    const std::uint64_t gen = cache_gen(part);
    const nmp::Request req = make_request(nmp::OpCode::kRead, key, 0, 0);
    nmp::Response r;
    do {
      r = co_await host::call_co(set_, part, tid, req);
    } while (bounced(r, part));
    *out = r.value;
    if (cache_ != nullptr && r.ok) {
      cache_->fill_value(key, part, r.value, r.aux, gen);
    }
    co_return r.ok;
  }

  host::CoTask<bool> update_co(Key key, Value value, std::uint32_t tid) {
    const std::uint32_t part = set_.partition_of(key);
    const std::uint64_t gen = cache_gen(part);
    const nmp::Request req = make_request(nmp::OpCode::kUpdate, key, value, 0);
    nmp::Response r;
    do {
      r = co_await host::call_co(set_, part, tid, req);
    } while (bounced(r, part));
    if (cache_ != nullptr && r.ok) {
      // Invalidate (raises the fill floor past any in-flight stale read
      // fill), then write through at the same version.
      cache_->invalidate_value(key, part, r.aux);
      cache_->fill_value(key, part, value, r.aux, gen);
    }
    co_return r.ok;
  }

  host::CoTask<bool> insert_co(Key key, Value value, std::uint32_t tid) {
    const std::uint32_t part = set_.partition_of(key);
    const int h = random_height(*rngs_[tid], config_.total_height);
    const nmp::Request req = make_request(nmp::OpCode::kInsert, key, value, h);
    nmp::Response r;
    do {
      r = co_await host::call_co(set_, part, tid, req);
    } while (bounced(r, part));
    if (cache_ != nullptr && r.ok) cache_->invalidate_value(key, part, r.aux);
    co_return r.ok;
  }

  host::CoTask<bool> remove_co(Key key, std::uint32_t tid) {
    const std::uint32_t part = set_.partition_of(key);
    const nmp::Request req = make_request(nmp::OpCode::kRemove, key, 0, 0);
    nmp::Response r;
    do {
      r = co_await host::call_co(set_, part, tid, req);
    } while (bounced(r, part));
    if (cache_ != nullptr && r.ok) cache_->invalidate_value(key, part, r.aux);
    co_return r.ok;
  }

  /// Range scan: fills `out` with up to `count` (key, value) pairs with key
  /// >= `start`, ascending. Issues kScan chunks of at most kScanChunk
  /// entries each, continuing within a partition at the response's
  /// continuation key and hopping to the next partition when one is
  /// exhausted. Returns the number of entries written.
  host::CoTask<std::size_t> scan_co(Key start, std::size_t count,
                                    ScanEntry* out, std::uint32_t tid) {
    std::size_t filled = 0;
    Key cur = start;
    std::uint32_t p = set_.partition_of(start);
    while (filled < count) {
      const std::size_t want = count - filled < nmp::kScanChunk
                                   ? count - filled
                                   : nmp::kScanChunk;
      nmp::Request r =
          make_request(nmp::OpCode::kScan, cur, static_cast<Value>(want), 0);
      r.host_node = out + filled;
      nmp::Response resp;
      do {
        resp = co_await host::call_co(set_, p, tid, r);
      } while (bounced(resp, p));
      filled += resp.value;
      if (resp.has_more) {
        cur = static_cast<Key>(resp.aux);
        continue;
      }
      if (p + 1 >= config_.partitions) break;
      ++p;
      // Partition p's keys all sit at or above its range base; continuing
      // at max(cur, base) keeps the chunk sequence strictly ascending.
      const Key base = static_cast<Key>(static_cast<std::uint64_t>(p) *
                                        config_.partition_width);
      if (base > cur) cur = base;
    }
    co_return filled;
  }

  /// The underlying partition set (failover tests use it for
  /// trigger_failover / degraded / failovers).
  nmp::PartitionSet& partition_set() { return set_; }

  /// The hot-key cache, or nullptr when disabled (budget 0).
  cache::HotCache* hot_cache() { return cache_.get(); }

  /// Quiescent-only helpers for tests.
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& l : lists_) n += l->size();
    return n;
  }
  bool validate() const {
    for (const auto& l : lists_) {
      if (!l->validate()) return false;
    }
    return true;
  }

  /// Combiner-side application of one request. With a non-null `fg` the
  /// predecessor search goes through SeqSkipList::find_finger (key-sorted
  /// batch path); with null it behaves exactly like the one-at-a-time
  /// handler. Public so the batching ablation bench can drive the combiner
  /// work loop directly, without the runtime around it.
  static void apply(SeqSkipList& list, const nmp::Request& req,
                    nmp::Response& resp, SeqSkipList::Finger* fg = nullptr) {
    SeqSkipList::Node* preds[SeqSkipList::kMaxLevels];
    SeqSkipList::Node* succs[SeqSkipList::kMaxLevels];
    auto locate = [&](Key key) {
      return fg != nullptr ? list.find_finger(key, list.head(), preds, succs, *fg)
                           : list.find(key, list.head(), preds, succs);
    };
    switch (req.op) {
      case nmp::OpCode::kRead: {
        SeqSkipList::Node* n = locate(req.key);
        resp.ok = n != nullptr;
        if (n != nullptr) resp.value = n->value;
        // Echo the partition's CURRENT version for cache fills — the
        // partition counter, not the node's own stamp: a never-updated
        // key's node version would sit below the partition fill floor
        // forever and be permanently uncacheable.
        resp.aux = list.current_version();
        break;
      }
      case nmp::OpCode::kUpdate: {
        SeqSkipList::Node* n = locate(req.key);
        resp.ok = n != nullptr;
        if (n != nullptr) {
          n->value = req.value;
          // Same versioning discipline as the hybrid's combiner: monotonic
          // over the list, not per node (stays ordered across re-inserts).
          n->version = list.next_version();
          resp.aux = n->version;
        }
        break;
      }
      case nmp::OpCode::kInsert: {
        SeqSkipList::Node* found = locate(req.key);
        resp.ok = found == nullptr;
        if (found != nullptr) {
          resp.node = found;
        } else {
          SeqSkipList::Node* node =
              list.link(req.key, req.value, static_cast<int>(req.aux), nullptr,
                        preds, succs);
          // Version every successful insert so the host can invalidate any
          // cached miss-turned-hit for this key.
          node->version = list.next_version();
          resp.aux = node->version;
          resp.node = node;
        }
        break;
      }
      case nmp::OpCode::kRemove: {
        SeqSkipList::Node* found = locate(req.key);
        resp.ok = found != nullptr;
        if (found != nullptr) {
          list.unlink(found, preds);
          resp.aux = list.next_version();
        }
        break;
      }
      case nmp::OpCode::kScan: {
        std::uint32_t max = static_cast<std::uint32_t>(req.value);
        if (max > nmp::kScanChunk) max = nmp::kScanChunk;
        Key next = 0;
        bool more = false;
        resp.value = list.scan(req.key, max, list.head(),
                               static_cast<ScanEntry*>(req.host_node), &next,
                               &more, fg);
        resp.aux = next;
        resp.has_more = more;
        resp.ok = true;
        break;
      }
      default:
        resp.ok = false;
        break;
    }
  }

  /// Key-sorted batch apply (NmpCore::BatchHandler): threads one finger
  /// through the whole ascending-key batch and accumulates its reuse count
  /// into `finger_hits` (nullable).
  static void apply_batch(SeqSkipList& list, nmp::BatchOp* ops, std::size_t n,
                          telemetry::Counter* finger_hits) {
    SeqSkipList::Finger fg;
    for (std::size_t i = 0; i < n; ++i) {
      apply(list, *ops[i].req, *ops[i].resp, &fg);
    }
    if (finger_hits != nullptr) finger_hits->add(fg.hits);
  }

 private:
  /// Failover check after every round-trip: a failed_over response means
  /// the request was not served (the lane was fenced before a combiner
  /// picked it up, or bounced in flight), so the op re-posts until a live
  /// combiner — or a lease-holding host — serves it. The loop sits in each
  /// op body, so a round-trip costs no coroutine frame of its own.
  bool bounced(const nmp::Response& r, std::uint32_t p) {
    if (!r.failed_over) return false;
    // No cached value survives a bounced partition: the takeover path may
    // have served writes this host never saw acks for.
    if (cache_ != nullptr) cache_->bump_generation(p);
    std::this_thread::yield();
    return true;
  }

  std::uint64_t cache_gen(std::uint32_t part) const {
    return cache_ != nullptr ? cache_->generation(part) : 0;
  }

  static nmp::PartitionConfig make_partition_config(const Config& c) {
    nmp::PartitionConfig pc;
    pc.partitions = c.partitions;
    pc.max_threads = c.max_threads;
    pc.slots_per_thread = c.slots_per_thread;
    pc.partition_width = c.partition_width;
    pc.watchdog_interval_ms = c.watchdog_interval_ms;
    pc.watchdog_misses_to_degrade = c.watchdog_misses_to_degrade;
    pc.watchdog_misses_to_recover = c.watchdog_misses_to_recover;
    pc.failover = c.failover;
    return pc;
  }

  static nmp::Request make_request(nmp::OpCode op, Key key, Value value,
                                   std::uint64_t height) {
    nmp::Request r;
    r.op = op;
    r.key = key;
    r.value = value;
    r.aux = height;
    return r;
  }

  Config config_;
  nmp::PartitionSet set_;
  std::vector<std::unique_ptr<SeqSkipList>> lists_;
  std::vector<util::CacheAligned<util::Xoshiro256>> rngs_;
  std::unique_ptr<cache::HotCache> cache_;
};

}  // namespace hybrids::ds
