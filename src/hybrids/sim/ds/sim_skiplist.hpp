// Simulator-side skiplists: cooperative (coroutine) versions of the three
// skiplist designs the paper evaluates, running on the simulated machine.
//
//  * SimLockFreeSkipList — host-only baseline; every node visit goes through
//    the host cache hierarchy. Optimistic traversal + validate-and-apply
//    mutations mirror the lock-free algorithm's retry behaviour (mutations
//    are applied atomically between co_await points, which is exactly the
//    atomicity a CAS provides).
//  * SimNmpSkipList — prior-work baseline [16,44]: the whole structure lives
//    in NMP vaults; hosts only post publication-list requests.
//  * SimHybridSkipList — §3.3: host-managed top levels (cache-resident) +
//    NMP-managed lower levels with begin-node shortcuts, stale-begin retry,
//    and blocking or non-blocking offload.
#pragma once

#include <cassert>
#include <memory>
#include <new>
#include <vector>

#include "hybrids/nmp/publication.hpp"
#include "hybrids/sim/core/arena.hpp"
#include "hybrids/sim/machine/system.hpp"
#include "hybrids/types.hpp"
#include "hybrids/util/rng.hpp"
#include "hybrids/workload/workload.hpp"

namespace hybrids::sim {

struct SimSkipNode {
  Key key;
  Value value;
  std::uint16_t height;
  bool marked;
  void* xref;  // counterpart across the host/NMP boundary (hybrid only)
  SimSkipNode* next[1];  // flexible, `height` slots

  static SimSkipNode* make(AlignedArena& arena, Key key, Value value,
                           int height, void* xref) {
    // One node per 128B block, as the paper assumes (node-size accesses):
    // nodes must not share cache blocks or the baselines gain spatial
    // locality the modeled machine does not have.
    std::size_t bytes =
        sizeof(SimSkipNode) + static_cast<std::size_t>(height - 1) * sizeof(SimSkipNode*);
    bytes = (bytes + 127) & ~std::size_t{127};
    auto* n = static_cast<SimSkipNode*>(arena.allocate(bytes, 128));
    n->key = key;
    n->value = value;
    n->height = static_cast<std::uint16_t>(height);
    n->marked = false;
    n->xref = xref;
    for (int i = 0; i < height; ++i) n->next[i] = nullptr;
    return n;
  }
};

/// A skiplist region (one NMP partition, or the host-managed portion).
/// Structure mutations are instantaneous (applied between co_await points);
/// traversal and write costs are charged through the given context.
class SimSkipRegion {
 public:
  explicit SimSkipRegion(int max_height) : max_height_(max_height) {
    head_ = SimSkipNode::make(arena_, 0, 0, max_height, nullptr);
  }
  SimSkipRegion(const SimSkipRegion&) = delete;
  SimSkipRegion& operator=(const SimSkipRegion&) = delete;

  int max_height() const { return max_height_; }
  SimSkipNode* head() const { return head_; }
  std::size_t size() const { return size_; }

  /// Untimed population (initialization is not part of the measurement).
  bool insert_quiet(Key key, Value value, int height, void* xref = nullptr,
                    SimSkipNode** out = nullptr) {
    SimSkipNode* preds[kMaxLevels];
    SimSkipNode* succs[kMaxLevels];
    if (find_now(key, head_, preds, succs) != nullptr) return false;
    if (height > max_height_) height = max_height_;
    SimSkipNode* n = SimSkipNode::make(arena_, key, value, height, xref);
    for (int l = 0; l < height; ++l) {
      n->next[l] = succs[l];
      preds[l]->next[l] = n;
    }
    ++size_;
    if (out != nullptr) *out = n;
    return true;
  }

  /// Charged traversal: returns the node for `key` (or null), touching one
  /// block per visited node. `begin` must span all levels and be unmarked.
  template <typename Ctx>
  Task<SimSkipNode*> read(Ctx& c, SimSkipNode* begin, Key key) {
    SimSkipNode* pred = begin;
    co_await c.node(pred);
    SimSkipNode* found = nullptr;
    for (int lvl = max_height_ - 1; lvl >= 0; --lvl) {
      SimSkipNode* curr = pred->next[lvl];
      while (curr != nullptr) {
        co_await c.node(curr);
        if (curr->marked) {  // skip logically deleted
          curr = curr->next[lvl];
          continue;
        }
        if (curr->key < key) {
          pred = curr;
          curr = curr->next[lvl];
          continue;
        }
        break;
      }
      if (curr != nullptr && curr->key == key && !curr->marked) {
        found = curr;
        break;
      }
    }
    co_return found;
  }

  /// Charged traversal collecting the full window; also returns the found
  /// node. preds/succs have max_height entries.
  template <typename Ctx>
  Task<SimSkipNode*> find(Ctx& c, SimSkipNode* begin, Key key,
                          SimSkipNode** preds, SimSkipNode** succs) {
    SimSkipNode* pred = begin;
    co_await c.node(pred);
    SimSkipNode* found = nullptr;
    for (int lvl = max_height_ - 1; lvl >= 0; --lvl) {
      SimSkipNode* curr = pred->next[lvl];
      while (curr != nullptr) {
        co_await c.node(curr);
        if (curr->marked) {
          curr = curr->next[lvl];
          continue;
        }
        if (curr->key < key) {
          pred = curr;
          curr = curr->next[lvl];
          continue;
        }
        break;
      }
      preds[lvl] = pred;
      succs[lvl] = curr;
      if (found == nullptr && curr != nullptr && curr->key == key) found = curr;
    }
    co_return found;
  }

  /// Validate-and-apply insert: retries the traversal if the window went
  /// stale during the charged awaits (mirrors CAS-failure retries).
  template <typename Ctx>
  Task<SimSkipNode*> insert(Ctx& c, SimSkipNode* begin, Key key, Value value,
                            int height, void* xref, bool& existed) {
    if (height > max_height_) height = max_height_;
    SimSkipNode* preds[kMaxLevels];
    SimSkipNode* succs[kMaxLevels];
    while (true) {
      SimSkipNode* found = co_await find(c, begin, key, preds, succs);
      if (found != nullptr) {
        existed = true;
        co_return found;
      }
      if (!window_valid(key, preds, succs, height)) continue;
      SimSkipNode* n = SimSkipNode::make(arena_, key, value, height, xref);
      for (int l = 0; l < height; ++l) {
        n->next[l] = succs[l];
        preds[l]->next[l] = n;
      }
      ++size_;
      // Charge the link writes (new node + one pred per level).
      co_await c.node(n, /*write=*/true);
      for (int l = 0; l < height; ++l) co_await c.node(preds[l], /*write=*/true);
      existed = false;
      co_return n;
    }
  }

  template <typename Ctx>
  Task<bool> remove(Ctx& c, SimSkipNode* begin, Key key) {
    SimSkipNode* preds[kMaxLevels];
    SimSkipNode* succs[kMaxLevels];
    while (true) {
      SimSkipNode* found = co_await find(c, begin, key, preds, succs);
      if (found == nullptr) co_return false;
      if (!window_valid(key, preds, succs, found->height) || succs[0] != found) {
        continue;
      }
      found->marked = true;  // logical deletion first (§3.3)
      for (int l = found->height - 1; l >= 0; --l) {
        if (preds[l]->next[l] == found) preds[l]->next[l] = found->next[l];
      }
      retired_.push_back(found);
      --size_;
      co_await c.node(found, /*write=*/true);
      for (int l = 0; l < found->height; ++l) co_await c.node(preds[l], /*write=*/true);
      co_return true;
    }
  }

  static constexpr int kMaxLevels = 32;

 private:
  SimSkipNode* find_now(Key key, SimSkipNode* begin, SimSkipNode** preds,
                        SimSkipNode** succs) const {
    SimSkipNode* pred = begin;
    SimSkipNode* found = nullptr;
    for (int lvl = max_height_ - 1; lvl >= 0; --lvl) {
      SimSkipNode* curr = pred->next[lvl];
      while (curr != nullptr && (curr->marked || curr->key < key)) {
        if (!curr->marked) pred = curr;
        curr = curr->next[lvl];
      }
      preds[lvl] = pred;
      succs[lvl] = curr;
      if (found == nullptr && curr != nullptr && curr->key == key) found = curr;
    }
    return found;
  }

  bool window_valid(Key key, SimSkipNode* const* preds, SimSkipNode* const* succs,
                    int height) const {
    for (int l = 0; l < height; ++l) {
      if (preds[l]->marked) return false;
      if (preds[l]->next[l] != succs[l]) return false;
      if (succs[l] != nullptr && succs[l]->marked) return false;
      if (preds[l] != head_ && preds[l]->key >= key) return false;
    }
    return true;
  }

  AlignedArena arena_;  // owns every node; freed with the region
  int max_height_;
  SimSkipNode* head_;
  std::size_t size_ = 0;
  std::vector<SimSkipNode*> retired_;  // logically deleted (stale-begin marks)
};

// ---------------------------------------------------------------------------
// Host-only lock-free baseline
// ---------------------------------------------------------------------------

class SimLockFreeSkipList {
 public:
  explicit SimLockFreeSkipList(int total_height) : region_(total_height) {}

  void populate(const std::vector<Key>& keys, util::Xoshiro256& rng) {
    for (Key k : keys) {
      region_.insert_quiet(k, k, random_sim_height(rng, region_.max_height()));
    }
  }

  Task<void> run_op(HostCtx& c, const workload::Op& op, util::Xoshiro256& rng) {
    switch (op.type) {
      case workload::OpType::kRead:
      case workload::OpType::kScan: {  // simulator models scans as reads
        (void)co_await region_.read(c, region_.head(), op.key);
        break;
      }
      case workload::OpType::kUpdate: {
        SimSkipNode* n = co_await region_.read(c, region_.head(), op.key);
        if (n != nullptr) {
          n->value = op.value;
          co_await c.node(n, /*write=*/true);
        }
        break;
      }
      case workload::OpType::kInsert: {
        bool existed = false;
        (void)co_await region_.insert(c, region_.head(), op.key, op.value,
                                      random_sim_height(rng, region_.max_height()),
                                      nullptr, existed);
        break;
      }
      case workload::OpType::kRemove:
        (void)co_await region_.remove(c, region_.head(), op.key);
        break;
    }
  }

  std::size_t size() const { return region_.size(); }

  static int random_sim_height(util::Xoshiro256& rng, int max_height) {
    int h = 1;
    while (h < max_height && (rng.next() & 1) != 0) ++h;
    return h;
  }

 private:
  SimSkipRegion region_;
};

// ---------------------------------------------------------------------------
// NMP-based flat-combining baseline (prior work)
// ---------------------------------------------------------------------------

class SimNmpSkipList {
 public:
  SimNmpSkipList(System& sys, int total_height, std::uint32_t partitions,
                 Key partition_width, std::uint32_t slots_per_list)
      : sys_(sys), partition_width_(partition_width) {
    for (std::uint32_t p = 0; p < partitions; ++p) {
      regions_.push_back(std::make_unique<SimSkipRegion>(total_height));
      publists_.push_back(std::make_unique<SimPubList>(
          slots_per_list, static_cast<std::int16_t>(p)));
    }
  }

  std::uint32_t partitions() const { return static_cast<std::uint32_t>(regions_.size()); }
  std::uint32_t partition_of(Key key) const {
    const auto p = static_cast<std::uint32_t>(key / partition_width_);
    return p >= partitions() ? partitions() - 1 : p;
  }
  SimPubList& publist(std::uint32_t p) { return *publists_[p]; }

  void populate(const std::vector<Key>& keys, util::Xoshiro256& rng) {
    for (Key k : keys) {
      regions_[partition_of(k)]->insert_quiet(
          k, k, SimLockFreeSkipList::random_sim_height(
                    rng, regions_[0]->max_height()));
    }
  }

  /// Spawns one combiner actor per partition.
  void start_combiners() {
    for (std::uint32_t p = 0; p < partitions(); ++p) {
      SimSkipRegion* region = regions_[p].get();
      sys_.engine().spawn(sim_combiner(
          sys_, NmpCtx{&sys_, p}, *publists_[p],
          [region](NmpCtx& ctx, SimSlot& slot) {
            return apply(*region, ctx, slot);
          }));
    }
  }

  nmp::Request make_request(const workload::Op& op, util::Xoshiro256& rng) {
    nmp::Request r;
    r.key = op.key;
    r.value = op.value;
    switch (op.type) {
      case workload::OpType::kRead: r.op = nmp::OpCode::kRead; break;
      case workload::OpType::kUpdate: r.op = nmp::OpCode::kUpdate; break;
      case workload::OpType::kInsert:
        r.op = nmp::OpCode::kInsert;
        r.aux = static_cast<std::uint64_t>(SimLockFreeSkipList::random_sim_height(
            rng, regions_[0]->max_height()));
        break;
      case workload::OpType::kRemove: r.op = nmp::OpCode::kRemove; break;
      // The simulator does not model range scans; charge a point read.
      case workload::OpType::kScan: r.op = nmp::OpCode::kRead; break;
    }
    return r;
  }

  Task<void> run_op(HostCtx& c, std::uint32_t slot, const workload::Op& op,
                    util::Xoshiro256& rng) {
    const std::uint32_t p = partition_of(op.key);
    const trace::OpToken tok = trace::begin_op_at(sim_trace_ns(sys_));
    nmp::Request r = make_request(op, rng);
    r.trace_id = tok.id;
    (void)co_await sim_call(c, *publists_[p], slot, r);
    if (tok.sampled()) {
      trace::end_op(tok, sim_trace_ns(sys_), static_cast<std::uint8_t>(r.op),
                    static_cast<std::int16_t>(p), /*offloaded=*/true, c.core);
    }
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& r : regions_) n += r->size();
    return n;
  }

 private:
  static Task<void> apply(SimSkipRegion& region, NmpCtx& ctx, SimSlot& slot) {
    const nmp::Request req = slot.req;
    switch (req.op) {
      case nmp::OpCode::kRead: {
        SimSkipNode* n = co_await region.read(ctx, region.head(), req.key);
        slot.resp.ok = n != nullptr;
        if (n != nullptr) slot.resp.value = n->value;
        break;
      }
      case nmp::OpCode::kUpdate: {
        SimSkipNode* n = co_await region.read(ctx, region.head(), req.key);
        slot.resp.ok = n != nullptr;
        if (n != nullptr) {
          n->value = req.value;
          co_await ctx.node(n, /*write=*/true);
        }
        break;
      }
      case nmp::OpCode::kInsert: {
        bool existed = false;
        (void)co_await region.insert(ctx, region.head(), req.key, req.value,
                                     static_cast<int>(req.aux), nullptr, existed);
        slot.resp.ok = !existed;
        break;
      }
      case nmp::OpCode::kRemove:
        slot.resp.ok = co_await region.remove(ctx, region.head(), req.key);
        break;
      default:
        break;
    }
  }

  System& sys_;
  Key partition_width_;
  std::vector<std::unique_ptr<SimSkipRegion>> regions_;
  std::vector<std::unique_ptr<SimPubList>> publists_;
};

// ---------------------------------------------------------------------------
// Hybrid skiplist (§3.3)
// ---------------------------------------------------------------------------

class SimHybridSkipList {
 public:
  SimHybridSkipList(System& sys, int total_height, int nmp_height,
                    std::uint32_t partitions, Key partition_width,
                    std::uint32_t slots_per_list)
      : sys_(sys),
        nmp_height_(nmp_height),
        host_(total_height - nmp_height),
        partition_width_(partition_width) {
    assert(total_height > nmp_height);
    for (std::uint32_t p = 0; p < partitions; ++p) {
      regions_.push_back(std::make_unique<SimSkipRegion>(nmp_height));
      publists_.push_back(std::make_unique<SimPubList>(
          slots_per_list, static_cast<std::int16_t>(p)));
    }
  }

  std::uint32_t partitions() const { return static_cast<std::uint32_t>(regions_.size()); }
  std::uint32_t partition_of(Key key) const {
    const auto p = static_cast<std::uint32_t>(key / partition_width_);
    return p >= partitions() ? partitions() - 1 : p;
  }

  void populate(const std::vector<Key>& keys, util::Xoshiro256& rng) {
    const int total = host_.max_height() + nmp_height_;
    for (Key k : keys) {
      const int h = SimLockFreeSkipList::random_sim_height(rng, total);
      SimSkipNode* nmp_node = nullptr;
      regions_[partition_of(k)]->insert_quiet(k, k, h, nullptr, &nmp_node);
      if (h > nmp_height_ && nmp_node != nullptr) {
        SimSkipNode* host_node = nullptr;
        host_.insert_quiet(k, k, h - nmp_height_, nmp_node, &host_node);
        nmp_node->xref = host_node;
      }
    }
  }

  void start_combiners() {
    namespace tn = telemetry::names;
    for (std::uint32_t p = 0; p < partitions(); ++p) {
      SimSkipRegion* region = regions_[p].get();
      const int nmp_height = nmp_height_;
      // Per-partition retry-cause counters, registered here so they appear
      // in exports even when they stay zero.
      auto* stale = &telemetry::counter(tn::kRetryStaleBeginNode,
                                        static_cast<std::int32_t>(p));
      auto* from_head = &telemetry::counter(tn::kBeginFromHead,
                                            static_cast<std::int32_t>(p));
      sys_.engine().spawn(sim_combiner(
          sys_, NmpCtx{&sys_, p}, *publists_[p],
          [region, nmp_height, stale, from_head](NmpCtx& ctx, SimSlot& slot) {
            return apply(*region, nmp_height, *stale, *from_head, ctx, slot);
          }));
    }
  }

  /// A prepared offload (host traversal done, request built) or an
  /// operation that completed host-side.
  struct Prepared {
    bool offload = false;
    std::uint32_t partition = 0;
    nmp::Request req{};
    workload::Op op{};
  };

  /// Host-side phase: traverse the host levels; serve cache-resident reads
  /// directly; otherwise build the publication-list request.
  Task<Prepared> prepare(HostCtx& c, const workload::Op& op,
                         util::Xoshiro256& rng) {
    Prepared prep;
    prep.op = op;
    SimSkipNode* preds[SimSkipRegion::kMaxLevels];
    SimSkipNode* succs[SimSkipRegion::kMaxLevels];
    SimSkipNode* found = co_await host_.find(c, host_.head(), op.key, preds, succs);
    if (op.type == workload::OpType::kRead && found != nullptr) {
      static telemetry::Counter& hits =
          telemetry::counter(telemetry::names::kHostReadHits);
      hits.inc();
      co_return prep;  // tall node: served from the host (cache) portion
    }
    if (op.type == workload::OpType::kInsert && found != nullptr) {
      co_return prep;  // duplicate detected host-side
    }
    if (op.type == workload::OpType::kRemove && found != nullptr) {
      // Host portion first: unlink the host part of the tall node.
      (void)co_await host_.remove(c, host_.head(), op.key);
    }
    prep.offload = true;
    prep.partition = partition_of(op.key);
    prep.req.key = op.key;
    prep.req.value = op.value;
    switch (op.type) {
      case workload::OpType::kRead: prep.req.op = nmp::OpCode::kRead; break;
      case workload::OpType::kUpdate: prep.req.op = nmp::OpCode::kUpdate; break;
      case workload::OpType::kInsert:
        prep.req.op = nmp::OpCode::kInsert;
        prep.req.aux = static_cast<std::uint64_t>(
            SimLockFreeSkipList::random_sim_height(
                rng, host_.max_height() + nmp_height_));
        break;
      case workload::OpType::kRemove: prep.req.op = nmp::OpCode::kRemove; break;
      // The simulator does not model range scans; charge a point read.
      case workload::OpType::kScan: prep.req.op = nmp::OpCode::kRead; break;
    }
    // Begin-NMP-traversal shortcut (Listing 1 lines 14-15).
    if (preds[0] != host_.head() && partition_of(preds[0]->key) == prep.partition &&
        !preds[0]->marked) {
      prep.req.node = preds[0]->xref;
    }
    co_return prep;
  }

  /// Host-side completion after the NMP response; returns true when done,
  /// false when the operation must be retried from the start.
  Task<bool> complete(HostCtx& c, const Prepared& prep,
                      const nmp::Response& resp) {
    if (resp.retry) {
      static telemetry::Counter& retries =
          telemetry::counter(telemetry::names::kHostRetryTotal);
      retries.inc();
      co_return false;
    }
    if (prep.req.op == nmp::OpCode::kInsert && resp.ok &&
        static_cast<int>(prep.req.aux) > nmp_height_) {
      // Link the host part of a tall insert (NMP portion first, then host).
      bool existed = false;
      SimSkipNode* host_node = co_await host_.insert(
          c, host_.head(), prep.op.key, prep.op.value,
          static_cast<int>(prep.req.aux) - nmp_height_, resp.node, existed);
      if (!existed && resp.node != nullptr) {
        static_cast<SimSkipNode*>(resp.node)->xref = host_node;
      }
    }
    if (prep.req.op == nmp::OpCode::kUpdate && resp.ok && resp.node != nullptr) {
      // Refresh the host value mirror.
      auto* host_node = static_cast<SimSkipNode*>(resp.node);
      host_node->value = prep.op.value;
      co_await c.node(host_node, /*write=*/true);
    }
    co_return true;
  }

  Task<void> run_op_blocking(HostCtx& c, std::uint32_t slot,
                             const workload::Op& op, util::Xoshiro256& rng) {
    const trace::OpToken tok = trace::begin_op_at(sim_trace_ns(sys_));
    while (true) {
      const std::uint64_t d0 = tok.sampled() ? sim_trace_ns(sys_) : 0;
      Prepared prep = co_await prepare(c, op, rng);
      const auto op8 = static_cast<std::uint8_t>(prep.req.op);
      const auto part16 = static_cast<std::int16_t>(prep.partition);
      trace::record_span(tok.id, trace::Phase::kHostDescend, d0,
                         tok.sampled() ? sim_trace_ns(sys_) : 0, op8, part16,
                         0, c.core);
      if (!prep.offload) {
        if (tok.sampled()) {
          trace::end_op(tok, sim_trace_ns(sys_), op8, part16,
                        /*offloaded=*/false, c.core);
        }
        co_return;
      }
      prep.req.trace_id = tok.id;
      nmp::Response resp =
          co_await sim_call(c, *publists_[prep.partition], slot, prep.req);
      if (co_await complete(c, prep, resp)) {
        if (tok.sampled()) {
          trace::end_op(tok, sim_trace_ns(sys_), op8, part16,
                        /*offloaded=*/true, c.core);
        }
        co_return;
      }
      trace::record_instant(tok.id, trace::Phase::kRetry,
                            tok.sampled() ? sim_trace_ns(sys_) : 0, op8,
                            part16, c.core);
    }
  }

  SimPubList& publist(std::uint32_t p) { return *publists_[p]; }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& r : regions_) n += r->size();
    return n;
  }
  std::size_t host_size() const { return host_.size(); }

  /// Test/diagnostic access to the regions.
  SimSkipRegion& debug_region(std::uint32_t p) { return *regions_[p]; }
  SimSkipRegion& debug_host() { return host_; }

 private:
  static Task<void> apply(SimSkipRegion& region, int nmp_height,
                          telemetry::Counter& stale_retries,
                          telemetry::Counter& begin_from_head, NmpCtx& ctx,
                          SimSlot& slot) {
    const nmp::Request req = slot.req;
    SimSkipNode* begin = region.head();
    if (req.node != nullptr) {
      auto* candidate = static_cast<SimSkipNode*>(req.node);
      co_await ctx.node(candidate);
      if (candidate->marked) {
        stale_retries.inc();
        slot.resp.retry = true;  // stale begin node: host retries (§3.3)
        co_return;
      }
      begin = candidate;
    } else {
      begin_from_head.inc();
    }
    switch (req.op) {
      case nmp::OpCode::kRead: {
        SimSkipNode* n = co_await region.read(ctx, begin, req.key);
        slot.resp.ok = n != nullptr;
        if (n != nullptr) slot.resp.value = n->value;
        break;
      }
      case nmp::OpCode::kUpdate: {
        SimSkipNode* n = co_await region.read(ctx, begin, req.key);
        slot.resp.ok = n != nullptr;
        if (n != nullptr) {
          n->value = req.value;
          co_await ctx.node(n, /*write=*/true);
          slot.resp.node = n->xref;  // host mirror to refresh
        }
        break;
      }
      case nmp::OpCode::kInsert: {
        int h = static_cast<int>(req.aux);
        if (h > nmp_height) h = nmp_height;
        bool existed = false;
        SimSkipNode* n = co_await region.insert(ctx, begin, req.key, req.value,
                                                h, req.host_node, existed);
        slot.resp.ok = !existed;
        slot.resp.node = n;
        break;
      }
      case nmp::OpCode::kRemove:
        slot.resp.ok = co_await region.remove(ctx, begin, req.key);
        break;
      default:
        break;
    }
  }

  System& sys_;
  int nmp_height_;
  SimSkipRegion host_;
  Key partition_width_;
  std::vector<std::unique_ptr<SimSkipRegion>> regions_;
  std::vector<std::unique_ptr<SimPubList>> publists_;
};

}  // namespace hybrids::sim
