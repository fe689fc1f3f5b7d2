// Sharded slab pool for host-side nodes (HostBNode, lock-free skiplist
// towers).
//
// Unlike the NMP partitions, host nodes are allocated and freed by many
// threads at once, so the pool stripes its state across cache-aligned
// shards: a thread hashes to a home shard (telemetry's stable thread
// ordinal), try-locks it, and falls over to the next shard — counting a
// `mem.pool_shard_misses` — only under contention. Each shard owns bump
// chunks plus per-size-class freelists; a freelist hit counts
// `mem.pool_recycled`.
//
// Reclamation contract: the pool itself imposes no grace period — callers
// must only deallocate() memory that is provably unreachable (HostBNodes are
// never freed before the tree's destructor; lock-free towers go through the
// EBR grace period in mem/ebr.hpp first). Chunk memory is released to the
// OS only by the pool destructor, so even a racy late read of a recycled
// tower touches mapped memory; correctness of such windows is EBR's job.
//
// When mem::arena_enabled() was false at pool construction, every call
// passes through to aligned operator new/delete.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "hybrids/mem/arena.hpp"
#include "hybrids/mem/memlayer.hpp"
#include "hybrids/telemetry/counters.hpp"
#include "hybrids/telemetry/registry.hpp"
#include "hybrids/util/cache_aligned.hpp"

namespace hybrids::mem {

class NodePool {
 public:
  static constexpr std::size_t kShards = 8;

  NodePool()
      : enabled_(arena_enabled()),
        arena_bytes_(&telemetry::counter(telemetry::names::kMemArenaBytes)),
        recycled_(&telemetry::counter(telemetry::names::kMemPoolRecycled)),
        shard_misses_(
            &telemetry::counter(telemetry::names::kMemPoolShardMisses)) {}

  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  ~NodePool() {
    for (Shard& s : shards_) {
      for (void* c : s.chunks) {
        ::operator delete(c, std::align_val_t{kMemAlign});
        debug::live_chunks().fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }

  /// 64-byte-aligned block of at least `bytes`. Thread-safe.
  void* allocate(std::size_t bytes) {
    const std::size_t cls = size_class(bytes);
    if (!enabled_ || cls >= kMemClasses) {
      return ::operator new(bytes, std::align_val_t{kMemAlign});
    }
    Shard& s = lock_a_shard();
    void* p = s.free[cls];
    if (p != nullptr) {
      s.free[cls] = *static_cast<void**>(p);
      s.unlock();
      recycled_->inc();
      return p;
    }
    const std::size_t want = (cls + 1) * kMemAlign;
    if (static_cast<std::size_t>(s.bump_end - s.bump) < want) {
      char* chunk = static_cast<char*>(
          ::operator new(kMemChunkBytes, std::align_val_t{kMemAlign}));
      s.chunks.push_back(chunk);
      debug::live_chunks().fetch_add(1, std::memory_order_relaxed);
      arena_bytes_->add(kMemChunkBytes);
      s.bump = chunk;
      s.bump_end = chunk + kMemChunkBytes;
    }
    p = s.bump;
    s.bump += want;
    s.unlock();
    return p;
  }

  /// Return a block for reuse; `bytes` must match the allocation request.
  /// Thread-safe. See the reclamation contract above.
  void deallocate(void* p, std::size_t bytes) noexcept {
    const std::size_t cls = size_class(bytes);
    if (!enabled_ || cls >= kMemClasses) {
      ::operator delete(p, std::align_val_t{kMemAlign});
      return;
    }
    Shard& s = lock_a_shard();
    *static_cast<void**>(p) = s.free[cls];
    s.free[cls] = p;
    s.unlock();
  }

  bool enabled() const noexcept { return enabled_; }

  /// Quiescent-only test hook.
  std::size_t chunk_count() noexcept {
    std::size_t n = 0;
    for (Shard& s : shards_) {
      s.lock();
      n += s.chunks.size();
      s.unlock();
    }
    return n;
  }

 private:
  struct alignas(util::kCacheLineSize) Shard {
    std::atomic<bool> locked{false};
    char* bump = nullptr;
    char* bump_end = nullptr;
    void* free[kMemClasses] = {};
    std::vector<void*> chunks;

    bool try_lock() noexcept {
      return !locked.load(std::memory_order_relaxed) &&
             !locked.exchange(true, std::memory_order_acquire);
    }
    void lock() noexcept {
      while (locked.exchange(true, std::memory_order_acquire)) {
      }
    }
    void unlock() noexcept { locked.store(false, std::memory_order_release); }
  };

  /// Locks the home shard if free, else probes the others (counting one
  /// shard miss), else spins on home. Returns the locked shard.
  Shard& lock_a_shard() noexcept {
    const std::size_t home = telemetry::this_thread_ordinal() % kShards;
    if (shards_[home].try_lock()) return shards_[home];
    shard_misses_->inc();
    for (std::size_t i = 1; i < kShards; ++i) {
      Shard& s = shards_[(home + i) % kShards];
      if (s.try_lock()) return s;
    }
    shards_[home].lock();
    return shards_[home];
  }

  const bool enabled_;
  telemetry::Counter* arena_bytes_;
  telemetry::Counter* recycled_;
  telemetry::Counter* shard_misses_;
  Shard shards_[kShards];
};

}  // namespace hybrids::mem
