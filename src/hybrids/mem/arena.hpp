// Per-partition bump+freelist arena for NMP-side nodes (§3.3's cache
// consciousness applied to our own heap).
//
// Each SeqSkipList / NmpBTree partition is single-owner: only its NMP
// combiner thread ever mutates it, so its arena needs NO synchronization.
// Nodes are carved from contiguous 64-byte-aligned chunks (bump allocation:
// a partition's working set packs into few pages instead of scattering
// across the heap), and freed nodes are recycled through per-size-class
// freelists, so delete-less retire paths (skiplist remove/promote) stop
// leaking for the lifetime of the structure.
//
// Ownership rule (see docs/ARCHITECTURE.md §memory-layer): every allocate()
// and deallocate() on a PartitionArena must come from the thread that owns
// the partition — for the runtime structures, the partition's combiner
// thread (construction and destruction are quiescent and may run anywhere).
//
// Size classes are multiples of 64 bytes up to 1KB; larger blocks (none of
// the runtime node types need one) fall through to aligned operator new.
// When mem::arena_enabled() was false at construction, every call is a
// passthrough to aligned operator new/delete,
// preserving the alignment guarantee so callers never care which mode is on.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "hybrids/mem/memlayer.hpp"
#include "hybrids/telemetry/registry.hpp"

namespace hybrids::mem {

namespace debug {
/// Process-wide count of live arena/pool chunks; lets tests assert that
/// destroying a partition releases everything it reserved.
inline std::atomic<std::int64_t>& live_chunks() noexcept {
  static std::atomic<std::int64_t> n{0};
  return n;
}
}  // namespace debug

inline constexpr std::size_t kMemAlign = 64;
inline constexpr std::size_t kMemClasses = 16;  // 64, 128, ..., 1024 bytes
inline constexpr std::size_t kMemChunkBytes = 256 * 1024;

/// Size class index for a request, or kMemClasses if it must fall through to
/// operator new. Class c serves blocks of (c+1)*64 bytes.
inline std::size_t size_class(std::size_t bytes) noexcept {
  return (bytes + kMemAlign - 1) / kMemAlign - 1;
}

class PartitionArena {
 public:
  PartitionArena()
      : enabled_(arena_enabled()),
        arena_bytes_(&telemetry::counter(telemetry::names::kMemArenaBytes)) {}

  PartitionArena(const PartitionArena&) = delete;
  PartitionArena& operator=(const PartitionArena&) = delete;

  ~PartitionArena() {
    for (void* c : chunks_) {
      ::operator delete(c, std::align_val_t{kMemAlign});
      debug::live_chunks().fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// 64-byte-aligned block of at least `bytes`. Owner thread only.
  void* allocate(std::size_t bytes) {
    const std::size_t cls = size_class(bytes);
    if (!enabled_ || cls >= kMemClasses) {
      return ::operator new(bytes, std::align_val_t{kMemAlign});
    }
    if (void* p = free_[cls]) {
      free_[cls] = *static_cast<void**>(p);
      ++recycled_;
      return p;
    }
    const std::size_t want = (cls + 1) * kMemAlign;
    if (static_cast<std::size_t>(bump_end_ - bump_) < want) {
      char* chunk = static_cast<char*>(
          ::operator new(kMemChunkBytes, std::align_val_t{kMemAlign}));
      chunks_.push_back(chunk);
      debug::live_chunks().fetch_add(1, std::memory_order_relaxed);
      arena_bytes_->add(kMemChunkBytes);
      bump_ = chunk;
      bump_end_ = chunk + kMemChunkBytes;
    }
    void* p = bump_;
    bump_ += want;
    return p;
  }

  /// Return a block for reuse. `bytes` must match the allocation request.
  /// Owner thread only.
  void deallocate(void* p, std::size_t bytes) noexcept {
    const std::size_t cls = size_class(bytes);
    if (!enabled_ || cls >= kMemClasses) {
      ::operator delete(p, std::align_val_t{kMemAlign});
      return;
    }
    *static_cast<void**>(p) = free_[cls];
    free_[cls] = p;
  }

  bool enabled() const noexcept { return enabled_; }
  std::size_t chunk_count() const noexcept { return chunks_.size(); }
  std::size_t bytes_reserved() const noexcept {
    return chunks_.size() * kMemChunkBytes;
  }
  /// Allocations served by popping a freelist (recycle hits). Owner thread.
  std::uint64_t recycled() const noexcept { return recycled_; }

 private:
  const bool enabled_;
  telemetry::Counter* arena_bytes_;
  char* bump_ = nullptr;
  char* bump_end_ = nullptr;
  void* free_[kMemClasses] = {};  // intrusive: block's first word = next
  std::uint64_t recycled_ = 0;
  std::vector<void*> chunks_;
};

}  // namespace hybrids::mem
