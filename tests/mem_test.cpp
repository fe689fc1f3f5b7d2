// Memory-layer unit tests: partition arenas, the sharded host node pool,
// epoch-based reclamation, and the structures' recycle paths. The pool + EBR
// interplay under multi-threaded churn is exercised by fatnode_test.cpp's
// concurrency cases (TSan targets).

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "hybrids/ds/fat_skiplist.hpp"
#include "hybrids/ds/seq_skiplist.hpp"
#include "hybrids/mem/arena.hpp"
#include "hybrids/mem/ebr.hpp"
#include "hybrids/mem/memlayer.hpp"
#include "hybrids/mem/node_pool.hpp"
#include "hybrids/types.hpp"

namespace {

using namespace hybrids;

bool aligned64(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % mem::kMemAlign == 0;
}

/// Restores the runtime arena toggle on scope exit so a failing test cannot
/// poison the rest of the binary.
struct ArenaToggleGuard {
  ~ArenaToggleGuard() { mem::set_arena_enabled(true); }
};

// ---------------------------------------------------------------------------
// Size classes

TEST(MemSizeClass, Mapping) {
  EXPECT_EQ(mem::size_class(1), 0u);
  EXPECT_EQ(mem::size_class(64), 0u);
  EXPECT_EQ(mem::size_class(65), 1u);
  EXPECT_EQ(mem::size_class(128), 1u);
  EXPECT_EQ(mem::size_class(1024), mem::kMemClasses - 1);
  // One past the largest class falls through to operator new.
  EXPECT_GE(mem::size_class(1025), mem::kMemClasses);
}

// ---------------------------------------------------------------------------
// PartitionArena

TEST(PartitionArena, AlignmentEveryClass) {
  mem::PartitionArena arena;
  std::vector<std::pair<void*, std::size_t>> blocks;
  for (std::size_t bytes : {1ul, 63ul, 64ul, 65ul, 192ul, 1024ul, 4096ul}) {
    void* p = arena.allocate(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(aligned64(p)) << "bytes=" << bytes;
    blocks.emplace_back(p, bytes);
  }
  for (auto [p, bytes] : blocks) arena.deallocate(p, bytes);
}

TEST(PartitionArena, FreelistReusesSameBlock) {
  mem::PartitionArena arena;
  void* a = arena.allocate(192);
  void* b = arena.allocate(192);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.recycled(), 0u);
  arena.deallocate(a, 192);
  // LIFO freelist: the very next same-class allocation gets `a` back.
  void* c = arena.allocate(192);
  EXPECT_EQ(c, a);
  EXPECT_EQ(arena.recycled(), 1u);
  // A different size class does not touch the 192-byte list.
  void* d = arena.allocate(64);
  EXPECT_NE(d, b);
  EXPECT_EQ(arena.recycled(), 1u);
  arena.deallocate(b, 192);
  arena.deallocate(c, 192);
  arena.deallocate(d, 64);
}

TEST(PartitionArena, OversizeFallsThroughToNew) {
  mem::PartitionArena arena;
  const std::size_t before = arena.chunk_count();
  void* p = arena.allocate(8192);  // > kMemClasses * 64
  EXPECT_TRUE(aligned64(p));
  EXPECT_EQ(arena.chunk_count(), before);  // no chunk mapped for it
  arena.deallocate(p, 8192);
}

TEST(PartitionArena, DestructionReleasesAllChunks) {
  const std::int64_t before =
      mem::debug::live_chunks().load(std::memory_order_relaxed);
  {
    mem::PartitionArena arena;
    // Force several chunks: each allocation is one full top class block.
    const std::size_t per_chunk = mem::kMemChunkBytes / 1024;
    for (std::size_t i = 0; i < 2 * per_chunk + 3; ++i) {
      (void)arena.allocate(1024);
    }
    EXPECT_GE(arena.chunk_count(), 3u);
    EXPECT_EQ(arena.bytes_reserved(),
              arena.chunk_count() * mem::kMemChunkBytes);
    EXPECT_GT(mem::debug::live_chunks().load(std::memory_order_relaxed),
              before);
  }
  EXPECT_EQ(mem::debug::live_chunks().load(std::memory_order_relaxed), before);
}

TEST(PartitionArena, RuntimeDisabledIsPassthrough) {
  ArenaToggleGuard restore;
  mem::set_arena_enabled(false);
  mem::PartitionArena arena;  // captures the toggle at construction
  mem::set_arena_enabled(true);
  EXPECT_FALSE(arena.enabled());
  void* p = arena.allocate(192);
  EXPECT_TRUE(aligned64(p));
  EXPECT_EQ(arena.chunk_count(), 0u);  // nothing reserved in passthrough
  arena.deallocate(p, 192);
  EXPECT_EQ(arena.recycled(), 0u);
  void* q = arena.allocate(192);
  arena.deallocate(q, 192);
  EXPECT_EQ(arena.recycled(), 0u);  // passthrough never recycles
}

// ---------------------------------------------------------------------------
// SeqSkipList retire classes on top of the arena

TEST(SeqSkipListMem, ShortNodeRecyclesAfterRemove) {
  ds::SeqSkipList list(6);
  // Short node: host_ptr == nullptr, so unlink() hands it straight back.
  (void)list.insert(10, 100, 1, nullptr, list.head());
  const std::uint64_t before = list.arena().recycled();
  EXPECT_TRUE(list.remove(10, list.head()));
  // Same-height reinsert pops the freed node off the class freelist.
  (void)list.insert(20, 200, 1, nullptr, list.head());
  EXPECT_EQ(list.arena().recycled(), before + 1);
  EXPECT_TRUE(list.validate());
}

TEST(SeqSkipListMem, TallNodeParksUntilDestruction) {
  ds::SeqSkipList list(6);
  int dummy_host = 0;
  // Tall node with a host counterpart: the never-reuse rule applies.
  (void)list.insert(10, 100, 6, &dummy_host, list.head());
  const std::uint64_t before = list.arena().recycled();
  EXPECT_TRUE(list.remove(10, list.head()));
  // Reinsert at the same height: the parked node must NOT be recycled.
  (void)list.insert(20, 200, 6, &dummy_host, list.head());
  EXPECT_EQ(list.arena().recycled(), before);
  EXPECT_TRUE(list.validate());
}

TEST(SeqSkipListMem, DestructionReleasesEverything) {
  const std::int64_t before =
      mem::debug::live_chunks().load(std::memory_order_relaxed);
  {
    ds::SeqSkipList list(6);
    int dummy_host = 0;
    for (Key k = 1; k <= 2000; ++k) {
      (void)list.insert(k, k, 1 + static_cast<int>(k % 6),
                        (k % 64 == 0) ? &dummy_host : nullptr, list.head());
    }
    for (Key k = 1; k <= 2000; k += 2) (void)list.remove(k, list.head());
    EXPECT_TRUE(list.validate());
    EXPECT_GT(mem::debug::live_chunks().load(std::memory_order_relaxed),
              before);
  }
  EXPECT_EQ(mem::debug::live_chunks().load(std::memory_order_relaxed), before);
}

// ---------------------------------------------------------------------------
// NodePool

TEST(NodePool, RecycleAndAlignment) {
  mem::NodePool pool;
  void* a = pool.allocate(192);
  EXPECT_TRUE(aligned64(a));
  EXPECT_EQ(pool.chunk_count(), 1u);
  pool.deallocate(a, 192);
  // Single thread: home shard is stable, so the freed block comes right back.
  void* b = pool.allocate(192);
  EXPECT_EQ(b, a);
  pool.deallocate(b, 192);
  void* big = pool.allocate(4096);  // passthrough class
  EXPECT_TRUE(aligned64(big));
  EXPECT_EQ(pool.chunk_count(), 1u);
  pool.deallocate(big, 4096);
}

TEST(NodePool, DestructionReleasesChunks) {
  const std::int64_t before =
      mem::debug::live_chunks().load(std::memory_order_relaxed);
  {
    mem::NodePool pool;
    for (int i = 0; i < 100; ++i) (void)pool.allocate(256);
    EXPECT_GT(mem::debug::live_chunks().load(std::memory_order_relaxed),
              before);
  }
  EXPECT_EQ(mem::debug::live_chunks().load(std::memory_order_relaxed), before);
}

TEST(NodePool, RuntimeDisabledIsPassthrough) {
  ArenaToggleGuard restore;
  mem::set_arena_enabled(false);
  mem::NodePool pool;
  mem::set_arena_enabled(true);
  EXPECT_FALSE(pool.enabled());
  void* p = pool.allocate(192);
  EXPECT_TRUE(aligned64(p));
  EXPECT_EQ(pool.chunk_count(), 0u);
  pool.deallocate(p, 192);
}

// ---------------------------------------------------------------------------
// EBR

TEST(Ebr, PinBlocksSecondAdvance) {
  std::mutex m;
  std::condition_variable cv;
  int stage = 0;  // 0: start, 1: pinned, 2: release requested
  std::uint64_t pin_epoch = 0;

  std::thread pinner([&] {
    mem::EbrGuard guard;
    {
      std::lock_guard<std::mutex> lk(m);
      pin_epoch = mem::Ebr::current();
      stage = 1;
    }
    cv.notify_all();
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return stage == 2; });
  });

  {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return stage == 1; });
  }
  // A guard pinned at epoch e permits one advance (e -> e+1: everyone pinned
  // sits at e) but blocks the next (it would need everyone at e+1).
  mem::Ebr::try_advance();
  mem::Ebr::try_advance();
  mem::Ebr::try_advance();
  EXPECT_LE(mem::Ebr::current(), pin_epoch + 1);
  EXPECT_FALSE(mem::Ebr::safe(pin_epoch));

  {
    std::lock_guard<std::mutex> lk(m);
    stage = 2;
  }
  cv.notify_all();
  pinner.join();

  // Guard dropped: advancement resumes and the grace period elapses.
  mem::Ebr::try_advance();
  mem::Ebr::try_advance();
  EXPECT_TRUE(mem::Ebr::safe(pin_epoch));
}

TEST(Ebr, GuardsAreReentrant) {
  mem::EbrGuard outer;
  {
    mem::EbrGuard inner;  // must not deadlock or unpin early
    mem::EbrGuard deeper;
  }
  // Still pinned here: the epoch cannot run two advances past our pin.
  const std::uint64_t pinned_at = mem::Ebr::current();
  mem::Ebr::try_advance();
  mem::Ebr::try_advance();
  EXPECT_LE(mem::Ebr::current(), pinned_at + 1);
}

// ---------------------------------------------------------------------------
// FatSkipList reclamation through the pool

TEST(FatSkipListMem, ReclaimedBlocksAreRecycled) {
  ds::FatSkipList list(8);
  // Enough keys to split leaves, so node deaths retire fat nodes as well.
  for (Key k = 1; k <= 64; ++k) EXPECT_TRUE(list.insert(k, k));
  for (Key k = 1; k <= 64; ++k) EXPECT_TRUE(list.remove(k));
  for (int i = 0; i < 6 && list.retired_count() > 0; ++i) {
    mem::Ebr::try_advance();
    (void)list.reclaim_retired();
  }
  ASSERT_EQ(list.retired_count(), 0u);
  const std::size_t chunks = list.pool().chunk_count();
  // Reinserting must be served from the freed blocks (entries from the pool
  // freelist, fat nodes from the structure's own freelist): no new chunk
  // gets mapped.
  for (Key k = 1; k <= 64; ++k) EXPECT_TRUE(list.insert(k, k));
  EXPECT_EQ(list.pool().chunk_count(), chunks);
  EXPECT_TRUE(list.validate());
}

// ---------------------------------------------------------------------------
// Prefetch hints: pure hints, must be safe on any pointer in any mode.

TEST(Prefetch, SafeOnAnyPointerAndToggleable) {
  mem::prefetch_read(nullptr);
  mem::prefetch_object(nullptr, 192);
  alignas(64) char buf[192] = {};
  mem::prefetch_read(buf);
  mem::prefetch_object(buf, sizeof(buf));
  mem::set_prefetch_enabled(false);
  mem::prefetch_read(buf);
  mem::prefetch_object(buf, sizeof(buf));
  EXPECT_FALSE(mem::prefetch_enabled());
  mem::set_prefetch_enabled(true);
  EXPECT_TRUE(mem::prefetch_enabled());
}

}  // namespace
