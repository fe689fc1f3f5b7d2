// Memory-layer switches: one runtime toggle per mechanism, so one binary can
// sweep arena-on/off × prefetch-on/off (bench/ablate_memlayer.cpp;
// micro_library_bench --pool=malloc turns the arenas off).
//
// The toggles are process-global and read-mostly:
//  - set_arena_enabled() is consulted ONCE, when an arena or pool is
//    constructed; every allocation of that instance then follows the captured
//    decision, so allocate/deallocate stay symmetric even if the flag flips
//    mid-run. Flip it only between structure lifetimes.
//  - prefetch_enabled() is consulted per prefetch site (a relaxed load of a
//    read-mostly cache line; the branch predicts perfectly in a sweep arm).
#pragma once

#include <atomic>
#include <cstddef>

namespace hybrids::mem {

inline std::atomic<bool>& arena_flag() noexcept {
  static std::atomic<bool> flag{true};
  return flag;
}
inline bool arena_enabled() noexcept {
  return arena_flag().load(std::memory_order_relaxed);
}
inline void set_arena_enabled(bool on) noexcept {
  arena_flag().store(on, std::memory_order_relaxed);
}

inline std::atomic<bool>& prefetch_flag() noexcept {
  static std::atomic<bool> flag{true};
  return flag;
}
inline bool prefetch_enabled() noexcept {
  return prefetch_flag().load(std::memory_order_relaxed);
}
inline void set_prefetch_enabled(bool on) noexcept {
  prefetch_flag().store(on, std::memory_order_relaxed);
}
/// Hint the line at `p` into cache for a read. Safe on any address, including
/// null and pointers to freed-but-mapped memory — prefetch never faults.
inline void prefetch_read(const void* p) noexcept {
  if (p != nullptr && prefetch_enabled()) {
    __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
  }
}
/// Hint every cache line of a `bytes`-sized object at `p` (the pB+-tree
/// pattern: a multi-line node's later lines stream in behind the demand load
/// of its first, so a key scan across the node never stalls per line).
inline void prefetch_object(const void* p, std::size_t bytes) noexcept {
  if (p == nullptr || !prefetch_enabled()) return;
  const char* c = static_cast<const char*>(p);
  for (std::size_t off = 0; off < bytes; off += 64) {
    __builtin_prefetch(c + off, /*rw=*/0, /*locality=*/3);
  }
}

}  // namespace hybrids::mem
