// Coroutine-interleaved host traversals (docs/INTERLEAVING.md).
//
// A host thread's leg of an operation alternates between two kinds of dead
// time: LLC misses on pointer-chasing descents (skiplist towers, B+ inner
// nodes) and the publication-slot round-trip to the partition's combiner.
// Async publication slots (PartitionSet::call_async) alone only overlap the
// NMP side; this layer overlaps both by running k operations per host
// thread as C++20 coroutines multiplexed on one stack:
//
//   * `prefetch_and_yield(addr)` — issue a software prefetch for the next
//     node and suspend, letting a sibling operation run while the line is
//     in flight (the hpides tree_simulation / "Skiplists with Foresight"
//     miss-hiding pattern).
//   * `call_co(set, p, tid, req)` — post to an async publication slot and
//     park the traversal across the wait instead of spinning; the frame
//     resumes another in-flight op meanwhile and falls back to the
//     runtime's existing bounded futex wait (NmpCore::wait_done_for) when
//     every slot is parked.
//
// The scheduler is deliberately tiny: a `Frame` of up to kMaxSlots lazily
// started `CoTask` coroutines, resumed round-robin, with no cross-thread
// hand-off — a coroutine is created, resumed, and destroyed on one thread,
// so thread-local state (EBR pins, trace rings, RNGs) behaves exactly as in
// the rest of the runtime.
//
// Every data-structure operation has exactly one body, its `_co`
// coroutine. The blocking entry points are `run_inline(x_co(...))`: the
// body runs to completion on the caller's stack with no Frame visible, so
// no awaiter suspends and the publication round-trip (`call_co`) takes the
// blocking slot, exactly as a hand-written blocking call would.
//
// EBR interaction (mem/ebr.hpp): holding an EbrGuard across a
// `prefetch_and_yield` suspension is safe — the sibling coroutines run on
// the same thread and the guard is reentrant, so the epoch merely stays
// pinned a little longer. The data-structure `_co` ops close their guards
// before posting, so a coroutine parked in `call_co` never holds
// a pin; when the frame drains to parked-only ops (the only state that
// blocks in a futex), no guard is live. See docs/INTERLEAVING.md.
#pragma once

#include <atomic>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <utility>

#include "hybrids/mem/memlayer.hpp"
#include "hybrids/nmp/partition_set.hpp"

namespace hybrids::host {

/// Process-wide default frame depth (number of coroutine slots a
/// default-constructed Frame gets). Same runtime-toggle idiom as the memory
/// layer's prefetch/arena switches: relaxed atomic, consulted at Frame
/// construction, never mid-run.
inline std::atomic<std::uint32_t>& interleave_depth_flag() noexcept {
  static std::atomic<std::uint32_t> depth{4};
  return depth;
}

inline std::uint32_t interleave_depth() noexcept {
  return interleave_depth_flag().load(std::memory_order_relaxed);
}

inline void set_interleave_depth(std::uint32_t k) noexcept {
  interleave_depth_flag().store(k == 0 ? 1 : k, std::memory_order_relaxed);
}

namespace detail {

/// Promise plumbing shared by CoTask<T> and CoTask<void>. Same shape as the
/// simulator's sim::Task (sim/core/task.hpp) — lazy start, symmetric
/// transfer to the stored continuation on completion — except that
/// exceptions are captured and rethrown at the awaiter/collection point
/// instead of terminating: a host traversal that throws must unwind its
/// frame slot, not the process (the sim has no exceptions to propagate).
struct CoPromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      std::coroutine_handle<> cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

/// A lazily-started host coroutine. Move-only owner of the coroutine frame;
/// awaitable from another CoTask (symmetric transfer, no scheduler round
/// trip for nested descents like FatSkipList::find_co inside
/// HybridSkipList::read_co). The top-level owner submits `handle()` to a
/// Frame and reads `result()` once `done()`.
template <typename T = void>
class [[nodiscard]] CoTask {
 public:
  struct promise_type : detail::CoPromiseBase {
    T value{};
    CoTask get_return_object() {
      return CoTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) { value = std::move(v); }
  };

  CoTask() = default;
  CoTask(CoTask&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  CoTask& operator=(CoTask&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  ~CoTask() { destroy(); }

  CoTask(const CoTask&) = delete;
  CoTask& operator=(const CoTask&) = delete;

  bool valid() const noexcept { return h_ != nullptr; }
  bool done() const noexcept { return !h_ || h_.done(); }
  std::coroutine_handle<> handle() const noexcept { return h_; }

  /// Result after completion (Frame::drain or done()==true). Rethrows any
  /// exception the coroutine body escaped with.
  T result() {
    assert(h_ && h_.done());
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
    return std::move(h_.promise().value);
  }

  // Awaitable-from-a-CoTask: start the child inline, resume the parent when
  // it completes (FinalAwaiter), rethrow into the parent on failure.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    h_.promise().continuation = cont;
    return h_;
  }
  T await_resume() {
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
    return std::move(h_.promise().value);
  }

 private:
  explicit CoTask(std::coroutine_handle<promise_type> h) : h_(h) {}
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> h_;
};

template <>
class [[nodiscard]] CoTask<void> {
 public:
  struct promise_type : detail::CoPromiseBase {
    CoTask get_return_object() {
      return CoTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() noexcept {}
  };

  CoTask() = default;
  CoTask(CoTask&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  CoTask& operator=(CoTask&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  ~CoTask() { destroy(); }

  CoTask(const CoTask&) = delete;
  CoTask& operator=(const CoTask&) = delete;

  bool valid() const noexcept { return h_ != nullptr; }
  bool done() const noexcept { return !h_ || h_.done(); }
  std::coroutine_handle<> handle() const noexcept { return h_; }

  void result() {
    assert(h_ && h_.done());
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    h_.promise().continuation = cont;
    return h_;
  }
  void await_resume() {
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
  }

 private:
  explicit CoTask(std::coroutine_handle<promise_type> h) : h_(h) {}
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> h_;
};

/// Per-thread scheduler for up to kMaxSlots in-flight operations. The Frame
/// does NOT own the coroutine frames — the caller keeps the CoTask objects
/// (for results and destruction) and submits raw handles; a slot empties
/// when its top-level coroutine runs to completion (including by
/// exception). Not thread-safe: one Frame per thread, like the publication
/// slots themselves.
class Frame {
 public:
  static constexpr std::uint32_t kMaxSlots = 16;

  /// `slots` is clamped to [1, kMaxSlots]; defaults to the process-wide
  /// depth knob.
  explicit Frame(std::uint32_t slots = interleave_depth());
  ~Frame();

  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

  std::uint32_t capacity() const noexcept { return capacity_; }
  std::uint32_t inflight() const noexcept { return inflight_; }
  bool has_capacity() const noexcept { return inflight_ < capacity_; }
  bool empty() const noexcept { return inflight_ == 0; }

  /// Adopt a lazily-started coroutine into a free slot. Returns false when
  /// the frame is full (or `top` is null). The coroutine is first resumed
  /// by the next step()/drain().
  bool submit(std::coroutine_handle<> top);

  /// Make one scheduling decision: resume the next runnable slot
  /// (round-robin), or — when every in-flight op is parked on a publication
  /// slot — fall back to the runtime's bounded futex wait on one of them,
  /// then re-poll. Returns false only when the frame is empty.
  bool step();

  /// step() until every submitted coroutine has completed.
  void drain() {
    while (step()) {
    }
  }

  // -- awaiter hooks (called with this frame active on this thread) --
  void note_yield(std::coroutine_handle<> h);
  void note_wait(std::coroutine_handle<> h, nmp::PartitionSet* set,
                 nmp::OpHandle handle);

 private:
  enum class SlotState : std::uint8_t { kEmpty, kReady, kWaiting };

  struct Slot {
    std::coroutine_handle<> top{};     // for done() detection; not owned
    std::coroutine_handle<> resume{};  // innermost suspended coroutine
    SlotState state = SlotState::kEmpty;
    nmp::PartitionSet* set = nullptr;  // valid while state == kWaiting
    nmp::OpHandle wait{};
  };

  void resume_slot(std::uint32_t i);

  Slot slots_[kMaxSlots];
  std::uint32_t capacity_;
  std::uint32_t inflight_ = 0;
  std::uint32_t cursor_ = 0;
};

namespace detail {

/// The frame currently driving this thread plus the slot being resumed.
/// Set around every Frame::resume_slot so the awaiters need no arguments
/// threaded through the data-structure coroutines.
struct ActiveFrame {
  Frame* frame = nullptr;
  std::uint32_t slot = 0;
};

inline ActiveFrame& active_frame() noexcept {
  static thread_local ActiveFrame active;
  return active;
}

}  // namespace detail

/// True when an awaiter may suspend the running op: a Frame drives this
/// thread and has a sibling op in flight to switch to. Both awaiters below
/// complete without suspending otherwise.
inline bool can_yield() noexcept {
  const detail::ActiveFrame& a = detail::active_frame();
  return a.frame != nullptr && a.frame->inflight() > 1;
}

/// Awaitable: issue a software prefetch for `addr` (`bytes` ≤ 64 uses a
/// single-line hint, larger objects prefetch every line) and yield to a
/// sibling operation while the line(s) travel. Degrades to prefetch-only —
/// no suspension — when no Frame is driving this thread or when this is the
/// frame's only in-flight op (nothing to overlap with, so a depth-1 frame
/// runs an op exactly as a blocking call does).
struct PrefetchAndYield {
  const void* addr;
  std::size_t bytes;

  bool await_ready() const noexcept {
    if (bytes <= 64) {
      mem::prefetch_read(addr);
    } else {
      mem::prefetch_object(addr, bytes);
    }
    return !can_yield();
  }
  void await_suspend(std::coroutine_handle<> h) noexcept {
    detail::active_frame().frame->note_yield(h);
  }
  void await_resume() const noexcept {}
};

inline PrefetchAndYield prefetch_and_yield(const void* addr,
                                           std::size_t bytes = 64) noexcept {
  return {addr, bytes};
}

/// Awaitable publication round-trip of every `_co` op:
/// `co_await call_co(set, p, tid, req)` yields the Response. With a Frame
/// driving the thread it posts to an async slot and parks the op until the
/// slot reaches kDone, resuming sibling operations meanwhile; it does not
/// park when the op is the frame's only in-flight one or the slot is
/// already done (retrieve then waits on the runtime's futex path), and it
/// falls back to the blocking call when no async slot is free or the lane
/// is fenced/leased (call() owns the bounce/lease handling). With no Frame
/// — a blocking entry point via run_inline — it is the blocking call
/// itself, so depth-1 callers keep call()'s slot, wait path and
/// `host.call_blocking` count. kPublish/kWake spans are recorded by
/// call_async/retrieve exactly as by call(). An awaiter rather than a
/// CoTask, so the round-trip costs no coroutine frame.
struct CallCo {
  nmp::PartitionSet* set;
  std::uint32_t p;
  std::uint32_t tid;
  nmp::Request req;
  nmp::OpHandle handle{};
  nmp::Response resp{};

  bool await_ready() {
    if (detail::active_frame().frame != nullptr) {
      handle = set->call_async(p, tid, req);
      if (handle.valid) return !can_yield() || set->poll(handle);
    }
    resp = set->call(p, tid, req);
    return true;
  }
  void await_suspend(std::coroutine_handle<> h) noexcept {
    detail::active_frame().frame->note_wait(h, set, handle);
  }
  nmp::Response await_resume() {
    return handle.valid ? set->retrieve(handle) : resp;
  }
};

inline CallCo call_co(nmp::PartitionSet& set, std::uint32_t p,
                      std::uint32_t tid, const nmp::Request& req) {
  return {&set, p, tid, req};
}

/// Runs a lazily-started op to completion on the calling thread and returns
/// its result (rethrowing anything the body escaped with). The thread's
/// ActiveFrame is cleared for the duration, so no awaiter can suspend — even
/// when the caller is itself a coroutine resumed by a Frame, whose slot
/// bookkeeping an inner suspension would otherwise corrupt.
template <typename T>
T run_inline(CoTask<T> task) {
  detail::ActiveFrame& active = detail::active_frame();
  const detail::ActiveFrame prev = active;
  active = {};
  task.handle().resume();
  active = prev;
  assert(task.done() && "run_inline: an op suspended with no Frame active");
  return task.result();
}

}  // namespace hybrids::host
