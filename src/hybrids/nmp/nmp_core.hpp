// Software emulation of an NMP core: one combiner thread with exclusive
// ownership of a memory partition, serving a publication list.
//
// This is the UPMEM-style software realization of the paper's NMP core
// (in-order processor coupled to a memory vault): a dedicated thread is the
// only one ever touching partition-local nodes, so partition-local code is
// single-threaded by construction — exactly the property the hybrid
// algorithms rely on (§3.2). The thread spins over the publication list and
// parks on a futex when idle, so the runtime behaves on oversubscribed
// machines.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "hybrids/nmp/publication.hpp"
#include "hybrids/telemetry/registry.hpp"

namespace hybrids::nmp {

/// A single emulated NMP core.
///
/// The `handler` is invoked on the combiner thread for every pending request,
/// in slot order (flat combining). It must only touch partition-local state
/// plus the request/response structs; it runs with no locks held.
///
/// With a batch handler additionally installed (set_batch_handler), a scan
/// pass that finds two or more pending requests is served as one key-sorted
/// batch instead: the combiner collects every kPending slot, sorts the
/// requests by key (stable, so equal keys keep slot order), and invokes the
/// batch handler once over the whole span. This lets partition-local
/// structures amortize traversal work across key-adjacent operations with a
/// finger (see NmpSkipList / NmpBTree) — the combiner loop is the throughput
/// ceiling of the hybrid design, so work saved here is end-to-end win.
/// Responses are then published (kDone + notify) in original slot order, so
/// hosts observe exactly the protocol of the one-at-a-time path. Passes with
/// a single pending request always use the plain handler; so do cores with
/// no batch handler registered.
class NmpCore {
 public:
  using Handler = std::function<void(const Request&, Response&)>;
  /// Invoked on the combiner thread with `count >= 2` operations sorted by
  /// ascending request key. Must write every `ops[i].resp` before returning;
  /// the core publishes them afterwards. Same restrictions as Handler.
  using BatchHandler = std::function<void(BatchOp* ops, std::size_t count)>;

  NmpCore(std::uint32_t id, std::uint32_t slot_count, Handler handler);
  ~NmpCore();

  NmpCore(const NmpCore&) = delete;
  NmpCore& operator=(const NmpCore&) = delete;

  /// Installs the optional batch handler. Must be called before start().
  void set_batch_handler(BatchHandler handler);

  /// Launches the combiner thread. Idempotent.
  void start();
  /// Drains outstanding requests and joins the combiner thread. Idempotent.
  void stop();

  std::uint32_t id() const { return id_; }
  std::uint32_t slot_count() const { return static_cast<std::uint32_t>(slots_.size()); }

  /// Direct slot access; slot ownership/assignment policy lives with the
  /// caller (see PartitionSet / SlotPool).
  PubSlot& slot(std::uint32_t index) { return *slots_[index]; }

  /// Host side: publish `r` into slot `index` and wake the combiner.
  void post(std::uint32_t index, const Request& r);

  /// Host side: block until slot `index` holds a response. Internally waits
  /// in bounded windows with lost-wakeup recovery (see wait_done_for), so it
  /// never hangs on a dropped futex notify.
  void wait_done(std::uint32_t index);

  /// Host side: bounded wait — spin, then yield, then park on a timed futex
  /// until slot `index` holds a response or `timeout` elapses. Returns true
  /// iff the response is available. After each expired wait window the
  /// pending counter is re-notified (lost-wakeup recovery: a combiner whose
  /// doorbell was dropped re-scans) and `wait_timeout_total` is bumped.
  bool wait_done_for(std::uint32_t index, std::chrono::nanoseconds timeout);

  /// Re-wakes the combiner if it is parked (watchdog / lost-wakeup
  /// recovery). Safe from any thread; a spurious kick costs one idle scan.
  void kick();

  // --- Failover support (see the supervisor in partition_set.cpp) ---------
  //
  // A *fence* invalidates the current combiner incarnation: the service loop
  // captures the fence epoch when it starts, re-checks it at every pass top
  // (stale -> the thread exits), and re-checks it in complete() (stale ->
  // the publish degrades from a blind kDone store to a kPending -> kDone
  // CAS: already-run ops are still answered, but a reply to a slot some new
  // owner has reclaimed is rejected). The supervisor then reaps the exited
  // thread, bounces still-kPending slots with failed_over responses, and
  // either start()s a fresh combiner over the same partition state or drives
  // passes itself via drive_pass() (host-takeover lease).

  /// Raises the fence epoch and wakes a parked combiner so it observes it.
  /// Safe from any thread; only the supervisor should call it.
  void fence_raise();

  /// Current fence epoch (tests / diagnostics).
  std::uint64_t fence_epoch() const {
    return fence_.load(std::memory_order_acquire);
  }

  /// True once the combiner thread has left its service loop (fence, abort
  /// fault, or wedge-until-fenced release) and a join would not block.
  bool exited() const { return exited_.load(std::memory_order_acquire); }

  /// Joins the combiner thread iff it has exited. Returns true when the
  /// thread was reaped (start() may then relaunch one). Must only be called
  /// from the supervisor, serialized with start()/stop().
  bool try_reap();

  /// Runs one full scan-and-serve pass on the *calling* thread (host-takeover
  /// lease). The caller must be the partition's sole driver (no combiner
  /// thread running, lease lock held) — the pass runs the handlers, so it
  /// inherits the combiner's exclusive-ownership contract.
  /// Returns the number of requests served.
  std::uint32_t drive_pass();

  /// Failover accounting: credit `n` supervisor-bounced slots as served so
  /// the watchdog's posted-vs-served progress check re-converges (bounced
  /// ops never reach complete()).
  void absorb_bounce(std::uint64_t n) {
    served_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Number of requests served so far (for tests / stats).
  std::uint64_t served() const { return served_.load(std::memory_order_relaxed); }
  /// Number of requests posted so far (watchdog progress accounting).
  std::uint64_t posted() const { return posts_.load(std::memory_order_relaxed); }
  /// Number of full scan passes that found no pending request.
  std::uint64_t idle_passes() const { return idle_passes_.load(std::memory_order_relaxed); }

 private:
  /// Telemetry instruments, registered per partition id at construction.
  /// All hot-path mutations are relaxed-atomic increments; they compile to
  /// no-ops under HYBRIDS_NO_TELEMETRY.
  struct Metrics {
    telemetry::Counter* served_total;
    telemetry::Counter* served_op[kOpCodeCount];  // indexed by OpCode
    telemetry::Counter* park;          // combiner futex parks
    telemetry::Counter* wake;          // host-side futex notifies (post/stop)
    telemetry::Counter* wait_timeout;  // expired bounded-wait windows
    telemetry::LatencyRecorder* queue_wait;  // post -> pickup, ns
    telemetry::LatencyRecorder* service;     // handler execution, ns
    telemetry::LatencyRecorder* occupancy;   // pending slots at scan start
    telemetry::LatencyRecorder* batch;       // requests served per scan pass
    telemetry::LatencyRecorder* batch_size;  // ops per batch-handler call
  };

  /// One request picked up by a scan pass, with the metadata that must be
  /// captured before the kDone store (the owning host thread may take() and
  /// re-post the slot the instant it observes completion).
  struct Picked {
    PubSlot* slot;
    std::uint64_t pickup_ns;  // telemetry::now_ns() at collection
    std::uint64_t posted_ns;
    std::size_t op;           // OpCode as index, captured pre-completion
    std::uint64_t trace_id;   // sampled-op id (0: untraced), ditto
  };

  void run();
  /// One scan-and-serve pass over the publication list: occupancy sample,
  /// collection, spurious-response fault hooks, batch or one-at-a-time
  /// apply. `epoch` is the fence epoch the pass runs under; see complete()
  /// for what happens to completions when it goes stale. Returns the number
  /// of requests served.
  std::uint32_t scan_and_serve(std::vector<Picked>& picked,
                               std::vector<BatchOp>& batch,
                               std::uint64_t epoch);
  /// Publishes one served slot: delayed-response fault hook, kDone release
  /// store + notify, served accounting, per-op telemetry. When `epoch` no
  /// longer matches the fence the publish becomes a kPending -> kDone CAS —
  /// the already-run op is still answered, but a late reply to a slot a new
  /// owner has reclaimed is rejected.
  void complete(const Picked& picked, std::uint64_t service_ns,
                std::uint64_t epoch);

  std::uint32_t id_;
  Handler handler_;
  BatchHandler batch_handler_;
  std::vector<util::CacheAligned<PubSlot>> slots_;
  std::atomic<std::uint64_t> pending_{0};  // monotone post counter (futex word)
  std::atomic<std::uint64_t> posts_{0};    // requests posted (excludes stop bumps)
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> fence_{0};    // failover fence epoch
  std::atomic<bool> exited_{false};        // combiner left its service loop
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> idle_passes_{0};
  Metrics metrics_;
  std::thread thread_;
  bool started_ = false;
};

}  // namespace hybrids::nmp
