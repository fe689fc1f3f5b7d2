#include "hybrids/sim/exp/experiment.hpp"

#include <deque>
#include <memory>

#include "hybrids/ds/hybrid_btree.hpp"
#include "hybrids/ds/hybrid_skiplist.hpp"
#include "hybrids/sim/ds/sim_btree.hpp"
#include "hybrids/sim/ds/sim_skiplist.hpp"
#include "hybrids/sim/machine/system.hpp"
#include "hybrids/util/rng.hpp"

namespace hybrids::sim {

namespace {

/// Shared run bookkeeping: a start barrier (stats reset when the last actor
/// arrives) and an end latch (the last actor records the duration and asks
/// combiners to stop).
struct RunControl {
  std::uint32_t waiting;
  std::uint32_t running;
  Tick t0 = 0;
  Tick t1 = 0;
  System* sys;

  Task<void> arrive_and_wait() {
    if (--waiting == 0) {
      sys->mem().reset_stats();
      t0 = sys->engine().now();
    }
    while (waiting > 0) co_await sys->engine().delay(2 * kNanosecond);
  }

  void finish_one() {
    if (--running == 0) {
      t1 = sys->engine().now();
      sys->request_stop();
    }
  }
};

int auto_total_height(std::uint64_t n) {
  int h = 1;
  while ((1ull << h) < n) ++h;
  return h;
}

/// Per-operation application traffic (see ExperimentConfig): uniformly
/// random blocks in a dedicated address region, charged through the host
/// hierarchy like any other access.
constexpr std::uint64_t kAppRegionBase = 1ull << 44;

Task<void> touch_app(HostCtx& c, const ExperimentConfig& cfg,
                     util::Xoshiro256& rng) {
  const std::uint64_t blocks = cfg.app_ws_bytes / 128;
  for (std::uint32_t i = 0; i < cfg.app_blocks_per_op; ++i) {
    const std::uint64_t addr = kAppRegionBase + rng.next_below(blocks) * 128;
    co_await c.app_access(addr);
  }
}

std::uint32_t slot_base(std::uint32_t thread, std::uint32_t inflight) {
  return thread * (1 + inflight);
}

ExperimentResult finalize(const RunControl& control, System& sys,
                          std::uint64_t ops) {
  // Advance the trace clock past this run's last tick so the next sim run
  // (restarting at tick 0) doesn't overlap it in the exported trace.
  trace::advance_time_base(trace::time_base() +
                           static_cast<std::uint64_t>(
                               ticks_to_ns(sys.engine().now())) +
                           1000);
  ExperimentResult r;
  r.ops = ops;
  r.duration = control.t1 - control.t0;
  r.mem = sys.mem().stats();
  if (r.duration > 0) {
    r.mops = static_cast<double>(ops) / (ticks_to_seconds(r.duration) * 1e6);
  }
  if (ops > 0) {
    // Index traffic only: application-interference reads are reported
    // separately so the figures measure what the paper's figures measure.
    r.dram_reads_per_op =
        static_cast<double>(r.mem.dram_reads_total() - r.mem.app_dram_reads) /
        static_cast<double>(ops);
    r.host_dram_reads_per_op =
        static_cast<double>(r.mem.host_dram_reads - r.mem.app_dram_reads) /
        static_cast<double>(ops);
    r.nmp_dram_reads_per_op =
        static_cast<double>(r.mem.nmp_dram_reads) / static_cast<double>(ops);
    r.app_dram_reads_per_op =
        static_cast<double>(r.mem.app_dram_reads) / static_cast<double>(ops);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Skiplist actors
// ---------------------------------------------------------------------------

Task<void> lock_free_skiplist_actor(System& sys, RunControl& control,
                                    SimLockFreeSkipList& ds,
                                    const ExperimentConfig& cfg,
                                    std::uint32_t thread) {
  HostCtx c{&sys, thread};
  workload::OpStream stream(cfg.workload, thread);
  util::Xoshiro256 rng(cfg.workload.seed ^ (0xABCDu + thread));
  for (std::uint64_t i = 0; i < cfg.warmup_per_thread; ++i) {
    co_await touch_app(c, cfg, rng);
    co_await ds.run_op(c, stream.next(), rng);
  }
  co_await control.arrive_and_wait();
  for (std::uint64_t i = 0; i < cfg.ops_per_thread; ++i) {
    co_await touch_app(c, cfg, rng);
    co_await ds.run_op(c, stream.next(), rng);
  }
  control.finish_one();
}

Task<void> nmp_skiplist_actor(System& sys, RunControl& control,
                              SimNmpSkipList& ds, const ExperimentConfig& cfg,
                              std::uint32_t thread) {
  HostCtx c{&sys, thread};
  workload::OpStream stream(cfg.workload, thread);
  util::Xoshiro256 rng(cfg.workload.seed ^ (0xBCDEu + thread));
  const std::uint32_t slot = slot_base(thread, cfg.inflight);
  for (std::uint64_t i = 0; i < cfg.warmup_per_thread; ++i) {
    co_await touch_app(c, cfg, rng);
    co_await ds.run_op(c, slot, stream.next(), rng);
  }
  co_await control.arrive_and_wait();
  for (std::uint64_t i = 0; i < cfg.ops_per_thread; ++i) {
    co_await touch_app(c, cfg, rng);
    co_await ds.run_op(c, slot, stream.next(), rng);
  }
  control.finish_one();
}

Task<void> hybrid_skiplist_blocking_actor(System& sys, RunControl& control,
                                          SimHybridSkipList& ds,
                                          const ExperimentConfig& cfg,
                                          std::uint32_t thread) {
  HostCtx c{&sys, thread};
  workload::OpStream stream(cfg.workload, thread);
  util::Xoshiro256 rng(cfg.workload.seed ^ (0xCDEFu + thread));
  const std::uint32_t slot = slot_base(thread, cfg.inflight);
  for (std::uint64_t i = 0; i < cfg.warmup_per_thread; ++i) {
    co_await touch_app(c, cfg, rng);
    co_await ds.run_op_blocking(c, slot, stream.next(), rng);
  }
  co_await control.arrive_and_wait();
  for (std::uint64_t i = 0; i < cfg.ops_per_thread; ++i) {
    co_await touch_app(c, cfg, rng);
    co_await ds.run_op_blocking(c, slot, stream.next(), rng);
  }
  control.finish_one();
}

/// Non-blocking actor (§3.5): keeps up to `inflight` offloads pending,
/// completing the oldest when the window fills (Figure 4b).
Task<void> hybrid_skiplist_nonblocking_actor(System& sys, RunControl& control,
                                             SimHybridSkipList& ds,
                                             const ExperimentConfig& cfg,
                                             std::uint32_t thread) {
  HostCtx c{&sys, thread};
  workload::OpStream stream(cfg.workload, thread);
  util::Xoshiro256 rng(cfg.workload.seed ^ (0xDEF0u + thread));
  const std::uint32_t base = slot_base(thread, cfg.inflight);

  struct Pending {
    SimHybridSkipList::Prepared prep;
    std::uint32_t slot;
  };
  std::deque<Pending> window;
  std::uint64_t seq = 0;

  auto complete_oldest = [&]() -> Task<void> {
    Pending p = window.front();
    window.pop_front();
    nmp::Response resp =
        co_await sim_collect(c, ds.publist(p.prep.partition), p.slot);
    if (!co_await ds.complete(c, p.prep, resp)) {
      // NMP asked for a retry: fall back to the blocking path.
      co_await ds.run_op_blocking(c, base, p.prep.op, rng);
    }
  };
  auto issue = [&](const workload::Op& op) -> Task<void> {
    co_await touch_app(c, cfg, rng);
    // Async ops trace their transport phases but no enclosing kOp span:
    // their wall-clock overlaps other issued work. A retry fallback goes
    // through run_op_blocking, which traces as a fresh op.
    const trace::OpToken tok = trace::begin_op_at(sim_trace_ns(sys));
    const std::uint64_t d0 = tok.sampled() ? sim_trace_ns(sys) : 0;
    SimHybridSkipList::Prepared prep = co_await ds.prepare(c, op, rng);
    trace::record_span(tok.id, trace::Phase::kHostDescend, d0,
                       tok.sampled() ? sim_trace_ns(sys) : 0,
                       static_cast<std::uint8_t>(prep.req.op),
                       static_cast<std::int16_t>(prep.partition), 0, c.core);
    if (!prep.offload) co_return;  // completed host-side
    prep.req.trace_id = tok.id;
    if (window.size() == cfg.inflight) co_await complete_oldest();
    const std::uint32_t slot =
        base + 1 + static_cast<std::uint32_t>(seq++ % cfg.inflight);
    co_await sim_post(c, ds.publist(prep.partition), slot, prep.req);
    window.push_back(Pending{prep, slot});
  };

  for (std::uint64_t i = 0; i < cfg.warmup_per_thread; ++i) {
    co_await issue(stream.next());
  }
  while (!window.empty()) co_await complete_oldest();
  co_await control.arrive_and_wait();
  for (std::uint64_t i = 0; i < cfg.ops_per_thread; ++i) {
    co_await issue(stream.next());
  }
  while (!window.empty()) co_await complete_oldest();
  control.finish_one();
}

// ---------------------------------------------------------------------------
// B+ tree actors
// ---------------------------------------------------------------------------

Task<void> host_btree_actor(System& sys, RunControl& control, SimHostBTree& ds,
                            const ExperimentConfig& cfg, std::uint32_t thread) {
  HostCtx c{&sys, thread};
  workload::OpStream stream(cfg.workload, thread);
  util::Xoshiro256 rng(cfg.workload.seed ^ (0xE0F1u + thread));
  for (std::uint64_t i = 0; i < cfg.warmup_per_thread; ++i) {
    co_await touch_app(c, cfg, rng);
    co_await ds.run_op(c, stream.next());
  }
  co_await control.arrive_and_wait();
  for (std::uint64_t i = 0; i < cfg.ops_per_thread; ++i) {
    co_await touch_app(c, cfg, rng);
    co_await ds.run_op(c, stream.next());
  }
  control.finish_one();
}

Task<void> hybrid_btree_blocking_actor(System& sys, RunControl& control,
                                       SimHybridBTree& ds,
                                       const ExperimentConfig& cfg,
                                       std::uint32_t thread) {
  HostCtx c{&sys, thread};
  workload::OpStream stream(cfg.workload, thread);
  util::Xoshiro256 rng(cfg.workload.seed ^ (0xF1F2u + thread));
  const std::uint32_t slot = slot_base(thread, cfg.inflight);
  for (std::uint64_t i = 0; i < cfg.warmup_per_thread; ++i) {
    co_await touch_app(c, cfg, rng);
    co_await ds.run_op_blocking(c, slot, stream.next());
  }
  co_await control.arrive_and_wait();
  for (std::uint64_t i = 0; i < cfg.ops_per_thread; ++i) {
    co_await touch_app(c, cfg, rng);
    co_await ds.run_op_blocking(c, slot, stream.next());
  }
  control.finish_one();
}

Task<void> hybrid_btree_nonblocking_actor(System& sys, RunControl& control,
                                          SimHybridBTree& ds,
                                          const ExperimentConfig& cfg,
                                          std::uint32_t thread) {
  HostCtx c{&sys, thread};
  workload::OpStream stream(cfg.workload, thread);
  util::Xoshiro256 rng(cfg.workload.seed ^ (0xF2F3u + thread));
  const std::uint32_t base = slot_base(thread, cfg.inflight);

  struct Pending {
    SimHybridBTree::Prepared prep;
    std::uint32_t slot;
  };
  std::deque<Pending> window;
  std::uint64_t seq = 0;

  auto complete_oldest = [&]() -> Task<void> {
    Pending p = window.front();
    window.pop_front();
    nmp::Response resp =
        co_await sim_collect(c, ds.publist(p.prep.partition), p.slot);
    if (!co_await ds.complete(c, p.prep, resp, p.slot)) {
      co_await ds.run_op_blocking(c, base, p.prep.op);
    }
  };
  auto issue = [&](const workload::Op& op) -> Task<void> {
    co_await touch_app(c, cfg, rng);
    // See the skiplist non-blocking actor: transport phases only, no kOp.
    const trace::OpToken tok = trace::begin_op_at(sim_trace_ns(sys));
    const std::uint64_t d0 = tok.sampled() ? sim_trace_ns(sys) : 0;
    SimHybridBTree::Prepared prep = co_await ds.prepare(c, op);
    trace::record_span(tok.id, trace::Phase::kHostDescend, d0,
                       tok.sampled() ? sim_trace_ns(sys) : 0,
                       static_cast<std::uint8_t>(prep.req.op),
                       static_cast<std::int16_t>(prep.partition), 0, c.core);
    prep.req.trace_id = tok.id;
    if (window.size() == cfg.inflight) co_await complete_oldest();
    const std::uint32_t slot =
        base + 1 + static_cast<std::uint32_t>(seq++ % cfg.inflight);
    co_await sim_post(c, ds.publist(prep.partition), slot, prep.req);
    window.push_back(Pending{prep, slot});
  };

  for (std::uint64_t i = 0; i < cfg.warmup_per_thread; ++i) {
    co_await issue(stream.next());
  }
  while (!window.empty()) co_await complete_oldest();
  co_await control.arrive_and_wait();
  for (std::uint64_t i = 0; i < cfg.ops_per_thread; ++i) {
    co_await issue(stream.next());
  }
  while (!window.empty()) co_await complete_oldest();
  control.finish_one();
}

}  // namespace

const char* to_string(SkiplistKind kind) {
  switch (kind) {
    case SkiplistKind::kLockFree: return "lock-free";
    case SkiplistKind::kNmp: return "NMP-based";
    case SkiplistKind::kHybridBlocking: return "hybrid-blocking";
    case SkiplistKind::kHybridNonBlocking: return "hybrid-nonblocking";
  }
  return "?";
}

const char* to_string(BTreeKind kind) {
  switch (kind) {
    case BTreeKind::kHostOnly: return "host-only";
    case BTreeKind::kHybridBlocking: return "hybrid-blocking";
    case BTreeKind::kHybridNonBlocking: return "hybrid-nonblocking";
  }
  return "?";
}

ExperimentResult run_skiplist_experiment(SkiplistKind kind,
                                         const ExperimentConfig& config) {
  System sys(config.machine);
  const workload::WorkloadSpec& wl = config.workload;
  workload::KeyLayout layout(wl.initial_keys, wl.partitions);
  auto keys = layout.initial_key_set();
  util::Xoshiro256 populate_rng(wl.seed ^ 0x5EEDu);

  const int total_height =
      config.total_height > 0 ? config.total_height : auto_total_height(wl.initial_keys);
  int nmp_height = config.nmp_height;
  if (nmp_height <= 0) {
    nmp_height = ds::HybridSkipList::nmp_height_for_cache(
        wl.initial_keys, config.machine.l2_bytes, config.machine.block_bytes);
  }
  if (nmp_height >= total_height) nmp_height = total_height - 1;

  RunControl control{config.threads, config.threads, 0, 0, &sys};
  const std::uint32_t slots = config.threads * (1 + config.inflight);
  const std::uint64_t total_ops =
      static_cast<std::uint64_t>(config.threads) * config.ops_per_thread;

  switch (kind) {
    case SkiplistKind::kLockFree: {
      auto ds = std::make_unique<SimLockFreeSkipList>(total_height);
      ds->populate(keys, populate_rng);
      for (std::uint32_t t = 0; t < config.threads; ++t) {
        sys.engine().spawn(lock_free_skiplist_actor(sys, control, *ds, config, t));
      }
      sys.engine().run();
      return finalize(control, sys, total_ops);
    }
    case SkiplistKind::kNmp: {
      auto ds = std::make_unique<SimNmpSkipList>(sys, total_height, wl.partitions,
                                                 layout.partition_width(), slots);
      ds->populate(keys, populate_rng);
      ds->start_combiners();
      for (std::uint32_t t = 0; t < config.threads; ++t) {
        sys.engine().spawn(nmp_skiplist_actor(sys, control, *ds, config, t));
      }
      sys.engine().run();
      return finalize(control, sys, total_ops);
    }
    case SkiplistKind::kHybridBlocking:
    case SkiplistKind::kHybridNonBlocking: {
      auto ds = std::make_unique<SimHybridSkipList>(
          sys, total_height, nmp_height, wl.partitions, layout.partition_width(),
          slots);
      ds->populate(keys, populate_rng);
      ds->start_combiners();
      for (std::uint32_t t = 0; t < config.threads; ++t) {
        if (kind == SkiplistKind::kHybridBlocking) {
          sys.engine().spawn(
              hybrid_skiplist_blocking_actor(sys, control, *ds, config, t));
        } else {
          sys.engine().spawn(
              hybrid_skiplist_nonblocking_actor(sys, control, *ds, config, t));
        }
      }
      sys.engine().run();
      return finalize(control, sys, total_ops);
    }
  }
  return {};
}

ExperimentResult run_btree_experiment(BTreeKind kind,
                                      const ExperimentConfig& config) {
  System sys(config.machine);
  const workload::WorkloadSpec& wl = config.workload;
  workload::KeyLayout layout(wl.initial_keys, wl.partitions);
  auto keys = layout.initial_key_set();

  int nmp_levels = config.nmp_levels;
  if (nmp_levels <= 0) {
    nmp_levels = ds::HybridBTree::nmp_levels_for_cache(
        wl.initial_keys, config.machine.l2_bytes, config.fill,
        config.machine.block_bytes);
  }

  RunControl control{config.threads, config.threads, 0, 0, &sys};
  const std::uint32_t slots = config.threads * (1 + config.inflight);
  const std::uint64_t total_ops =
      static_cast<std::uint64_t>(config.threads) * config.ops_per_thread;

  switch (kind) {
    case BTreeKind::kHostOnly: {
      auto ds = std::make_unique<SimHostBTree>(config.fill);
      ds->populate(keys);
      for (std::uint32_t t = 0; t < config.threads; ++t) {
        sys.engine().spawn(host_btree_actor(sys, control, *ds, config, t));
      }
      sys.engine().run();
      return finalize(control, sys, total_ops);
    }
    case BTreeKind::kHybridBlocking:
    case BTreeKind::kHybridNonBlocking: {
      auto ds = std::make_unique<SimHybridBTree>(sys, nmp_levels, wl.partitions,
                                                 slots, config.fill);
      ds->populate(keys);
      ds->start_combiners();
      for (std::uint32_t t = 0; t < config.threads; ++t) {
        if (kind == BTreeKind::kHybridBlocking) {
          sys.engine().spawn(
              hybrid_btree_blocking_actor(sys, control, *ds, config, t));
        } else {
          sys.engine().spawn(
              hybrid_btree_nonblocking_actor(sys, control, *ds, config, t));
        }
      }
      sys.engine().run();
      return finalize(control, sys, total_ops);
    }
  }
  return {};
}

namespace {

struct OffloadProbe {
  Tick posted = 0;
  Tick picked_up = 0;
  Tick processed = 0;
  Tick flag_seen = 0;
  Tick responded = 0;
  Tick started = 0;
};

Task<void> offload_probe_host(System& sys, OffloadProbe& probe, SimPubList& pl) {
  HostCtx c{&sys, 0};
  probe.started = sys.engine().now();
  co_await c.mmio_write();
  pl.slots[0].req = nmp::Request{};
  pl.slots[0].req.op = nmp::OpCode::kNop;
  pl.slots[0].status = SimSlot::kPending;
  probe.posted = sys.engine().now();
  while (true) {
    co_await c.mmio_read();
    if (pl.slots[0].status == SimSlot::kDone) break;
    co_await c.delay(sys.config().host_poll_gap);
  }
  probe.flag_seen = sys.engine().now();
  co_await c.mmio_read();
  probe.responded = sys.engine().now();
  pl.slots[0].status = SimSlot::kEmpty;
  sys.request_stop();
}

Task<void> offload_probe_combiner(System& sys, OffloadProbe& probe,
                                  SimPubList& pl) {
  NmpCtx ctx{&sys, 0};
  while (true) {
    co_await ctx.spad();
    if (pl.slots[0].status == SimSlot::kPending) {
      probe.picked_up = sys.engine().now();
      // A no-op request: just the handler dispatch cost.
      co_await ctx.delay(sys.config().nmp_node_cpu);
      co_await ctx.spad();
      pl.slots[0].status = SimSlot::kDone;
      probe.processed = sys.engine().now();
      continue;
    }
    if (sys.stop_requested()) co_return;
    co_await ctx.delay(sys.config().nmp_idle_gap);
  }
}

}  // namespace

OffloadDelays measure_offload_delays(const MachineConfig& machine) {
  System sys(machine);
  SimPubList pl(1);
  OffloadProbe probe;
  sys.engine().spawn(offload_probe_host(sys, probe, pl));
  sys.engine().spawn(offload_probe_combiner(sys, probe, pl));
  sys.engine().run();

  OffloadDelays d;
  d.post = probe.posted - probe.started;
  d.nmp_notice = probe.picked_up - probe.posted;
  d.nmp_process = probe.processed - probe.picked_up;
  d.host_notice = probe.flag_seen - probe.processed;
  d.response = probe.responded - probe.flag_seen;
  d.total = probe.responded - probe.started;

  // One LLC miss for comparison: L1 + L2 lookup + link round trip + a
  // row-miss DRAM access.
  d.llc_miss = machine.l1_latency + machine.l2_latency + 2 * machine.link_latency +
               machine.dram.tRCD + machine.dram.tCL + machine.dram.tBURST;
  return d;
}

}  // namespace hybrids::sim
