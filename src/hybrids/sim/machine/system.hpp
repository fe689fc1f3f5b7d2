// Simulated machine: the event engine, the memory system, and the execution
// contexts (host hardware threads, NMP cores) that simulated data-structure
// code runs on. Also provides the simulated publication-list transport
// (§3.2) shared by all NMP-based structures.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hybrids/nmp/publication.hpp"
#include "hybrids/sim/core/event_queue.hpp"
#include "hybrids/sim/core/task.hpp"
#include "hybrids/sim/core/time.hpp"
#include "hybrids/sim/machine/config.hpp"
#include "hybrids/sim/mem/memory_system.hpp"
#include "hybrids/telemetry/registry.hpp"
#include "hybrids/trace/trace.hpp"

namespace hybrids::sim {

class System {
 public:
  explicit System(const MachineConfig& config)
      : config_(config), mem_(config) {}

  const MachineConfig& config() const { return config_; }
  Engine& engine() { return engine_; }
  MemorySystem& mem() { return mem_; }

  /// Set once all host workload actors finish; combiner actors then drain
  /// and exit.
  bool stop_requested() const { return stop_; }
  void request_stop() { stop_ = true; }

 private:
  MachineConfig config_;
  Engine engine_;
  MemorySystem mem_;
  bool stop_ = false;
};

/// Execution context of one host hardware thread.
struct HostCtx {
  System* sys;
  std::uint32_t core;

  Engine::DelayAwaiter delay(Tick d) { return sys->engine().delay(d); }

  /// Visit one data-structure node (<= one 128B block): memory latency plus
  /// the per-node CPU cost.
  Engine::DelayAwaiter node(const void* p, bool write = false) {
    const Tick lat = sys->mem().host_access(core,
                                            reinterpret_cast<std::uint64_t>(p),
                                            write, sys->engine().now()) +
                     sys->config().host_node_cpu;
    return delay(lat);
  }

  /// Application-interference access (tracked separately in the stats).
  Engine::DelayAwaiter app_access(std::uint64_t addr) {
    const Tick lat = sys->mem().host_access(core, addr, /*write=*/false,
                                            sys->engine().now(), /*app=*/true);
    return delay(lat);
  }

  Engine::DelayAwaiter mmio_write() {
    return delay(sys->mem().host_mmio(true, sys->engine().now()));
  }
  Engine::DelayAwaiter mmio_read() {
    return delay(sys->mem().host_mmio(false, sys->engine().now()));
  }
};

/// Execution context of one NMP core: accesses its own vault directly and
/// keeps a node-size single-block buffer (Choe et al. [16]).
struct NmpCtx {
  System* sys;
  std::uint32_t vault;  // NMP vault index (0-based among NMP vaults)
  std::uint64_t buffer_block = ~std::uint64_t{0};

  Engine::DelayAwaiter delay(Tick d) { return sys->engine().delay(d); }

  /// Visit one partition-local node through the node buffer.
  Engine::DelayAwaiter node(const void* p, bool write = false) {
    const auto addr = reinterpret_cast<std::uint64_t>(p);
    const std::uint64_t block = addr / sys->config().block_bytes;
    Tick lat = sys->config().nmp_node_cpu;
    if (block == buffer_block && !write) {
      lat += sys->config().nmp_cycle;
      // Buffer hit: no DRAM access.
      // (Writes go through to the vault and refresh the buffer.)
    } else {
      lat += sys->mem().nmp_access(vault, addr, write, sys->engine().now());
      buffer_block = block;
    }
    return delay(lat);
  }

  Engine::DelayAwaiter spad() {
    return delay(sys->mem().nmp_scratchpad(sys->engine().now()));
  }
};

/// Simulated publication-list slot: plain fields (the event engine
/// interleaves actors only at co_await points), latencies charged through
/// HostCtx::mmio_* and NmpCtx::spad.
struct SimSlot {
  enum Status : std::uint8_t { kEmpty, kPending, kDone };
  Status status = kEmpty;
  nmp::Request req{};
  nmp::Response resp{};
  Tick posted_at = 0;  // telemetry: simulated post time (queue wait)
  Tick done_at = 0;    // trace: combiner completion time (kWake start)
};

/// One NMP core's publication list plus the stop flag shared with its
/// combiner actor.
struct SimPubList {
  explicit SimPubList(std::uint32_t slots, std::int16_t part = -1)
      : slots(slots), part(part) {}
  std::vector<SimSlot> slots;
  std::int16_t part;  // owning partition, for trace attribution
};

/// Trace timestamp for simulated time: the run-global offset (so stacked
/// runs don't overlap at tick 0) plus the engine clock, in nanoseconds.
inline std::uint64_t sim_trace_ns(System& sys) {
  return trace::time_base() +
         static_cast<std::uint64_t>(ticks_to_ns(sys.engine().now()));
}
inline std::uint64_t sim_trace_ns_at(Tick t) {
  return trace::time_base() + static_cast<std::uint64_t>(ticks_to_ns(t));
}

/// Host side of a blocking NMP call: write the request (posted MMIO), poll
/// the valid flag, read back the response (§3.2; Table 2 measures exactly
/// this round trip).
inline Task<nmp::Response> sim_call(HostCtx& c, SimPubList& pl,
                                    std::uint32_t slot, nmp::Request req) {
  // Function-local statics: one registry lookup per process, not per call.
  static telemetry::Counter& posted =
      telemetry::counter(telemetry::names::kOffloadPosted);
  static telemetry::Counter& blocking =
      telemetry::counter(telemetry::names::kCallBlocking);
  const std::uint64_t p0 = req.trace_id ? sim_trace_ns(*c.sys) : 0;
  co_await c.mmio_write();
  pl.slots[slot].req = req;
  pl.slots[slot].resp = nmp::Response{};
  pl.slots[slot].posted_at = c.sys->engine().now();
  pl.slots[slot].done_at = 0;
  pl.slots[slot].status = SimSlot::kPending;
  posted.inc();
  blocking.inc();
  trace::record_span(req.trace_id, trace::Phase::kPublish, p0,
                     req.trace_id ? sim_trace_ns(*c.sys) : 0,
                     static_cast<std::uint8_t>(req.op), pl.part, 0, c.core);
  while (true) {
    co_await c.mmio_read();  // poll the flag
    if (pl.slots[slot].status == SimSlot::kDone) break;
    co_await c.delay(c.sys->config().host_poll_gap);
  }
  co_await c.mmio_read();  // fetch response payload
  trace::record_span(req.trace_id, trace::Phase::kWake,
                     sim_trace_ns_at(pl.slots[slot].done_at),
                     req.trace_id ? sim_trace_ns(*c.sys) : 0,
                     static_cast<std::uint8_t>(req.op), pl.part, 0, c.core);
  nmp::Response resp = pl.slots[slot].resp;
  pl.slots[slot].status = SimSlot::kEmpty;
  co_return resp;
}

/// Host side of a non-blocking post (§3.5): returns immediately after the
/// posted MMIO write; completion is collected with sim_collect.
inline Task<void> sim_post(HostCtx& c, SimPubList& pl, std::uint32_t slot,
                           nmp::Request req) {
  static telemetry::Counter& posted =
      telemetry::counter(telemetry::names::kOffloadPosted);
  static telemetry::Counter& async =
      telemetry::counter(telemetry::names::kCallAsync);
  const std::uint64_t p0 = req.trace_id ? sim_trace_ns(*c.sys) : 0;
  co_await c.mmio_write();
  pl.slots[slot].req = req;
  pl.slots[slot].resp = nmp::Response{};
  pl.slots[slot].posted_at = c.sys->engine().now();
  pl.slots[slot].done_at = 0;
  pl.slots[slot].status = SimSlot::kPending;
  posted.inc();
  async.inc();
  trace::record_span(req.trace_id, trace::Phase::kPublish, p0,
                     req.trace_id ? sim_trace_ns(*c.sys) : 0,
                     static_cast<std::uint8_t>(req.op), pl.part, 0, c.core);
}

inline Task<nmp::Response> sim_collect(HostCtx& c, SimPubList& pl,
                                       std::uint32_t slot) {
  while (true) {
    co_await c.mmio_read();
    if (pl.slots[slot].status == SimSlot::kDone) break;
    co_await c.delay(c.sys->config().host_poll_gap);
  }
  co_await c.mmio_read();
  trace::record_span(pl.slots[slot].req.trace_id, trace::Phase::kWake,
                     sim_trace_ns_at(pl.slots[slot].done_at),
                     pl.slots[slot].req.trace_id ? sim_trace_ns(*c.sys) : 0,
                     static_cast<std::uint8_t>(pl.slots[slot].req.op), pl.part,
                     0, c.core);
  nmp::Response resp = pl.slots[slot].resp;
  pl.slots[slot].status = SimSlot::kEmpty;
  co_return resp;
}

/// NMP combiner actor: scans the publication list (one scratchpad read per
/// slot), applies pending requests through `handler`, and writes responses.
/// Runs until the system requests a stop and the list is drained.
/// Per-partition telemetry instruments for one simulated combiner, resolved
/// once at actor start. All metric names match the real NmpCore runtime so
/// exports look identical regardless of which transport ran the workload.
struct SimCombinerMetrics {
  telemetry::Counter* served_total;
  telemetry::Counter* served_op[nmp::kOpCodeCount];  // indexed by OpCode
  telemetry::LatencyRecorder* queue_wait;
  telemetry::LatencyRecorder* service;
  telemetry::LatencyRecorder* occupancy;
  telemetry::LatencyRecorder* batch;

  explicit SimCombinerMetrics(std::uint32_t vault) {
    namespace tn = telemetry::names;
    const auto p = static_cast<std::int32_t>(vault);
    served_total = &telemetry::counter(tn::kServedTotal, p);
    for (std::size_t op = 0; op < nmp::kOpCodeCount; ++op) {
      served_op[op] = &telemetry::counter(
          std::string(tn::kServedPrefix) +
              nmp::op_code_name(static_cast<nmp::OpCode>(op)),
          p);
    }
    queue_wait = &telemetry::latency(tn::kQueueWaitNs, p);
    service = &telemetry::latency(tn::kServiceNs, p);
    occupancy = &telemetry::latency(tn::kScanOccupancy, p);
    batch = &telemetry::latency(tn::kCombinerBatch, p);
  }
};

inline Task<void> sim_combiner(
    System& sys, NmpCtx ctx, SimPubList& pl,
    std::function<Task<void>(NmpCtx&, SimSlot&)> handler) {
  SimCombinerMetrics m(ctx.vault);
  while (true) {
    if constexpr (telemetry::kEnabled) {
      // Occupancy at scan start: free (uncharged) status reads, so telemetry
      // never perturbs the simulated timing.
      std::uint32_t occupied = 0;
      for (const auto& slot : pl.slots) {
        occupied += slot.status == SimSlot::kPending;
      }
      if (occupied > 0) m.occupancy->record(occupied);
    }
    std::uint32_t served_this_pass = 0;
    for (auto& slot : pl.slots) {
      co_await ctx.spad();  // read the valid flag
      if (slot.status == SimSlot::kPending) {
        const Tick t0 = sys.engine().now();
        const auto op = static_cast<std::size_t>(slot.req.op);
        const std::uint64_t trace_id = slot.req.trace_id;
        co_await handler(ctx, slot);
        const Tick t_applied = sys.engine().now();
        co_await ctx.spad();  // write response + clear flag
        slot.done_at = sys.engine().now();
        slot.status = SimSlot::kDone;
        ++served_this_pass;
        if constexpr (trace::kCompiledIn) {
          if (trace_id != 0) {
            // kQueueWait + kApply + kReply tile [posted_at, done_at] on the
            // combiner lane, mirroring the real NmpCore attribution.
            const auto op8 = static_cast<std::uint8_t>(op);
            const auto part = static_cast<std::int16_t>(ctx.vault);
            const std::uint32_t lane = trace::kCombinerTrackBase + ctx.vault;
            trace::record_span(trace_id, trace::Phase::kQueueWait,
                               sim_trace_ns_at(slot.posted_at),
                               sim_trace_ns_at(t0), op8, part, 0, lane);
            trace::record_span(trace_id, trace::Phase::kApply,
                               sim_trace_ns_at(t0), sim_trace_ns_at(t_applied),
                               op8, part, 0, lane);
            trace::record_span(trace_id, trace::Phase::kReply,
                               sim_trace_ns_at(t_applied),
                               sim_trace_ns_at(slot.done_at), op8, part, 0,
                               lane);
          }
        }
        if constexpr (telemetry::kEnabled) {
          m.queue_wait->record(ticks_to_ns(t0 - slot.posted_at));
          m.service->record(ticks_to_ns(sys.engine().now() - t0));
          m.served_total->inc();
          if (op < nmp::kOpCodeCount) m.served_op[op]->inc();
        }
      }
    }
    if (served_this_pass > 0) {
      if constexpr (telemetry::kEnabled) m.batch->record(served_this_pass);
    } else {
      if (sys.stop_requested()) co_return;
      co_await ctx.delay(sys.config().nmp_idle_gap);
    }
  }
}

}  // namespace hybrids::sim
