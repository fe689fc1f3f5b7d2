// Experiment harness: runs YCSB / sensitivity workloads over the simulated
// machine for each data-structure design and reports the paper's metrics
// (operation throughput, DRAM reads per operation).
#pragma once

#include <cstdint>

#include "hybrids/sim/machine/config.hpp"
#include "hybrids/sim/mem/memory_system.hpp"
#include "hybrids/workload/workload.hpp"

namespace hybrids::sim {

enum class SkiplistKind {
  kLockFree,          // host-only lock-free baseline
  kNmp,               // prior-work NMP flat-combining baseline
  kHybridBlocking,    // §3.3 with blocking NMP calls
  kHybridNonBlocking, // §3.5 non-blocking NMP calls
};

enum class BTreeKind {
  kHostOnly,          // host-only seqlock baseline
  kHybridBlocking,    // §3.4 with blocking NMP calls
  kHybridNonBlocking, // §3.5 non-blocking NMP calls
};

const char* to_string(SkiplistKind kind);
const char* to_string(BTreeKind kind);

struct ExperimentConfig {
  MachineConfig machine{};
  workload::WorkloadSpec workload{};
  std::uint32_t threads = 8;
  std::uint64_t ops_per_thread = 4000;
  std::uint64_t warmup_per_thread = 2000;
  std::uint32_t inflight = 4;  // non-blocking window (paper: 4)
  int total_height = 0;        // skiplist levels; 0 = log2(initial keys)
  int nmp_height = 0;          // skiplist NMP levels; 0 = size to LLC (§3.3)
  int nmp_levels = 0;          // B+ tree NMP levels; 0 = size to LLC (§3.4)
  double fill = 0.5;           // B+ tree initial occupancy (sorted load)

  // Full-system interference: blocks of application data (the record the
  // operation reads/writes, stack, key-generation state) touched per
  // operation on the host, drawn uniformly from a working set of
  // `app_ws_bytes`. gem5 full-system runs charge all of this traffic — it
  // both adds DRAM reads and erodes the host caches, which is a large part
  // of why the paper's non-NMP baselines miss so often. 0 disables.
  std::uint32_t app_blocks_per_op = 4;
  std::uint64_t app_ws_bytes = 32ull << 20;
};

struct ExperimentResult {
  double mops = 0.0;  // simulated throughput, million ops/s
  double dram_reads_per_op = 0.0;
  double host_dram_reads_per_op = 0.0;
  double nmp_dram_reads_per_op = 0.0;
  double app_dram_reads_per_op = 0.0;  // background traffic (reported apart)
  std::uint64_t ops = 0;
  Tick duration = 0;
  MemStats mem{};
};

ExperimentResult run_skiplist_experiment(SkiplistKind kind,
                                         const ExperimentConfig& config);
ExperimentResult run_btree_experiment(BTreeKind kind,
                                      const ExperimentConfig& config);

/// Table 2: delay components of a single operation offload, measured with
/// an otherwise idle machine (one host thread, one NMP core).
struct OffloadDelays {
  Tick post = 0;         // host writes the request into the publication list
  Tick nmp_notice = 0;   // post complete -> combiner picks the request up
  Tick nmp_process = 0;  // combiner executes the (no-op) request
  Tick host_notice = 0;  // response ready -> host observes the flag
  Tick response = 0;     // host reads the response payload
  Tick total = 0;
  Tick llc_miss = 0;     // one host LLC miss, for the paper's comparison
};

OffloadDelays measure_offload_delays(const MachineConfig& machine);

}  // namespace hybrids::sim
