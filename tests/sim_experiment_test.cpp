// End-to-end simulator tests: run scaled-down versions of the paper's
// experiments and check mechanics plus the qualitative relationships the
// paper reports (§5).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "hybrids/sim/exp/experiment.hpp"
#include "hybrids/workload/ycsb.hpp"

namespace hs = hybrids::sim;
namespace hw = hybrids::workload;

namespace {

hs::ExperimentConfig small_config(std::uint64_t keys, std::uint32_t threads) {
  hs::ExperimentConfig cfg;
  cfg.workload = hw::ycsb_c(keys);
  cfg.threads = threads;
  cfg.ops_per_thread = 600;
  cfg.warmup_per_thread = 300;
  // Scale the LLC down with the structure so the host portion sizing rule
  // stays meaningful at test scale.
  cfg.machine.l2_bytes = 64 * 1024;
  cfg.machine.l1_bytes = 8 * 1024;
  return cfg;
}

}  // namespace

TEST(SimSkiplistExperiment, AllKindsProduceThroughput) {
  auto cfg = small_config(1 << 14, 4);
  for (auto kind : {hs::SkiplistKind::kLockFree, hs::SkiplistKind::kNmp,
                    hs::SkiplistKind::kHybridBlocking,
                    hs::SkiplistKind::kHybridNonBlocking}) {
    hs::ExperimentResult r = hs::run_skiplist_experiment(kind, cfg);
    EXPECT_GT(r.mops, 0.0) << hs::to_string(kind);
    EXPECT_GT(r.duration, 0u) << hs::to_string(kind);
    EXPECT_EQ(r.ops, 4u * 600u) << hs::to_string(kind);
  }
}

TEST(SimSkiplistExperiment, HybridReducesDramReadsVsBaselines) {
  // Figure 5b's robust shape: the hybrid makes far fewer DRAM reads than the
  // prior-work NMP-based design (paper: 40%), and stays in the same band as
  // the lock-free baseline. (The paper additionally reports hybrid < lock-
  // free; in our index-only cache model the lock-free baseline retains its
  // hot paths better than a gem5 full-system run, so that margin shrinks to
  // parity — see EXPERIMENTS.md "known divergences" and the
  // ablate_interference bench.)
  auto cfg = small_config(1 << 16, 4);
  cfg.workload = hw::sensitivity(1 << 16, 100, 0, 0);
  cfg.machine.l2_bytes = 16 * 1024;  // ~200x smaller than the structure
  cfg.machine.l1_bytes = 4 * 1024;
  auto lf = hs::run_skiplist_experiment(hs::SkiplistKind::kLockFree, cfg);
  auto nmp = hs::run_skiplist_experiment(hs::SkiplistKind::kNmp, cfg);
  auto hy = hs::run_skiplist_experiment(hs::SkiplistKind::kHybridBlocking, cfg);
  // At this test scale the structural ratio is ~nmp_levels/total_levels
  // (~0.75); at the benches' default scale it reaches the paper's ~0.4.
  EXPECT_LT(hy.dram_reads_per_op, 0.9 * nmp.dram_reads_per_op);
  EXPECT_LT(lf.dram_reads_per_op, nmp.dram_reads_per_op);
  EXPECT_LT(hy.dram_reads_per_op, 1.25 * lf.dram_reads_per_op);
  // The hybrid's host portion is nearly cache-resident; nearly all of its
  // index reads come from the NMP side.
  EXPECT_LT(hy.host_dram_reads_per_op, 0.25 * hy.dram_reads_per_op);
}

TEST(SimSkiplistExperiment, NonBlockingBeatsBlocking) {
  auto cfg = small_config(1 << 14, 4);
  auto blocking =
      hs::run_skiplist_experiment(hs::SkiplistKind::kHybridBlocking, cfg);
  auto nonblocking =
      hs::run_skiplist_experiment(hs::SkiplistKind::kHybridNonBlocking, cfg);
  EXPECT_GT(nonblocking.mops, blocking.mops);
  // §5.1: memory reads stay roughly the same; only idle time is hidden.
  EXPECT_NEAR(nonblocking.dram_reads_per_op, blocking.dram_reads_per_op,
              0.35 * blocking.dram_reads_per_op + 1.0);
}

TEST(SimSkiplistExperiment, MixedWorkloadRuns) {
  auto cfg = small_config(1 << 14, 4);
  cfg.workload = hw::sensitivity(1 << 14, 50, 25, 25);
  for (auto kind : {hs::SkiplistKind::kLockFree, hs::SkiplistKind::kHybridBlocking,
                    hs::SkiplistKind::kHybridNonBlocking}) {
    hs::ExperimentResult r = hs::run_skiplist_experiment(kind, cfg);
    EXPECT_GT(r.mops, 0.0) << hs::to_string(kind);
  }
}

TEST(SimBTreeExperiment, AllKindsProduceThroughput) {
  auto cfg = small_config(1 << 15, 4);
  for (auto kind : {hs::BTreeKind::kHostOnly, hs::BTreeKind::kHybridBlocking,
                    hs::BTreeKind::kHybridNonBlocking}) {
    hs::ExperimentResult r = hs::run_btree_experiment(kind, cfg);
    EXPECT_GT(r.mops, 0.0) << hs::to_string(kind);
    EXPECT_EQ(r.ops, 4u * 600u) << hs::to_string(kind);
  }
}

TEST(SimBTreeExperiment, HybridReducesDramReads) {
  // Figure 6b: host-only ~3x the DRAM reads of the hybrid. Uniform keys for
  // the same reason as the skiplist test above.
  auto cfg = small_config(1 << 16, 4);
  cfg.workload = hw::sensitivity(1 << 16, 100, 0, 0);
  auto host = hs::run_btree_experiment(hs::BTreeKind::kHostOnly, cfg);
  auto hy = hs::run_btree_experiment(hs::BTreeKind::kHybridBlocking, cfg);
  EXPECT_LT(hy.dram_reads_per_op, host.dram_reads_per_op);
  EXPECT_LT(hy.host_dram_reads_per_op, 1.5);
}

TEST(SimBTreeExperiment, SplitHeavyWorkloadRuns) {
  auto cfg = small_config(1 << 14, 4);
  cfg.workload = hw::sensitivity(1 << 14, 50, 25, 25, /*split_heavy=*/true);
  for (auto kind : {hs::BTreeKind::kHostOnly, hs::BTreeKind::kHybridBlocking,
                    hs::BTreeKind::kHybridNonBlocking}) {
    hs::ExperimentResult r = hs::run_btree_experiment(kind, cfg);
    EXPECT_GT(r.mops, 0.0) << hs::to_string(kind);
  }
}

TEST(SimBTreeExperiment, NonBlockingBeatsBlocking) {
  auto cfg = small_config(1 << 15, 4);
  auto blocking = hs::run_btree_experiment(hs::BTreeKind::kHybridBlocking, cfg);
  auto nonblocking =
      hs::run_btree_experiment(hs::BTreeKind::kHybridNonBlocking, cfg);
  EXPECT_GT(nonblocking.mops, blocking.mops);
}

TEST(SimExperiment, DeterministicAcrossRuns) {
  auto cfg = small_config(1 << 14, 2);
  auto a = hs::run_skiplist_experiment(hs::SkiplistKind::kHybridBlocking, cfg);
  auto b = hs::run_skiplist_experiment(hs::SkiplistKind::kHybridBlocking, cfg);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.mem.dram_reads_total(), b.mem.dram_reads_total());
}

TEST(SimExperiment, GoldenSmallScale) {
  // Exact simulated duration (ticks) and DRAM reads for every design at the
  // DeterministicAcrossRuns size. The simulator is deterministic, so any
  // change to its behaviour shows up here as a changed constant; update the
  // table only together with an explanation of why the simulation moved.
  struct Golden {
    std::uint64_t duration;
    std::uint64_t dram_reads;
  };
  auto cfg = small_config(1 << 14, 2);
  const std::pair<hs::SkiplistKind, Golden> skiplists[] = {
      {hs::SkiplistKind::kLockFree, {604368100, 15277}},
      {hs::SkiplistKind::kNmp, {617358750, 26515}},
      {hs::SkiplistKind::kHybridBlocking, {537407950, 18477}},
      {hs::SkiplistKind::kHybridNonBlocking, {347155750, 18445}},
  };
  for (const auto& [kind, golden] : skiplists) {
    hs::ExperimentResult r = hs::run_skiplist_experiment(kind, cfg);
    EXPECT_EQ(r.duration, golden.duration) << hs::to_string(kind);
    EXPECT_EQ(r.mem.dram_reads_total(), golden.dram_reads) << hs::to_string(kind);
  }
  const std::pair<hs::BTreeKind, Golden> btrees[] = {
      {hs::BTreeKind::kHostOnly, {271749450, 7063}},
      {hs::BTreeKind::kHybridBlocking, {273299700, 7097}},
      {hs::BTreeKind::kHybridNonBlocking, {256856600, 7147}},
  };
  for (const auto& [kind, golden] : btrees) {
    hs::ExperimentResult r = hs::run_btree_experiment(kind, cfg);
    EXPECT_EQ(r.duration, golden.duration) << hs::to_string(kind);
    EXPECT_EQ(r.mem.dram_reads_total(), golden.dram_reads) << hs::to_string(kind);
  }
}

TEST(OffloadDelays, ComponentsSumAndCompareToLlcMiss) {
  hs::MachineConfig machine;
  hs::OffloadDelays d = hs::measure_offload_delays(machine);
  EXPECT_GT(d.post, 0u);
  EXPECT_GT(d.nmp_process, 0u);
  EXPECT_GT(d.response, 0u);
  EXPECT_EQ(d.total, d.post + d.nmp_notice + d.nmp_process + d.host_notice + d.response);
  // Table 2's observation: the communication round trip is comparable to
  // 1-2 LLC miss delays.
  EXPECT_GT(d.total, d.llc_miss / 2);
  EXPECT_LT(d.total, 4 * d.llc_miss);
}
