// Ablation — cache-conscious memory layer (arenas/pools × software prefetch).
//
// Sweeps the two runtime toggles in src/hybrids/mem/memlayer.hpp:
//
//   arena    off/on — partition arenas + host node pools vs plain aligned
//            operator new/delete. Consulted once per structure construction,
//            so every arm builds its structures fresh.
//   prefetch off/on — the __builtin_prefetch hints on skiplist descents, B+
//            inner searches, scan continuations, and the combiner's slot
//            scan. Consulted per site, but toggled per arm anyway.
//
// Two modes, both printed on every run:
//
//  A. Structure-level sweep (deterministic, single-threaded): the traversal
//     paths the memory layer actually touches, measured in isolation —
//     SeqSkipList (partition arena + descent/scan prefetch) under zipfian
//     point reads and range scans, and SeqLockBTree (host node pool +
//     whole-node prefetch) under zipfian reads. Every arm replays identical
//     pre-generated key streams against identically-loaded structures;
//     timing is min-of-reps ns/op and checksums cross-check the arms. This
//     is the controlled measurement: no publication protocol, no scheduler.
//
//  B. End-to-end check (YCSB-C: 100% zipfian reads; YCSB-E: 95% stitched
//     scans / 5% inserts): the full hybrid stack — host threads, publication
//     slots, combiners — with best-of-reps wall-clock Mops/s. This includes
//     every runtime overhead; on machines with fewer cores than
//     host+combiner threads it is dominated by time-slicing, so mode A is
//     the number to read for the memory layer itself.
//
// The off/off arm is the baseline; tables print every arm's speedup against
// it, and the summary lines at the bottom name the arena+prefetch speedup —
// the numbers EXPERIMENTS.md records.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "hybrids/ds/hybrid_btree.hpp"
#include "hybrids/ds/hybrid_skiplist.hpp"
#include "hybrids/ds/seq_skiplist.hpp"
#include "hybrids/ds/seqlock_btree.hpp"
#include "hybrids/mem/memlayer.hpp"
#include "hybrids/util/rng.hpp"
#include "hybrids/util/table.hpp"
#include "hybrids/workload/ycsb.hpp"
#include "hybrids/workload/zipf.hpp"

namespace hd = hybrids::ds;
namespace hw = hybrids::workload;
namespace hb = hybrids::bench;
namespace hm = hybrids::mem;

namespace {

constexpr std::size_t kLlcBytes = 1 << 20;  // §3.3 / §3.4 sizing target

using hybrids::bench::now_ns;

struct Arm {
  bool arena;
  bool prefetch;
};

constexpr Arm kArms[] = {
    {false, false}, {true, false}, {false, true}, {true, true}};

const char* onoff(bool b) { return b ? "on" : "off"; }

// The timed op-mix harness and RunResult now live in bench_common.hpp
// (hb::run_op_mix), shared with the other structure ablations.
using hybrids::bench::RunResult;

struct ArmResult {
  RunResult ycsb_c;
  RunResult ycsb_e;
};

template <typename DS>
ArmResult measure(DS& ds, const hw::WorkloadSpec& spec_c,
                  const hw::WorkloadSpec& spec_e, std::uint32_t threads,
                  std::uint64_t warmup, std::uint64_t ops, int reps) {
  ArmResult best;
  for (int r = 0; r < reps; ++r) {
    const RunResult c = hb::run_op_mix(ds, spec_c, threads, warmup, ops);
    if (c.mops > best.ycsb_c.mops) best.ycsb_c = c;
    // YCSB-C is read-only, so every rep replays the identical stream against
    // identical contents: checksums must agree exactly across reps and arms.
    if (r > 0 && c.checksum != best.ycsb_c.checksum) {
      std::cerr << "BUG: YCSB-C checksum varies across reps\n";
      std::exit(1);
    }
  }
  for (int r = 0; r < reps; ++r) {
    // YCSB-E inserts mutate the structure, so only throughput is kept; every
    // arm runs the same number of E reps, keeping the arms comparable.
    const RunResult e = hb::run_op_mix(ds, spec_e, threads, warmup, ops);
    if (e.mops > best.ycsb_e.mops) best.ycsb_e = e;
  }
  return best;
}

ArmResult run_skiplist_arm(const Arm& arm, const hw::WorkloadSpec& spec_c,
                           const hw::WorkloadSpec& spec_e,
                           std::uint32_t threads, std::uint64_t warmup,
                           std::uint64_t ops, int reps) {
  hm::set_arena_enabled(arm.arena);  // captured by the ctors below
  hm::set_prefetch_enabled(arm.prefetch);
  hw::KeyLayout layout(spec_c.initial_keys, spec_c.partitions);
  hd::HybridSkipList::Config cfg;
  int total = 1;
  while ((1ull << total) < spec_c.initial_keys) ++total;
  cfg.nmp_height = hd::HybridSkipList::nmp_height_for_cache(
      spec_c.initial_keys, kLlcBytes);
  cfg.total_height = total > cfg.nmp_height ? total : cfg.nmp_height + 1;
  cfg.partitions = spec_c.partitions;
  cfg.partition_width = layout.partition_width();
  cfg.max_threads = threads;
  hd::HybridSkipList list(cfg);
  for (hybrids::Key k : layout.initial_key_set()) (void)list.insert(k, k, 0);
  const ArmResult r = measure(list, spec_c, spec_e, threads, warmup, ops, reps);
  hm::set_arena_enabled(true);
  hm::set_prefetch_enabled(true);
  return r;
}

ArmResult run_btree_arm(const Arm& arm, const hw::WorkloadSpec& spec_c,
                        const hw::WorkloadSpec& spec_e, std::uint32_t threads,
                        std::uint64_t warmup, std::uint64_t ops, int reps) {
  hm::set_arena_enabled(arm.arena);
  hm::set_prefetch_enabled(arm.prefetch);
  hw::KeyLayout layout(spec_c.initial_keys, spec_c.partitions);
  hd::HybridBTree::Config cfg;
  cfg.nmp_levels = hd::HybridBTree::nmp_levels_for_cache(spec_c.initial_keys,
                                                         kLlcBytes);
  cfg.partitions = spec_c.partitions;
  cfg.max_threads = threads;
  const std::vector<hybrids::Key> keys = layout.initial_key_set();
  const std::vector<hybrids::Value> vals(keys.begin(), keys.end());
  hd::HybridBTree tree(cfg, keys, vals);
  const ArmResult r = measure(tree, spec_c, spec_e, threads, warmup, ops, reps);
  hm::set_arena_enabled(true);
  hm::set_prefetch_enabled(true);
  return r;
}

// ---------------------------------------------------------------------------
// Mode A: structure-level sweep

struct SweepResult {
  double ns_per_op = 0;
  std::uint64_t checksum = 0;
};

/// min-of-reps timing of `body(i)` over `count` iterations; the fold of the
/// last rep is the checksum (reps are read-only, so every rep folds alike).
template <typename Body>
SweepResult time_sweep(std::uint64_t count, int reps, Body body) {
  SweepResult r;
  std::uint64_t best = ~0ull;
  for (int rep = 0; rep < reps; ++rep) {
    std::uint64_t sum = 0;
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < count; ++i) sum += body(i);
    best = std::min(best, now_ns() - t0);
    r.checksum = sum;
  }
  r.ns_per_op = static_cast<double>(best) / static_cast<double>(count);
  return r;
}

struct ModeAArm {
  SweepResult sl_read;
  SweepResult sl_scan;
  SweepResult bt_read;
};

struct ModeATargets {
  std::unique_ptr<hd::SeqSkipList> list;
  std::unique_ptr<hd::SeqLockBTree> tree;
};

/// Builds the two structure-level targets under the given arena mode. The
/// node sequence (keys, heights) is deterministic and identical across
/// modes, so only placement differs between builds.
ModeATargets build_mode_a(bool arena, std::uint64_t preload) {
  hm::set_arena_enabled(arena);
  int height = 1;
  while ((1ull << height) < preload) ++height;
  ModeATargets t;
  // SeqSkipList: loaded with every other key (odd).
  t.list = std::make_unique<hd::SeqSkipList>(height);
  {
    hybrids::util::Xoshiro256 rng(7);
    for (std::uint64_t k = 0; k < preload; ++k) {
      const auto key = static_cast<hybrids::Key>(2 * k + 1);
      (void)t.list->insert(key, key, hd::random_height(rng, height), nullptr,
                           t.list->head());
    }
  }
  // SeqLockBTree: bulk-built from the same sorted key set.
  t.tree = std::make_unique<hd::SeqLockBTree>();
  {
    const std::vector<hybrids::Key> keys = hb::odd_preload_keys(preload);
    const std::vector<hybrids::Value> vals(keys.begin(), keys.end());
    t.tree->build_from_sorted(keys, vals);
  }
  hm::set_arena_enabled(true);
  return t;
}

/// Runs all four mode-A arms with their reps interleaved (rep-major, arm
/// minor), so machine-load drift hits every arm equally; per arm the min is
/// kept. `probes` / `scan_starts` are shared so every arm replays
/// byte-identical streams. out[arena][prefetch].
void run_mode_a(const ModeATargets targets[2],
                const std::vector<hybrids::Key>& probes,
                const std::vector<hybrids::Key>& scan_starts,
                std::uint32_t scan_len, int reps, ModeAArm out[2][2]) {
  std::vector<hybrids::ScanEntry> buf(scan_len);
  for (int rep = 0; rep < reps; ++rep) {
    for (int ar = 0; ar < 2; ++ar) {
      hd::SeqSkipList& list = *targets[ar].list;
      hd::SeqLockBTree& tree = *targets[ar].tree;
      for (int pf = 0; pf < 2; ++pf) {
        hm::set_prefetch_enabled(pf == 1);
        ModeAArm& o = out[ar][pf];
        const SweepResult r1 =
            time_sweep(probes.size(), 1, [&](std::uint64_t i) {
              const hd::SeqSkipList::Node* n =
                  list.read(probes[i], list.head());
              return n != nullptr ? static_cast<std::uint64_t>(n->value)
                                  : 0ull;
            });
        const SweepResult r2 =
            time_sweep(scan_starts.size(), 1, [&](std::uint64_t i) {
              hybrids::Key next = 0;
              bool more = false;
              const std::uint32_t n =
                  list.scan(scan_starts[i], scan_len, list.head(), buf.data(),
                            &next, &more);
              std::uint64_t sum = n;
              for (std::uint32_t j = 0; j < n; ++j) sum += buf[j].key;
              return sum;
            });
        const SweepResult r3 =
            time_sweep(probes.size(), 1, [&](std::uint64_t i) {
              hybrids::Value v = 0;
              return tree.read(probes[i], v) ? static_cast<std::uint64_t>(v)
                                             : 0ull;
            });
        auto keep = [rep](SweepResult& best, const SweepResult& r) {
          if (rep == 0 || r.ns_per_op < best.ns_per_op) {
            best.ns_per_op = r.ns_per_op;
          }
          best.checksum = r.checksum;
        };
        keep(o.sl_read, r1);
        keep(o.sl_scan, r2);
        keep(o.bt_read, r3);
      }
    }
  }
  hm::set_prefetch_enabled(true);
}

}  // namespace

int main(int argc, char** argv) {
  hb::Options opt = hb::parse_options(argc, argv);
  hb::StatsSession stats(opt);

  const std::uint64_t keys =
      opt.keys ? opt.keys : (opt.full ? 1ull << 20 : 1ull << 18);
  const std::uint32_t threads = opt.threads.empty() ? 8 : opt.threads.front();
  const int reps = 3;

  const hw::WorkloadSpec spec_c = hw::ycsb_c(keys);
  const hw::WorkloadSpec spec_e = hw::ycsb_e(keys, /*partitions=*/8,
                                             /*seed=*/42, opt.scan_max);

  // ----- Mode A: structure-level sweep ------------------------------------
  const std::uint64_t preload = keys / 2;  // every other key loaded
  const std::uint64_t sweep_ops =
      std::max<std::uint64_t>(opt.ops * 8, 1ull << 17);
  const std::uint64_t sweep_scans = std::max<std::uint64_t>(sweep_ops / 64, 64);
  const int sweep_reps = 5;
  const std::vector<hybrids::Key> probes =
      hb::zipfian_probe_keys(sweep_ops, 2 * preload, /*seed=*/0x5EED);
  const std::vector<hybrids::Key> scan_starts =
      hb::zipfian_probe_keys(sweep_scans, 2 * preload, /*seed=*/0x5CA4);

  std::cout << "Ablation: memory layer (arena x prefetch)\n\nMode A: "
               "structure-level sweep (" << preload << " loaded keys, "
            << sweep_ops << " zipfian reads / " << sweep_scans
            << " scans of " << opt.scan_max << ", min of " << sweep_reps
            << " reps, single-threaded)\n\n";

  ModeATargets targets[2] = {build_mode_a(false, preload),
                             build_mode_a(true, preload)};
  ModeAArm a[2][2];  // [arena][prefetch]
  run_mode_a(targets, probes, scan_starts, opt.scan_max, sweep_reps, a);
  for (int ar = 0; ar < 2; ++ar) {
    for (int pf = 0; pf < 2; ++pf) {
      if (a[ar][pf].sl_read.checksum != a[0][0].sl_read.checksum ||
          a[ar][pf].sl_scan.checksum != a[0][0].sl_scan.checksum ||
          a[ar][pf].bt_read.checksum != a[0][0].bt_read.checksum) {
        std::cerr << "BUG: mode A checksum differs between arms (arena="
                  << onoff(ar) << ", prefetch=" << onoff(pf) << ")\n";
        return 1;
      }
    }
  }
  hybrids::util::Table ta({"target", "arena", "prefetch", "ns/op", "speedup"});
  struct Row {
    const char* name;
    SweepResult ModeAArm::* field;
  };
  const Row rows[] = {{"seq-skiplist read", &ModeAArm::sl_read},
                      {"seq-skiplist scan", &ModeAArm::sl_scan},
                      {"seqlock-btree read", &ModeAArm::bt_read}};
  for (const Row& row : rows) {
    const double base = (a[0][0].*row.field).ns_per_op;
    for (int ar = 0; ar < 2; ++ar) {
      for (int pf = 0; pf < 2; ++pf) {
        const double ns = (a[ar][pf].*row.field).ns_per_op;
        ta.new_row()
            .add_cell(row.name)
            .add_cell(onoff(ar))
            .add_cell(onoff(pf))
            .add_num(ns, 1)
            .add_num(base / ns, 3);
      }
    }
  }
  if (opt.csv) ta.print_csv(std::cout); else ta.print(std::cout);
  std::cout << "\n";
  for (const Row& row : rows) {
    std::cout << row.name << " arena+prefetch speedup: "
              << (a[0][0].*row.field).ns_per_op /
                     (a[1][1].*row.field).ns_per_op
              << "x\n";
  }

  // ----- Mode B: end-to-end hybrids ---------------------------------------
  std::cout << "\nMode B: end-to-end hybrids, " << keys << " keys, "
            << threads << " threads, YCSB-C (zipfian reads) and YCSB-E "
               "(scans), best of " << reps << "\n\n";

  hybrids::util::Table table({"structure", "arena", "prefetch", "ycsb-c Mops/s",
                              "c speedup", "ycsb-e Mops/s", "e speedup"});
  double speedup_c[2] = {0, 0};  // arena+prefetch vs baseline, per structure
  double speedup_e[2] = {0, 0};
  const char* names[2] = {"hybrid-skiplist", "hybrid-btree"};
  for (int s = 0; s < 2; ++s) {
    ArmResult base;
    std::uint64_t base_checksum_c = 0;
    for (const Arm& arm : kArms) {
      const ArmResult r =
          s == 0 ? run_skiplist_arm(arm, spec_c, spec_e, threads, opt.warmup,
                                    opt.ops, reps)
                 : run_btree_arm(arm, spec_c, spec_e, threads, opt.warmup,
                                 opt.ops, reps);
      if (!arm.arena && !arm.prefetch) {
        base = r;
        base_checksum_c = r.ycsb_c.checksum;
      } else if (r.ycsb_c.checksum != base_checksum_c) {
        // Identical streams over identical preloads: the toggles must never
        // change what the reads return.
        std::cerr << "BUG: YCSB-C checksum differs between arms ("
                  << names[s] << ", arena=" << onoff(arm.arena)
                  << ", prefetch=" << onoff(arm.prefetch) << ")\n";
        return 1;
      }
      const double sc = r.ycsb_c.mops / base.ycsb_c.mops;
      const double se = r.ycsb_e.mops / base.ycsb_e.mops;
      if (arm.arena && arm.prefetch) {
        speedup_c[s] = sc;
        speedup_e[s] = se;
      }
      table.new_row()
          .add_cell(names[s])
          .add_cell(onoff(arm.arena))
          .add_cell(onoff(arm.prefetch))
          .add_num(r.ycsb_c.mops, 3)
          .add_num(sc, 3)
          .add_num(r.ycsb_e.mops, 3)
          .add_num(se, 3);
    }
  }
  if (opt.csv) table.print_csv(std::cout); else table.print(std::cout);

  std::cout << "\n";
  for (int s = 0; s < 2; ++s) {
    std::cout << names[s] << " arena+prefetch speedup: ycsb-c "
              << speedup_c[s] << "x, ycsb-e " << speedup_e[s] << "x\n";
  }
  return 0;
}
