// Google-benchmark microbenchmarks of the *real* (threaded) concurrent
// library. These measure wall-clock costs of the software structures on the
// build machine — useful for regression tracking of the implementations
// themselves. (Architecture claims are evaluated on the simulator benches;
// on a single-CPU CI box, thread scaling here is not meaningful.)
//
// In addition to google-benchmark's own flags, accepts
//   --pool=arena|malloc   back structure nodes with the memory layer's
//                         arenas/pools (default) or plain aligned
//                         operator new/delete (see bench_common.hpp)
// which is stripped before benchmark::Initialize sees the argument list.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <random>
#include <vector>

#include "hybrids/ds/fat_skiplist.hpp"
#include "hybrids/ds/hybrid_btree.hpp"
#include "hybrids/ds/hybrid_skiplist.hpp"
#include "hybrids/ds/seqlock_btree.hpp"
#include "hybrids/mem/memlayer.hpp"
#include "hybrids/util/rng.hpp"
#include "hybrids/workload/workload.hpp"

namespace hd = hybrids::ds;
namespace hu = hybrids::util;
using hybrids::Key;
using hybrids::Value;

namespace {

constexpr std::uint64_t kKeys = 1 << 16;

/// The hybrid skiplist's host index on its own, preloaded in shuffled order
/// so leaves settle at realistic mid-occupancy.
std::unique_ptr<hd::FatSkipList> preloaded_fat_index() {
  auto list = std::make_unique<hd::FatSkipList>(17);
  std::vector<Key> keys(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) keys[i] = static_cast<Key>(i * 2);
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(1));
  for (Key k : keys) list->insert(k, 1);
  return list;
}

void BM_FatSkipList_Get(benchmark::State& state) {
  auto list = preloaded_fat_index();
  hu::Xoshiro256 rng(1);
  Value v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        list->get(static_cast<Key>(rng.next_below(kKeys)) * 2, v));
  }
}
BENCHMARK(BM_FatSkipList_Get);

void BM_FatSkipList_InsertRemove(benchmark::State& state) {
  auto list = preloaded_fat_index();
  hu::Xoshiro256 rng(2);
  for (auto _ : state) {
    Key k = static_cast<Key>(rng.next_below(kKeys)) * 2 + 1;
    benchmark::DoNotOptimize(list->insert(k, 1));
    benchmark::DoNotOptimize(list->remove(k));
  }
}
BENCHMARK(BM_FatSkipList_InsertRemove);

void BM_HybridSkipList_Read(benchmark::State& state) {
  hd::HybridSkipList::Config cfg;
  cfg.total_height = 17;
  cfg.nmp_height = 8;
  cfg.partitions = 4;
  cfg.partition_width = static_cast<Key>((2 * kKeys) / 4);
  cfg.max_threads = 2;
  auto list = std::make_unique<hd::HybridSkipList>(cfg);
  hu::Xoshiro256 rng(3);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    list->insert(static_cast<Key>(i * 2), 1, 0);
  }
  Value v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        list->read(static_cast<Key>(rng.next_below(kKeys)) * 2, v, 0));
  }
}
BENCHMARK(BM_HybridSkipList_Read);

void BM_SeqLockBTree_Read(benchmark::State& state) {
  hd::SeqLockBTree tree;
  std::vector<Key> keys;
  std::vector<Value> vals;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    keys.push_back(static_cast<Key>(i * 2));
    vals.push_back(1);
  }
  tree.build_from_sorted(keys, vals);
  hu::Xoshiro256 rng(4);
  Value v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.read(static_cast<Key>(rng.next_below(kKeys)) * 2, v));
  }
}
BENCHMARK(BM_SeqLockBTree_Read);

void BM_SeqLockBTree_InsertRemove(benchmark::State& state) {
  hd::SeqLockBTree tree;
  for (std::uint64_t i = 0; i < kKeys; ++i) tree.insert(static_cast<Key>(i * 2), 1);
  hu::Xoshiro256 rng(5);
  for (auto _ : state) {
    Key k = static_cast<Key>(rng.next_below(kKeys)) * 2 + 1;
    benchmark::DoNotOptimize(tree.insert(k, 1));
    benchmark::DoNotOptimize(tree.remove(k));
  }
}
BENCHMARK(BM_SeqLockBTree_InsertRemove);

void BM_HybridBTree_Read(benchmark::State& state) {
  std::vector<Key> keys;
  std::vector<Value> vals;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    keys.push_back(static_cast<Key>(i * 2));
    vals.push_back(1);
  }
  hd::HybridBTree::Config cfg;
  cfg.nmp_levels = 3;
  cfg.partitions = 4;
  cfg.max_threads = 2;
  auto tree = std::make_unique<hd::HybridBTree>(cfg, keys, vals);
  hu::Xoshiro256 rng(6);
  Value v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree->read(static_cast<Key>(rng.next_below(kKeys)) * 2, v, 0));
  }
}
BENCHMARK(BM_HybridBTree_Read);

/// Consumes a leading --pool=arena|malloc argument (anywhere in argv) and
/// applies it to the runtime arena toggle; every structure constructed by the
/// benches above then captures the chosen mode. Exits with status 2 on a
/// malformed value, matching bench_common's hard-error policy.
int handle_pool_flag(int argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--pool=", 7) == 0) {
      const char* v = argv[i] + 7;
      if (std::strcmp(v, "arena") == 0) {
        hybrids::mem::set_arena_enabled(true);
      } else if (std::strcmp(v, "malloc") == 0) {
        hybrids::mem::set_arena_enabled(false);
      } else {
        std::cerr << "error: --pool must be 'arena' or 'malloc', got '" << v
                  << "'\n";
        std::exit(2);
      }
      continue;  // strip: google-benchmark must not see it
    }
    argv[out++] = argv[i];
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  argc = handle_pool_flag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
