// Parameterized property tests: reference-model equivalence and structural
// invariants swept across configuration space (heights, partition counts,
// fill factors, cache geometries).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <tuple>

#include "hybrids/ds/fat_skiplist.hpp"
#include "hybrids/ds/hybrid_btree.hpp"
#include "hybrids/ds/hybrid_skiplist.hpp"
#include "hybrids/ds/seqlock_btree.hpp"
#include "hybrids/sim/mem/cache.hpp"
#include "hybrids/util/rng.hpp"
#include "hybrids/workload/zipf.hpp"

namespace hd = hybrids::ds;
namespace hu = hybrids::util;
namespace hs = hybrids::sim;
namespace hw = hybrids::workload;
using hybrids::Key;
using hybrids::Value;

// ---------------------------------------------------------------------------
// Hybrid skiplist: model equivalence across split geometries
// ---------------------------------------------------------------------------

// (total_height, nmp_height, partitions)
using SkiplistGeometry = std::tuple<int, int, std::uint32_t>;

class HybridSkipListGeometry : public ::testing::TestWithParam<SkiplistGeometry> {};

TEST_P(HybridSkipListGeometry, MatchesReferenceModel) {
  auto [total, nmp, partitions] = GetParam();
  hd::HybridSkipList::Config cfg;
  cfg.total_height = total;
  cfg.nmp_height = nmp;
  cfg.partitions = partitions;
  cfg.partition_width = static_cast<Key>((1u << 16) / partitions);
  cfg.max_threads = 1;
  // Hot-key cache at a deliberately tiny budget: every sweep churns fills,
  // evictions, and write invalidations while the model check stays exact.
  cfg.cache_budget_bytes = 2 * 1024;
  hd::HybridSkipList list(cfg);

  std::map<Key, Value> model;
  std::vector<hybrids::ScanEntry> buf;
  hu::Xoshiro256 rng(total * 1000 + nmp * 10 + partitions);
  for (int i = 0; i < 6000; ++i) {
    Key k = static_cast<Key>(rng.next_below(1u << 14));
    switch (rng.next_below(5)) {
      case 0: {
        Value v = static_cast<Value>(rng.next());
        ASSERT_EQ(list.insert(k, v, 0), model.emplace(k, v).second);
        break;
      }
      case 1:
        ASSERT_EQ(list.remove(k, 0), model.erase(k) > 0);
        break;
      case 2: {
        Value v = static_cast<Value>(rng.next());
        bool present = model.count(k) > 0;
        ASSERT_EQ(list.update(k, v, 0), present);
        if (present) model[k] = v;
        break;
      }
      case 3: {
        // Stitched range scan vs the model's lower_bound slice, exact match.
        const std::size_t len = rng.next_below(40);
        buf.assign(len > 0 ? len : 1, {});
        const std::size_t n = list.scan(k, len, buf.data(), 0);
        auto it = model.lower_bound(k);
        for (std::size_t j = 0; j < n; ++j, ++it) {
          ASSERT_NE(it, model.end()) << "scan overran model at " << k;
          ASSERT_EQ(buf[j].key, it->first) << "start=" << k << " j=" << j;
          ASSERT_EQ(buf[j].value, it->second) << "start=" << k << " j=" << j;
        }
        ASSERT_TRUE(n == len || it == model.end())
            << "scan undershot: start=" << k << " got " << n << "/" << len;
        break;
      }
      default: {
        Value v = 0;
        auto it = model.find(k);
        ASSERT_EQ(list.read(k, v, 0), it != model.end());
        if (it != model.end()) { ASSERT_EQ(v, it->second); }
      }
    }
  }
  EXPECT_EQ(list.size(), model.size());
  EXPECT_TRUE(list.validate());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, HybridSkipListGeometry,
    ::testing::Values(SkiplistGeometry{8, 4, 1}, SkiplistGeometry{8, 4, 2},
                      SkiplistGeometry{12, 6, 4}, SkiplistGeometry{12, 2, 4},
                      SkiplistGeometry{12, 10, 4}, SkiplistGeometry{16, 8, 8},
                      SkiplistGeometry{10, 9, 2}, SkiplistGeometry{10, 1, 8}));

// ---------------------------------------------------------------------------
// Hybrid B+ tree: model equivalence across split level / partitions / fill
// ---------------------------------------------------------------------------

// (nmp_levels, partitions, fill)
using BTreeGeometry = std::tuple<int, std::uint32_t, double>;

class HybridBTreeGeometry : public ::testing::TestWithParam<BTreeGeometry> {};

TEST_P(HybridBTreeGeometry, MatchesReferenceModel) {
  auto [nmp_levels, partitions, fill] = GetParam();
  std::vector<Key> keys;
  std::vector<Value> vals;
  std::map<Key, Value> model;
  for (int i = 0; i < 4000; ++i) {
    keys.push_back(static_cast<Key>(i * 4));
    vals.push_back(static_cast<Value>(i));
    model[keys.back()] = vals.back();
  }
  hd::HybridBTree::Config cfg;
  cfg.nmp_levels = nmp_levels;
  cfg.partitions = partitions;
  cfg.max_threads = 1;
  cfg.fill = fill;
  // Same tiny-budget hot-key cache as the skiplist sweep: eviction churn on
  // every geometry, exact-model equivalence unchanged.
  cfg.cache_budget_bytes = 2 * 1024;
  hd::HybridBTree tree(cfg, keys, vals);
  ASSERT_EQ(tree.size(), model.size());
  ASSERT_TRUE(tree.validate());

  hu::Xoshiro256 rng(nmp_levels * 100 + partitions);
  std::vector<hybrids::ScanEntry> buf;
  for (int i = 0; i < 8000; ++i) {
    Key k = static_cast<Key>(rng.next_below(20000));
    switch (rng.next_below(5)) {
      case 0: {
        Value v = static_cast<Value>(rng.next());
        ASSERT_EQ(tree.insert(k, v, 0), model.emplace(k, v).second) << k;
        break;
      }
      case 1:
        ASSERT_EQ(tree.remove(k, 0), model.erase(k) > 0) << k;
        break;
      case 2: {
        Value v = static_cast<Value>(rng.next());
        bool present = model.count(k) > 0;
        ASSERT_EQ(tree.update(k, v, 0), present) << k;
        if (present) model[k] = v;
        break;
      }
      case 3: {
        // Stitched range scan vs the model's lower_bound slice, exact match.
        const std::size_t len = rng.next_below(40);
        buf.assign(len > 0 ? len : 1, {});
        const std::size_t n = tree.scan(k, len, buf.data(), 0);
        auto it = model.lower_bound(k);
        for (std::size_t j = 0; j < n; ++j, ++it) {
          ASSERT_NE(it, model.end()) << "scan overran model at " << k;
          ASSERT_EQ(buf[j].key, it->first) << "start=" << k << " j=" << j;
          ASSERT_EQ(buf[j].value, it->second) << "start=" << k << " j=" << j;
        }
        ASSERT_TRUE(n == len || it == model.end())
            << "scan undershot: start=" << k << " got " << n << "/" << len;
        break;
      }
      default: {
        Value v = 0;
        auto it = model.find(k);
        ASSERT_EQ(tree.read(k, v, 0), it != model.end()) << k;
        if (it != model.end()) { ASSERT_EQ(v, it->second); }
      }
    }
  }
  EXPECT_EQ(tree.size(), model.size());
  EXPECT_TRUE(tree.validate());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, HybridBTreeGeometry,
    ::testing::Values(BTreeGeometry{1, 1, 0.5}, BTreeGeometry{1, 4, 0.5},
                      BTreeGeometry{2, 4, 0.5}, BTreeGeometry{3, 8, 0.5},
                      BTreeGeometry{2, 2, 0.9}, BTreeGeometry{2, 8, 0.3},
                      BTreeGeometry{4, 2, 0.5}));

// ---------------------------------------------------------------------------
// Fat-node host index: heights sweep
// ---------------------------------------------------------------------------

class FatSkipListHeight : public ::testing::TestWithParam<int> {};

TEST_P(FatSkipListHeight, InvariantsHoldAfterChurn) {
  const int height = GetParam();
  hd::FatSkipList list(height);
  hu::Xoshiro256 rng(height);
  std::map<Key, Value> model;
  for (int i = 0; i < 5000; ++i) {
    Key k = static_cast<Key>(1 + rng.next_below(500));
    if (rng.next() & 1) {
      Value v = static_cast<Value>(rng.next());
      ASSERT_EQ(list.insert(k, v), model.emplace(k, v).second);
    } else {
      ASSERT_EQ(list.remove(k), model.erase(k) > 0);
    }
  }
  EXPECT_EQ(list.size(), model.size());
  EXPECT_TRUE(list.validate());
  for (const auto& [k, v] : model) {
    Value got = 0;
    ASSERT_TRUE(list.get(k, got)) << "key " << k;
    EXPECT_EQ(got, v);
  }
}

INSTANTIATE_TEST_SUITE_P(Heights, FatSkipListHeight,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 24, 32));

// ---------------------------------------------------------------------------
// Seqlock B+ tree: fill-factor sweep for sorted bulk loads
// ---------------------------------------------------------------------------

class BTreeFill : public ::testing::TestWithParam<double> {};

TEST_P(BTreeFill, BulkLoadValidAndSearchable) {
  const double fill = GetParam();
  std::vector<Key> keys;
  std::vector<Value> vals;
  for (int i = 0; i < 20000; ++i) {
    keys.push_back(static_cast<Key>(i * 3));
    vals.push_back(static_cast<Value>(i));
  }
  hd::SeqLockBTree tree;
  tree.build_from_sorted(keys, vals, fill);
  EXPECT_EQ(tree.size(), keys.size());
  EXPECT_TRUE(tree.validate());
  Value v = 0;
  hu::Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto idx = rng.next_below(keys.size());
    ASSERT_TRUE(tree.read(keys[idx], v));
    EXPECT_EQ(v, vals[idx]);
  }
  // Inserts still work on a bulk-loaded tree at any fill.
  for (Key k = 1; k < 100; k += 3) ASSERT_TRUE(tree.insert(k, k));
  EXPECT_TRUE(tree.validate());
}

INSTANTIATE_TEST_SUITE_P(Fills, BTreeFill,
                         ::testing::Values(0.2, 0.35, 0.5, 0.7, 0.9, 1.0));

// ---------------------------------------------------------------------------
// Cache model: geometry sweep
// ---------------------------------------------------------------------------

// (bytes, assoc)
using CacheGeometry = std::tuple<std::size_t, int>;

class CacheGeometrySweep : public ::testing::TestWithParam<CacheGeometry> {};

TEST_P(CacheGeometrySweep, WorkingSetSmallerThanCacheAlwaysHitsAfterWarmup) {
  auto [bytes, assoc] = GetParam();
  hs::CacheModel cache(bytes, assoc, 128);
  const std::uint64_t blocks = bytes / 128 / 2;  // half capacity
  for (std::uint64_t b = 0; b < blocks; ++b) cache.access(b, false);
  cache.reset_stats();
  hu::Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(cache.access(rng.next_below(blocks), false).hit);
  }
  EXPECT_EQ(cache.misses(), 0u);
}

TEST_P(CacheGeometrySweep, WorkingSetMuchLargerThanCacheMostlyMisses) {
  auto [bytes, assoc] = GetParam();
  hs::CacheModel cache(bytes, assoc, 128);
  const std::uint64_t blocks = (bytes / 128) * 64;
  hu::Xoshiro256 rng(2);
  for (int i = 0; i < 20000; ++i) cache.access(rng.next_below(blocks), false);
  const double miss_rate =
      static_cast<double>(cache.misses()) /
      static_cast<double>(cache.hits() + cache.misses());
  EXPECT_GT(miss_rate, 0.9);
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheGeometrySweep,
                         ::testing::Values(CacheGeometry{4096, 1},
                                           CacheGeometry{8192, 2},
                                           CacheGeometry{65536, 2},
                                           CacheGeometry{65536, 8},
                                           CacheGeometry{1 << 20, 8},
                                           CacheGeometry{1 << 20, 16}));

// ---------------------------------------------------------------------------
// Zipfian: skew increases with item count held fixed across theta
// ---------------------------------------------------------------------------

class ZipfianN : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZipfianN, HeadProbabilityMatchesZeta) {
  const std::uint64_t n = GetParam();
  hw::ZipfianGenerator z(n);
  hu::Xoshiro256 rng(n);
  constexpr int kDraws = 100000;
  int head = 0;
  for (int i = 0; i < kDraws; ++i) head += (z.next(rng) == 0);
  // p(rank 0) = 1 / zeta_0.99(n); compute zeta directly.
  double zeta = 0;
  for (std::uint64_t i = 1; i <= n; ++i) zeta += 1.0 / std::pow(double(i), 0.99);
  EXPECT_NEAR(head / double(kDraws), 1.0 / zeta, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ZipfianN,
                         ::testing::Values(16ull, 256ull, 4096ull, 65536ull));
