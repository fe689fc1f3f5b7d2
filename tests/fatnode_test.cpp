// Tests for the fat-node host index (ds/fat_skiplist.hpp):
//  - oracle-exact single-thread behaviour (point ops, churn, scans, splits,
//    node death and re-insertion into a dead node's range, View semantics),
//  - descent and writer-walk cost after churn (no walk re-crosses a level
//    from its head),
//  - the seqlock/B-link concurrency story (split-during-descent readers,
//    disjoint-range churn, removal races) — these double as the TSan targets,
//  - EBR retirement bounds and quiescent drain for both entries and fat nodes,
//  - versioned mirror writes and shortcut-token freshness semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "hybrids/ds/fat_skiplist.hpp"
#include "hybrids/mem/ebr.hpp"
#include "hybrids/telemetry/registry.hpp"
#include "hybrids/util/rng.hpp"

namespace hd = hybrids::ds;
namespace hu = hybrids::util;
using hybrids::Key;
using hybrids::ScanEntry;
using hybrids::Value;

namespace {
// Pushes the global EBR epoch forward a couple of steps; with every thread
// quiescent this makes previously retired nodes reclaimable.
void mem_advance() {
  hybrids::mem::Ebr::try_advance();
  hybrids::mem::Ebr::try_advance();
}

// 1..n in a seeded random order.
std::vector<Key> shuffled_keys(std::size_t n, std::uint64_t seed) {
  std::vector<Key> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = static_cast<Key>(i + 1);
  std::mt19937_64 rng(seed);
  std::shuffle(keys.begin(), keys.end(), rng);
  return keys;
}
}  // namespace

// ---------- FatSkipList: single-threaded, oracle-exact ----------

TEST(FatSkipList, InsertFindRemove) {
  hd::FatSkipList list(8);
  EXPECT_TRUE(list.validate());
  for (Key k = 10; k <= 100; k += 10) {
    EXPECT_TRUE(list.insert(k, k * 2));
  }
  EXPECT_FALSE(list.insert(50, 999)) << "duplicate insert must fail";
  EXPECT_EQ(list.size(), 10u);
  EXPECT_TRUE(list.validate());
  for (Key k = 10; k <= 100; k += 10) {
    Value v = 0;
    ASSERT_TRUE(list.get(k, v)) << "key " << k;
    EXPECT_EQ(v, k * 2);
  }
  EXPECT_FALSE(list.contains(15));
  EXPECT_TRUE(list.remove(50));
  EXPECT_FALSE(list.remove(50));
  EXPECT_FALSE(list.contains(50));
  EXPECT_EQ(list.size(), 9u);
  EXPECT_TRUE(list.validate());
}

TEST(FatSkipList, ViewPredSemantics) {
  hd::FatSkipList list(8);
  for (Key k : {20u, 40u, 60u}) ASSERT_TRUE(list.insert(k, k));
  hd::FatSkipList::View w;
  // Exact hit.
  EXPECT_TRUE(list.find(40, w));
  ASSERT_NE(w.match, nullptr);
  EXPECT_EQ(w.match->key, 40u);
  ASSERT_NE(w.leaf, nullptr);
  EXPECT_TRUE(list.node_version_is(w.leaf, w.leaf_version));
  // Miss in the middle: pred is the largest key below.
  EXPECT_FALSE(list.find(41, w));
  EXPECT_EQ(w.match, nullptr);
  ASSERT_NE(w.pred, nullptr);
  EXPECT_EQ(w.pred->key, 40u);
  // Miss before everything: no pred.
  EXPECT_FALSE(list.find(5, w));
  EXPECT_EQ(w.match, nullptr);
  EXPECT_EQ(w.pred, nullptr);
}

TEST(FatSkipList, SplitsKeepOrderAndRouting) {
  hd::FatSkipList list(8);
  // Way past one node's 8 slots on several levels; interleave ascending and
  // descending runs so splits land in the middle and at the edges.
  std::vector<Key> keys;
  for (Key k = 1; k <= 512; ++k) keys.push_back(k * 3);
  std::mt19937 shuffle_rng(42);
  std::shuffle(keys.begin(), keys.end(), shuffle_rng);
  for (Key k : keys) ASSERT_TRUE(list.insert(k, k + 1));
  EXPECT_EQ(list.size(), keys.size());
  ASSERT_TRUE(list.validate());
  // Every key resident and in order under for_each_entry.
  std::vector<Key> seen;
  list.for_each_entry([&](hd::FatSkipList::Entry* e) { seen.push_back(e->key); });
  ASSERT_EQ(seen.size(), keys.size());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(seen, keys);
}

TEST(FatSkipList, SplitCounterAdvances) {
  const std::uint64_t before = hybrids::telemetry::snapshot().counter_total(
      hybrids::telemetry::names::kMemFatnodeSplits);
  hd::FatSkipList list(8);
  for (Key k = 1; k <= 256; ++k) ASSERT_TRUE(list.insert(k, k));
  const std::uint64_t after = hybrids::telemetry::snapshot().counter_total(
      hybrids::telemetry::names::kMemFatnodeSplits);
#if !defined(HYBRIDS_NO_TELEMETRY)
  // 256 keys through 8-slot leaves must split many times (leaf level alone
  // needs ~256/4 steady-state splits).
  EXPECT_GE(after - before, 30u);
#else
  EXPECT_EQ(after, before);
#endif
}

TEST(FatSkipList, RemoveEmptiesNodesAndRangeStaysInsertable) {
  hd::FatSkipList list(8);
  for (Key k = 1; k <= 256; ++k) ASSERT_TRUE(list.insert(k, k));
  // Carve out a whole middle band: every fat node covering it empties and
  // dies, routing entries above must follow.
  for (Key k = 65; k <= 192; ++k) ASSERT_TRUE(list.remove(k));
  EXPECT_EQ(list.size(), 128u);
  ASSERT_TRUE(list.validate());
  for (Key k = 65; k <= 192; ++k) EXPECT_FALSE(list.contains(k));
  EXPECT_TRUE(list.contains(64));
  EXPECT_TRUE(list.contains(193));
  // The dead band accepts fresh inserts (descents route around corpses).
  for (Key k = 65; k <= 192; ++k) ASSERT_TRUE(list.insert(k, k * 7));
  EXPECT_EQ(list.size(), 256u);
  ASSERT_TRUE(list.validate());
  Value v = 0;
  ASSERT_TRUE(list.get(100, v));
  EXPECT_EQ(v, 700u);
}

TEST(FatSkipList, OracleChurn) {
  hd::FatSkipList list(8);
  std::map<Key, Value> oracle;
  hu::Xoshiro256 rng(0xFA7);
  for (int i = 0; i < 20000; ++i) {
    const Key k = static_cast<Key>(rng.next() % 2048) + 1;
    switch (rng.next() % 3) {
      case 0: {  // insert
        const Value v = static_cast<Value>(rng.next());
        const bool fresh = oracle.emplace(k, v).second;
        EXPECT_EQ(list.insert(k, v), fresh) << "key " << k;
        break;
      }
      case 1: {  // remove
        const bool present = oracle.erase(k) != 0;
        EXPECT_EQ(list.remove(k), present) << "key " << k;
        break;
      }
      default: {  // read
        Value v = 0;
        auto it = oracle.find(k);
        if (it != oracle.end()) {
          ASSERT_TRUE(list.get(k, v)) << "key " << k;
          EXPECT_EQ(v, it->second);
        } else {
          EXPECT_FALSE(list.get(k, v)) << "key " << k;
        }
        break;
      }
    }
  }
  EXPECT_EQ(list.size(), oracle.size());
  ASSERT_TRUE(list.validate());
  std::vector<std::pair<Key, Value>> seen;
  list.for_each_entry([&](hd::FatSkipList::Entry* e) {
    seen.emplace_back(e->key, e->value.load(std::memory_order_relaxed));
  });
  ASSERT_EQ(seen.size(), oracle.size());
  auto it = oracle.begin();
  for (const auto& [k, v] : seen) {
    EXPECT_EQ(k, it->first);
    ++it;
  }
}

TEST(FatSkipList, ScanMatchesOracle) {
  hd::FatSkipList list(8);
  std::map<Key, Value> oracle;
  hu::Xoshiro256 rng(0x5CA9);
  for (int i = 0; i < 1500; ++i) {
    const Key k = static_cast<Key>(rng.next() % 10000) + 1;
    const Value v = static_cast<Value>(rng.next());
    if (oracle.emplace(k, v).second) {
      ASSERT_TRUE(list.insert(k, v));
    }
  }
  std::vector<ScanEntry> out(256);
  for (int probe = 0; probe < 200; ++probe) {
    const Key start = static_cast<Key>(rng.next() % 11000);
    const std::size_t want = 1 + rng.next() % 200;
    const std::size_t got = list.scan(start, want, out.data());
    auto it = oracle.lower_bound(start);
    std::size_t expect = 0;
    for (; it != oracle.end() && expect < want; ++it, ++expect) {
      ASSERT_LT(expect, got) << "scan(" << start << ") short";
      EXPECT_EQ(out[expect].key, it->first);
      EXPECT_EQ(out[expect].value, it->second);
    }
    EXPECT_EQ(got, expect) << "scan(" << start << ") long";
  }
  // Scan over a freshly emptied band stitches across dead leaves.
  auto cut_lo = oracle.lower_bound(3000);
  auto cut_hi = oracle.lower_bound(6000);
  for (auto itc = cut_lo; itc != cut_hi; ++itc) ASSERT_TRUE(list.remove(itc->first));
  oracle.erase(oracle.lower_bound(3000), oracle.lower_bound(6000));
  const std::size_t got = list.scan(2900, 64, out.data());
  auto it = oracle.lower_bound(2900);
  std::size_t expect = 0;
  for (; it != oracle.end() && expect < 64; ++it, ++expect) {
    ASSERT_LT(expect, got);
    EXPECT_EQ(out[expect].key, it->first);
  }
  EXPECT_EQ(got, expect);
}

TEST(FatSkipList, ViewMatchesOracleAfterChurn) {
  hd::FatSkipList list(8);
  std::map<Key, Value> oracle;
  hu::Xoshiro256 rng(0xF00D);
  for (int i = 0; i < 4000; ++i) {
    const Key k = static_cast<Key>(rng.next() % 512) + 1;
    if ((rng.next() & 1u) != 0) {
      hd::FatSkipList::Entry* e = list.make_entry(k, k * 2);
      const bool fresh = list.insert_node(e);
      if (!fresh) list.free_unlinked(e);
      EXPECT_EQ(fresh, oracle.emplace(k, k * 2).second);
    } else {
      EXPECT_EQ(list.remove(k), oracle.erase(k) != 0);
    }
  }
  EXPECT_EQ(list.size(), oracle.size());
  EXPECT_TRUE(list.validate());
  for (Key k = 1; k <= 513; ++k) {
    hd::FatSkipList::View w;
    const bool hit = list.find(k, w);
    auto it = oracle.find(k);
    EXPECT_EQ(hit, it != oracle.end()) << "key " << k;
    if (hit) {
      ASSERT_NE(w.match, nullptr);
      EXPECT_EQ(w.match->key, k);
    } else {
      EXPECT_EQ(w.match, nullptr);
      auto lb = oracle.lower_bound(k);
      if (lb == oracle.begin()) {
        EXPECT_EQ(w.pred, nullptr) << "key " << k;
      } else {
        ASSERT_NE(w.pred, nullptr) << "key " << k;
        EXPECT_EQ(w.pred->key, std::prev(lb)->first) << "key " << k;
      }
    }
    // The token a View hands out reads fresh while nothing mutates.
    ASSERT_NE(w.leaf, nullptr) << "key " << k;
    EXPECT_TRUE(list.node_version_is(w.leaf, w.leaf_version)) << "key " << k;
  }
  std::vector<Key> seen;
  list.for_each_entry([&](hd::FatSkipList::Entry* e) { seen.push_back(e->key); });
  ASSERT_EQ(seen.size(), oracle.size());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  for (int i = 0; i < 6 && list.retired_count() > 0; ++i) {
    mem_advance();
    (void)list.reclaim_retired();
  }
  EXPECT_EQ(list.retired_count(), 0u);
}

TEST(FatSkipList, ShortcutTokenGoesStaleOnLeafMutation) {
  hd::FatSkipList list(8);
  for (Key k = 10; k <= 40; k += 10) ASSERT_TRUE(list.insert(k, k));
  hd::FatSkipList::View w;
  ASSERT_TRUE(list.find(20, w));
  ASSERT_NE(w.leaf, nullptr);
  ASSERT_TRUE(list.node_version_is(w.leaf, w.leaf_version));
  // Unrelated reads leave the token fresh.
  hd::FatSkipList::View w2;
  ASSERT_TRUE(list.find(30, w2));
  EXPECT_TRUE(list.node_version_is(w.leaf, w.leaf_version));
  // Any mutation of that leaf — here an insert landing beside key 20 —
  // bumps the seqlock and retires the token.
  ASSERT_TRUE(list.insert(21, 21));
  EXPECT_FALSE(list.node_version_is(w.leaf, w.leaf_version));
  // A re-descent mints a fresh token.
  ASSERT_TRUE(list.find(20, w));
  EXPECT_TRUE(list.node_version_is(w.leaf, w.leaf_version));
}

TEST(FatSkipList, VersionedUpdateKeepsNewestValue) {
  hd::FatSkipList list(4);
  hd::FatSkipList::Entry* e = list.make_entry(1, 10);
  ASSERT_TRUE(list.insert_node(e));
  ASSERT_EQ(list.get_node(1), e);
  hd::FatSkipList::update_versioned(e, 2, 222);
  hd::FatSkipList::update_versioned(e, 1, 111);  // stale version: ignored
  EXPECT_EQ(e->value_now(), 222u);
  hd::FatSkipList::update_versioned(e, 3, 333);
  EXPECT_EQ(e->value_now(), 333u);
  Value v = 0;
  ASSERT_TRUE(list.get(1, v));
  EXPECT_EQ(v, 333u);
}

// ---------- FatSkipList: walk cost after churn ----------

TEST(FatSkipList, DescentsStayShortAfterRandomRemovals) {
  // Removing a random half leaves many nodes whose anchor key is gone. A
  // descent that lands on one must resume just left of it instead of
  // re-walking the level from its head.
  hd::FatSkipList list(8);
  const std::vector<Key> keys = shuffled_keys(std::size_t{1} << 14, 14);
  const std::size_t half = keys.size() / 2;
  for (Key k : keys) ASSERT_TRUE(list.insert(k, k));
  for (std::size_t i = 0; i < half; ++i) ASSERT_TRUE(list.remove(keys[i]));
  ASSERT_TRUE(list.validate());
  const auto scanned = [] {
    return hybrids::telemetry::snapshot().counter_total(
        hybrids::telemetry::names::kHostNodeKeysScanned);
  };
  const std::uint64_t before = scanned();
  hd::FatSkipList::View w;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(list.find(keys[i], w), i >= half) << "key " << keys[i];
  }
  const std::uint64_t after = scanned();
#if !defined(HYBRIDS_NO_TELEMETRY)
  const double per_find =
      static_cast<double>(after - before) / static_cast<double>(keys.size());
  EXPECT_LT(per_find, 64.0) << "keys examined per find";
#else
  EXPECT_EQ(after, before);
#endif
}

TEST(FatSkipList, ShuffledInsertRemoveStaysFast) {
  // Every remove, node death (unlink + parent routing sweep) and split
  // routing insert starts from a descent, so 2^17 shuffled inserts and
  // removes take well under a second; a walk from the level head makes each
  // remove linear in the level size (tens of seconds at this size).
  hd::FatSkipList list(12);
  const std::vector<Key> keys = shuffled_keys(std::size_t{1} << 17, 17);
  const auto t0 = std::chrono::steady_clock::now();
  for (Key k : keys) ASSERT_TRUE(list.insert(k, k));
  for (Key k : shuffled_keys(keys.size(), 71)) ASSERT_TRUE(list.remove(k));
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_EQ(list.size(), 0u);
  ASSERT_TRUE(list.validate());
  EXPECT_LT(secs, 10.0) << "2^17 inserts + removes";
}

// ---------- FatSkipList: EBR retirement ----------

TEST(FatSkipList, RetireBoundedAndDrainsQuiescent) {
  hd::FatSkipList list(8);
  std::size_t high_water = 0;
  for (int round = 0; round < 8; ++round) {
    for (Key k = 1; k <= 512; ++k) ASSERT_TRUE(list.insert(k, k));
    for (Key k = 1; k <= 512; ++k) ASSERT_TRUE(list.remove(k));
    high_water = std::max(high_water, list.retired_count());
  }
  // maybe_reclaim's periodic drain keeps the backlog bounded even though we
  // retired 4096 entries plus every emptied fat node.
  EXPECT_LE(high_water, 2048u) << "retire backlog grew without bound";
  for (int i = 0; i < 6 && list.retired_count() > 0; ++i) {
    mem_advance();
    (void)list.reclaim_retired();
  }
  EXPECT_EQ(list.retired_count(), 0u);
  EXPECT_EQ(list.size(), 0u);
  ASSERT_TRUE(list.validate());
  // The drained structure is fully reusable.
  for (Key k = 1; k <= 64; ++k) ASSERT_TRUE(list.insert(k, k));
  EXPECT_EQ(list.size(), 64u);
  ASSERT_TRUE(list.validate());
}

// ---------- FatSkipList: concurrency (TSan targets) ----------

TEST(FatSkipList, SplitDuringDescentReadersStaySound) {
  hd::FatSkipList list(12);
  // Stable odd keys the readers assert on; the writer pumps even keys in and
  // out to force splits (and node deaths) under the readers' feet.
  constexpr Key kStable = 2048;
  for (Key k = 1; k < 2 * kStable; k += 2) ASSERT_TRUE(list.insert(k, k + 1));
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  const int reader_count = 3;
  for (int t = 0; t < reader_count; ++t) {
    readers.emplace_back([&, t] {
      hu::Xoshiro256 rng(100 + t);
      std::vector<ScanEntry> out(64);
      while (!stop.load(std::memory_order_relaxed)) {
        const Key k = (static_cast<Key>(rng.next() % kStable)) * 2 + 1;
        Value v = 0;
        if (!list.get(k, v) || v != k + 1) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        // Scans must be strictly increasing and must not skip any stable
        // (odd) key inside the range they claim to cover.
        const std::size_t got = list.scan(k, 16, out.data());
        Key prev = 0;
        std::size_t odd_seen = 0;
        for (std::size_t i = 0; i < got; ++i) {
          if (i > 0 && out[i].key <= prev) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          prev = out[i].key;
          if ((out[i].key & 1u) != 0 && out[i].value != out[i].key + 1) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          if ((out[i].key & 1u) != 0) ++odd_seen;
        }
        if (got > 0) {
          const auto odds_upto = [](Key x) {
            return static_cast<std::size_t>((x + 1) / 2);
          };
          if (odd_seen != odds_upto(prev) - odds_upto(k - 1)) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::thread writer([&] {
    hu::Xoshiro256 rng(7);
    for (int round = 0; round < 200; ++round) {
      for (Key k = 2; k < 2 * kStable; k += 2) {
        if ((rng.next() & 3u) == 0) list.insert(k, k);
      }
      for (Key k = 2; k < 2 * kStable; k += 2) {
        if ((rng.next() & 1u) == 0) list.remove(k);
      }
    }
    stop.store(true, std::memory_order_relaxed);
  });
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
  for (Key k = 1; k < 2 * kStable; k += 2) {
    ASSERT_TRUE(list.contains(k)) << "stable key " << k << " lost";
  }
  ASSERT_TRUE(list.validate());
}

TEST(FatSkipList, DisjointRangeChurnValidates) {
  hd::FatSkipList list(12);
  const int threads = 4;
  const Key span = 4096;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const Key lo = static_cast<Key>(t) * span + 1;
      hu::Xoshiro256 rng(900 + t);
      std::set<Key> mine;
      for (int i = 0; i < 12000; ++i) {
        const Key k = lo + static_cast<Key>(rng.next() % span);
        if (mine.count(k) != 0) {
          const bool removed = list.remove(k);
          if (!removed) std::abort();  // disjoint ranges: only we touch k
          mine.erase(k);
        } else {
          if (!list.insert(k, k)) std::abort();
          mine.insert(k);
        }
      }
      for (Key k : mine) {
        if (!list.contains(k)) std::abort();
      }
    });
  }
  for (auto& w : workers) w.join();
  ASSERT_TRUE(list.validate());
  for (int i = 0; i < 6 && list.retired_count() > 0; ++i) {
    mem_advance();
    (void)list.reclaim_retired();
  }
  EXPECT_EQ(list.retired_count(), 0u);
}

TEST(FatSkipList, ContendedSameKeyInsertRemove) {
  hd::FatSkipList list(8);
  // All threads fight over one small key set: exercises locked-owner retries,
  // dup detection, remove-of-replaced-incarnation, and node death/revival.
  const int threads = 4;
  constexpr Key kKeys = 32;
  std::atomic<long> net[kKeys] = {};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      hu::Xoshiro256 rng(3000 + t);
      for (int i = 0; i < 20000; ++i) {
        const Key k = static_cast<Key>(rng.next() % kKeys) + 1;
        if ((rng.next() & 1u) != 0) {
          if (list.insert(k, k)) net[k - 1].fetch_add(1);
        } else {
          if (list.remove(k)) net[k - 1].fetch_sub(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  ASSERT_TRUE(list.validate());
  std::size_t resident = 0;
  for (Key k = 1; k <= kKeys; ++k) {
    const long n = net[k - 1].load();
    ASSERT_TRUE(n == 0 || n == 1) << "key " << k << " net " << n;
    EXPECT_EQ(list.contains(k), n == 1) << "key " << k;
    resident += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(list.size(), resident);
}
