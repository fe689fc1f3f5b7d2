// Tests for the skiplist family: sequential partition skiplist, NMP-based
// flat-combining skiplist (prior work), and the hybrid skiplist (paper
// §3.3). The hybrid's host index has its own suite in fatnode_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "hybrids/ds/hybrid_skiplist.hpp"
#include "hybrids/ds/nmp_skiplist.hpp"
#include "hybrids/ds/seq_skiplist.hpp"
#include "hybrids/util/rng.hpp"

#include "frame_window.hpp"

namespace hd = hybrids::ds;
namespace ht = hybrids::testing;
namespace hu = hybrids::util;
using hybrids::Key;
using hybrids::Value;

// ---------- SeqSkipList ----------

TEST(SeqSkipList, InsertReadRemove) {
  hd::SeqSkipList list(4);
  hu::Xoshiro256 rng(1);
  for (Key k = 10; k <= 100; k += 10) {
    auto [node, existed] = list.insert(k, k * 2, hd::random_height(rng, 4), nullptr, list.head());
    EXPECT_FALSE(existed);
    EXPECT_EQ(node->key, k);
  }
  EXPECT_EQ(list.size(), 10u);
  EXPECT_TRUE(list.validate());
  for (Key k = 10; k <= 100; k += 10) {
    hd::SeqSkipList::Node* n = list.read(k, list.head());
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->value, k * 2);
  }
  EXPECT_EQ(list.read(15, list.head()), nullptr);
  EXPECT_TRUE(list.remove(50, list.head()));
  EXPECT_FALSE(list.remove(50, list.head()));
  EXPECT_EQ(list.read(50, list.head()), nullptr);
  EXPECT_EQ(list.size(), 9u);
  EXPECT_TRUE(list.validate());
}

TEST(SeqSkipList, DuplicateInsertFails) {
  hd::SeqSkipList list(4);
  auto r1 = list.insert(7, 1, 2, nullptr, list.head());
  EXPECT_FALSE(r1.existed);
  auto r2 = list.insert(7, 9, 3, nullptr, list.head());
  EXPECT_TRUE(r2.existed);
  EXPECT_EQ(r2.node, r1.node);
  EXPECT_EQ(list.read(7, list.head())->value, 1u);
}

TEST(SeqSkipList, RemovedNodeIsStaleButInspectable) {
  hd::SeqSkipList list(4);
  auto [node, existed] = list.insert(5, 50, 4, nullptr, list.head());
  ASSERT_FALSE(existed);
  EXPECT_FALSE(hd::SeqSkipList::is_stale(node));
  EXPECT_TRUE(list.remove(5, list.head()));
  // The paper's stale-begin detection: memory is retained, mark visible.
  EXPECT_TRUE(hd::SeqSkipList::is_stale(node));
}

TEST(SeqSkipList, BeginNodeTraversalFindsSuffix) {
  hd::SeqSkipList list(3);
  hd::SeqSkipList::Node* begin = nullptr;
  for (Key k = 1; k <= 50; ++k) {
    auto [node, existed] = list.insert(k, k, 3, nullptr, list.head());
    if (k == 25) begin = node;  // full-height node usable as begin
  }
  ASSERT_NE(begin, nullptr);
  // Traversal from the shortcut must find all keys strictly beyond the begin
  // node (the hybrid protocol always supplies a strict predecessor).
  for (Key k = 26; k <= 50; ++k) {
    EXPECT_NE(list.read(k, begin), nullptr) << k;
  }
  EXPECT_EQ(list.read(26, begin)->value, 26u);
}

TEST(SeqSkipList, MatchesReferenceModel) {
  hd::SeqSkipList list(8);
  std::map<Key, Value> model;
  hu::Xoshiro256 rng(42);
  for (int i = 0; i < 20000; ++i) {
    Key k = static_cast<Key>(rng.next_below(2000));
    switch (rng.next_below(3)) {
      case 0: {
        Value v = static_cast<Value>(rng.next());
        bool inserted = !list.insert(k, v, hd::random_height(rng, 8), nullptr, list.head()).existed;
        EXPECT_EQ(inserted, model.emplace(k, v).second);
        break;
      }
      case 1:
        EXPECT_EQ(list.remove(k, list.head()), model.erase(k) > 0);
        break;
      default: {
        hd::SeqSkipList::Node* n = list.read(k, list.head());
        auto it = model.find(k);
        ASSERT_EQ(n != nullptr, it != model.end());
        if (n != nullptr) { EXPECT_EQ(n->value, it->second); }
      }
    }
  }
  EXPECT_EQ(list.size(), model.size());
  EXPECT_TRUE(list.validate());
}

TEST(SeqSkipList, FingerFindMatchesPlainFind) {
  // find_finger must return exactly what find returns — same found node and
  // the same preds/succs arrays — across ascending-key sequences, which is
  // the access pattern the combiner's key-sorted batches produce.
  constexpr int kHeight = 8;
  hd::SeqSkipList list(kHeight);
  hu::Xoshiro256 rng(7);
  for (int i = 0; i < 500; ++i) {
    const Key k = static_cast<Key>(rng.next_below(5000));
    list.insert(k, k, hd::random_height(rng, kHeight), nullptr, list.head());
  }
  for (int round = 0; round < 200; ++round) {
    hd::SeqSkipList::Finger fg;
    // Ascending probe sequence with repeats (equal keys stay legal).
    std::vector<Key> probes;
    Key k = 0;
    for (int i = 0; i < 32; ++i) {
      k += static_cast<Key>(rng.next_below(300));
      probes.push_back(k);
      if (rng.next_below(4) == 0) probes.push_back(k);
    }
    for (Key probe : probes) {
      hd::SeqSkipList::Node* preds[hd::SeqSkipList::kMaxLevels];
      hd::SeqSkipList::Node* succs[hd::SeqSkipList::kMaxLevels];
      hd::SeqSkipList::Node* fpreds[hd::SeqSkipList::kMaxLevels];
      hd::SeqSkipList::Node* fsuccs[hd::SeqSkipList::kMaxLevels];
      hd::SeqSkipList::Node* plain = list.find(probe, list.head(), preds, succs);
      hd::SeqSkipList::Node* fingered =
          list.find_finger(probe, list.head(), fpreds, fsuccs, fg);
      ASSERT_EQ(fingered, plain) << "key " << probe;
      for (int lvl = 0; lvl < kHeight; ++lvl) {
        ASSERT_EQ(fpreds[lvl], preds[lvl]) << "pred lvl " << lvl << " key " << probe;
        ASSERT_EQ(fsuccs[lvl], succs[lvl]) << "succ lvl " << lvl << " key " << probe;
      }
    }
    EXPECT_GT(fg.hits, 0u);  // long ascending runs must actually reuse it
  }
}

TEST(NmpSkipList, BatchApplyMatchesSequentialApply) {
  // The combiner's batch path (apply_batch: ascending order + finger) must
  // produce exactly the responses and final structure of the one-at-a-time
  // handler applied in the same order. Mixed ops, duplicate keys included.
  constexpr int kHeight = 8;
  hd::SeqSkipList batched(kHeight);
  hd::SeqSkipList sequential(kHeight);
  hu::Xoshiro256 rng(11);
  for (int pass = 0; pass < 400; ++pass) {
    const std::size_t n = 2 + rng.next_below(15);
    std::vector<hybrids::nmp::Request> reqs(n);
    std::vector<hybrids::nmp::Response> resp_a(n), resp_b(n);
    for (std::size_t i = 0; i < n; ++i) {
      reqs[i].op = static_cast<hybrids::nmp::OpCode>(rng.next_below(4));
      reqs[i].key = static_cast<Key>(rng.next_below(3000));
      reqs[i].value = static_cast<Value>(rng.next());
      reqs[i].aux = 1 + rng.next_below(kHeight);  // insert tower height
    }
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return reqs[a].key < reqs[b].key;
    });
    std::vector<hybrids::nmp::BatchOp> ops(n);
    for (std::size_t i = 0; i < n; ++i) {
      ops[i] = {&reqs[idx[i]], &resp_a[idx[i]]};
    }
    hd::NmpSkipList::apply_batch(batched, ops.data(), n, nullptr);
    for (std::size_t i = 0; i < n; ++i) {
      hd::NmpSkipList::apply(sequential, reqs[idx[i]], resp_b[idx[i]]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(resp_a[i].ok, resp_b[i].ok) << "pass " << pass << " op " << i;
      ASSERT_EQ(resp_a[i].value, resp_b[i].value) << "pass " << pass << " op " << i;
    }
    ASSERT_EQ(batched.size(), sequential.size()) << "pass " << pass;
  }
  EXPECT_TRUE(batched.validate());
  EXPECT_TRUE(sequential.validate());
  // Identical level-0 contents.
  const hd::SeqSkipList::Node* a = batched.head()->next[0];
  const hd::SeqSkipList::Node* b = sequential.head()->next[0];
  while (a != nullptr && b != nullptr) {
    ASSERT_EQ(a->key, b->key);
    ASSERT_EQ(a->value, b->value);
    a = a->next[0];
    b = b->next[0];
  }
  EXPECT_EQ(a, nullptr);
  EXPECT_EQ(b, nullptr);
}

// ---------- NmpSkipList ----------

namespace {
hd::NmpSkipList::Config nmp_config(std::uint32_t threads = 4) {
  hd::NmpSkipList::Config cfg;
  cfg.total_height = 12;
  cfg.partitions = 4;
  cfg.partition_width = 1 << 16;
  cfg.max_threads = threads;
  return cfg;
}
}  // namespace

TEST(NmpSkipList, BasicOps) {
  hd::NmpSkipList list(nmp_config());
  EXPECT_TRUE(list.insert(100, 1, 0));
  EXPECT_FALSE(list.insert(100, 2, 0));
  Value v = 0;
  EXPECT_TRUE(list.read(100, v, 0));
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(list.update(100, 9, 0));
  EXPECT_TRUE(list.read(100, v, 0));
  EXPECT_EQ(v, 9u);
  EXPECT_TRUE(list.remove(100, 0));
  EXPECT_FALSE(list.read(100, v, 0));
  EXPECT_TRUE(list.validate());
}

TEST(NmpSkipList, KeysLandInCorrectPartitions) {
  hd::NmpSkipList list(nmp_config());
  // One key per partition range.
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(list.insert(p * (1u << 16) + 5, p, 0));
  }
  EXPECT_EQ(list.size(), 4u);
  Value v = 0;
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(list.read(p * (1u << 16) + 5, v, 0));
    EXPECT_EQ(v, p);
  }
}

TEST(NmpSkipList, ConcurrentMixedWorkload) {
  hd::NmpSkipList list(nmp_config(4));
  std::vector<std::thread> threads;
  std::atomic<long long> net[128] = {};
  for (std::uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      hu::Xoshiro256 rng(t);
      for (int i = 0; i < 2000; ++i) {
        Key k = static_cast<Key>(rng.next_below(128)) * 1024;
        if (rng.next() & 1) {
          if (list.insert(k, k, t)) net[k / 1024].fetch_add(1);
        } else {
          if (list.remove(k, t)) net[k / 1024].fetch_sub(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(list.validate());
  Value v = 0;
  for (int i = 0; i < 128; ++i) {
    EXPECT_EQ(list.read(static_cast<Key>(i) * 1024, v, 0), net[i].load() == 1);
  }
}

TEST(NmpSkipList, AsyncPipeline) {
  // 64 inserts through a depth-4 Frame window: each op parks on an async
  // publication slot while the next ones post.
  hd::NmpSkipList list(nmp_config());
  const std::vector<bool> ok = ht::run_window(
      4, 64, [&](std::size_t i) {
        const Key k = static_cast<Key>(i);
        return list.insert_co(k * 7, k, 0);
      });
  for (std::size_t i = 0; i < ok.size(); ++i) EXPECT_TRUE(ok[i]) << i;
  EXPECT_EQ(list.size(), 64u);
  Value v = 0;
  ASSERT_TRUE(list.read(7 * 63, v, 0));
  EXPECT_EQ(v, 63u);
}

// ---------- HybridSkipList ----------

namespace {
hd::HybridSkipList::Config hybrid_config(std::uint32_t threads = 4) {
  hd::HybridSkipList::Config cfg;
  cfg.total_height = 12;
  cfg.nmp_height = 6;
  cfg.partitions = 4;
  cfg.partition_width = 1 << 16;
  cfg.max_threads = threads;
  return cfg;
}
}  // namespace

TEST(HybridSkipList, SplitSizingRule) {
  // 2^20 keys, 1MB LLC, 128B nodes: host holds levels with 2^x * 128 <= 1MB
  // -> x = 13 host levels, 20 - 13 = 7 NMP levels.
  EXPECT_EQ(hd::HybridSkipList::nmp_height_for_cache(1ull << 20, 1 << 20, 128), 7);
  // Tiny cache: nearly everything NMP-managed, at least 1 host level.
  EXPECT_GE(hd::HybridSkipList::nmp_height_for_cache(1ull << 20, 256, 128), 18);
}

TEST(HybridSkipList, BasicOps) {
  hd::HybridSkipList list(hybrid_config());
  EXPECT_TRUE(list.insert(1000, 1, 0));
  EXPECT_FALSE(list.insert(1000, 2, 0));
  Value v = 0;
  EXPECT_TRUE(list.read(1000, v, 0));
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(list.update(1000, 5, 0));
  EXPECT_TRUE(list.read(1000, v, 0));
  EXPECT_EQ(v, 5u);
  EXPECT_FALSE(list.read(999, v, 0));
  EXPECT_TRUE(list.remove(1000, 0));
  EXPECT_FALSE(list.remove(1000, 0));
  EXPECT_FALSE(list.read(1000, v, 0));
  EXPECT_TRUE(list.validate());
}

TEST(HybridSkipList, ManyKeysAcrossPartitionsWithTallAndShortNodes) {
  hd::HybridSkipList list(hybrid_config());
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(list.insert(static_cast<Key>(i * 37), static_cast<Value>(i), 0));
  }
  EXPECT_EQ(list.size(), static_cast<std::size_t>(kN));
  // With 6 host levels over 5000 keys, a meaningful host subset must exist.
  EXPECT_GT(list.host_size(), 0u);
  EXPECT_LT(list.host_size(), static_cast<std::size_t>(kN));
  EXPECT_TRUE(list.validate());
  Value v = 0;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(list.read(static_cast<Key>(i * 37), v, 0)) << i;
    ASSERT_EQ(v, static_cast<Value>(i));
  }
}

TEST(HybridSkipList, SequentialMatchesReferenceModel) {
  hd::HybridSkipList list(hybrid_config());
  std::map<Key, Value> model;
  hu::Xoshiro256 rng(11);
  for (int i = 0; i < 20000; ++i) {
    Key k = static_cast<Key>(rng.next_below(4000) * 19);
    switch (rng.next_below(4)) {
      case 0: {
        Value v = static_cast<Value>(rng.next());
        EXPECT_EQ(list.insert(k, v, 0), model.emplace(k, v).second);
        break;
      }
      case 1:
        EXPECT_EQ(list.remove(k, 0), model.erase(k) > 0);
        break;
      case 2: {
        Value v = static_cast<Value>(rng.next());
        bool present = model.count(k) > 0;
        EXPECT_EQ(list.update(k, v, 0), present);
        if (present) model[k] = v;
        break;
      }
      default: {
        Value v = 0;
        auto it = model.find(k);
        ASSERT_EQ(list.read(k, v, 0), it != model.end()) << "key " << k;
        if (it != model.end()) { ASSERT_EQ(v, it->second); }
      }
    }
  }
  EXPECT_EQ(list.size(), model.size());
  EXPECT_TRUE(list.validate());
}

TEST(HybridSkipList, ConcurrentMixedWorkload) {
  hd::HybridSkipList list(hybrid_config(4));
  std::vector<std::thread> threads;
  std::atomic<long long> net[256] = {};
  for (std::uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      hu::Xoshiro256 rng(900 + t);
      for (int i = 0; i < 4000; ++i) {
        Key k = static_cast<Key>(rng.next_below(256)) * 769;
        switch (rng.next_below(3)) {
          case 0:
            if (list.insert(k, k, t)) net[k / 769].fetch_add(1);
            break;
          case 1:
            if (list.remove(k, t)) net[k / 769].fetch_sub(1);
            break;
          default: {
            Value v = 0;
            (void)list.read(k, v, t);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(list.validate());
  Value v = 0;
  for (int i = 0; i < 256; ++i) {
    const long long n = net[i].load();
    ASSERT_TRUE(n == 0 || n == 1);
    EXPECT_EQ(list.read(static_cast<Key>(i) * 769, v, 0), n == 1) << i;
  }
}

TEST(HybridSkipList, FrameWindowOpsCompleteCorrectly) {
  // Depth-4 Frame windows of _co ops (the pipelined §3.5 usage): inserts,
  // then reads checked against the inserted values, then removes.
  hd::HybridSkipList list(hybrid_config());
  constexpr std::size_t kN = 200;
  auto key_of = [](std::size_t i) { return static_cast<Key>(i + 1) * 11; };
  std::vector<bool> ok = ht::run_window(4, kN, [&](std::size_t i) {
    return list.insert_co(key_of(i), static_cast<Value>(i + 1), 0);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_TRUE(ok[i]) << i;
  EXPECT_EQ(list.size(), kN);
  EXPECT_TRUE(list.validate());

  std::vector<Value> vals(kN, 0);
  ok = ht::run_window(4, kN, [&](std::size_t i) {
    return list.read_co(key_of(i), &vals[i], 0);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_TRUE(ok[i]) << i;
    EXPECT_EQ(vals[i], static_cast<Value>(i + 1)) << i;
  }

  ok = ht::run_window(
      4, kN, [&](std::size_t i) { return list.remove_co(key_of(i), 0); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_TRUE(ok[i]) << i;
  EXPECT_EQ(list.size(), 0u);
}

TEST(HybridSkipList, UpdateRefreshesHostMirror) {
  // Insert until at least one tall node exists, then update all keys and
  // confirm reads (which may be served from the host mirror) see new values.
  hd::HybridSkipList list(hybrid_config());
  for (Key k = 1; k <= 500; ++k) ASSERT_TRUE(list.insert(k * 3, 1, 0));
  ASSERT_GT(list.host_size(), 0u);
  for (Key k = 1; k <= 500; ++k) ASSERT_TRUE(list.update(k * 3, 2, 0));
  Value v = 0;
  for (Key k = 1; k <= 500; ++k) {
    ASSERT_TRUE(list.read(k * 3, v, 0));
    ASSERT_EQ(v, 2u) << "host mirror must reflect updates (key " << k * 3 << ")";
  }
}
