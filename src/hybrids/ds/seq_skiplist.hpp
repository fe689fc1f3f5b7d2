// Partition-local sequential skiplist — the NMP-managed portion of the
// hybrid skiplist (§3.3) and the per-partition structure of the prior-work
// NMP-based skiplist baseline.
//
// Exactly one NMP core (combiner thread) ever touches an instance, so no
// internal synchronization is needed. What *is* needed is the paper's
// stale-begin-node detection: a removed node is first marked logically
// deleted, so an offloaded operation whose begin-NMP-traversal node was
// removed by an earlier-queued operation can detect the mark and request a
// host retry.
//
// Memory layout: nodes come from a per-partition bump+freelist arena
// (mem/arena.hpp) owned by this instance — single-owner, no locks, towers
// packed into contiguous 64B-aligned chunks. Removed nodes split into two
// retire classes:
//  - host_ptr == nullptr (short nodes): no host thread can ever hold a
//    reference — begin-NMP-traversal candidates are exclusively the payloads
//    of host-managed (tall) nodes — so their memory recycles through the
//    arena freelist immediately.
//  - host_ptr != nullptr (tall nodes): a host thread may still inspect the
//    node for stale-begin detection, so the memory is parked on retired_
//    until destruction, exactly the paper's never-reuse rule. Tall nodes are
//    a ~2^-nmp_height fraction of removals, so the parked set stays small.
//
// Versions are drawn from a per-list monotonic counter (next_version())
// rather than bumped per node: any two versions the host ever compares for
// one key are then totally ordered even across remove/re-insert of that key,
// which the hybrid's host mirror update relies on.
#pragma once

#include <cassert>
#include <cstdlib>
#include <new>
#include <vector>

#include "hybrids/mem/arena.hpp"
#include "hybrids/mem/memlayer.hpp"
#include "hybrids/types.hpp"
#include "hybrids/util/rng.hpp"

namespace hybrids::ds {

/// Draws a tower height from the paper's distribution: every node appears at
/// level 0; a node at level i appears at level i+1 with probability 1/2.
inline int random_height(util::Xoshiro256& rng, int max_height) {
  int h = 1;
  while (h < max_height && (rng.next() & 1) != 0) ++h;
  return h;
}

class SeqSkipList {
 public:
  static constexpr int kMaxLevels = 32;

  struct Node {
    Key key;
    Value value;
    std::uint32_t version;  // bumped on every update (host mirror ordering)
    std::uint16_t height;   // number of levels this node is linked at
    bool marked;            // logically deleted (stale-begin detection)
    void* host_ptr;         // host-side counterpart (null for short nodes)
    Node* next[1];         // flexible array: height slots

    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;
  };
  // Towers up to height 5 fit one 64-byte arena block, so a new node field
  // is a footprint decision.
  static_assert(sizeof(Node) + 4 * sizeof(Node*) <= mem::kMemAlign,
                "a height-5 SeqSkipList tower must fit one arena block");

  /// `max_height` is the number of NMP-managed levels (NMP_HEIGHT in the
  /// paper's pseudocode); for the non-hybrid NMP baseline it is the full
  /// skiplist height. The head sentinel spans all levels and compares below
  /// every key.
  explicit SeqSkipList(int max_height)
      : max_height_(max_height), head_(alloc_node(0, 0, max_height, nullptr)) {
    for (int i = 0; i < max_height; ++i) head_->next[i] = nullptr;
  }

  ~SeqSkipList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next[0];
      free_node(n);
      n = next;
    }
    for (Node* r : retired_) free_node(r);
  }

  SeqSkipList(const SeqSkipList&) = delete;
  SeqSkipList& operator=(const SeqSkipList&) = delete;

  int max_height() const { return max_height_; }
  Node* head() const { return head_; }
  std::size_t size() const { return size_; }

  /// Next value version, strictly greater than any previously issued by this
  /// list. Callers (the combiner apply paths) stamp it on every update,
  /// insert and remove, so host mirror writes for a key can never be
  /// re-ordered by a remove/re-insert of that key.
  std::uint32_t next_version() { return ++version_counter_; }

  /// Latest issued version (combiner-thread only, like next_version()). Read
  /// ops echo it to the host so cache fills carry a token totally ordered
  /// against every write version of this partition.
  std::uint32_t current_version() const { return version_counter_; }

  /// The partition's arena (test/introspection hook).
  const mem::PartitionArena& arena() const { return arena_; }

  /// True if `node` (a begin-NMP-traversal candidate captured by a host
  /// thread) has since been removed; the caller must then abort with a retry
  /// per §3.3. Only meaningful for nodes owned by this structure.
  static bool is_stale(const Node* node) { return node->marked; }

  /// Finds the node with `key`, starting the traversal at `begin` (which
  /// must span all max_height levels — the head sentinel or the counterpart
  /// of a host-managed node — and satisfy begin->key <= key, begin unmarked).
  /// Fills preds/succs (arrays of max_height entries) like the classic
  /// sequential skiplist find.
  Node* find(Key key, Node* begin, Node** preds, Node** succs) const {
    assert(!begin->marked);
    Node* pred = begin;
    Node* found = nullptr;
    for (int lvl = max_height_ - 1; lvl >= 0; --lvl) {
      Node* curr = pred->next[lvl];
      while (curr != nullptr) {
        // One-ahead prefetch: start pulling the successor's line while the
        // key compare on the current node resolves.
        Node* nxt = curr->next[lvl];
        mem::prefetch_read(nxt);
        if (curr->key >= key) break;
        pred = curr;
        curr = nxt;
      }
      preds[lvl] = pred;
      succs[lvl] = curr;
      if (found == nullptr && curr != nullptr && curr->key == key) found = curr;
      // Level-descent prefetch: pred's line is resident, its next-level
      // successor's is usually not yet.
      if (lvl > 0) mem::prefetch_read(pred->next[lvl - 1]);
    }
    return found;
  }

  /// Traversal finger for key-sorted batch application: the predecessor
  /// array of the most recent find_finger() call. A subsequent find for a
  /// key >= the remembered key resumes each level from the cached
  /// predecessor instead of walking down from `begin` — in an ascending
  /// batch the per-op search distance collapses to the key gap between
  /// consecutive operations.
  ///
  /// Validity: the cached preds all satisfy pred->key < remembered key (or
  /// are `begin`), so for any target key >= remembered key they are legal
  /// level starting points. The caller must apply operations in ascending
  /// key order between resets: ops after the snapshot only touch keys >= the
  /// remembered key, so no cached pred can have been unlinked (a removal's
  /// own preds — which exclude the removed node — overwrite the finger
  /// before any later op runs). find_finger relies on this and adopts
  /// cached preds without inspecting them.
  struct Finger {
    Node* preds[kMaxLevels];
    Key key = 0;
    bool valid = false;
    std::uint64_t hits = 0;  // finds that reused at least one cached pred
    void reset() { valid = false; }
  };

  /// find() variant that consults and then updates `fg`. Identical results
  /// to find(); only the traversal start points differ.
  Node* find_finger(Key key, Node* begin, Node** preds, Node** succs,
                    Finger& fg) const {
    assert(!begin->marked);
    const bool use = fg.valid && key >= fg.key;
    Node* pred = begin;
    Node* found = nullptr;
    bool moved = false;  // walk advanced past the cached position
    bool reused = false;
    for (int lvl = max_height_ - 1; lvl >= 0; --lvl) {
      if (use && !moved) {
        // Until the walk first advances, the carried-down pred is the cached
        // pred of the previous (smaller) key, and the deeper cached pred is
        // at least as close to the target — adopt it without inspecting it
        // (every cached pred is a legal start, see Finger). Once the walk
        // has moved, the carried pred sits at or past the cached key and the
        // cache can no longer help.
        pred = fg.preds[lvl];
        reused |= pred != begin;
      }
      Node* curr = pred->next[lvl];
      while (curr != nullptr) {
        Node* nxt = curr->next[lvl];
        mem::prefetch_read(nxt);
        if (curr->key >= key) break;
        pred = curr;
        curr = nxt;
        moved = true;
      }
      preds[lvl] = pred;
      succs[lvl] = curr;
      if (found == nullptr && curr != nullptr && curr->key == key) found = curr;
      if (lvl > 0) mem::prefetch_read(pred->next[lvl - 1]);
    }
    for (int lvl = 0; lvl < max_height_; ++lvl) fg.preds[lvl] = preds[lvl];
    fg.key = key;
    fg.valid = true;
    if (reused) ++fg.hits;
    return found;
  }

  /// Range scan: collects up to `max` live (key, value) pairs with key >=
  /// `start` into `out`, walking level 0 from the position located by find()
  /// (or find_finger() when `fg` is supplied — the batch path, so an
  /// ascending batch of scans resumes instead of re-descending). Returns the
  /// number of entries written; `*next` receives the first matching key NOT
  /// returned and `*has_more` whether such a key exists. Reachable level-0
  /// nodes are never marked (unlink marks before unlinking), so the walk
  /// only ever reports live keys.
  std::uint32_t scan(Key start, std::uint32_t max, Node* begin, ScanEntry* out,
                     Key* next, bool* has_more, Finger* fg = nullptr) const {
    Node* preds[kMaxLevels];
    Node* succs[kMaxLevels];
    if (fg != nullptr) {
      (void)find_finger(start, begin, preds, succs, *fg);
    } else {
      (void)find(start, begin, preds, succs);
    }
    Node* curr = succs[0];  // first node with key >= start
    std::uint32_t n = 0;
    while (curr != nullptr && n < max) {
      // Scan-continuation prefetch: pull the next level-0 node (and, on the
      // last entry of the chunk, the node the continuation key comes from)
      // while this entry is copied out.
      mem::prefetch_read(curr->next[0]);
      out[n].key = curr->key;
      out[n].value = curr->value;
      ++n;
      curr = curr->next[0];
    }
    *has_more = curr != nullptr;
    *next = curr != nullptr ? curr->key : 0;
    return n;
  }

  /// Read: returns the node holding `key` (or null). The caller extracts
  /// value/host_ptr as needed.
  Node* read(Key key, Node* begin) const {
    Node* pred = begin;
    for (int lvl = max_height_ - 1; lvl >= 0; --lvl) {
      Node* curr = pred->next[lvl];
      while (curr != nullptr) {
        Node* nxt = curr->next[lvl];
        mem::prefetch_read(nxt);
        if (curr->key >= key) break;
        pred = curr;
        curr = nxt;
      }
      if (curr != nullptr && curr->key == key) return curr;
      if (lvl > 0) mem::prefetch_read(pred->next[lvl - 1]);
    }
    return nullptr;
  }

  /// Insert result: `node` is the newly created (or pre-existing) node;
  /// `existed` tells which.
  struct InsertResult {
    Node* node;
    bool existed;
  };

  /// Links a new (key, value) node into position given the preds/succs of a
  /// find for `key` that came back empty. Height is clamped to max_height;
  /// links bottom-up. Shared by insert() and the batch-apply path (which
  /// locates via find_finger).
  Node* link(Key key, Value value, int height, void* host_ptr, Node** preds,
             Node** succs) {
    if (height > max_height_) height = max_height_;
    assert(height >= 1);
    Node* node = alloc_node(key, value, height, host_ptr);
    for (int lvl = 0; lvl < height; ++lvl) {
      node->next[lvl] = succs[lvl];
      preds[lvl]->next[lvl] = node;
    }
    ++size_;
    return node;
  }

  /// Unlinks `found` (located by a find for its key that filled `preds`):
  /// marks it logically deleted first (§3.3 stale-begin detection) and
  /// unlinks every level. Short nodes (host_ptr == nullptr) are recycled
  /// through the arena on the spot — no host thread can hold a reference to
  /// them (see the retire-class note at the top of this file). Tall nodes
  /// are parked on retired_ until destruction so stale host references
  /// remain valid to *inspect*. Shared by remove() and the batch-apply path.
  void unlink(Node* found, Node** preds) {
    found->marked = true;  // logical deletion first (§3.3)
    for (int lvl = found->height - 1; lvl >= 0; --lvl) {
      if (preds[lvl]->next[lvl] == found) preds[lvl]->next[lvl] = found->next[lvl];
    }
    --size_;
    if (found->host_ptr == nullptr) {
      free_node(found);
    } else {
      retired_.push_back(found);
    }
  }

  /// Inserts (key, value) with `height` NMP-side levels (clamped to
  /// max_height), linking bottom-up. `host_ptr` is the host counterpart for
  /// tall nodes (null otherwise).
  InsertResult insert(Key key, Value value, int height, void* host_ptr,
                      Node* begin) {
    Node* preds[kMaxLevels];
    Node* succs[kMaxLevels];
    if (Node* found = find(key, begin, preds, succs)) {
      return {found, true};
    }
    return {link(key, value, height, host_ptr, preds, succs), false};
  }

  /// Removes `key` if present (see unlink for the retire semantics).
  bool remove(Key key, Node* begin) {
    Node* preds[kMaxLevels];
    Node* succs[kMaxLevels];
    Node* found = find(key, begin, preds, succs);
    if (found == nullptr) return false;
    unlink(found, preds);
    return true;
  }

  /// Checks the skiplist property: nodes at level i are a subset of nodes at
  /// level i-1, keys strictly ascend at every level, and no reachable node
  /// is marked. For tests.
  bool validate() const {
    for (int lvl = 0; lvl < max_height_; ++lvl) {
      Key prev = 0;
      bool first = true;
      for (Node* n = head_->next[lvl]; n != nullptr; n = n->next[lvl]) {
        if (n->marked) return false;
        if (n->height <= lvl) return false;
        if (!first && n->key <= prev) return false;
        first = false;
        prev = n->key;
        if (lvl > 0) {
          // Subset property: n must be reachable at lvl-1.
          bool seen = false;
          for (Node* m = head_->next[lvl - 1]; m != nullptr; m = m->next[lvl - 1]) {
            if (m == n) {
              seen = true;
              break;
            }
          }
          if (!seen) return false;
        }
      }
    }
    return true;
  }

 private:
  static std::size_t node_bytes(int height) {
    const std::size_t bytes =
        sizeof(Node) + static_cast<std::size_t>(height - 1) * sizeof(Node*);
    return bytes < sizeof(Node) ? sizeof(Node) : bytes;
  }

  Node* alloc_node(Key key, Value value, int height, void* host_ptr) {
    Node* n = static_cast<Node*>(arena_.allocate(node_bytes(height)));
    n->key = key;
    n->value = value;
    n->version = 0;
    n->height = static_cast<std::uint16_t>(height);
    n->marked = false;
    n->host_ptr = host_ptr;
    return n;
  }

  void free_node(Node* n) { arena_.deallocate(n, node_bytes(n->height)); }

  mem::PartitionArena arena_;  // declared before head_: alloc_node needs it
  int max_height_;
  Node* head_;
  std::size_t size_ = 0;
  std::uint32_t version_counter_ = 0;
  std::vector<Node*> retired_;
};

}  // namespace hybrids::ds
