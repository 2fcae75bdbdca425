//===- support/ConcurrentSet.h - Pruning containers ------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pruning containers behind the synthesis search
/// (synth/OrderUpdate.cpp): a paged direct-indexed atomic bitmap and a
/// striped open-addressed hash set for the visited (V) configurations,
/// and a watch-list–indexed wrong-set (W) for counterexample
/// constraints. All hold *monotone* state — entries are only ever added,
/// never modified or removed during a search — which is what makes
/// sharing them across DFS shards sound: a V claim or a W constraint
/// mined on one shard is a fact about the problem instance, valid for
/// every other shard the moment it becomes visible.
///
/// ClaimBitmap::claim and ConcurrentSet::insert are the claim operation
/// of every search, one shard or many: exactly one caller receives true
/// per value, so two shards reaching the same intermediate configuration
/// agree on which of them explores the subtree below it (the other
/// prunes). Which of the two a search uses depends only on the width of
/// its op universe: the bitmap serves up to ClaimBitmap::MaxBits ops,
/// the set wider ones.
///
/// WatchedWrongSet replaces a scan-the-whole-list W set. Each (Mask,
/// Value) constraint is filed under the first set bit of Value; probing
/// a configuration walks only the buckets of its set bits, so seeded
/// constraint stores are consulted O(relevant) instead of O(all) — and
/// the probe takes no lock at all (buckets are lock-free push lists).
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_SUPPORT_CONCURRENTSET_H
#define NETUPD_SUPPORT_CONCURRENTSET_H

#include "obs/Metrics.h"
#include "support/Bitset.h"
#include "support/ThreadAnnotations.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace netupd {

/// A lock-free claim set over the indices [0, 2^NumBits): one bit per
/// index in atomic words, so a claim is a load and at most one fetch_or,
/// with no hashing, probing, or locking. The search indexes it by the
/// configuration word (bit i = op i applied), which is why NumBits is
/// capped at MaxBits: 2^24 bits is 2 MB.
///
/// The bits live in fixed-size pages allocated on first touch, so memory
/// and reset() cost follow the configurations a search reaches rather
/// than 2^NumBits: a search that visits a handful of configurations in a
/// 24-op universe zeroes a handful of pages, not 2 MB. A page is
/// installed by CAS; the loser of a race frees its page and uses the
/// winner's.
class ClaimBitmap {
public:
  static constexpr size_t MaxBits = 24;

  ClaimBitmap() = default;
  ~ClaimBitmap() { freePages(); }
  ClaimBitmap(const ClaimBitmap &) = delete;
  ClaimBitmap &operator=(const ClaimBitmap &) = delete;

  /// Re-shapes for \p NumBits-bit indices, all unclaimed. At an
  /// unchanged width the installed pages are zeroed and kept (budget mode
  /// resets once per unit). Not thread-safe; call before the search fans
  /// out.
  void reset(size_t NumBits) {
    assert(NumBits <= MaxBits && "configuration space too wide to index");
    if (Pages && NumBits == Bits) {
      // relaxed: reset is documented single-threaded; no concurrent users.
      for (size_t P = 0; P != NumPages; ++P)
        if (Word *Pg = Pages[P].load(std::memory_order_relaxed))
          for (size_t W = 0; W != PageWords; ++W)
            Pg[W].store(0, std::memory_order_relaxed);
      return;
    }
    freePages();
    Bits = NumBits;
    size_t Words = ((size_t(1) << NumBits) + 63) / 64;
    PageWords = std::min(Words, MaxPageWords);
    PageShift = static_cast<unsigned>(__builtin_ctzll(PageWords * 64));
    NumPages = Words / PageWords;
    // Value-initialized: every page pointer starts null.
    Pages = std::make_unique<std::atomic<Word *>[]>(NumPages);
  }

  /// Claims \p Index; returns true for exactly one caller per index
  /// across all threads. The old bit fetch_or returns decides the claim;
  /// acq_rel gives it the same ordering as ConcurrentSet::insert's stripe
  /// lock. Bits are only ever set, so a plain load that already sees the
  /// bit is a lost claim without the read-modify-write — and most claims
  /// in an exhaustive search are lost.
  bool claim(uint64_t Index) {
    Word *Pg = Pages[Index >> PageShift].load(std::memory_order_acquire);
    if (!Pg)
      Pg = install(Index >> PageShift);
    Word &W = Pg[(Index / 64) & (PageWords - 1)];
    uint64_t Bit = uint64_t(1) << (Index % 64);
    if (W.load(std::memory_order_acquire) & Bit)
      return false;
    return (W.fetch_or(Bit, std::memory_order_acq_rel) & Bit) == 0;
  }

private:
  using Word = std::atomic<uint64_t>;
  /// 512 words (4 KiB) per page: 512 pages at MaxBits.
  static constexpr size_t MaxPageWords = 512;

  /// Publishes a zeroed page at \p P, or adopts the one a racing claim
  /// published first. Release on success orders the zeroing before any
  /// acquire load that sees the pointer.
  Word *install(size_t P) {
    // Value-initialized: every word starts at zero.
    std::unique_ptr<Word[]> Fresh = std::make_unique<Word[]>(PageWords);
    Word *Seen = nullptr;
    if (Pages[P].compare_exchange_strong(Seen, Fresh.get(),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire))
      return Fresh.release();
    return Seen; // Lost the race: Fresh frees itself.
  }

  void freePages() {
    // relaxed: destruction and reset are single-threaded by contract.
    for (size_t P = 0; P != NumPages; ++P)
      delete[] Pages[P].load(std::memory_order_relaxed);
    Pages.reset();
    NumPages = 0;
  }

  std::unique_ptr<std::atomic<Word *>[]> Pages;
  size_t NumPages = 0;
  size_t PageWords = 0;
  unsigned PageShift = 0;
  size_t Bits = 0;
};

/// A thread-safe grow-only hash set: 64 lock stripes, each guarding an
/// open-addressed slot table. One hash computation and one mutex
/// acquisition per operation; linear probing touches a handful of
/// contiguous slots instead of chasing unordered_set buckets, and
/// insert-only semantics mean the table never tombstones. The hash is
/// run through fmix64 once, the stripe taken from its high bits and the
/// home slot from its low bits, so the two choices are independent and
/// even an identity std::hash spreads over stripes and slots.
///
/// Lock acquisitions on the probe/claim path feed the
/// synth.vset_lock_ns wait histogram when the obs detail tier is on —
/// and cost one relaxed load when it is off.
template <typename T, typename Hash = std::hash<T>> class ConcurrentSet {
public:
  /// Inserts \p V; returns true iff it was not already present. The
  /// true-return is unique per value across all threads (the claim).
  bool insert(const T &V) {
    size_t H = fmix64(Hash()(V));
    Stripe &S = stripeFor(H);
    obs::timedLock(S.M, lockWait());
    MutexLock Lock(S.M, std::adopt_lock);
    return S.insert(H, V);
  }

  /// Empties the set, keeping every stripe's slots and the value
  /// buffers inside them for reuse by the next fill (budget mode clears
  /// once per unit).
  void clear() {
    for (Stripe &S : Stripes) {
      MutexLock Lock(S.M);
      for (Slot &Sl : S.Slots)
        Sl.Used = false;
      S.Count = 0;
    }
  }

private:
  static constexpr unsigned StripeBits = 6;
  static constexpr unsigned NumStripes = 1u << StripeBits;

  struct Slot {
    size_t H = 0;
    bool Used = false;
    T Value{};
  };

  struct Stripe {
    Mutex M;
    std::vector<Slot> Slots NETUPD_GUARDED_BY(M);
    size_t Count NETUPD_GUARDED_BY(M) = 0;

    bool insert(size_t H, const T &V) NETUPD_REQUIRES(M) {
      if (Slots.size() < 16 || Count * 10 >= Slots.size() * 7)
        grow();
      size_t Mask = Slots.size() - 1;
      for (size_t I = H & Mask;; I = (I + 1) & Mask) {
        Slot &S = Slots[I];
        if (!S.Used) {
          S.H = H;
          S.Used = true;
          S.Value = V;
          ++Count;
          return true;
        }
        if (S.H == H && S.Value == V)
          return false;
      }
    }

    void grow() NETUPD_REQUIRES(M) {
      size_t NewSize = Slots.empty() ? 16 : Slots.size() * 2;
      std::vector<Slot> Old = std::move(Slots);
      Slots.assign(NewSize, Slot{});
      size_t Mask = NewSize - 1;
      for (Slot &S : Old) {
        if (!S.Used)
          continue;
        size_t I = S.H & Mask;
        while (Slots[I].Used)
          I = (I + 1) & Mask;
        Slots[I] = std::move(S);
      }
    }
  };

  // The top bits: the slot index uses the bottom ones.
  static size_t stripeIndex(size_t H) {
    return static_cast<uint64_t>(H) >> (64 - StripeBits);
  }
  Stripe &stripeFor(size_t H) { return Stripes[stripeIndex(H)]; }

  static obs::Histogram &lockWait() {
    static obs::Histogram &H =
        obs::MetricsRegistry::instance().histogram("synth.vset_lock_ns");
    return H;
  }

  Stripe Stripes[NumStripes];
};

/// The wrong-set: counterexample constraints (Mask, Value) meaning "any
/// configuration C with (C & Mask) == Value is refuted". Probes are
/// lock-free and watch-list–indexed; appends are lock-free CAS pushes.
///
/// Indexing invariant: a constraint can only match C if Value ⊆ C (a
/// set bit of Value that C lacks fails the equality). So each
/// constraint is filed under the *first set bit* of its Value, and
/// matches(C) walks only the buckets of C's set bits — every matching
/// constraint's watch bit is set in C, so the probe is complete.
/// Constraints with an all-zero Value (which match everything with
/// Bits∩Mask=∅; the search's learner never emits them but seeds could)
/// go to an always-scanned fallback list.
class WatchedWrongSet {
public:
  WatchedWrongSet() = default;
  ~WatchedWrongSet() { destroy(); }

  WatchedWrongSet(const WatchedWrongSet &) = delete;
  WatchedWrongSet &operator=(const WatchedWrongSet &) = delete;

  /// Drops all constraints and re-shapes for \p NumBits-wide
  /// configurations. Not thread-safe; call before the search fans out.
  void reset(size_t NumBits) {
    destroy();
    Buckets = std::vector<std::atomic<Node *>>(NumBits);
    // relaxed: reset is documented single-threaded; no concurrent readers.
    for (auto &B : Buckets)
      B.store(nullptr, std::memory_order_relaxed);
    Fallback.store(nullptr, std::memory_order_relaxed);
    Count.store(0, std::memory_order_relaxed);
  }

  /// Adds a constraint. Thread-safe, lock-free, monotone.
  void add(Bitset Mask, Bitset Value) {
    // lint: naked-new-ok — lock-free CAS push list; nodes are owned by the
    // intrusive bucket chains and reclaimed in destroy().
    Node *N = new Node{std::move(Mask), std::move(Value), nullptr};
    size_t B = N->Value.firstSetBit();
    std::atomic<Node *> &Head =
        B < Buckets.size() ? Buckets[B] : Fallback;
    // relaxed: the CAS loop re-reads Next on failure; only the successful
    // release publish orders the node's payload for acquire readers.
    N->Next = Head.load(std::memory_order_relaxed);
    while (!Head.compare_exchange_weak(N->Next, N, std::memory_order_release,
                                       std::memory_order_relaxed)) {
    }
    // relaxed: Count is an advisory size for reserve(); no ordering needed.
    Count.fetch_add(1, std::memory_order_relaxed);
  }

  /// True if some constraint refutes \p Bits. Lock-free; probes only
  /// the watch buckets of Bits's set bits (plus the fallback list).
  bool matches(const Bitset &Bits) const {
    for (size_t W = 0, NW = Bits.numWords(); W != NW; ++W) {
      uint64_t Word = Bits.word(W);
      while (Word != 0) {
        size_t B = W * 64 + static_cast<size_t>(__builtin_ctzll(Word));
        Word &= Word - 1;
        if (B < Buckets.size() && listMatches(Buckets[B], Bits))
          return true;
      }
    }
    return listMatches(Fallback, Bits);
  }

  // relaxed: advisory count; callers only use it to pre-size buffers.
  size_t size() const { return Count.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }

  /// A copy of the current constraints; the cross-job learning export
  /// uses it after every appender has joined, but a mid-flight snapshot
  /// is safe too (it sees some monotone prefix of the adds).
  std::vector<std::pair<Bitset, Bitset>> snapshot() const {
    std::vector<std::pair<Bitset, Bitset>> Out;
    Out.reserve(size());
    auto Walk = [&](const std::atomic<Node *> &Head) {
      for (Node *N = Head.load(std::memory_order_acquire); N; N = N->Next)
        Out.emplace_back(N->Mask, N->Value);
    };
    for (const auto &B : Buckets)
      Walk(B);
    Walk(Fallback);
    return Out;
  }

private:
  struct Node {
    Bitset Mask;
    Bitset Value;
    Node *Next;
  };

  static bool listMatches(const std::atomic<Node *> &Head,
                          const Bitset &Bits) {
    for (const Node *N = Head.load(std::memory_order_acquire); N;
         N = N->Next) {
      // (Bits & Mask) == Value, word-wise to avoid a temporary.
      bool Match = true;
      for (size_t W = 0, NW = Bits.numWords(); W != NW; ++W) {
        if ((Bits.word(W) & N->Mask.word(W)) != N->Value.word(W)) {
          Match = false;
          break;
        }
      }
      if (Match)
        return true;
    }
    return false;
  }

  void destroy() {
    // relaxed: destruction is single-threaded by contract (all appenders
    // and probers have joined before ~WatchedWrongSet / reset()).
    auto Free = [](std::atomic<Node *> &Head) {
      Node *N = Head.load(std::memory_order_relaxed);
      while (N) {
        Node *Next = N->Next;
        delete N;
        N = Next;
      }
      Head.store(nullptr, std::memory_order_relaxed); // relaxed: same contract
    };
    for (auto &B : Buckets)
      Free(B);
    Free(Fallback);
  }

  std::vector<std::atomic<Node *>> Buckets;
  std::atomic<Node *> Fallback{nullptr};
  std::atomic<size_t> Count{0};
};

} // namespace netupd

#endif // NETUPD_SUPPORT_CONCURRENTSET_H
