//===- synth/OrderUpdate.cpp - The ORDERUPDATE algorithm -------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
//
// The search is factored into two layers so one code path serves both the
// sequential and the sharded mode:
//
//  - SearchContext: everything shared across shards — the op table, the
//    shared PruneState (V claims, W refutations, SAT layer), global
//    budgets, the top-level work-unit counter, and the winner slot. All
//    of it is either immutable after setup or monotone (V claims, W
//    entries, SAT clauses, stop flags only ever accumulate), which is why
//    sharing is sound: a prune learned anywhere holds everywhere.
//
//  - ShardSearcher: everything one shard owns — a private KripkeStructure
//    it mutates and rolls back, a private CheckerBackend following that
//    structure, the Applied bitset/sequence, and local statistics. The
//    LIFO mutate/recheck/rollback discipline the backends (and the
//    MemoizingChecker sync-depth machine) assume is therefore preserved
//    per shard by construction.
//
// Work units are depth-one prefixes: candidate first operation i roots
// unit i, and shards pull units from an atomic cursor. Depth one matters
// for the V-claim discipline — distinct first ops give distinct depth-1
// configurations, so no unit's root can be claimed (and wrongly skipped)
// by a shard working a different unit. Below depth one, claims are what
// make concurrent exploration exhaustive-without-duplication: the one
// shard that wins the insert explores the subtree, every other shard
// prunes, and since all units complete before a verdict is reached, every
// skipped subtree has been fully explored by its claimant.
//
// A shard that runs out of units simply retires. The split needs no
// finer-grained balancing: sibling units overlap heavily (a configuration
// with k applied ops is reachable from up to k depth-one roots), so the
// shards still working claim and prune against everything the others
// explored and learned.
//
// Deterministic budget mode (a finite MaxCheckCalls/UnitCheckCalls)
// trades the shared pruning state for reproducibility: cross-shard
// sharing makes *which* prefixes a unit explores depend on sibling
// timing, which is fine when every unit runs to completion (the verdict
// is exhaustion-stable) but fatal when a budget truncates units — the
// same job could then Abort or Succeed depending on shard layout. So
// under a budget each searcher owns a private, never-sharded PruneState
// that it resets at every unit start, and each unit draws a fixed quota
// from the BudgetLedger (support/Budget.h), making a unit's outcome —
// Success with a specific sequence, exhausted quota, or fully-explored
// failure — a pure function of (instance, quota). The prune block is the
// same in both modes; only the PruneState it consults differs. The
// winner is the lowest-indexed successful unit, not the first in time,
// so the returned sequence is deterministic too, and a run that exhausts
// no unit returns exactly the unlimited sequential search's result (the
// shared state only ever skips subtrees that hold no first success). The
// wall clock never interrupts a unit: TimeoutSeconds is polled only
// between units (everywhere, not just in budget mode). The duplicated
// cross-unit exploration this costs is the price of byte-identical
// verdicts at any shard and worker count.
//
//===----------------------------------------------------------------------===//

#include "synth/OrderUpdate.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Bitset.h"
#include "support/Budget.h"
#include "support/ConcurrentSet.h"
#include "support/Timer.h"
#include "synth/EarlyTermination.h"
#include "synth/WaitRemoval.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

using namespace netupd;

namespace {

/// Sorts \p V and drops its duplicates.
template <typename T> void sortUnique(std::vector<T> &V) {
  std::sort(V.begin(), V.end());
  V.erase(std::unique(V.begin(), V.end()), V.end());
}

/// Per-call mutate/rollback latency (applySwitchUpdate and undo both
/// feed it), alive only under the obs detail tier.
obs::Histogram &mutateLatency() {
  static obs::Histogram &H =
      obs::MetricsRegistry::instance().histogram("synth.mutate_ns");
  return H;
}

/// A running phase timeline for one shard: every switchTo(Acc) reads
/// the clock once, attributing the elapsed slice to the *previous*
/// phase, and switching to the phase already open is free. One clock
/// spans the whole unit (the recursion included), so a run of
/// consecutive pruned candidates — the bulk of a deep exhaustive proof —
/// extends one open "prune" slice with zero clock reads; only real
/// phase transitions pay. Against a scoped timer per phase (two reads
/// each), a full candidate costs ~4 reads and a pruned one none — the
/// reads were the dominant share of the metrics tier's 43% overhead on
/// prune-heavy workloads. Inert when unarmed.
class PhaseClock {
public:
  explicit PhaseClock(bool Armed) : On(Armed) {}
  ~PhaseClock() { stop(); }
  PhaseClock(const PhaseClock &) = delete;
  PhaseClock &operator=(const PhaseClock &) = delete;

  /// Closes the current phase slice into its accumulator and opens a new
  /// one into \p Acc. Returns the closed slice's duration (0 unarmed or
  /// when \p Acc is already the open phase — callers that use the
  /// duration always switch to a *different* phase).
  uint64_t switchTo(uint64_t &Acc) {
    if (!On || Cur == &Acc)
      return 0;
    uint64_t Now = obs::nowNs();
    uint64_t D = Cur ? Now - Last : 0;
    if (Cur)
      *Cur += D;
    Last = Now;
    Cur = &Acc;
    return D;
  }

  /// Closes the current slice without opening a new one (e.g. before
  /// recursing — the child runs its own timeline). Returns its duration.
  uint64_t stop() {
    if (!On || !Cur)
      return 0;
    uint64_t Now = obs::nowNs();
    uint64_t D = Now - Last;
    *Cur += D;
    Last = Now;
    Cur = nullptr;
    return D;
  }

private:
  bool On;
  uint64_t Last = 0;
  uint64_t *Cur = nullptr;
};

/// One search operation: replace switch Sw's whole table (ClassIdx = -1,
/// switch granularity) or only its rules for one traffic class
/// (rule granularity).
struct MicroOp {
  SwitchId Sw = 0;
  int ClassIdx = -1;
};

/// True if \p R can apply to packets of class \p Hdr (every constrained
/// field agrees).
bool ruleBelongsToClass(const Rule &R, const Header &Hdr) {
  for (unsigned I = 0; I != NumFields; ++I) {
    const std::optional<uint32_t> &V = R.Pat.Values[I];
    if (V && *V != Hdr.Values[I])
      return false;
  }
  return true;
}

/// The rules of \p T restricted to class \p Hdr.
std::vector<Rule> classSlice(const Table &T, const Header &Hdr) {
  std::vector<Rule> Out;
  for (const Rule &R : T.rules())
    if (ruleBelongsToClass(R, Hdr))
      Out.push_back(R);
  return Out;
}

/// The table resulting from firing one op on \p Current: the whole final
/// table (switch granularity), or Current with one class's slice replaced
/// by the final slice (rule granularity).
Table opResultTable(const Table &Current, const Table &FinalT,
                    const Header *ClassHdr) {
  if (!ClassHdr)
    return FinalT;
  std::vector<Rule> Rules;
  for (const Rule &R : Current.rules())
    if (!ruleBelongsToClass(R, *ClassHdr))
      Rules.push_back(R);
  for (const Rule &R : FinalT.rules())
    if (ruleBelongsToClass(R, *ClassHdr))
      Rules.push_back(R);
  return Table(std::move(Rules));
}

/// The pruning state of Fig. 4 behind one type: the V claim, the W
/// refutations, and the early-termination SAT layer. The search context
/// owns the instance every shard shares; in deterministic budget mode
/// each searcher owns a private one it resets per unit (see the file
/// comment). tryCandidate, learnCex, and the ET check run unchanged
/// against whichever instance their searcher points at.
class PruneState {
public:
  /// Drops every claim, refutation, and SAT clause and re-shapes for
  /// \p NumOps-wide configurations; the ET stop token stays installed.
  /// The V claim is chosen by width alone, the same for one shard, many,
  /// or a budget unit: Claims, one fetch_or per claim, whenever the op
  /// universe fits ClaimBitmap::MaxBits, else the striped Visited. W is
  /// one watch-indexed container for every search: its probes and CAS
  /// appends are lock-free. Not thread-safe: call before any prober runs.
  void reset(size_t NumOps) {
    Direct = NumOps <= ClaimBitmap::MaxBits;
    if (Direct)
      Claims.reset(NumOps);
    else
      Visited.clear();
    Wrong.reset(NumOps);
    ET.reset();
  }

  /// The claim: true for exactly one caller per configuration.
  bool claim(const Bitset &B) {
    return Direct ? Claims.claim(B.word(0)) : Visited.insert(B);
  }

  /// W of Fig. 4: (mask, value) refutations, filed under the first set
  /// bit of value so a probe touches only entries that could match
  /// (ConcurrentSet.h).
  WatchedWrongSet Wrong;
  /// Internally synchronized, so the shared instance serves every shard.
  EarlyTermination ET;

private:
  bool Direct = false;
  ClaimBitmap Claims;
  ConcurrentSet<Bitset, BitsetHash> Visited;
};

/// Shard-shared state of one synthesis run; see the file comment.
struct SearchContext {
  SearchContext(const Topology &Topo, const Config &Initial,
                const Config &Final,
                const std::vector<TrafficClass> &Classes, Formula Phi,
                const SynthOptions &Opts)
      : Topo(Topo), Initial(Initial), Final(Final), Classes(Classes),
        Phi(Phi), Opts(Opts) {}

  const Topology &Topo;
  const Config &Initial;
  const Config &Final;
  const std::vector<TrafficClass> &Classes;
  Formula Phi;
  const SynthOptions &Opts;

  // Immutable after buildOps(); shards read freely.
  std::vector<MicroOp> Ops;
  std::vector<unsigned> OpOrder; // DFS candidate order (adds first).
  std::vector<std::vector<unsigned>> SwitchOps; // Switch -> op indices.

  /// True when a finite check budget engaged deterministic budget mode
  /// (see the file comment): every searcher prunes against its own
  /// unit-scoped PruneState (Prune below sits unused), quotas come from
  /// Ledger, and the winner is the lowest successful unit. Decided before
  /// any searcher runs.
  bool Deterministic = false;
  /// The per-unit carve of the check budget; unlimited when
  /// !Deterministic.
  BudgetLedger Ledger;

  /// The shared pruning state; reset() once the shard count is known,
  /// before any searcher runs.
  PruneState Prune;

  /// Wrong-set entries imported from the cross-job ConstraintStore:
  /// filled before any searcher runs and immutable afterwards. The
  /// watch-list indexing is what keeps large seeded stores cheap to
  /// consult: a probe walks only the entries watching one of the
  /// configuration's set bits, O(relevant) instead of O(all). Always
  /// empty in deterministic budget mode, which never imports (see
  /// runSearch).
  WatchedWrongSet SeedWrong;
  /// True when this run publishes its learned entries on retirement;
  /// budget-mode searchers then journal their unit-scoped entries for the
  /// export instead of dropping them with the unit.
  bool ExportLearning = false;

  // Cancellation and abort-cause bookkeeping. The wall clock only
  // matters between work units (soft hint); check budgets are accounted
  // per unit through Ledger, so there is no shared call counter left.
  Timer Clock;
  /// Fired by the first shard to complete a sequence; siblings abandon
  /// their frontier at the next checkpoint. Never fired in deterministic
  /// budget mode, where a later-found lower unit may still outrank the
  /// current winner (see recordWinner).
  StopSource Found;
  /// Fired on any abort (budget, external stop, SAT impossibility) so
  /// sibling shards stop promptly instead of re-deriving the condition.
  /// Whoever fires it records the cause flag first, so a shard stopped
  /// by Halt never needs to guess why.
  StopSource Halt;
  /// Abort causes, kept separate so verdicts and stats never conflate a
  /// user cancellation with a budget decision (or either with a race
  /// loss, which sets no flag at all).
  std::atomic<bool> ExternalAbort{false};
  std::atomic<bool> WallAbort{false};
  /// Deterministic mode's per-unit accounting: the quota each unit spent
  /// and whether it ran dry mid-subtree (then the exploration was
  /// truncated and exhaustion cannot be claimed). Sized before the
  /// shards start; each slot is written only by the shard that ran its
  /// unit and read after every shard joined.
  struct UnitCharge {
    uint64_t Spent = 0;
    bool Truncated = false;
  };
  std::vector<UnitCharge> UnitCharges;
  std::atomic<bool> EtImpossible{false};

  /// Winner slot. Non-budget mode: first completed sequence in time
  /// wins and fires Found. Deterministic mode: the *lowest-indexed*
  /// successful unit wins — a pure function of the instance — and
  /// BestUnit lets shards abandon outranked units without a stop token.
  Mutex WinnerM;
  bool HaveWinner NETUPD_GUARDED_BY(WinnerM) = false;
  size_t WinnerUnit NETUPD_GUARDED_BY(WinnerM) = SIZE_MAX;
  std::vector<unsigned> WinnerSeq NETUPD_GUARDED_BY(WinnerM);
  std::atomic<size_t> BestUnit{SIZE_MAX};

  /// The next top-level work unit (an index into OpOrder) to explore.
  std::atomic<size_t> NextUnit{0};

  void buildOps();

  /// The token every shard polls: external cancellation, a sibling's
  /// success, or a global abort.
  StopToken stopToken() const {
    return anyToken(anyToken(Opts.Stop, Found.token()), Halt.token());
  }

  /// True when the soft wall-clock hint has expired; polled only between
  /// work units, never inside one.
  bool softWallExpired() const {
    return Opts.TimeoutSeconds > 0.0 &&
           Clock.seconds() > Opts.TimeoutSeconds;
  }

  void recordWinner(size_t Unit, const std::vector<unsigned> &Seq) {
    {
      MutexLock Lock(WinnerM);
      if (!HaveWinner || (Deterministic && Unit < WinnerUnit)) {
        HaveWinner = true;
        WinnerUnit = Unit;
        WinnerSeq = Seq;
        // relaxed: an advisory bound shards use to abandon outranked
        // units early; the authoritative winner lives under WinnerM.
        BestUnit.store(Unit, std::memory_order_relaxed);
      }
    }
    if (!Deterministic)
      Found.requestStop();
  }

  /// Totals UnitCharges over the units that decide the outcome: every
  /// unit, or only those up to the winner when there is one. A unit
  /// above the winner ran only as far as its shard got before the win
  /// propagated, which is timing, not instance: a 1-shard run never
  /// starts it. Every unit up to the winner runs to its own conclusion.
  void chargeTotals(uint64_t &Spent, uint64_t &Exhausted) {
    size_t End = UnitCharges.size();
    {
      MutexLock Lock(WinnerM);
      if (HaveWinner)
        End = std::min(End, WinnerUnit + 1);
    }
    Spent = Exhausted = 0;
    for (size_t U = 0; U != End; ++U) {
      Spent += UnitCharges[U].Spent;
      Exhausted += UnitCharges[U].Truncated;
    }
  }

  /// The winner slot under WinnerM, copied out in one critical section —
  /// the runSearch tail uses this instead of reading HaveWinner /
  /// WinnerSeq bare (safe only by the thread-join happens-before, which
  /// the static analysis rightly refuses to assume).
  bool winnerSnapshot(std::vector<unsigned> &SeqOut) {
    MutexLock Lock(WinnerM);
    if (!HaveWinner)
      return false;
    SeqOut = WinnerSeq;
    return true;
  }
};

void SearchContext::buildOps() {
  SwitchOps.assign(Topo.numSwitches(), {});
  for (SwitchId Sw : diffSwitches(Initial, Final)) {
    if (!Opts.RuleGranularity) {
      SwitchOps[Sw].push_back(static_cast<unsigned>(Ops.size()));
      Ops.push_back(MicroOp{Sw, -1});
      continue;
    }
    // Rule granularity: one op per traffic class whose slice changes.
    // Rules outside every class (none in the generated workloads) fall
    // back to a whole-switch op so the final table is always reached.
    bool Residue = false;
    for (const Rule &R : Initial.table(Sw).rules()) {
      bool InSomeClass = false;
      for (const TrafficClass &C : Classes)
        InSomeClass |= ruleBelongsToClass(R, C.Hdr);
      Residue |= !InSomeClass;
    }
    for (const Rule &R : Final.table(Sw).rules()) {
      bool InSomeClass = false;
      for (const TrafficClass &C : Classes)
        InSomeClass |= ruleBelongsToClass(R, C.Hdr);
      Residue |= !InSomeClass;
    }
    if (Residue) {
      SwitchOps[Sw].push_back(static_cast<unsigned>(Ops.size()));
      Ops.push_back(MicroOp{Sw, -1});
      continue;
    }
    for (unsigned C = 0; C != Classes.size(); ++C) {
      if (classSlice(Initial.table(Sw), Classes[C].Hdr) ==
          classSlice(Final.table(Sw), Classes[C].Hdr))
        continue;
      SwitchOps[Sw].push_back(static_cast<unsigned>(Ops.size()));
      Ops.push_back(MicroOp{Sw, static_cast<int>(C)});
    }
  }

  // Candidate order heuristic: try purely-additive ops first (installing
  // rules on switches that carry none for the affected scope) — those are
  // the safe "unreachable switch" updates the paper's §2 discussion
  // performs first. Completeness is unaffected: this only permutes the
  // DFS children (and, sharded, the work-unit order).
  OpOrder.resize(Ops.size());
  for (unsigned I = 0; I != Ops.size(); ++I)
    OpOrder[I] = I;
  auto IsAdditive = [&](unsigned I) {
    const MicroOp &Op = Ops[I];
    if (Op.ClassIdx < 0)
      return Initial.table(Op.Sw).empty();
    return classSlice(Initial.table(Op.Sw),
                      Classes[static_cast<size_t>(Op.ClassIdx)].Hdr)
        .empty();
  };
  std::stable_sort(OpOrder.begin(), OpOrder.end(),
                   [&](unsigned A, unsigned B) {
                     return IsAdditive(A) > IsAdditive(B);
                   });
}

/// One shard of the DFS: a private structure/checker pair walking work
/// units pulled from the shared cursor. With one shard this is exactly
/// the paper's sequential search.
class ShardSearcher {
public:
  ShardSearcher(SearchContext &Ctx, KripkeStructure &K,
                CheckerBackend &Checker)
      : Ctx(Ctx), K(K), Checker(Checker), Stop(Ctx.stopToken()),
        Prune(&Ctx.Prune) {
    Applied.resize(Ctx.Ops.size());
    // One frame per possible depth, sized once: tryCandidate holds
    // references into Frames across the recursive dfs() call, so the
    // vector must never reallocate.
    Frames.resize(Ctx.Ops.size() + 1);
    if (Ctx.Deterministic) {
      // Budget mode prunes against a private, never-sharded instance
      // that beginUnit resets, and journals what it learns for the
      // export (the instance forgets it at the next unit).
      UnitPrune.emplace();
      UnitPrune->ET.setStopToken(Stop);
      Prune = &*UnitPrune;
      JournalLearned = Ctx.ExportLearning;
    }
  }

  /// Binds the checker to this shard's structure and runs the initial
  /// full check (Fig. 4 line 7); counted like any other query but exempt
  /// from budget charging — setup cost, performed once per shard.
  CheckResult bindInitial() {
    Clock.switchTo(PhaseCheckNs);
    CheckResult R = Checker.bind(K, Ctx.Phi);
    Clock.stop();
    ++Stats.CheckCalls;
    return R;
  }

  /// Pulls top-level units until they run out, the shard aborts, or a
  /// sibling wins. Publishes this shard's sequence if it finds one.
  void runUnits() {
    for (;;) {
      if (AbortFlag)
        return; // Cause already recorded where the flag was set.
      // relaxed: advisory early-out; the authoritative claim is the
      // fetch_add below, and a stale read only costs one loop turn.
      if (Ctx.NextUnit.load(std::memory_order_relaxed) >=
          Ctx.OpOrder.size())
        return; // Every unit claimed: a stop or an expired wall
                // observed now must not taint the verdict; whether the
                // search is exhaustive is decided by the shards that own
                // the claimed work.
      if (Stop.stopRequested()) {
        // A stop seen here leaves work units unexplored, so its cause
        // must be recorded: without a flag the verdict block would
        // mistake this cancellation for exhaustion and report a false
        // Impossible proof. noteStop() classifies — a sibling's Found
        // is not an abort at all.
        noteStop();
        return;
      }
      if (Ctx.softWallExpired()) {
        // The soft hint's only firing point: between units, so a unit
        // that starts always runs to its deterministic conclusion.
        // relaxed: a cause flag read only after every shard joined.
        Ctx.WallAbort.store(true, std::memory_order_relaxed);
        Ctx.Halt.requestStop();
        return;
      }
      // relaxed: the counter is the sole synchronization object here —
      // unit payloads are immutable after buildOps().
      size_t Unit = Ctx.NextUnit.fetch_add(1, std::memory_order_relaxed);
      if (Unit >= Ctx.OpOrder.size())
        return; // Genuine exhaustion: every unit claimed.
      // relaxed: advisory outranking bound (see recordWinner).
      if (Ctx.Deterministic &&
          Unit > Ctx.BestUnit.load(std::memory_order_relaxed))
        return; // A lower unit already won; everything from here on is
                // outranked (units are pulled in increasing order).
      beginUnit(Unit);
      bool Won;
      {
        obs::TraceSpan Span("synth.unit");
        Won = tryCandidate(Ctx.OpOrder[Unit]);
      }
      Clock.stop(); // Inter-unit work (binds, waits) is not a phase.
      finishUnit();
      if (Won) {
        Ctx.recordWinner(Unit, AppliedSeq);
        return; // Keep the final structure; no rollback.
      }
    }
  }

  SynthStats Stats;

  /// Folds the phase accumulators into Stats. Called exactly once, by
  /// whoever consumes Stats after the shard retired (the shard thread
  /// itself, or runSearch's Finish for the primary).
  void finalizeStats() {
    Stats.CheckSeconds += PhaseCheckNs / 1e9;
    Stats.MutateSeconds += PhaseMutateNs / 1e9;
    Stats.PruneSeconds += PhasePruneNs / 1e9;
    Stats.SatSeconds += PhaseSatNs / 1e9;
    PhaseCheckNs = PhaseMutateNs = PhasePruneNs = PhaseSatNs = 0;
  }

  /// Unit-scoped wrong-set entries journaled in learn order for the
  /// cross-job export (deterministic budget mode only — elsewhere entries
  /// live in the shared W). Harvested after the shard retires.
  std::vector<std::pair<Bitset, Bitset>> LearnedWrong;

private:
  /// Resets the unit-scoped state before exploring unit \p Unit. In
  /// deterministic mode that is the whole point: a fresh PruneState and
  /// a fresh quota account make the unit's outcome a pure function of
  /// (instance, quota).
  void beginUnit(size_t Unit) {
    CurrentUnit = Unit;
    UnitStop = false;
    UnitTruncated = false;
    if (!Ctx.Deterministic)
      return;
    Account = Ctx.Ledger.openAccount(Unit);
    Checker.setBudget(&Account);
    UnitPrune->reset(Ctx.Ops.size());
    FailuresSinceEtCheck = 0;
  }

  /// Folds the finished (or abandoned) unit's accounting into the shard
  /// stats and the shared abort-cause flags.
  void finishUnit() {
    if (!Ctx.Deterministic)
      return;
    Ctx.UnitCharges[CurrentUnit] = {Account.spent(), UnitTruncated};
    Stats.SatClauses += UnitPrune->ET.numClauses();
    Checker.setBudget(nullptr);
  }

  /// The recursive part of Fig. 4: try every remaining candidate from
  /// the current configuration.
  bool dfs() {
    if (Applied.count() == Ctx.Ops.size())
      return true;
    for (unsigned I : Ctx.OpOrder) {
      if (Applied.test(I))
        continue;
      if (tryCandidate(I))
        return true;
      if (AbortFlag || UnitStop)
        return false;
    }
    return false;
  }

  /// The body of one DFS edge: prune, claim, apply op \p I, recheck,
  /// recurse, roll back. Returns true iff a full correct sequence was
  /// completed below this edge. All scratch state lives in the depth's
  /// DfsFrame, so the steady-state edge allocates nothing.
  bool tryCandidate(unsigned I) {
    Clock.switchTo(PhasePruneNs); // Free if prune is already open.
    DfsFrame &F = Frames[AppliedSeq.size()];
    Bitset &Next = F.Next;
    Next = Applied;
    Next.set(I);
    // The claim comes first: one claim replaces a
    // contains-probe-then-insert pair on the one path every explored
    // edge takes. Losing the claim is the visited prune; winning it
    // commits this searcher to settling the configuration — by the
    // seed/W refutations below (the entry proves the check would fail,
    // so "settled" needs no descent) or by exploring it.
    if (!Prune->claim(Next)) {
      ++Stats.VisitedPrunes;
      return false;
    }
    // Imported (cross-job) refutations before run-local ones: each
    // seeded prune skips a check an earlier digest-identical run
    // already paid for. Never fires in budget mode, which imports
    // nothing.
    if (!Ctx.SeedWrong.empty() && Ctx.SeedWrong.matches(Next)) {
      ++Stats.SeededPrunes;
      return false;
    }
    if (Ctx.Opts.CexPruning && Prune->Wrong.matches(Next)) {
      ++Stats.CexPrunes;
      return false;
    }
    // A stop observed after the claim leaves the configuration
    // claimed-but-unexplored, which is fine: noteStop records the abort
    // cause, so the verdict block never mistakes this truncated run for
    // an exhaustive proof.
    if (Stop.stopRequested()) {
      noteStop();
      return false;
    }
    // relaxed: advisory outranking bound (see recordWinner).
    if (Ctx.BestUnit.load(std::memory_order_relaxed) < CurrentUnit) {
      // Outranked by a lower winner; every unit this shard could still
      // pull is outranked too, so end the shard. No cause flag: a
      // recorded winner makes this a Success, not an abort. Outside
      // budget mode this only anticipates the Found stop recordWinner
      // fires right after publishing the bound.
      AbortFlag = true;
      return false;
    }
    if (!Account.canSpend()) {
      // Quota dry mid-subtree: abandon this unit (recorded as truncation
      // by finishUnit) but keep pulling later units, which own their
      // quotas and may still conclude deterministically. The default
      // unlimited account outside budget mode never runs dry.
      UnitTruncated = true;
      UnitStop = true;
      return false;
    }

    const MicroOp &Op = Ctx.Ops[I];
    const Header *ClassHdr =
        Op.ClassIdx < 0
            ? nullptr
            : &Ctx.Classes[static_cast<size_t>(Op.ClassIdx)].Hdr;
    Clock.switchTo(PhaseMutateNs);
    // Switch-granularity ops install the final table verbatim: point at
    // it instead of copying. Rule granularity composes a fresh slice
    // into the frame's table (whose buffers the assignment reuses).
    const Table *NewT;
    if (ClassHdr) {
      F.NewTable = opResultTable(K.config().table(Op.Sw),
                                 Ctx.Final.table(Op.Sw), ClassHdr);
      NewT = &F.NewTable;
    } else {
      NewT = &Ctx.Final.table(Op.Sw);
    }
    F.Changed.clear();
    K.applySwitchUpdate(Op.Sw, *NewT, F.Changed, F.Undo);
    uint64_t ApplyNs = Clock.switchTo(PhaseCheckNs);
    if (Prof)
      mutateLatency().record(ApplyNs);

    UpdateInfo Info;
    Info.Sw = Op.Sw;
    Info.OldTable = &F.Undo.OldTable;
    Info.NewTable = NewT;
    Info.ChangedStates = &F.Changed;

    // The checker charges the unit account here (mc/CheckerBackend.h).
    CheckResult Res = Checker.recheckAfterUpdate(Info);
    ++Stats.CheckCalls;

    bool Success = false;
    if (Res.Holds) {
      Applied.set(I);
      AppliedSeq.push_back(I);
      // The recursion continues this timeline: the child's first
      // switchTo closes the check slice, no boundary read needed.
      Success = dfs();
      if (!Success) {
        Applied.reset(I);
        AppliedSeq.pop_back();
      }
    } else if (Ctx.Opts.CexPruning && !Res.Cex.empty() &&
               Checker.providesCounterexamples()) {
      // Mostly SAT-layer work (constraint derivation + clause push); the
      // W append rides along.
      Clock.switchTo(PhaseSatNs);
      learnCex(Res.Cex, Next);
    }

    if (Success)
      return true; // Keep the structure mutated; the caller replays.

    Clock.switchTo(PhaseMutateNs);
    Checker.notifyRollback();
    K.undo(std::move(F.Undo)); // Donates the buffers back for reuse.
    uint64_t UndoNs = Clock.switchTo(PhaseSatNs);
    if (Prof)
      mutateLatency().record(UndoNs);

    if (Ctx.Opts.EarlyTermination && !Res.Holds &&
        ++FailuresSinceEtCheck >= EtCheckInterval) {
      FailuresSinceEtCheck = 0;
      // In budget mode the solver is unit-scoped (its clause set, and
      // therefore its verdict, is a pure function of the unit); an UNSAT
      // answer is an instance-level proof either way.
      if (Prune->ET.impossible()) {
        Stats.EarlyTerminated = true;
        // relaxed: a cause flag read only after every shard joined.
        Ctx.EtImpossible.store(true, std::memory_order_relaxed);
        Ctx.Halt.requestStop();
        AbortFlag = true;
      }
    }
    return false;
  }

  void learnCex(const std::vector<StateId> &CexStates, const Bitset &Bits) {
    // The counterexample trace depends only on how the switches it
    // crosses route its own traffic class, so any configuration agreeing
    // with the current one on those operations reproduces the violation
    // (§4.2 A). Although the trace was found on this shard's structure,
    // digest-equal structures number states identically, so the derived
    // (mask, value) constraint is an instance fact every shard may prune
    // on.
    // The scratch is sized by the trace, not the fabric: a trace crosses
    // a handful of a paper-scale fabric's thousands of switches.
    CexSwitches.clear();
    CexClasses.clear();
    for (StateId S : CexStates) {
      CexSwitches.push_back(K.stateSwitch(S));
      CexClasses.push_back(K.stateClass(S));
    }
    sortUnique(CexSwitches);
    sortUnique(CexClasses);

    Bitset Mask(Ctx.Ops.size());
    for (SwitchId Sw : CexSwitches) {
      for (unsigned OpIdx : Ctx.SwitchOps[Sw]) {
        const MicroOp &Op = Ctx.Ops[OpIdx];
        // Rule-granularity ops for unrelated classes do not influence
        // the trace; leaving them out strengthens the pruning.
        if (Op.ClassIdx >= 0 &&
            !std::binary_search(CexClasses.begin(), CexClasses.end(),
                                static_cast<unsigned>(Op.ClassIdx)))
          continue;
        Mask.set(OpIdx);
      }
    }
    if (Mask.none())
      return; // Defensive: a cex with no in-diff switch teaches nothing.
    Bitset Value = Bits & Mask;
    // Guard before ANY mutation: a counterexample independent of every
    // applied update (Value empty) describes a violation the verified
    // initial configuration would exhibit too, so the entry it would
    // plant — (Mask, all-zeros), matching every configuration that has
    // not yet touched those switches — is unsound and must never reach
    // the wrong-set or the SAT layer. A counterexample-producing backend
    // cannot generate one (see EarlyTermination.h), but a buggy or
    // approximating backend must degrade to "learn nothing", not to an
    // incorrect Impossible.
    if (Value.none())
      return;

    if (Ctx.Opts.EarlyTermination)
      Prune->ET.addMaskValueConstraint(Mask, Value);
    if (JournalLearned)
      LearnedWrong.push_back({Mask, Value});
    Prune->Wrong.add(std::move(Mask), std::move(Value));
  }

  /// A stop observed at a checkpoint ends this shard; classify why. A
  /// sibling's Found token is no abort at all — the recorded winner
  /// outranks everything, and flagging it would leak a phantom budget
  /// abort into stats and verdict classification. A Halt means the
  /// shard that fired it already recorded the cause. Anything left is
  /// the caller's external token.
  void noteStop() {
    AbortFlag = true;
    if (Ctx.Found.token().stopRequested())
      return;
    if (Ctx.Halt.token().stopRequested())
      return;
    // relaxed: a cause flag read only after every shard joined.
    Ctx.ExternalAbort.store(true, std::memory_order_relaxed);
    Ctx.Halt.requestStop();
  }

  SearchContext &Ctx;
  KripkeStructure &K;       // Shard-private; mutate/rollback stays here.
  CheckerBackend &Checker;  // Shard-private, follows K.
  StopToken Stop;

  Bitset Applied;
  std::vector<unsigned> AppliedSeq;
  bool AbortFlag = false;

  /// Per-depth scratch for one DFS edge, reused across every candidate
  /// tried at that depth — the steady-state search allocates nothing.
  /// The undo record's buffers cycle through the structure itself
  /// (undo(&&) donates them back; see kripke/Kripke.h).
  struct DfsFrame {
    std::vector<StateId> Changed;
    Table NewTable;
    KripkeStructure::UndoRecord Undo;
    Bitset Next;
  };
  /// Indexed by depth (AppliedSeq.size()); sized in the constructor and
  /// never resized — tryCandidate holds references into it across
  /// recursion.
  std::vector<DfsFrame> Frames;
  /// Phase-breakdown accumulators (ns); zero unless the obs detail tier
  /// was on. finalizeStats() converts them into the SynthStats seconds.
  uint64_t PhaseCheckNs = 0;
  uint64_t PhaseMutateNs = 0;
  uint64_t PhasePruneNs = 0;
  uint64_t PhaseSatNs = 0;
  /// Whether the obs detail tier was on when this shard started; the
  /// searcher lives inside one run, so the flag cannot change under it.
  const bool Prof = obs::detailEnabled();
  /// The shard's phase timeline, spanning units and the DFS recursion;
  /// stopped at unit boundaries so only search work is attributed.
  PhaseClock Clock{Prof};
  /// The SAT check batches failures: solving after every learned clause
  /// is wasted work when the constraints are still easily satisfiable.
  unsigned FailuresSinceEtCheck = 0;
  static constexpr unsigned EtCheckInterval = 8;

  /// The pruning state tryCandidate, learnCex, and the ET check consult:
  /// the context's shared instance, or in budget mode UnitPrune.
  PruneState *Prune;

  // Unit-scoped state (deterministic budget mode); reset by beginUnit.
  size_t CurrentUnit = 0;
  /// Unlimited (never dry) outside budget mode.
  BudgetAccount Account;
  /// Abandon the current unit (quota dry) but keep the shard alive.
  bool UnitStop = false;
  /// The quota ran dry mid-subtree — distinct from finishing a unit
  /// with the quota exactly spent, which is a complete exploration.
  bool UnitTruncated = false;
  /// This searcher's private, never-sharded pruning state; engaged only
  /// in deterministic mode.
  std::optional<PruneState> UnitPrune;
  /// Whether learnCex journals entries into LearnedWrong.
  bool JournalLearned = false;
  /// learnCex's scratch: the counterexample's distinct switches and
  /// traffic classes, kept to reuse their buffers.
  std::vector<SwitchId> CexSwitches;
  std::vector<unsigned> CexClasses;
};

/// Replays \p Seq from the initial configuration, snapshotting the table
/// each op installs; a wait separates every two updates (careful
/// sequence, Def. 5).
CommandSeq buildCommands(const SearchContext &Ctx,
                         const std::vector<unsigned> &Seq) {
  CommandSeq Out;
  Config Cur = Ctx.Initial;
  for (size_t Step = 0; Step != Seq.size(); ++Step) {
    const MicroOp &Op = Ctx.Ops[Seq[Step]];
    const Header *ClassHdr =
        Op.ClassIdx < 0
            ? nullptr
            : &Ctx.Classes[static_cast<size_t>(Op.ClassIdx)].Hdr;
    Table NewTable =
        opResultTable(Cur.table(Op.Sw), Ctx.Final.table(Op.Sw), ClassHdr);
    Cur.setTable(Op.Sw, NewTable);
    if (Step != 0)
      Out.push_back(Command::wait());
    Out.push_back(Command::update(Op.Sw, std::move(NewTable)));
  }
  return Out;
}

SynthResult runSearch(const Topology &Topo, const Config &Initial,
                      const Config &Final,
                      const std::vector<TrafficClass> &Classes, Formula Phi,
                      CheckerBackend &Checker, const SynthOptions &Opts) {
  SynthResult Result;
  obs::TraceSpan SearchSpan("synth.search");
  SearchContext Ctx(Topo, Initial, Final, Classes, Phi, Opts);
  Ctx.buildOps();
  Ctx.SeedWrong.reset(Ctx.Ops.size());

  // A finite check budget engages deterministic mode: carve it into
  // per-unit quotas once, from (budget, #units) alone. UnitCheckCalls
  // bounds each unit directly and wins over the carved total.
  if (Opts.UnitCheckCalls > 0)
    Ctx.Ledger =
        BudgetLedger::perUnit(Opts.UnitCheckCalls, Ctx.OpOrder.size());
  else if (Opts.MaxCheckCalls > 0)
    Ctx.Ledger =
        BudgetLedger::carveTotal(Opts.MaxCheckCalls, Ctx.OpOrder.size());
  Ctx.Deterministic = Ctx.Ledger.limited();
  if (Ctx.Deterministic)
    Ctx.UnitCharges.resize(Ctx.OpOrder.size());

  unsigned Shards = Opts.Shards == 0 ? 1 : Opts.Shards;
  Shards =
      static_cast<unsigned>(std::min<size_t>(Shards, Ctx.OpOrder.size()));
  if (!Opts.ShardCheckerFactory)
    Shards = 1; // No way to build sibling checkers; degrade gracefully.
  Ctx.Prune.reset(Ctx.Ops.size());
  Ctx.Prune.ET.setStopToken(Ctx.stopToken());

  // Cross-job learning (support/ConstraintStore.h): import the wrong-set
  // entries earlier runs of this (scenario, granularity) published and
  // seed the pruning state before anything searches. Requires CexPruning
  // — the machinery that produces and consumes the entries. Gated off in
  // deterministic budget mode, whose outcome must stay a pure function
  // of (job, budget): an import would let process history decide which
  // checks a quota affords. Sound everywhere it engages: every entry
  // records a genuine counterexample, so a seeded prune skips a check
  // that could only have failed, and a seeded SAT constraint is
  // satisfied by every genuinely correct order.
  const bool LearnOn = Opts.Learning != nullptr &&
                       Opts.LearningScenario != Digest{} &&
                       Opts.CexPruning && !Ctx.Ops.empty();
  Digest LearnKey;
  if (LearnOn) {
    LearnKey = ConstraintStore::keyFor(Opts.LearningScenario,
                                       Opts.RuleGranularity);
    Ctx.ExportLearning = true;
    if (!Ctx.Deterministic) {
      for (std::pair<Bitset, Bitset> &E :
           Opts.Learning->fetch(LearnKey, Ctx.Ops.size())) {
        if (Opts.EarlyTermination)
          Ctx.Prune.ET.addMaskValueConstraint(E.first, E.second);
        Ctx.SeedWrong.add(std::move(E.first), std::move(E.second));
      }
    }
  }

  KripkeStructure K(Topo, Initial, Classes);
  ShardSearcher Primary(Ctx, K, Checker);
  CheckResult InitRes = Primary.bindInitial();

  SynthStats Total;
  // Captured when the search (not the whole run) concludes, so
  // SynthSeconds never includes command building or wait removal —
  // WaitRemovalSeconds measures the latter separately.
  double SearchSeconds = 0.0;
  // Budget-mode learning export: extra shards move their journaled
  // entries here before their threads join (elsewhere the shared W
  // already holds everything).
  std::vector<std::vector<std::pair<Bitset, Bitset>>> ShardLearned;
  auto Finish = [&](SynthStatus Status) {
    Primary.finalizeStats();
    Total.mergeFrom(Primary.Stats);
    // Unit-scoped solvers folded their clause counts into shard stats
    // already (deterministic mode); the shared solver adds the rest.
    Total.SatClauses += Ctx.Prune.ET.numClauses();
    if (LearnOn) {
      // Publish what this run learned — every entry passed the learn-
      // time guard, and entries from interrupted or aborted runs are
      // just as sound (each stands on its own counterexample).
      // The shared W is empty in budget mode and the journals are
      // empty elsewhere, so one concatenation serves both.
      std::vector<std::pair<Bitset, Bitset>> Learned =
          Ctx.Prune.Wrong.snapshot();
      Learned.insert(Learned.end(), Primary.LearnedWrong.begin(),
                     Primary.LearnedWrong.end());
      for (std::vector<std::pair<Bitset, Bitset>> &L : ShardLearned)
        Learned.insert(Learned.end(), L.begin(), L.end());
      Total.ImportedConstraints = Ctx.SeedWrong.size();
      size_t StoreDropped = 0;
      Total.ExportedConstraints = Opts.Learning->publish(
          LearnKey, Ctx.Ops.size(), Learned, &StoreDropped);
      Total.SubsumedDropped += StoreDropped;
      // An Impossible verdict is a ground instance fact — a SAT proof
      // or an exhaustive exploration, never a truncation (which reports
      // Aborted): record it so the engine can shed portfolio members
      // whose standalone run could only rediscover it.
      if (Status == SynthStatus::Impossible)
        Opts.Learning->markImpossible(LearnKey, Ctx.Ops.size());
    }
    Total.EarlyTerminated |= Ctx.EtImpossible.load();
    Ctx.chargeTotals(Total.BudgetSpent, Total.ExhaustedUnits);
    Total.HitBudget = Ctx.WallAbort.load() || Total.ExhaustedUnits > 0;
    Total.Interrupted = Ctx.ExternalAbort.load() || Ctx.WallAbort.load();
    if (Ctx.Deterministic) {
      uint64_t Cap = Ctx.Ledger.totalQuota();
      Total.BudgetRemaining =
          Cap > Total.BudgetSpent ? Cap - Total.BudgetSpent : 0;
    }
    Total.SynthSeconds = SearchSeconds;
    Result.Status = Status;
    Result.Stats = Total;
  };

  if (Opts.Stop.stopRequested()) {
    SearchSeconds = Ctx.Clock.seconds();
    Finish(SynthStatus::Aborted);
    return Result;
  }
  if (!InitRes.Holds) {
    SearchSeconds = Ctx.Clock.seconds();
    Finish(SynthStatus::InitialViolation);
    return Result;
  }
  if (Ctx.Ops.empty()) {
    // Initial == Final (no diff): the empty sequence is correct.
    SearchSeconds = Ctx.Clock.seconds();
    Finish(SynthStatus::Success);
    return Result;
  }
  if (!Ctx.SeedWrong.empty() && Opts.EarlyTermination &&
      Ctx.Prune.ET.impossible()) {
    // The imported constraints alone are contradictory: no simple order
    // exists, proven before a single work unit ran. A reuse-off search
    // reaches the same verdict (by its own SAT proof or by exhaustion)
    // — the store only made it instant.
    // relaxed: single-threaded here (before the shards spawn).
    Ctx.EtImpossible.store(true, std::memory_order_relaxed);
    SearchSeconds = Ctx.Clock.seconds();
    Finish(SynthStatus::Impossible);
    return Result;
  }

  if (Shards <= 1) {
    Primary.runUnits();
  } else {
    // Extra shards run on their own threads — deliberately not on the
    // engine's job pool, whose workers may all be blocked inside jobs
    // waiting for exactly these threads (see engine/Engine.h).
    std::vector<SynthStats> ShardStats(Shards - 1);
    ShardLearned.resize(Shards - 1);
    std::vector<std::thread> Threads;
    Threads.reserve(Shards - 1);
    for (unsigned T = 0; T != Shards - 1; ++T) {
      Threads.emplace_back([&, T] {
        obs::TraceSpan ShardSpan("synth.shard");
        std::unique_ptr<CheckerBackend> ShardChecker =
            Opts.ShardCheckerFactory();
        if (!ShardChecker)
          return; // Fewer shards; the rest still cover every unit.
        KripkeStructure ShardK(Topo, Initial, Classes);
        ShardSearcher Shard(Ctx, ShardK, *ShardChecker);
        CheckResult BindRes = Shard.bindInitial();
        // The primary bind verified the initial configuration; a shard
        // bind can only disagree if the backend is nondeterministic, in
        // which case exploring would be unsound — sit this run out.
        if (BindRes.Holds)
          Shard.runUnits();
        // Fold this checker's real work into the shard's stats before
        // the checker dies with this thread.
        Shard.Stats.BackendQueries += ShardChecker->numQueries();
        Shard.Stats.CacheHits += ShardChecker->cacheHits();
        Shard.Stats.CacheMisses += ShardChecker->cacheMisses();
        Shard.finalizeStats();
        ShardStats[T] = std::move(Shard.Stats);
        ShardLearned[T] = std::move(Shard.LearnedWrong);
      });
    }
    Primary.runUnits();
    for (std::thread &T : Threads)
      T.join();
    for (const SynthStats &S : ShardStats)
      Total.mergeFrom(S);
  }

  // All shards joined: the winner slot and flags are stable now.
  SearchSeconds = Ctx.Clock.seconds();
  std::vector<unsigned> WinnerSeq;
  if (!Ctx.winnerSnapshot(WinnerSeq)) {
    uint64_t Spent, Exhausted;
    Ctx.chargeTotals(Spent, Exhausted);
    if (Ctx.EtImpossible.load())
      Finish(SynthStatus::Impossible); // SAT proof; outranks an abort.
    else if (Ctx.ExternalAbort.load() || Ctx.WallAbort.load() ||
             Exhausted > 0)
      Finish(SynthStatus::Aborted); // Truncated somewhere: exhaustion
                                    // cannot be claimed.
    else
      Finish(SynthStatus::Impossible); // Exhaustive: every unit explored.
    return Result;
  }

  Result.Commands = buildCommands(Ctx, WinnerSeq);
  Total.WaitsBeforeRemoval = countWaits(Result.Commands);
  Total.WaitsAfterRemoval = Total.WaitsBeforeRemoval;
  if (Opts.WaitRemoval) {
    obs::TraceSpan Span("synth.wait_removal");
    Timer WaitClock;
    Result.Commands = removeWaits(Topo, Initial, Classes, Result.Commands);
    Total.WaitRemovalSeconds = WaitClock.seconds();
    Total.WaitsAfterRemoval = countWaits(Result.Commands);
  }
  Finish(SynthStatus::Success);
  return Result;
}

} // namespace

SynthResult netupd::synthesizeUpdate(const Topology &Topo,
                                     const Config &Initial,
                                     const Config &Final,
                                     const std::vector<TrafficClass> &Classes,
                                     Formula Phi, CheckerBackend &Checker,
                                     const SynthOptions &Opts) {
  SynthResult Result =
      runSearch(Topo, Initial, Final, Classes, Phi, Checker, Opts);
  // The caller's checker outlives the run; shard checkers folded their
  // share in before dying (see runSearch), so += completes the totals.
  Result.Stats.BackendQueries += Checker.numQueries();
  Result.Stats.CacheHits += Checker.cacheHits();
  Result.Stats.CacheMisses += Checker.cacheMisses();
  return Result;
}

SynthResult netupd::synthesizeUpdate(const Scenario &S, FormulaFactory &FF,
                                     CheckerBackend &Checker,
                                     const SynthOptions &Opts) {
  if (Opts.Learning && Opts.LearningScenario == Digest{}) {
    // Cross-job learning keys on the scenario's content digest; compute
    // it here so engine members and direct callers need only hand over
    // the store.
    SynthOptions Keyed = Opts;
    Keyed.LearningScenario = digestOf(S);
    return synthesizeUpdate(S.Topo, S.Initial, S.Final, S.classes(),
                            S.buildProperty(FF), Checker, Keyed);
  }
  return synthesizeUpdate(S.Topo, S.Initial, S.Final, S.classes(),
                          S.buildProperty(FF), Checker, Opts);
}
