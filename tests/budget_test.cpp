//===- tests/budget_test.cpp - deterministic-budget tests ------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the deterministic budget subsystem (support/Budget.h and the
/// search's deterministic budget mode): ledger carving, inclusive
/// exactly-N boundary semantics, the determinism matrix (byte-identical
/// verdicts and sequences across shard and worker counts, budget-Aborted
/// cases included), the equality of a budgeted run that exhausted no
/// unit with the unlimited sequential run, the soft wall-clock hint, the
/// update-independent counterexample guard, the Found-vs-budget abort
/// classification, and
/// the engine's abort-caching contract across all of its Aborted-writing
/// paths: pure quota-exhaustion aborts are deterministic and ARE cached,
/// while every timing-shaped abort (wall expiry, cancellation, shutdown)
/// stays out of the cache.
///
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "mc/BackendFactory.h"
#include "support/Budget.h"
#include "support/ConcurrentSet.h"
#include "synth/OrderUpdate.h"
#include "topo/Generators.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

using namespace netupd;
using namespace netupd::testutil;

namespace {

/// A feasible diamond scenario with at least \p MinUpdates updating
/// switches. Deterministic: scans seeds from \p FirstSeed upward.
Scenario diamondWithUpdates(uint64_t FirstSeed, unsigned MinUpdates) {
  for (uint64_t Seed = FirstSeed; Seed != FirstSeed + 64; ++Seed) {
    Rng R(Seed);
    Topology Base = buildSmallWorld(24, 4, 0.2, R);
    std::optional<Scenario> S =
        makeDiamondScenario(Base, R, PropertyKind::Reachability);
    if (S && numUpdatingSwitches(*S) >= MinUpdates)
      return std::move(*S);
  }
  ADD_FAILURE() << "no diamond with >= " << MinUpdates
                << " updating switches from seed " << FirstSeed;
  return Scenario{};
}

/// The Fig. 8(h) instance: switch-granularity infeasible, rule feasible.
Scenario doubleDiamond(uint64_t Seed) {
  Rng R(Seed);
  Topology Base = buildSmallWorld(20, 4, 0.2, R);
  std::optional<Scenario> S = makeDoubleDiamondScenario(Base, R);
  EXPECT_TRUE(S.has_value()) << "seed " << Seed << " grew no double diamond";
  return std::move(*S);
}

/// A feasible long-path diamond wider than ClaimBitmap::MaxBits ops, so
/// every search over it claims V through the striped ConcurrentSet (and
/// budget mode clear()s that set once per unit).
Scenario wideDiamond() {
  DiamondOptions DO;
  DO.LongPaths = true;
  for (uint64_t Seed = 1; Seed != 64; ++Seed) {
    Rng R(Seed);
    Topology Base = buildSmallWorld(120, 4, 0.1, R);
    std::optional<Scenario> S =
        makeDiamondScenario(Base, R, PropertyKind::Reachability, DO);
    if (S && numUpdatingSwitches(*S) > ClaimBitmap::MaxBits)
      return std::move(*S);
  }
  ADD_FAILURE() << "no diamond wider than the claim bitmap";
  return Scenario{};
}

} // namespace

// --- BudgetLedger -----------------------------------------------------------

TEST(BudgetLedgerTest, CarveGivesEarlierUnitsTheRemainder) {
  BudgetLedger L = BudgetLedger::carveTotal(10, 4);
  ASSERT_TRUE(L.limited());
  EXPECT_EQ(L.unitQuota(0), 3u);
  EXPECT_EQ(L.unitQuota(1), 3u);
  EXPECT_EQ(L.unitQuota(2), 2u);
  EXPECT_EQ(L.unitQuota(3), 2u);
  EXPECT_EQ(L.totalQuota(), 10u);
}

TEST(BudgetLedgerTest, CarveFloorsEveryUnitAtOneCall) {
  // More units than budget: every unit still gets one call (progress),
  // so the hard total is max(Total, Units), not Total.
  BudgetLedger L = BudgetLedger::carveTotal(2, 5);
  for (size_t U = 0; U != 5; ++U)
    EXPECT_EQ(L.unitQuota(U), 1u) << "unit " << U;
  EXPECT_EQ(L.totalQuota(), 5u);
}

TEST(BudgetLedgerTest, PerUnitGivesEveryUnitTheFullQuota) {
  BudgetLedger L = BudgetLedger::perUnit(7, 3);
  for (size_t U = 0; U != 3; ++U)
    EXPECT_EQ(L.unitQuota(U), 7u);
  EXPECT_EQ(L.totalQuota(), 21u);
}

TEST(BudgetLedgerTest, TotalQuotaSaturatesInsteadOfWrapping) {
  // 2 x 2^63 is 2^64: a wrapping sum reads 0, and BudgetRemaining with
  // it, on a run that spent almost nothing.
  EXPECT_EQ(BudgetLedger::perUnit(uint64_t(1) << 63, 2).totalQuota(),
            UINT64_MAX);
  EXPECT_EQ(BudgetLedger::perUnit(UINT64_MAX, 3).totalQuota(), UINT64_MAX);
  EXPECT_EQ(BudgetLedger::perUnit(UINT64_MAX - 1, 1).totalQuota(),
            UINT64_MAX - 1);
}

TEST(BudgetLedgerTest, AccountsAreInclusiveAtTheBoundary) {
  BudgetAccount A = BudgetLedger::perUnit(2, 1).openAccount(0);
  ASSERT_TRUE(A.limited());
  EXPECT_TRUE(A.canSpend()); // 0 spent of 2.
  A.charge();
  EXPECT_TRUE(A.canSpend()); // The 2nd (== quota-th) call is spendable.
  A.charge();
  EXPECT_FALSE(A.canSpend()); // The 3rd is not.
  EXPECT_TRUE(A.exhausted());
  EXPECT_EQ(A.spent(), 2u);

  BudgetAccount Unlimited = BudgetLedger().openAccount(0);
  EXPECT_FALSE(Unlimited.limited());
  Unlimited.charge();
  EXPECT_TRUE(Unlimited.canSpend());
  EXPECT_FALSE(Unlimited.exhausted());
}

// --- Exactly-N boundary semantics (regression for the >= off-by-one) --------

namespace {

/// Accepts every configuration; the search under it dives straight to a
/// full sequence, so a successful unit charges exactly numOps rechecks.
class AcceptAll : public CheckerBackend {
public:
  const char *name() const override { return "AcceptAll"; }
  void notifyRollback() override {}
  bool providesCounterexamples() const override { return false; }

protected:
  CheckResult bindImpl(KripkeStructure &, Formula) override {
    ++Queries;
    CheckResult R;
    R.Holds = true;
    return R;
  }
  CheckResult recheckImpl(const UpdateInfo &) override {
    ++Queries;
    CheckResult R;
    R.Holds = true;
    return R;
  }
};

} // namespace

// A job needing exactly its budget must Succeed: with an accept-all
// checker the first unit completes after exactly numOps charged rechecks,
// so a per-unit quota of exactly numOps is sufficient — the budget's
// final call is spendable (the historical >= check refused it). One call
// less must Abort, deterministically, with every unit truncated.
TEST(BudgetBoundaryTest, ExactBudgetSucceedsOneLessAborts) {
  Scenario S = diamondWithUpdates(1000, 4);
  unsigned NumOps = numUpdatingSwitches(S);
  ASSERT_GE(NumOps, 2u);

  {
    AcceptAll Checker;
    FormulaFactory FF;
    SynthOptions Opts;
    Opts.UnitCheckCalls = NumOps; // Exactly what the dive needs.
    SynthResult Res = synthesizeUpdate(S, FF, Checker, Opts);
    EXPECT_EQ(Res.Status, SynthStatus::Success)
        << "a budget of exactly N must permit N calls";
    EXPECT_EQ(Res.Stats.BudgetSpent, NumOps);
    EXPECT_EQ(Res.Stats.ExhaustedUnits, 0u)
        << "spending the full quota on a completed unit is not truncation";
    EXPECT_FALSE(Res.Stats.HitBudget);
  }
  {
    AcceptAll Checker;
    FormulaFactory FF;
    SynthOptions Opts;
    Opts.UnitCheckCalls = NumOps - 1;
    SynthResult Res = synthesizeUpdate(S, FF, Checker, Opts);
    EXPECT_EQ(Res.Status, SynthStatus::Aborted);
    EXPECT_TRUE(Res.Stats.HitBudget);
    EXPECT_EQ(Res.Stats.ExhaustedUnits, NumOps)
        << "every unit runs dry one call short of its sequence";
    EXPECT_TRUE(Res.Commands.empty());
  }
  {
    // Same boundary through the carved-total knob: an even split of
    // NumOps^2 over NumOps units gives the first unit exactly NumOps.
    AcceptAll Checker;
    FormulaFactory FF;
    SynthOptions Opts;
    Opts.MaxCheckCalls = static_cast<uint64_t>(NumOps) * NumOps;
    SynthResult Res = synthesizeUpdate(S, FF, Checker, Opts);
    EXPECT_EQ(Res.Status, SynthStatus::Success);
    EXPECT_EQ(Res.Stats.BudgetSpent, NumOps)
        << "only the winning unit should have spent its quota";
  }
}

// --- Determinism matrix -----------------------------------------------------

namespace {

/// One job's observable outcome for the matrix comparison: the verdict,
/// the rendered command sequence (byte-identical requirement), and the
/// charged spend.
struct JobFingerprint {
  SynthStatus Status;
  std::string Commands;
  uint64_t BudgetSpent;
};

std::vector<SynthJob> matrixRegistry() {
  std::vector<SynthJob> Jobs;
  auto Add = [&](std::string Name, Scenario S, const char *Backend,
                 SynthOptions O) {
    SynthJob Job;
    Job.Name = std::move(Name);
    Job.S = std::move(S);
    PortfolioMember M;
    M.Backend = Backend;
    M.Opts = O;
    Job.Portfolio.push_back(std::move(M));
    Jobs.push_back(std::move(Job));
  };

  Scenario Diamond = diamondWithUpdates(2000, 4);
  Scenario DDiamond = doubleDiamond(9);

  SynthOptions Generous;
  Generous.MaxCheckCalls = 200000; // Finite: deterministic mode, completes.
  Add("diamond-generous", Diamond, "incremental", Generous);

  SynthOptions Tight;
  Tight.UnitCheckCalls = 2; // Truncates every unit: a budget Abort.
  Add("diamond-tight", Diamond, "incremental", Tight);

  SynthOptions TightTotal;
  TightTotal.MaxCheckCalls = 40;
  TightTotal.EarlyTermination = false;
  Add("ddiamond-tight", DDiamond, "incremental", TightTotal);

  SynthOptions DDGenerous;
  DDGenerous.MaxCheckCalls = 500000; // Enough to complete every unit.
  Add("ddiamond-generous", DDiamond, "incremental", DDGenerous);

  SynthOptions Memo = Generous;
  Add("diamond-memo", Diamond, "memo:incremental", Memo);

  // An exhaustive proof whose units overlap: with the destination
  // blackholed every order fails only at its last op, so each unit's
  // sub-lattice shares configurations with the others. Its spend holds
  // across shard layouts only if every unit starts from an empty V (a
  // searcher's later units must not prune on its earlier units' claims).
  Scenario Blackholed = Diamond;
  Blackholed.Final.setTable(Blackholed.Flows[0].FinalPath.back(), Table());
  SynthOptions Exhaustive = Generous;
  Exhaustive.EarlyTermination = false;
  Add("blackholed-exhaustive", Blackholed, "incremental", Exhaustive);
  return Jobs;
}

} // namespace

// The acceptance matrix: one job registry run at shards x workers under
// finite budgets must yield byte-identical verdicts and command
// sequences in every cell — budget-Aborted verdicts included — and the
// same BudgetSpent wherever the verdict is not Success. This is the
// property the ledger exists for; a wall clock or a shared call counter
// fails it on the first noisy machine.
TEST(BudgetDeterminismTest, MatrixOfShardAndWorkerCounts) {
  std::vector<SynthJob> Jobs = matrixRegistry();

  std::vector<JobFingerprint> Reference;
  bool SawAborted = false;
  for (unsigned Shards : {1u, 2u, 4u, 8u}) {
    for (unsigned Workers : {1u, 4u}) {
      EngineOptions EO;
      EO.NumWorkers = Workers;
      EO.IntraJobShards = Shards;
      EO.CacheResults = false; // Compare real runs, not cached replays.
      SynthEngine Engine(EO);
      BatchReport Rep = Engine.run(Jobs);

      std::vector<JobFingerprint> Run;
      for (size_t I = 0; I != Rep.Reports.size(); ++I) {
        const SynthReport &R = Rep.Reports[I];
        EXPECT_TRUE(R.Members[0].Error.empty()) << R.Members[0].Error;
        SawAborted |= R.Result.Status == SynthStatus::Aborted;
        Run.push_back(
            {R.Result.Status,
             commandSeqToString(Jobs[I].S.Topo, R.Result.Commands),
             R.Result.Stats.BudgetSpent});
      }
      if (Reference.empty()) {
        Reference = std::move(Run);
      } else {
        for (size_t I = 0; I != Run.size(); ++I) {
          EXPECT_EQ(Run[I].Status, Reference[I].Status)
              << Jobs[I].Name << " verdict changed at shards=" << Shards
              << " workers=" << Workers;
          EXPECT_EQ(Run[I].Commands, Reference[I].Commands)
              << Jobs[I].Name << " sequence changed at shards=" << Shards
              << " workers=" << Workers;
          if (Reference[I].Status != SynthStatus::Success) {
            EXPECT_EQ(Run[I].BudgetSpent, Reference[I].BudgetSpent)
                << Jobs[I].Name << " spend changed at shards=" << Shards
                << " workers=" << Workers;
          }
        }
      }
    }
  }
  EXPECT_TRUE(SawAborted)
      << "the registry must include a budget-Aborted case or the matrix "
         "proves nothing about abort determinism";
  EXPECT_EQ(Reference[0].Status, SynthStatus::Success);
  EXPECT_EQ(Reference[3].Status, SynthStatus::Impossible)
      << "a generous budget must still complete the impossibility proof";
  EXPECT_EQ(Reference[5].Status, SynthStatus::Impossible)
      << "the exhaustive proof must complete every unit";
}

// --- Completed budget runs equal the unlimited sequential run ---------------

namespace {

/// One direct synthesizeUpdate run on the incremental backend, sharded
/// when \p Shards > 1, with wait removal off so sequences byte-compare.
SynthResult runIncremental(const Scenario &S, bool RuleGran,
                           uint64_t UnitQuota, unsigned Shards) {
  std::unique_ptr<CheckerBackend> Checker =
      BackendFactory::instance().create("incremental", S);
  FormulaFactory FF;
  SynthOptions Opts;
  Opts.RuleGranularity = RuleGran;
  Opts.WaitRemoval = false;
  Opts.UnitCheckCalls = UnitQuota;
  Opts.Shards = Shards;
  Opts.ShardCheckerFactory = [&S]() {
    return BackendFactory::instance().create("incremental", S);
  };
  return synthesizeUpdate(S, FF, *Checker, Opts);
}

} // namespace

// A budgeted run prunes against unit-scoped state, the unlimited one
// against state shared across units; the unit-scoped search only
// re-explores subtrees the shared state skips, none of which holds the
// first success. So a budgeted run that exhausted no unit must return
// the unlimited sequential verdict and exact bytes, at every quota and
// shard count.
TEST(BudgetCompletionTest, UnexhaustedRunEqualsUnlimitedSequential) {
  const Scenario Scenarios[] = {diamondWithUpdates(2000, 4),
                                diamondWithUpdates(3000, 5),
                                doubleDiamond(9), wideDiamond()};
  unsigned GenerousCompared = 0, TightCompared = 0;
  for (const Scenario &S : Scenarios) {
    for (bool RuleGran : {false, true}) {
      SynthResult Ref = runIncremental(S, RuleGran, 0, 1);
      std::string RefCmds = commandSeqToString(S.Topo, Ref.Commands);
      for (uint64_t Quota : {uint64_t(3), uint64_t(20), uint64_t(1) << 30}) {
        for (unsigned Shards : {1u, 4u}) {
          SynthResult R = runIncremental(S, RuleGran, Quota, Shards);
          if (R.Stats.ExhaustedUnits != 0)
            continue;
          GenerousCompared += Quota == uint64_t(1) << 30;
          TightCompared += Quota == 20;
          EXPECT_EQ(R.Status, Ref.Status)
              << "rule=" << RuleGran << " quota=" << Quota
              << " shards=" << Shards;
          EXPECT_EQ(commandSeqToString(S.Topo, R.Commands), RefCmds)
              << "rule=" << RuleGran << " quota=" << Quota
              << " shards=" << Shards;
        }
      }
    }
  }
  EXPECT_EQ(GenerousCompared, 16u)
      << "a 2^30 unit quota must never run dry on these instances";
  EXPECT_GT(TightCompared, 0u)
      << "no tight-quota run completed: the check compares only runs "
         "that never come near their budget";
}

// --- Soft wall hint ---------------------------------------------------------

// TimeoutSeconds is a soft hint checked between work units: an expired
// clock aborts the run (classified as a budget condition), and a timeout
// that never fires changes nothing.
TEST(BudgetSoftWallTest, ExpiredTimeoutAbortsBetweenUnits) {
  Scenario S = diamondWithUpdates(3000, 3);
  FormulaFactory FF;
  SynthOptions Opts;
  Opts.TimeoutSeconds = 1e-9; // Expired by the first between-unit check.
  std::unique_ptr<CheckerBackend> Checker =
      BackendFactory::instance().create("incremental", S);
  SynthResult Res = synthesizeUpdate(S, FF, *Checker, Opts);
  EXPECT_EQ(Res.Status, SynthStatus::Aborted);
  EXPECT_TRUE(Res.Stats.HitBudget);
  EXPECT_TRUE(Res.Commands.empty());

  SynthOptions Ample;
  Ample.TimeoutSeconds = 3600.0;
  std::unique_ptr<CheckerBackend> Checker2 =
      BackendFactory::instance().create("incremental", S);
  SynthResult Res2 = synthesizeUpdate(S, FF, *Checker2, Ample);
  EXPECT_EQ(Res2.Status, SynthStatus::Success);
  EXPECT_FALSE(Res2.Stats.HitBudget);
}

// --- Update-independent counterexample guard --------------------------------

namespace {

/// Fails the first recheck with a fabricated counterexample that is
/// independent of the applied update: its trace crosses a *different*
/// updating switch. A correct backend cannot produce one (the violation
/// would exist in the verified initial configuration too), but the
/// search must degrade to "learn nothing" — not plant an unsound
/// wrong-set entry matching every configuration that has not touched
/// that switch.
class BogusCexChecker : public CheckerBackend {
public:
  explicit BogusCexChecker(std::vector<SwitchId> DiffSwitches)
      : DiffSwitches(std::move(DiffSwitches)) {}

  const char *name() const override { return "BogusCex"; }
  void notifyRollback() override {}
  bool providesCounterexamples() const override { return true; }

protected:
  CheckResult bindImpl(KripkeStructure &Structure, Formula) override {
    ++Queries;
    K = &Structure;
    CheckResult R;
    R.Holds = true;
    return R;
  }
  CheckResult recheckImpl(const UpdateInfo &Update) override {
    ++Queries;
    CheckResult R;
    if (Fired) {
      R.Holds = true;
      return R;
    }
    Fired = true;
    R.Holds = false;
    // Every state of some updating switch other than the one just
    // updated: Mask covers that switch's ops, none of which is applied,
    // so the derived (mask, value) pair has an all-zero value.
    SwitchId Other = DiffSwitches.front() != Update.Sw
                         ? DiffSwitches.front()
                         : DiffSwitches.back();
    for (StateId St = 0; St != K->numStates(); ++St)
      if (K->stateSwitch(St) == Other)
        R.Cex.push_back(St);
    EXPECT_FALSE(R.Cex.empty());
    return R;
  }

private:
  std::vector<SwitchId> DiffSwitches;
  KripkeStructure *K = nullptr;
  bool Fired = false;
};

} // namespace

// Regression (release builds): the wrong-set entry used to be planted
// before the update-independence guard, so a single bogus counterexample
// silently poisoned pruning for the rest of the search.
TEST(CexGuardTest, UpdateIndependentCexLearnsNothing) {
  Scenario S = diamondWithUpdates(4000, 3);
  std::vector<SwitchId> Diff = diffSwitches(S.Initial, S.Final);
  ASSERT_GE(Diff.size(), 2u);

  BogusCexChecker Checker(Diff);
  FormulaFactory FF;
  SynthResult Res = synthesizeUpdate(S, FF, Checker, SynthOptions{});
  EXPECT_EQ(Res.Status, SynthStatus::Success)
      << "one bogus counterexample must not derail a feasible search";
  EXPECT_EQ(Res.Stats.CexPrunes, 0u)
      << "an update-independent counterexample planted a wrong-set entry";
  EXPECT_EQ(Res.Stats.SatClauses, 0u)
      << "an update-independent counterexample reached the SAT layer";
}

// --- Found vs budget-abort classification -----------------------------------

namespace {

/// Accepts everything, parking each call behind a gate; used to hold
/// sibling shards back until the race is decided.
class GatedAcceptAll : public CheckerBackend {
public:
  GatedAcceptAll(std::shared_ptr<std::atomic<bool>> Gate,
                 std::shared_ptr<std::atomic<unsigned>> Count)
      : Gate(std::move(Gate)), Count(std::move(Count)) {}

  const char *name() const override { return "GatedAcceptAll"; }
  void notifyRollback() override {}
  bool providesCounterexamples() const override { return false; }

protected:
  CheckResult bindImpl(KripkeStructure &, Formula) override {
    return serve();
  }
  CheckResult recheckImpl(const UpdateInfo &) override { return serve(); }

private:
  CheckResult serve() {
    if (Gate)
      while (!Gate->load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++Queries;
    Count->fetch_add(1);
    CheckResult R;
    R.Holds = true;
    return R;
  }

  std::shared_ptr<std::atomic<bool>> Gate; // Null: never blocks.
  std::shared_ptr<std::atomic<unsigned>> Count;
};

} // namespace

// A sibling shard stopped by the winner's Found token observes a stop
// with work units left — which is exactly what a budget abort looks like
// from inside the shard. It must be classified as a race loss: a Found
// run never reports a budget abort (the stray flag used to leak into
// stats and, without a winner, into the verdict).
TEST(AbortClassificationTest, FoundRunNeverReportsBudgetAbort) {
  Scenario S = diamondWithUpdates(5000, 4);
  unsigned NumOps = numUpdatingSwitches(S);

  auto Gate = std::make_shared<std::atomic<bool>>(false);
  auto PrimaryCount = std::make_shared<std::atomic<unsigned>>(0);
  auto SiblingCount = std::make_shared<std::atomic<unsigned>>(0);

  GatedAcceptAll Primary(nullptr, PrimaryCount);
  SynthOptions Opts;
  Opts.Shards = 2;
  Opts.ShardCheckerFactory = [&]() -> std::unique_ptr<CheckerBackend> {
    return std::make_unique<GatedAcceptAll>(Gate, SiblingCount);
  };

  SynthResult Res;
  std::thread Runner([&] {
    FormulaFactory FF;
    Res = synthesizeUpdate(S, FF, Primary, Opts);
  });
  // The ungated primary dives to a win in bind + NumOps calls; give the
  // Found token time to become visible, then release the parked sibling.
  for (unsigned I = 0; I != 10000 && PrimaryCount->load() < NumOps + 1; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  bool PrimaryFinished = PrimaryCount->load() == NumOps + 1;
  if (PrimaryFinished)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Gate->store(true);
  Runner.join();
  ASSERT_TRUE(PrimaryFinished) << "primary did not finish in time";

  ASSERT_EQ(Res.Status, SynthStatus::Success);
  EXPECT_FALSE(Res.Stats.HitBudget)
      << "a race loss was misclassified as a budget abort";
  EXPECT_EQ(Res.Stats.ExhaustedUnits, 0u);
}

namespace {

/// Binds cleanly, then parks the (single) recheck behind a gate and
/// rejects it — lets the test complete an exhaustive search while an
/// external stop fires mid-flight.
class GatedReject : public CheckerBackend {
public:
  GatedReject(std::shared_ptr<std::atomic<bool>> Gate,
              std::shared_ptr<std::atomic<bool>> Parked)
      : Gate(std::move(Gate)), Parked(std::move(Parked)) {}

  const char *name() const override { return "GatedReject"; }
  void notifyRollback() override {}
  bool providesCounterexamples() const override { return false; }

protected:
  CheckResult bindImpl(KripkeStructure &, Formula) override {
    ++Queries;
    CheckResult R;
    R.Holds = true;
    return R;
  }
  CheckResult recheckImpl(const UpdateInfo &) override {
    Parked->store(true);
    while (!Gate->load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++Queries;
    CheckResult R;
    R.Holds = false;
    return R;
  }

private:
  std::shared_ptr<std::atomic<bool>> Gate;
  std::shared_ptr<std::atomic<bool>> Parked;
};

} // namespace

// A stop (or wall expiry) observed only after every work unit has been
// claimed and completed must not taint the verdict: the exhaustive
// Impossible proof is already established. (Regression: the unit loop
// used to poll the stop before noticing the cursor was exhausted, so a
// late cancellation discarded a completed proof as Aborted.)
TEST(AbortClassificationTest, LateStopDoesNotDiscardCompletedProof) {
  // Collapse a diamond's diff to a single switch: one op, one work
  // unit, and the (gated, rejecting) checker refutes it in one call —
  // a complete exhaustive search. Scenario semantics don't matter; the
  // checker fabricates the verdicts.
  Scenario S = diamondWithUpdates(8000, 2);
  std::vector<SwitchId> Diff = diffSwitches(S.Initial, S.Final);
  for (size_t I = 1; I != Diff.size(); ++I)
    S.Final.setTable(Diff[I], S.Initial.table(Diff[I]));
  ASSERT_EQ(numUpdatingSwitches(S), 1u);

  auto Gate = std::make_shared<std::atomic<bool>>(false);
  auto Parked = std::make_shared<std::atomic<bool>>(false);
  GatedReject Checker(Gate, Parked);
  StopSource Stop;
  SynthOptions Opts;
  Opts.Stop = Stop.token();

  SynthResult Res;
  std::thread Runner([&] {
    FormulaFactory FF;
    Res = synthesizeUpdate(S, FF, Checker, Opts);
  });
  // Wait until the search is parked inside the final (and only) unit's
  // recheck — past its last pre-recheck stop checkpoint — then cancel
  // and release it: the unit completes, nothing is left to claim, and
  // the proof must stand.
  while (!Parked->load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Stop.requestStop();
  Gate->store(true);
  Runner.join();

  EXPECT_EQ(Res.Status, SynthStatus::Impossible)
      << "a stop observed after exhaustion discarded a completed proof";
  EXPECT_FALSE(Res.Stats.Interrupted);
}

// --- The abort-caching contract, across every Aborted path ------------------

// A pure quota-exhaustion abort is a pure function of (job, budget) —
// the budget is in the digest — so the engine caches and replays it:
// repeated doomed probes in an autotuning loop cost one real run.
TEST(AbortedCacheTest, QuotaExhaustionAbortsAreCachedAndReplayed) {
  SynthJob Job;
  Job.Name = "tight";
  Job.S = diamondWithUpdates(6000, 3);
  Job.Portfolio.emplace_back();
  Job.Portfolio[0].Opts.UnitCheckCalls = 1; // Guaranteed truncation.

  EngineOptions EO;
  EO.NumWorkers = 1;
  SynthEngine Engine(EO); // CacheResults on (the default).

  BatchReport First = Engine.run({Job});
  ASSERT_EQ(First.Reports[0].Result.Status, SynthStatus::Aborted);
  EXPECT_TRUE(First.Reports[0].Result.Stats.HitBudget);
  ASSERT_GT(First.Reports[0].Result.Stats.ExhaustedUnits, 0u);
  EXPECT_FALSE(First.Reports[0].Result.Stats.Interrupted);

  // The digest-identical resubmission replays the deterministic abort
  // — verdict and accounting included — without running anything.
  BatchReport Second = Engine.run({Job});
  EXPECT_EQ(Second.EngineCacheHits, 1u);
  EXPECT_TRUE(Second.Reports[0].FromCache);
  EXPECT_EQ(Second.Reports[0].Result.Status, SynthStatus::Aborted);
  EXPECT_EQ(Second.Reports[0].Result.Stats.ExhaustedUnits,
            First.Reports[0].Result.Stats.ExhaustedUnits);
  EXPECT_EQ(Second.Reports[0].Result.Stats.BudgetSpent,
            First.Reports[0].Result.Stats.BudgetSpent);
  EXPECT_EQ(Second.TotalQueries, 0u);

  // A budget one notch different is a different digest: it must run.
  SynthJob Widened = Job;
  Widened.Portfolio[0].Opts.UnitCheckCalls = 2;
  BatchReport Third = Engine.run({Widened});
  EXPECT_FALSE(Third.Reports[0].FromCache)
      << "a different budget must never replay another budget's abort";
}

// Timing-shaped aborts stay out of the cache: a soft-wall expiry
// reflects the run's clock, not the instance, and is flagged
// Interrupted — a digest-identical resubmission must execute again.
// (TimeoutSeconds is excluded from the digest precisely because its
// results are never cached.)
TEST(AbortedCacheTest, WallExpiryAbortsAreNeverCached) {
  SynthJob Job;
  Job.Name = "walled";
  Job.S = diamondWithUpdates(6100, 3);
  Job.Portfolio.emplace_back();
  Job.Portfolio[0].Opts.TimeoutSeconds = 1e-9; // Expired at first poll.

  EngineOptions EO;
  EO.NumWorkers = 1;
  SynthEngine Engine(EO);

  BatchReport First = Engine.run({Job});
  ASSERT_EQ(First.Reports[0].Result.Status, SynthStatus::Aborted);
  EXPECT_TRUE(First.Reports[0].Result.Stats.Interrupted);

  BatchReport Second = Engine.run({Job});
  EXPECT_EQ(Second.EngineCacheHits, 0u);
  EXPECT_FALSE(Second.Reports[0].FromCache);

  // And the wall expiry must not poison the *budgetless* digest the job
  // shares with a timeout-free twin: that twin runs for real too.
  SynthJob Untimed = Job;
  Untimed.Portfolio[0].Opts.TimeoutSeconds = 0.0;
  BatchReport Clean = Engine.run({Untimed});
  EXPECT_FALSE(Clean.Reports[0].FromCache);
  EXPECT_EQ(Clean.Reports[0].Result.Status, SynthStatus::Success);
}

namespace {

/// Blocks in bind() until released; accepts everything afterwards.
class GateChecker : public CheckerBackend {
public:
  explicit GateChecker(std::shared_ptr<std::atomic<bool>> Open)
      : Open(std::move(Open)) {}

  const char *name() const override { return "Gate"; }
  void notifyRollback() override {}
  bool providesCounterexamples() const override { return false; }

protected:
  CheckResult bindImpl(KripkeStructure &, Formula) override {
    while (!Open->load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++Queries;
    CheckResult R;
    R.Holds = true;
    return R;
  }
  CheckResult recheckImpl(const UpdateInfo &) override {
    ++Queries;
    CheckResult R;
    R.Holds = true;
    return R;
  }

private:
  std::shared_ptr<std::atomic<bool>> Open;
};

} // namespace

// Shutdown path: jobs still queued when the engine dies are reported
// Aborted by the destructor — and a later engine sharing the same cache
// must run them for real.
TEST(AbortedCacheTest, ShutdownOrphansAreNeverCached) {
  auto Open = std::make_shared<std::atomic<bool>>(false);
  BackendFactory::instance().registerBackend(
      "budget-gate", [Open](const Scenario &) {
        return std::make_unique<GateChecker>(Open);
      });

  auto SharedCache = std::make_shared<ResultCache>();

  SynthJob Blocker;
  Blocker.Name = "blocker";
  Blocker.S = diamondWithUpdates(7000, 3);
  Blocker.Portfolio.emplace_back();
  Blocker.Portfolio[0].Backend = "budget-gate";

  SynthJob Orphan;
  Orphan.Name = "orphan";
  Orphan.S = diamondWithUpdates(7100, 3);

  JobHandle OrphanHandle;
  {
    EngineOptions EO;
    EO.NumWorkers = 1;
    EO.Cache = SharedCache;
    SynthEngine Engine(EO);
    Engine.submit(Blocker); // Occupies the only worker, parked in bind.
    OrphanHandle = Engine.submit(Orphan);
    EXPECT_FALSE(OrphanHandle.done());
    Open->store(true);
    // Destructor: the blocker finishes, the orphan is reported Aborted
    // without running.
  }
  ASSERT_TRUE(OrphanHandle.done());
  EXPECT_EQ(OrphanHandle.wait().Result.Status, SynthStatus::Aborted);

  EngineOptions EO2;
  EO2.NumWorkers = 1;
  EO2.Cache = SharedCache;
  SynthEngine Fresh(EO2);
  BatchReport Rep = Fresh.run({Orphan});
  EXPECT_FALSE(Rep.Reports[0].FromCache)
      << "a shutdown-aborted job leaked into the shared result cache";
  EXPECT_EQ(Rep.Reports[0].Result.Status, SynthStatus::Success);
}

// The cancel-races-completion window: whether the cancel lands before,
// during, or after the job, the invariant holds — a served cache entry
// is never Aborted, and an Aborted report is never served from cache.
TEST(AbortedCacheTest, CancelRacingCompletionNeverPoisonsTheCache) {
  Scenario S = diamondWithUpdates(7200, 3);
  for (unsigned Round = 0; Round != 6; ++Round) {
    EngineOptions EO;
    EO.NumWorkers = 1;
    SynthEngine Engine(EO);

    SynthJob Job;
    Job.Name = "raced";
    Job.S = S;

    JobHandle H = Engine.submit(Job);
    if (Round % 2)
      std::this_thread::sleep_for(std::chrono::microseconds(50 * Round));
    H.cancel();
    const SynthReport &Rep = H.wait();

    if (Rep.Result.Status == SynthStatus::Aborted) {
      // The retry must execute, not replay the abort.
      BatchReport Retry = Engine.run({Job});
      EXPECT_FALSE(Retry.Reports[0].FromCache) << "round " << Round;
      EXPECT_EQ(Retry.Reports[0].Result.Status, SynthStatus::Success);
    } else {
      // Completion won the race; a cached replay must carry the real
      // verdict.
      EXPECT_EQ(Rep.Result.Status, SynthStatus::Success);
      BatchReport Retry = Engine.run({Job});
      EXPECT_EQ(Retry.Reports[0].Result.Status, SynthStatus::Success);
    }
  }
}
