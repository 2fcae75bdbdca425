//===- tests/conflict_test.cpp - proof shedding and subsumption -*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for what the search keeps of its learned refutations across
/// runs and shards: portfolio proof shedding, ConstraintStore insert-time
/// subsumption, and budget purity. The contracts:
///
///  - the SAT layer restarts on the pinned Luby schedule (sat::luby);
///  - ConstraintStore insert-time subsumption keeps only the frontier
///    of strongest refutations and counts both drop directions;
///  - budget mode is a pure function of (job, budget): byte-identical
///    across shard counts, BudgetSpent included, and a completing
///    budget run agrees with the unlimited verdict;
///  - learned clauses still refute — a store seeded by an earlier run
///    reproduces the reference verdict and (sequentially) the
///    byte-identical sequence, and accelerates an Impossible re-proof;
///  - the shed consumes up-front UNSAT proofs only for members whose
///    standalone run is sure to complete; budgeted or timed members run
///    the full search (and still publish what they learn).
///
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "mc/BackendFactory.h"
#include "net/Config.h"
#include "sat/Solver.h"
#include "support/ConstraintStore.h"
#include "synth/OrderUpdate.h"
#include "topo/Generators.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

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

/// A deep exhaustive Impossible proof, the bench/engine_scaling.cpp
/// "deep-proof" recipe at a test-sized diff cap: a long-path diamond
/// whose final config blackholes the destination, so the search must
/// refute the entire safe sub-lattice — thousands of counterexamples to
/// learn from. \p Skip selects among the instances the seed grows; the
/// tests use Skip=1, whose lattice is refuted within a few thousand
/// checker queries.
Scenario deepImpossible(unsigned Skip = 0) {
  constexpr unsigned DiffCap = 22;
  Rng SR(23);
  DiamondOptions DO;
  DO.LongPaths = true;
  for (unsigned I = 0; I != 32; ++I) {
    Rng Fork = SR.fork();
    Topology Base = buildSmallWorld(96, 4, 0.2, Fork);
    std::optional<Scenario> S =
        makeDiamondScenario(Base, Fork, PropertyKind::Reachability, DO);
    if (!S)
      continue;
    if (Skip > 0) {
      --Skip;
      continue;
    }
    SwitchId Dst = S->Flows[0].FinalPath.back();
    S->Final.setTable(Dst, Table());
    std::vector<SwitchId> Diff = diffSwitches(S->Initial, S->Final);
    unsigned Kept = 0;
    for (SwitchId Sw : Diff) {
      if (Sw == Dst)
        continue;
      if (++Kept > DiffCap - 1)
        S->Final.setTable(Sw, S->Initial.table(Sw));
    }
    return std::move(*S);
  }
  ADD_FAILURE() << "no deep-proof instance grew from seed 23";
  return Scenario{};
}

/// What one run observably produced, for invariance comparisons.
struct RunResult {
  SynthStatus Status = SynthStatus::Aborted;
  std::string Rendered; // commandSeqToString: the byte-exact fingerprint.
  CommandSeq Commands;
  SynthStats Stats;
};

/// Runs one single-member job on a fresh 1-worker engine with the result
/// cache off (the search layer, not replay, is under test). \p Store
/// null means SharedLearning off. \p Tweak adjusts the member's
/// SynthOptions (budgets, timeouts, the SAT layer).
RunResult runOnce(const Scenario &S, const std::string &Backend,
                  unsigned Shards,
                  const std::shared_ptr<ConstraintStore> &Store,
                  const std::function<void(SynthOptions &)> &Tweak = {}) {
  SynthJob Job;
  Job.S = S;
  PortfolioMember M;
  M.Backend = Backend;
  M.Opts.Shards = Shards;
  if (Tweak)
    Tweak(M.Opts);
  Job.Portfolio.push_back(std::move(M));

  EngineOptions EO;
  EO.NumWorkers = 1;
  EO.CacheResults = false;
  EO.SharedLearning = Store != nullptr;
  EO.Learning = Store;
  SynthEngine Engine(EO);
  BatchReport Rep = Engine.run({Job});
  const SynthReport &R = Rep.Reports[0];
  EXPECT_TRUE(R.Members[0].Error.empty()) << R.Members[0].Error;

  RunResult Out;
  Out.Status = R.Result.Status;
  Out.Rendered = commandSeqToString(S.Topo, R.Result.Commands);
  Out.Commands = R.Result.Commands;
  Out.Stats = R.Result.Stats;
  return Out;
}

Bitset bits(size_t N, std::initializer_list<unsigned> Set) {
  Bitset B(N);
  for (unsigned I : Set)
    B.set(I);
  return B;
}

} // namespace

// --- The restart cadence ----------------------------------------------------

// The SAT layer's solver restarts on the Luby schedule; pin the sequence
// (0-based, as sat::luby documents).
TEST(ConflictLubyTest, SequencePin) {
  const uint64_t Expect[] = {1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8};
  for (size_t I = 0; I != std::size(Expect); ++I)
    EXPECT_EQ(sat::luby(I), Expect[I]) << "index " << I;
}

// --- ConstraintStore subsumption --------------------------------------------

TEST(ConflictStoreTest, SubsumesOrdersRefutationStrength) {
  using Entry = ConstraintStore::Entry;
  Entry Small{bits(6, {1, 3}), bits(6, {1})};
  Entry Fat{bits(6, {1, 2, 3}), bits(6, {1, 2})};
  Entry Disagrees{bits(6, {1, 2, 3}), bits(6, {2, 3})};
  // Fat's value agrees with Small on Small's mask and carries more
  // constraints: every config Fat refutes, Small refutes too.
  EXPECT_TRUE(ConstraintStore::subsumes(Small, Fat));
  EXPECT_FALSE(ConstraintStore::subsumes(Fat, Small))
      << "a superset mask must never subsume its own core";
  EXPECT_FALSE(ConstraintStore::subsumes(Small, Disagrees))
      << "value disagreement on the core's mask breaks subsumption";
  EXPECT_TRUE(ConstraintStore::subsumes(Small, Small))
      << "subsumption must be reflexive";
}

TEST(ConflictStoreTest, InsertTimeSubsumptionKeepsOnlyTheFrontier) {
  ConstraintStore Store;
  Digest Key = ConstraintStore::keyFor(Digest{11, 11}, false);

  // A fat ancestor, then a smaller core of it: the core
  // evicts the ancestor (reverse subsumption), and the drop is counted.
  size_t Dropped = 0;
  EXPECT_EQ(Store.publish(Key, 6, {{bits(6, {1, 2, 3}), bits(6, {1, 2})}},
                          &Dropped),
            1u);
  EXPECT_EQ(Dropped, 0u);
  EXPECT_EQ(Store.publish(Key, 6, {{bits(6, {1, 3}), bits(6, {1})}},
                          &Dropped),
            1u);
  EXPECT_EQ(Dropped, 1u) << "the smaller core must evict its ancestor";
  std::vector<ConstraintStore::Entry> Frontier = Store.fetch(Key, 6);
  ASSERT_EQ(Frontier.size(), 1u);
  EXPECT_EQ(Frontier[0].first, bits(6, {1, 3}));

  // Forward direction: an incoming entry dominated by the stored core
  // is dropped at insert, and also counted.
  Dropped = 0;
  EXPECT_EQ(Store.publish(Key, 6, {{bits(6, {1, 3, 5}), bits(6, {1, 5})}},
                          &Dropped),
            0u);
  EXPECT_EQ(Dropped, 1u) << "a dominated incoming entry must be dropped";
  EXPECT_EQ(Store.fetch(Key, 6).size(), 1u);

  // An up-front UNSAT proof survives later publishes, and publishes
  // survive the proof: the two records are independent halves of one key.
  EXPECT_FALSE(Store.knownImpossible(Key));
  Store.markImpossible(Key, 6);
  EXPECT_TRUE(Store.knownImpossible(Key));
  EXPECT_EQ(Store.publish(Key, 6, {{bits(6, {0, 2}), bits(6, {2})}}), 1u);
  EXPECT_TRUE(Store.knownImpossible(Key));
  EXPECT_EQ(Store.fetch(Key, 6).size(), 2u);
}

// --- Budget purity ---------------------------------------------------------

// Budget mode: the outcome is a pure function of (job, budget) —
// byte-identical across shard counts, BudgetSpent included — and a
// completing budget cell agrees with the unlimited verdict (the
// contract the fuzzer's cell matrix holds at scale).
TEST(ConflictInvarianceTest, BudgetPurityAcrossShards) {
  Scenario Feas = diamondWithUpdates(9000, 4);
  RunResult Unlimited = runOnce(Feas, "incremental", 1, nullptr);
  ASSERT_EQ(Unlimited.Status, SynthStatus::Success);
  for (uint64_t Unit : {uint64_t(2), uint64_t(100000)}) {
    auto Tweak = [Unit](SynthOptions &O) { O.UnitCheckCalls = Unit; };
    RunResult Seq = runOnce(Feas, "incremental", 1, nullptr, Tweak);
    RunResult Sharded = runOnce(Feas, "incremental", 4, nullptr, Tweak);
    EXPECT_EQ(Sharded.Status, Seq.Status)
        << "unit=" << Unit
        << ": a budgeted verdict depended on the shard count";
    EXPECT_EQ(Sharded.Rendered, Seq.Rendered) << "unit=" << Unit;
    EXPECT_EQ(Sharded.Stats.BudgetSpent, Seq.Stats.BudgetSpent)
        << "unit=" << Unit;
    if (Seq.Status != SynthStatus::Aborted) {
      EXPECT_EQ(Seq.Status, Unlimited.Status)
          << "unit=" << Unit
          << ": a completing budget cell drifted from the unlimited verdict";
    }
  }
}

// --- Learned clauses still refute -------------------------------------------

// Soundness end to end: a store populated by one run seeds a later run
// without changing one byte of a feasible sequential result (an
// over-generalized mask would prune a correct order), and a deep
// Impossible re-proof from stored clauses is both correct and cheaper
// than the original derivation.
TEST(ConflictSoundnessTest, LearnedClausesStillRefute) {
  Scenario Feas = diamondWithUpdates(9000, 4);
  RunResult Ref = runOnce(Feas, "incremental", 1, nullptr);
  auto Store = std::make_shared<ConstraintStore>();
  runOnce(Feas, "incremental", 1, Store); // Populates.
  RunResult Seeded = runOnce(Feas, "incremental", 1, Store);
  EXPECT_EQ(Seeded.Status, Ref.Status);
  EXPECT_EQ(Seeded.Rendered, Ref.Rendered)
      << "seeding with learned clauses changed the sequential sequence";

  Scenario Deep = deepImpossible(1);
  auto DeepStore = std::make_shared<ConstraintStore>();
  auto NoEt = [](SynthOptions &O) { O.EarlyTermination = false; };
  RunResult P1 = runOnce(Deep, "incremental", 1, DeepStore, NoEt);
  ASSERT_EQ(P1.Status, SynthStatus::Impossible);
  ASSERT_GT(P1.Stats.ExportedConstraints, 0u);
  // Timed: the soft wall hint (never firing) makes the member
  // non-sheddable, so this exercises the seeded search rather than the
  // up-front shed P1's proof would trigger.
  RunResult P2 = runOnce(Deep, "incremental", 1, DeepStore,
                         [&](SynthOptions &O) {
                           NoEt(O);
                           O.TimeoutSeconds = 3600.0;
                         });
  EXPECT_EQ(P2.Status, SynthStatus::Impossible)
      << "stored clauses failed to re-prove the instance";
  EXPECT_GT(P2.Stats.ImportedConstraints, 0u);
  EXPECT_LT(P2.Stats.CheckCalls, P1.Stats.CheckCalls)
      << "the seeded re-proof should be cheaper than the derivation";
}

// --- Learning-aware shed ----------------------------------------------------

// The shed answers a member from a stored up-front UNSAT proof only when
// its standalone run is sure to complete: a budgeted member (a quota
// could report Aborted) or a timed one (a soft wall could interrupt)
// runs the full search even with the proof in the store — but its own
// proof still publishes, so a later default member sheds on it.
TEST(ConflictShedTest, UnsheddableMembersRunFullButStillPublish) {
  Scenario Inf = doubleDiamond(9);

  // Proof published by a default run; a default repeat sheds on it.
  auto Store = std::make_shared<ConstraintStore>();
  RunResult First = runOnce(Inf, "incremental", 1, Store);
  ASSERT_EQ(First.Status, SynthStatus::Impossible);
  ASSERT_EQ(First.Stats.ShedMembers, 0u);

  RunResult Shed = runOnce(Inf, "incremental", 1, Store);
  EXPECT_EQ(Shed.Status, SynthStatus::Impossible);
  EXPECT_EQ(Shed.Stats.ShedMembers, 1u);
  EXPECT_EQ(Shed.Stats.CheckCalls, 0u);

  struct Unsheddable {
    const char *Name;
    std::function<void(SynthOptions &)> Tweak;
  };
  const Unsheddable Members[] = {
      {"budgeted", [](SynthOptions &O) { O.UnitCheckCalls = 100000; }},
      {"timed", [](SynthOptions &O) { O.TimeoutSeconds = 3600.0; }},
  };
  for (const Unsheddable &U : Members) {
    RunResult Full = runOnce(Inf, "incremental", 1, Store, U.Tweak);
    EXPECT_EQ(Full.Status, SynthStatus::Impossible)
        << U.Name << ": the shed gate must never change a verdict";
    EXPECT_EQ(Full.Stats.ShedMembers, 0u)
        << U.Name << " member consumed a proof its own run might not reach";
    EXPECT_GT(Full.Stats.CheckCalls, 0u)
        << U.Name << " member must pay for its own search";

    // The reverse direction: its proof feeds later default members.
    auto Fresh = std::make_shared<ConstraintStore>();
    RunResult UFirst = runOnce(Inf, "incremental", 1, Fresh, U.Tweak);
    ASSERT_EQ(UFirst.Status, SynthStatus::Impossible) << U.Name;
    EXPECT_EQ(UFirst.Stats.ShedMembers, 0u) << U.Name;
    EXPECT_GT(UFirst.Stats.ExportedConstraints, 0u)
        << U.Name << " members must still publish what they learned";
    RunResult Second = runOnce(Inf, "incremental", 1, Fresh);
    EXPECT_EQ(Second.Status, SynthStatus::Impossible) << U.Name;
    EXPECT_EQ(Second.Stats.ShedMembers, 1u)
        << "a default member should shed on the " << U.Name
        << " member's proof";
    EXPECT_EQ(Second.Stats.CheckCalls, 0u) << U.Name;
  }
}
