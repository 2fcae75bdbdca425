//===- tests/shard_test.cpp - sharded-search tests -------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the prefix-split sharded DFS (SynthOptions::Shards):
/// verdict/sequence-class agreement with the sequential search across
/// the whole backend registry, graceful degradation without a checker
/// factory, sibling-shard cancellation on the first found sequence,
/// per-shard statistics merging, and the engine's IntraJobShards
/// default.
///
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "mc/BackendFactory.h"
#include "mc/LabelingChecker.h"
#include "support/ConcurrentSet.h"
#include "synth/OrderUpdate.h"
#include "topo/Generators.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

using namespace netupd;
using namespace netupd::testutil;

namespace {

/// A feasible diamond scenario with at least \p MinUpdates updating
/// switches, so a Shards-wide split has real work units. Deterministic:
/// scans seeds from \p FirstSeed upward.
Scenario diamondWithUpdates(uint64_t FirstSeed, unsigned MinUpdates,
                            PropertyKind Kind = PropertyKind::Reachability) {
  for (uint64_t Seed = FirstSeed; Seed != FirstSeed + 64; ++Seed) {
    Rng R(Seed);
    Topology Base = buildSmallWorld(24, 4, 0.2, R);
    std::optional<Scenario> S = makeDiamondScenario(Base, R, Kind);
    if (S && numUpdatingSwitches(*S) >= MinUpdates)
      return std::move(*S);
  }
  ADD_FAILURE() << "no diamond with >= " << MinUpdates
                << " updating switches from seed " << FirstSeed;
  return Scenario{};
}

/// An exhaustion-proof instance: a feasible diamond whose destination is
/// blackholed in the final configuration, so every order fails and the
/// search must cover the whole safe sub-lattice to report Impossible.
Scenario blackholedDiamond(uint64_t FirstSeed, unsigned MinUpdates) {
  Scenario S = diamondWithUpdates(FirstSeed, MinUpdates);
  if (S.Flows.empty())
    return S;
  SwitchId Dst = S.Flows[0].FinalPath.back();
  S.Final.setTable(Dst, Table());
  return S;
}

/// The Fig. 8(h) instance: switch-granularity infeasible, rule feasible.
Scenario doubleDiamond(uint64_t Seed) {
  Rng R(Seed);
  Topology Base = buildSmallWorld(20, 4, 0.2, R);
  std::optional<Scenario> S = makeDoubleDiamondScenario(Base, R);
  EXPECT_TRUE(S.has_value()) << "seed " << Seed << " grew no double diamond";
  return std::move(*S);
}

/// Replay-checks a successful result: every intermediate configuration
/// satisfies the property, and the end configuration is semantically the
/// final one — the "same sequence class" notion the sharded search
/// guarantees (the exact sequence may differ run to run).
void expectCorrectSequence(const Scenario &S, const SynthResult &Res) {
  FormulaFactory FF;
  Formula Phi = S.buildProperty(FF);
  EXPECT_TRUE(allIntermediateConfigsHold(S.Topo, S.Initial, S.classes(), Phi,
                                         Res.Commands))
      << "sharded search produced an unsafe sequence";
  Config Cur = S.Initial;
  applyCommands(Cur, Res.Commands);
  for (SwitchId Sw : diffSwitches(Cur, S.Final))
    for (const TrafficClass &C : S.classes())
      for (PortId Pt : S.Topo.switchPorts(Sw))
        EXPECT_EQ(Cur.table(Sw).apply(C.Hdr, Pt),
                  S.Final.table(Sw).apply(C.Hdr, Pt))
            << "sequence does not reach the final configuration";
}

/// Runs one backend over \p S sequentially and with \p Shards shards
/// (portfolio-disabled: a single-member job) and returns both statuses.
std::pair<SynthStatus, SynthStatus>
runBothWays(const Scenario &S, const std::string &Backend, unsigned Shards,
            bool RuleGranularity = false) {
  SynthStatus Out[2] = {SynthStatus::Aborted, SynthStatus::Aborted};
  for (unsigned Sharded = 0; Sharded != 2; ++Sharded) {
    SynthJob Job;
    Job.S = S;
    PortfolioMember M;
    M.Backend = Backend;
    M.Opts.RuleGranularity = RuleGranularity;
    M.Opts.Shards = Sharded ? Shards : 1;
    Job.Portfolio.push_back(std::move(M));

    EngineOptions EO;
    EO.NumWorkers = 1;
    EO.CacheResults = false; // Compare real runs, not cached replays.
    SynthEngine Engine(EO);
    BatchReport Rep = Engine.run({Job});
    const SynthReport &R = Rep.Reports[0];
    EXPECT_TRUE(R.Members[0].Error.empty()) << R.Members[0].Error;
    Out[Sharded] = R.Result.Status;
    if (R.ok())
      expectCorrectSequence(S, R.Result);
  }
  return {Out[0], Out[1]};
}

} // namespace

// Acceptance: with shards > 1 on a portfolio-disabled job, every
// registered backend returns the same verdict (and a correct sequence of
// the same class) as the sequential search.
TEST(ShardedSearchTest, MatchesSequentialAcrossBackendRegistry) {
  Scenario S = diamondWithUpdates(100, 4);
  for (const std::string &Name : BackendFactory::instance().names()) {
    auto [Seq, Sharded] = runBothWays(S, Name, 4);
    EXPECT_EQ(Seq, SynthStatus::Success) << Name;
    EXPECT_EQ(Seq, Sharded) << Name << ": shard count changed the verdict";
  }
  // The other shard counts split the same search (a count above the
  // number of units is clamped to it).
  for (unsigned Shards : {2u, 8u}) {
    auto [Seq, Sharded] = runBothWays(S, "incremental", Shards);
    EXPECT_EQ(Seq, SynthStatus::Success);
    EXPECT_EQ(Seq, Sharded) << Shards << " shards changed the verdict";
  }
  // The memoizing decorator composes with sharding: every shard owns a
  // private decorator over the shared check cache.
  auto [Seq, Sharded] = runBothWays(S, "memo:incremental", 4);
  EXPECT_EQ(Seq, SynthStatus::Success);
  EXPECT_EQ(Seq, Sharded);
}

// Infeasibility verdicts must also be scheduling-independent: the
// switch-granularity double diamond and the blackholed diamond prove
// Impossible under any shard count, and the rule-granularity search on
// the double diamond still succeeds.
TEST(ShardedSearchTest, InfeasibleVerdictsSurviveSharding) {
  Scenario S = doubleDiamond(9);
  for (const char *Backend : {"incremental", "batch"}) {
    auto [Seq, Sharded] = runBothWays(S, Backend, 3);
    EXPECT_EQ(Seq, SynthStatus::Impossible) << Backend;
    EXPECT_EQ(Seq, Sharded) << Backend;
  }
  Scenario Blackholed = blackholedDiamond(300, 4);
  for (unsigned Shards : {2u, 4u, 8u}) {
    auto [Seq, Sharded] = runBothWays(Blackholed, "incremental", Shards);
    EXPECT_EQ(Seq, SynthStatus::Impossible) << Shards << " shards";
    EXPECT_EQ(Seq, Sharded) << Shards << " shards";
  }
  auto [Seq, Sharded] =
      runBothWays(S, "incremental", 3, /*RuleGranularity=*/true);
  EXPECT_EQ(Seq, SynthStatus::Success);
  EXPECT_EQ(Seq, Sharded);
}

// A universe wider than ClaimBitmap::MaxBits ops cannot be indexed
// directly, so its sharded V claim falls back to the striped
// ConcurrentSet. That path must still agree with the sequential search.
TEST(ShardedSearchTest, WideUniverseSetClaimMatchesSequential) {
  DiamondOptions DO;
  DO.LongPaths = true;
  std::optional<Scenario> S;
  for (uint64_t Seed = 1; Seed != 64 && !S; ++Seed) {
    Rng R(Seed);
    Topology Base = buildSmallWorld(120, 4, 0.1, R);
    S = makeDiamondScenario(Base, R, PropertyKind::Reachability, DO);
    if (S && numUpdatingSwitches(*S) <= ClaimBitmap::MaxBits)
      S.reset();
  }
  ASSERT_TRUE(S.has_value()) << "no diamond wider than the claim bitmap";
  auto [Seq, Sharded] = runBothWays(*S, "incremental", 4);
  EXPECT_EQ(Seq, SynthStatus::Success);
  EXPECT_EQ(Seq, Sharded) << "the set-claim fallback changed the verdict";
}

// Shards > 1 without a ShardCheckerFactory must degrade to the classic
// sequential search, not fail.
TEST(ShardedSearchTest, NoFactoryDegradesToSequential) {
  Scenario S = diamondWithUpdates(200, 3);
  LabelingChecker Checker(LabelingChecker::Mode::Incremental);
  FormulaFactory FF;
  SynthOptions Opts;
  Opts.Shards = 8; // No factory set.
  SynthResult Res = synthesizeUpdate(S, FF, Checker, Opts);
  ASSERT_EQ(Res.Status, SynthStatus::Success);
  expectCorrectSequence(S, Res);
  EXPECT_EQ(Res.Stats.CheckCalls, Checker.numQueries())
      << "sequential degradation must keep single-checker accounting";
}

namespace {

/// A checker that accepts every configuration, optionally blocking each
/// call until a shared gate opens; used to control shard interleavings
/// deterministically.
class GatedAcceptAll : public CheckerBackend {
public:
  GatedAcceptAll(std::shared_ptr<std::atomic<bool>> Gate,
                 std::shared_ptr<std::atomic<unsigned>> Count)
      : Gate(std::move(Gate)), Count(std::move(Count)) {}

  CheckResult bindImpl(KripkeStructure &, Formula) override { return serve(); }
  CheckResult recheckImpl(const UpdateInfo &) override {
    return serve();
  }
  void notifyRollback() override {}
  bool providesCounterexamples() const override { return false; }
  const char *name() const override { return "GatedAcceptAll"; }

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

// The Found token: the first shard to complete a sequence cancels its
// siblings. The siblings here are parked behind a gate inside bind();
// once released — after the primary shard has already won — they must
// observe the cancellation and stop without pulling a single work unit.
TEST(ShardedSearchTest, WinnerCancelsSiblingShards) {
  Scenario S = diamondWithUpdates(300, 6);
  unsigned NumOps = numUpdatingSwitches(S);
  ASSERT_GE(NumOps, 6u);

  auto Gate = std::make_shared<std::atomic<bool>>(false);
  auto PrimaryCount = std::make_shared<std::atomic<unsigned>>(0);

  std::mutex SiblingM;
  std::vector<std::shared_ptr<std::atomic<unsigned>>> SiblingCounts;

  GatedAcceptAll Primary(nullptr, PrimaryCount);
  SynthOptions Opts;
  Opts.Shards = 3;
  Opts.WaitRemoval = false; // Keep the command count exactly NumOps.
  Opts.ShardCheckerFactory = [&]() -> std::unique_ptr<CheckerBackend> {
    auto Count = std::make_shared<std::atomic<unsigned>>(0);
    {
      std::lock_guard<std::mutex> Lock(SiblingM);
      SiblingCounts.push_back(Count);
    }
    return std::make_unique<GatedAcceptAll>(Gate, Count);
  };

  SynthResult Res;
  std::thread Runner([&] {
    FormulaFactory FF;
    Res = synthesizeUpdate(S, FF, Primary, Opts);
  });

  // The ungated primary accepts everything: its first unit dives straight
  // to a full sequence in bind + NumOps queries, then records the win.
  for (unsigned I = 0; I != 10000 && PrimaryCount->load() < NumOps + 1; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  bool PrimaryFinished = PrimaryCount->load() == NumOps + 1;
  if (PrimaryFinished) {
    // Give the win ample time to propagate to the Found token before
    // releasing the parked siblings.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  // Open the gate and join before any assertion can exit the test body:
  // returning with Runner joinable would std::terminate the process.
  Gate->store(true);
  Runner.join();
  ASSERT_TRUE(PrimaryFinished) << "primary did not finish in time";

  ASSERT_EQ(Res.Status, SynthStatus::Success);
  unsigned Updates = 0;
  for (const Command &C : Res.Commands)
    Updates += C.K == Command::Kind::Update;
  EXPECT_EQ(Updates, NumOps);

  ASSERT_EQ(SiblingCounts.size(), 2u) << "expected Shards - 1 factory calls";
  for (const auto &Count : SiblingCounts) {
    // One gated bind each; at most one stray recheck if a sibling
    // squeezed a unit in before the cancellation became visible.
    EXPECT_LE(Count->load(), 2u)
        << "sibling shard kept searching after the race was decided";
  }
  // Every checker's work is accounted: primary + both siblings.
  uint64_t Expected = PrimaryCount->load();
  for (const auto &Count : SiblingCounts)
    Expected += Count->load();
  EXPECT_EQ(Res.Stats.BackendQueries, Expected);
  EXPECT_EQ(Res.Stats.CheckCalls, Expected)
      << "plain backends serve every search query themselves";
}

namespace {

/// Forwards to a real checker while counting calls into a shared total;
/// lets the merge test compare search-side and backend-side accounting
/// across shard instances whose lifetimes end inside the search.
class CountingProxy : public CheckerBackend {
public:
  CountingProxy(std::unique_ptr<CheckerBackend> Inner,
                std::shared_ptr<std::atomic<uint64_t>> Total)
      : Inner(std::move(Inner)), Total(std::move(Total)) {}

  CheckResult bindImpl(KripkeStructure &K, Formula Phi) override {
    ++Queries;
    Total->fetch_add(1);
    return Inner->bind(K, Phi);
  }
  CheckResult recheckImpl(const UpdateInfo &U) override {
    ++Queries;
    Total->fetch_add(1);
    return Inner->recheckAfterUpdate(U);
  }
  void notifyRollback() override { Inner->notifyRollback(); }
  bool providesCounterexamples() const override {
    return Inner->providesCounterexamples();
  }
  const char *name() const override { return "CountingProxy"; }

private:
  std::unique_ptr<CheckerBackend> Inner;
  std::shared_ptr<std::atomic<uint64_t>> Total;
};

} // namespace

// Per-shard SynthStats flow through mergeFrom into one result: the
// search-side CheckCalls total must equal the calls every checker
// instance actually served (each shard's bind included), and
// BackendQueries must agree for plain (non-memoizing) backends.
TEST(ShardedSearchTest, ShardStatsMergeAccounting) {
  Scenario S = diamondWithUpdates(400, 5);
  auto Total = std::make_shared<std::atomic<uint64_t>>(0);
  std::atomic<unsigned> Instances{0};

  CountingProxy Primary(
      std::make_unique<LabelingChecker>(LabelingChecker::Mode::Incremental),
      Total);
  SynthOptions Opts;
  Opts.Shards = 4;
  Opts.ShardCheckerFactory = [&]() -> std::unique_ptr<CheckerBackend> {
    Instances.fetch_add(1);
    return std::make_unique<CountingProxy>(
        std::make_unique<LabelingChecker>(LabelingChecker::Mode::Incremental),
        Total);
  };

  FormulaFactory FF;
  SynthResult Res = synthesizeUpdate(S, FF, Primary, Opts);
  ASSERT_EQ(Res.Status, SynthStatus::Success);
  expectCorrectSequence(S, Res);

  EXPECT_EQ(Instances.load(), 3u) << "one factory call per extra shard";
  EXPECT_EQ(Res.Stats.CheckCalls, Total->load())
      << "merged CheckCalls must count every shard's queries";
  EXPECT_EQ(Res.Stats.BackendQueries, Total->load());
  EXPECT_GE(Res.Stats.CheckCalls, 4u) << "every shard binds once";
}

// EngineOptions::IntraJobShards applies sharding to members that didn't
// choose, through the engine's own factory wiring — and must preserve
// the verdict.
TEST(ShardedSearchTest, EngineDefaultShardsMatchesUnsharded) {
  Scenario S = diamondWithUpdates(500, 4);
  SynthStatus Verdicts[2];
  for (unsigned Sharded = 0; Sharded != 2; ++Sharded) {
    SynthJob Job;
    Job.S = S; // Empty portfolio: the default incremental member.
    EngineOptions EO;
    EO.NumWorkers = 1;
    EO.CacheResults = false;
    EO.IntraJobShards = Sharded ? 4 : 0;
    SynthEngine Engine(EO);
    BatchReport Rep = Engine.run({Job});
    Verdicts[Sharded] = Rep.Reports[0].Result.Status;
    ASSERT_TRUE(Rep.Reports[0].ok());
    expectCorrectSequence(S, Rep.Reports[0].Result);
    EXPECT_GT(Rep.TotalQueries, 0u);
  }
  EXPECT_EQ(Verdicts[0], Verdicts[1]);
}

// An explicit Shards = 1 pins the sequential search even under an
// engine-wide IntraJobShards default; only unset (0) members pick the
// default up. Observable through the backend factory: sharded runs
// instantiate extra per-shard checkers, sequential runs exactly one.
TEST(ShardedSearchTest, ExplicitSequentialMemberResistsEngineDefault) {
  Scenario S = diamondWithUpdates(800, 4);
  auto Instances = std::make_shared<std::atomic<unsigned>>(0);
  BackendFactory::instance().registerBackend(
      "counting-incremental", [Instances](const Scenario &) {
        Instances->fetch_add(1);
        return std::make_unique<LabelingChecker>(
            LabelingChecker::Mode::Incremental);
      });

  for (unsigned ExplicitOne : {1u, 0u}) {
    Instances->store(0);
    SynthJob Job;
    Job.S = S;
    PortfolioMember M;
    M.Backend = "counting-incremental";
    M.Opts.Shards = ExplicitOne; // 1: pinned sequential; 0: unset.
    Job.Portfolio.push_back(std::move(M));

    EngineOptions EO;
    EO.NumWorkers = 1;
    EO.CacheResults = false;
    EO.IntraJobShards = 4;
    SynthEngine Engine(EO);
    BatchReport Rep = Engine.run({Job});
    ASSERT_TRUE(Rep.Reports[0].ok());
    if (ExplicitOne)
      EXPECT_EQ(Instances->load(), 1u)
          << "explicit Shards = 1 must suppress the engine default";
    else
      EXPECT_GE(Instances->load(), 2u)
          << "unset Shards must pick up IntraJobShards";
  }
}

namespace {

/// Binds cleanly but rejects every update, with rechecks parked behind a
/// gate — holds the search mid-unit so a cancellation can be fired at a
/// controlled point.
class GatedRejectAll : public CheckerBackend {
public:
  GatedRejectAll(std::shared_ptr<std::atomic<bool>> Gate)
      : Gate(std::move(Gate)) {}

  CheckResult bindImpl(KripkeStructure &, Formula) override {
    ++Queries;
    CheckResult R;
    R.Holds = true;
    return R;
  }
  CheckResult recheckImpl(const UpdateInfo &) override {
    while (!Gate->load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ++Queries;
    CheckResult R;
    R.Holds = false;
    return R;
  }
  void notifyRollback() override {}
  bool providesCounterexamples() const override { return false; }
  const char *name() const override { return "GatedRejectAll"; }

private:
  std::shared_ptr<std::atomic<bool>> Gate;
};

} // namespace

// A cancellation observed between work units must surface as Aborted —
// never as Impossible, which downstream consumers treat as a definitive
// infeasibility proof. (Regression test: the unit loop used to return on
// a stop without recording it, and the verdict assembly then mistook the
// unexplored units for an exhausted search.)
TEST(ShardedSearchTest, CancellationBetweenUnitsReportsAborted) {
  Scenario S = diamondWithUpdates(700, 3);
  auto Gate = std::make_shared<std::atomic<bool>>(false);
  GatedRejectAll Checker(Gate);
  StopSource Stop;
  SynthOptions Opts;
  Opts.Stop = Stop.token(); // Shards = 1: the sequential path is the one
                            // that historically mislabelled this.

  SynthResult Res;
  std::thread Runner([&] {
    FormulaFactory FF;
    Res = synthesizeUpdate(S, FF, Checker, Opts);
  });
  // Let the search park inside its first recheck, then cancel and
  // release it. Wherever the stop lands — before the first unit or
  // between units — the verdict must be Aborted.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Stop.requestStop();
  Gate->store(true);
  Runner.join();

  EXPECT_EQ(Res.Status, SynthStatus::Aborted)
      << "a cancelled search must never claim an impossibility proof";
  EXPECT_TRUE(Res.Commands.empty());
}

// A stop fired before the search starts aborts a sharded run exactly as
// it does a sequential one.
TEST(ShardedSearchTest, PreFiredStopAbortsShardedRun) {
  Scenario S = diamondWithUpdates(600, 3);
  StopSource Stop;
  Stop.requestStop();
  LabelingChecker Checker(LabelingChecker::Mode::Incremental);
  FormulaFactory FF;
  SynthOptions Opts;
  Opts.Shards = 4;
  Opts.Stop = Stop.token();
  Opts.ShardCheckerFactory = []() -> std::unique_ptr<CheckerBackend> {
    return std::make_unique<LabelingChecker>(
        LabelingChecker::Mode::Incremental);
  };
  SynthResult Res = synthesizeUpdate(S, FF, Checker, Opts);
  EXPECT_EQ(Res.Status, SynthStatus::Aborted);
  EXPECT_TRUE(Res.Commands.empty());
}
