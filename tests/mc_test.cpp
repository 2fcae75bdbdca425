//===- tests/mc_test.cpp - model checker tests -----------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "ltl/Properties.h"
#include "ltl/TraceEval.h"
#include "mc/LabelingChecker.h"
#include "mc/NaiveTraceChecker.h"
#include "topo/Fig1.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace netupd;
using namespace netupd::testutil;

TEST(LabelingCheckerTest, Fig1RedSatisfiesReachability) {
  Fig1Network N = buildFig1();
  FormulaFactory FF;
  Formula Phi = reachabilityProperty(FF, N.srcPort(), N.dstPort());

  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3});
  LabelingChecker Checker;
  EXPECT_TRUE(Checker.bind(K, Phi).Holds);
}

TEST(LabelingCheckerTest, BrokenConfigYieldsCounterexample) {
  Fig1Network N = buildFig1();
  FormulaFactory FF;
  Formula Phi = reachabilityProperty(FF, N.srcPort(), N.dstPort());

  // Update A1 to green (points to C2) while C2 has no rules: blackhole.
  Config Broken = N.Red;
  Broken.setTable(N.A[0], N.Green.table(N.A[0]));

  KripkeStructure K(N.Topo, Broken, {N.FlowH1H3});
  LabelingChecker Checker;
  CheckResult R = Checker.bind(K, Phi);
  ASSERT_FALSE(R.Holds);
  ASSERT_FALSE(R.Cex.empty());

  // The counterexample is a real trace that violates the property.
  Trace T;
  for (StateId S : R.Cex)
    T.push_back(K.stateInfo(S));
  EXPECT_FALSE(evalOnTrace(Phi, T));
  // It passes through the updated switch A1 and dies at C2.
  bool SeesA1 = false;
  for (StateId S : R.Cex)
    SeesA1 |= K.stateSwitch(S) == N.A[0];
  EXPECT_TRUE(SeesA1);
}

TEST(LabelingCheckerTest, IncrementalTracksUpdatesAndRollbacks) {
  Fig1Network N = buildFig1();
  FormulaFactory FF;
  Formula Phi = reachabilityProperty(FF, N.srcPort(), N.dstPort());

  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3});
  LabelingChecker Checker;
  ASSERT_TRUE(Checker.bind(K, Phi).Holds);

  // Bad first step: A1 -> green. Recheck must fail.
  std::vector<StateId> Changed;
  auto Undo = K.applySwitchUpdate(N.A[0], N.Green.table(N.A[0]), Changed);
  UpdateInfo Info;
  Info.Sw = N.A[0];
  Info.ChangedStates = &Changed;
  EXPECT_FALSE(Checker.recheckAfterUpdate(Info).Holds);
  Checker.notifyRollback();
  K.undo(Undo);

  // Good first step: C2 -> green (C2 unreachable initially).
  Changed.clear();
  auto Undo2 = K.applySwitchUpdate(N.C2, N.Green.table(N.C2), Changed);
  Info.Sw = N.C2;
  EXPECT_TRUE(Checker.recheckAfterUpdate(Info).Holds);

  // Then A1 -> green completes the transition.
  std::vector<StateId> Changed2;
  auto Undo3 = K.applySwitchUpdate(N.A[0], N.Green.table(N.A[0]), Changed2);
  Info.Sw = N.A[0];
  Info.ChangedStates = &Changed2;
  EXPECT_TRUE(Checker.recheckAfterUpdate(Info).Holds);

  // Roll everything back; the labels must equal the original ones
  // (verified against a fresh bind below).
  Checker.notifyRollback();
  K.undo(Undo3);
  Checker.notifyRollback();
  K.undo(Undo2);

  LabelingChecker Fresh;
  KripkeStructure K2(N.Topo, N.Red, {N.FlowH1H3});
  ASSERT_TRUE(Fresh.bind(K2, Phi).Holds);
  for (StateId S = 0; S != K.numStates(); ++S)
    EXPECT_EQ(Checker.label(S), Fresh.label(S)) << K.stateName(S);
}

namespace {

struct CheckerAgreementParam {
  uint64_t Seed;
  unsigned NumSwitches;
  unsigned FormulaDepth;
};

class CheckerAgreementTest
    : public ::testing::TestWithParam<CheckerAgreementParam> {};

} // namespace

/// Property test: on random configurations and random formulas, the
/// labeling checker agrees with brute-force trace enumeration.
TEST_P(CheckerAgreementTest, LabelingMatchesNaive) {
  CheckerAgreementParam P = GetParam();
  Rng R(P.Seed);
  for (int Round = 0; Round != 25; ++Round) {
    RandomNet Net = randomNet(R, P.NumSwitches);
    Config Cfg = randomConfig(Net, R);
    FormulaFactory FF;
    Formula Phi = randomFormula(FF, R, P.FormulaDepth, Net.Topo.numSwitches(),
                                Net.Topo.numPorts());

    KripkeStructure K1(Net.Topo, Cfg, Net.Classes);
    KripkeStructure K2(Net.Topo, Cfg, Net.Classes);
    LabelingChecker Labeling;
    NaiveTraceChecker Naive;
    bool A = Labeling.bind(K1, Phi).Holds;
    bool B = Naive.bind(K2, Phi).Holds;
    EXPECT_EQ(A, B) << printFormula(Phi);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, CheckerAgreementTest,
    ::testing::Values(CheckerAgreementParam{21, 4, 2},
                      CheckerAgreementParam{22, 5, 3},
                      CheckerAgreementParam{23, 6, 3},
                      CheckerAgreementParam{24, 7, 2},
                      CheckerAgreementParam{25, 5, 4},
                      CheckerAgreementParam{26, 8, 3}));

/// Property test: drives an incremental checker through random update and
/// rollback storms on small random nets. After every update its verdict
/// and counterexample must equal those of a checker bound fresh to the
/// same configuration, and after every step so must its labels.
/// \p Build makes the property for a net.
template <typename BuildFn>
static void expectIncrementalMatchesFreshBindUnderStorm(uint64_t Seed,
                                                        BuildFn Build) {
  Rng R(Seed);
  unsigned Storms = 0;
  for (int Round = 0; Round != 15; ++Round) {
    RandomNet Net = randomNet(R, 6);
    Config Cfg = randomConfig(Net, R);
    FormulaFactory FF;
    Formula Phi = Build(FF, Net, R);

    KripkeStructure K(Net.Topo, Cfg, Net.Classes);
    if (K.findForwardingLoop())
      continue; // Labels are only defined on loop-free structures.
    LabelingChecker Inc(LabelingChecker::Mode::Incremental);
    Inc.bind(K, Phi);
    ++Storms;

    auto ExpectLabelsMatch = [&](const LabelingChecker &Ref) {
      for (StateId S = 0; S != K.numStates(); ++S)
        EXPECT_EQ(Inc.label(S), Ref.label(S)) << K.stateName(S);
    };

    // A looping update is rolled back immediately, as the synthesizer
    // does; any other may stick around or be rolled back later, so undo
    // frames stack up even on nets where the property mostly fails.
    std::vector<KripkeStructure::UndoRecord> Undos;
    for (int Step = 0; Step != 12; ++Step) {
      if (!Undos.empty() && R.nextBool(0.4)) {
        Inc.notifyRollback();
        K.undo(Undos.back());
        Undos.pop_back();
      } else {
        Config Mut = randomConfig(Net, R);
        SwitchId Sw =
            static_cast<SwitchId>(R.nextBelow(Net.Topo.numSwitches()));
        std::vector<StateId> Changed;
        KripkeStructure::UndoRecord Undo =
            K.applySwitchUpdate(Sw, Mut.table(Sw), Changed);
        UpdateInfo Info;
        Info.Sw = Sw;
        Info.ChangedStates = &Changed;
        CheckResult Res = Inc.recheckAfterUpdate(Info);

        KripkeStructure KRef(Net.Topo, K.config(), Net.Classes);
        LabelingChecker Ref;
        CheckResult RefRes = Ref.bind(KRef, Phi);
        EXPECT_EQ(Res.Holds, RefRes.Holds);
        // A loop leaves the labels as they were, and the two loop
        // searches may report the cycle from different states.
        if (KRef.findForwardingLoop()) {
          Inc.notifyRollback();
          K.undo(Undo);
        } else {
          EXPECT_EQ(Res.Cex, RefRes.Cex);
          ExpectLabelsMatch(Ref);
          Undos.push_back(std::move(Undo));
        }
      }

      // The labels must equal those of a fresh bind on the current
      // configuration.
      KripkeStructure KRef(Net.Topo, K.config(), Net.Classes);
      LabelingChecker Ref;
      Ref.bind(KRef, Phi);
      ExpectLabelsMatch(Ref);
    }
  }
  EXPECT_GT(Storms, 0u);
}

TEST(LabelingCheckerTest, IncrementalEqualsBatchUnderUpdateStorm) {
  expectIncrementalMatchesFreshBindUnderStorm(
      31, [](FormulaFactory &FF, const RandomNet &Net, Rng &) {
        return reachabilityProperty(FF, Net.SrcPort, Net.DstPort);
      });
}

TEST(LabelingCheckerTest, IncrementalEqualsBatchUnderWaypointStorm) {
  expectIncrementalMatchesFreshBindUnderStorm(
      32, [](FormulaFactory &FF, const RandomNet &Net, Rng &R) {
        Prop Way = Prop::onSwitch(
            static_cast<SwitchId>(R.nextBelow(Net.Topo.numSwitches())));
        return waypointProperty(FF, Net.SrcPort, Way, Net.DstPort,
                                classGuard(FF, Net.Classes[0]));
      });
}

TEST(LabelingCheckerTest, IncrementalEqualsBatchUnderServiceChainStorm) {
  expectIncrementalMatchesFreshBindUnderStorm(
      33, [](FormulaFactory &FF, const RandomNet &Net, Rng &R) {
        std::vector<Prop> Chain;
        for (int I = 0; I != 2; ++I)
          Chain.push_back(Prop::onSwitch(
              static_cast<SwitchId>(R.nextBelow(Net.Topo.numSwitches()))));
        return serviceChainProperty(FF, Net.SrcPort, Chain, Net.DstPort);
      });
}

/// Random formulas reach the Next and Release items that the property
/// builders never emit.
TEST(LabelingCheckerTest, IncrementalEqualsBatchUnderRandomFormulaStorm) {
  expectIncrementalMatchesFreshBindUnderStorm(
      34, [](FormulaFactory &FF, const RandomNet &Net, Rng &R) {
        return randomFormula(FF, R, 4, Net.Topo.numSwitches(),
                             Net.Topo.numPorts());
      });
}

TEST(LabelingCheckerTest, BatchModeWorksWithoutRollbacks) {
  Fig1Network N = buildFig1();
  FormulaFactory FF;
  Formula Phi = reachabilityProperty(FF, N.srcPort(), N.dstPort());

  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3});
  LabelingChecker Batch(LabelingChecker::Mode::Batch);
  ASSERT_TRUE(Batch.bind(K, Phi).Holds);

  std::vector<StateId> Changed;
  auto Undo = K.applySwitchUpdate(N.C2, N.Green.table(N.C2), Changed);
  UpdateInfo Info;
  Info.Sw = N.C2;
  Info.ChangedStates = &Changed;
  EXPECT_TRUE(Batch.recheckAfterUpdate(Info).Holds);
  Batch.notifyRollback();
  K.undo(Undo);
  EXPECT_TRUE(Batch.recheckAfterUpdate(Info).Holds);
}

TEST(LabelingCheckerTest, IncrementalDoesLessWorkThanBatch) {
  // On a long chain, updating the switch next to the destination must
  // relabel only a handful of ancestors, far fewer than a full pass.
  Topology T;
  const unsigned Len = 40;
  std::vector<SwitchId> Chain;
  for (unsigned I = 0; I != Len; ++I)
    Chain.push_back(T.addSwitch("s" + std::to_string(I)));
  for (unsigned I = 0; I + 1 != Len; ++I)
    T.connectSwitches(Chain[I], Chain[I + 1]);
  HostId H0 = T.addHost("h0");
  HostId H1 = T.addHost("h1");
  PortId Src = T.attachHost(H0, Chain[0]);
  PortId Dst = T.attachHost(H1, Chain[Len - 1]);

  TrafficClass C{makeHeader(1, 2), "c"};
  Config Cfg(Len);
  installPath(T, Cfg, C, Chain, H1);

  FormulaFactory FF;
  Formula Phi = reachabilityProperty(FF, Src, Dst);

  KripkeStructure K(T, Cfg, {C});
  LabelingChecker Inc;
  ASSERT_TRUE(Inc.bind(K, Phi).Holds);
  uint64_t OpsAfterBind = Inc.numLabelOps();

  // Re-install the same last-hop rule with a cosmetic priority change so
  // edges stay identical except for recomputation at that switch.
  Table NewTable = Cfg.table(Chain[Len - 1]);
  std::vector<StateId> Changed;
  auto Undo = K.applySwitchUpdate(Chain[Len - 1], NewTable, Changed);
  UpdateInfo Info;
  Info.Sw = Chain[Len - 1];
  Info.ChangedStates = &Changed;
  ASSERT_TRUE(Inc.recheckAfterUpdate(Info).Holds);
  uint64_t IncrementalOps = Inc.numLabelOps() - OpsAfterBind;
  EXPECT_LT(IncrementalOps, OpsAfterBind / 4)
      << "incremental recheck relabeled too much of the structure";
  Inc.notifyRollback();
  K.undo(Undo);
}

TEST(NaiveTraceCheckerTest, AgreesWithTraceEvalOnFig1) {
  Fig1Network N = buildFig1();
  FormulaFactory FF;
  Formula Good = reachabilityProperty(FF, N.srcPort(), N.dstPort());
  // Reversed property is violated (H3 sends nothing in this class).
  Formula AlwaysC2 = FF.finally_(FF.atom(Prop::onSwitch(N.C2)));

  KripkeStructure K(N.Topo, N.Red, {N.FlowH1H3});
  NaiveTraceChecker Checker;
  EXPECT_TRUE(Checker.bind(K, Good).Holds);
  KripkeStructure K2(N.Topo, N.Red, {N.FlowH1H3});
  EXPECT_FALSE(Checker.bind(K2, AlwaysC2).Holds);
}
