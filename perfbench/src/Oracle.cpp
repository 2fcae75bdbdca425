//===- perfbench/src/Oracle.cpp - Independent verdict oracle --------------===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks every verdict the engine reports against the job's known
/// answer. A Success sequence is replayed on a single KripkeStructure
/// (applySwitchUpdate per update) and each configuration it passes
/// through is checked the NaiveTraceChecker way: enumerate every trace
/// and evaluate the property on it with evalOnTrace. No CheckerBackend
/// takes part, so the backend that produced a sequence never checks it.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "kripke/Kripke.h"
#include "ltl/TraceEval.h"
#include "mc/LabelingChecker.h"
#include "synth/Baselines.h"
#include "topo/Generators.h"

#include <unordered_set>

using namespace perfbench;

namespace {

/// Trace-enumeration bound; a structure with more traces than this is
/// reported as not verified rather than half-checked.
constexpr size_t MaxTraces = 1u << 16;

bool holdsOn(const KripkeStructure &K, Formula Phi) {
  if (K.findForwardingLoop())
    return false;
  std::vector<std::vector<StateId>> Traces = K.enumerateTraces(MaxTraces);
  if (Traces.size() >= MaxTraces)
    return false;
  Trace T;
  for (const std::vector<StateId> &States : Traces) {
    T.clear();
    for (StateId S : States)
      T.push_back(K.stateInfo(S));
    if (!evalOnTrace(Phi, T))
      return false;
  }
  return true;
}

const char *statusName(SynthStatus S) {
  switch (S) {
  case SynthStatus::Success:
    return "success";
  case SynthStatus::Impossible:
    return "impossible";
  case SynthStatus::InitialViolation:
    return "initial-violation";
  case SynthStatus::Aborted:
    return "aborted";
  }
  return "?";
}

/// Digest of a command sequence (updates and waits, in order).
Digest sequenceDigest(const CommandSeq &Cmds) {
  DigestBuilder B;
  B.addU64(Cmds.size());
  for (const Command &C : Cmds) {
    B.addBool(C.K == Command::Kind::Update);
    if (C.K == Command::Kind::Update) {
      B.addU32(C.Sw);
      B.addDigest(digestOf(C.NewTable));
    }
  }
  return B.finish();
}

/// Memo key of one (base scenario, granularity, sequence) verification.
Digest verificationKey(size_t Base, bool Rule, const CommandSeq &Cmds) {
  DigestBuilder B;
  B.addU64(Base);
  B.addBool(Rule);
  B.addDigest(sequenceDigest(Cmds));
  return B.finish();
}

/// True iff \p Cfg satisfies \p S's property, by trace enumeration.
bool configHolds(const Scenario &S, const Config &Cfg) {
  FormulaFactory FF;
  KripkeStructure K(S.Topo, Cfg, S.classes());
  return holdsOn(K, S.buildProperty(FF));
}

/// Replays \p Cmds from \p S's initial configuration and checks every
/// configuration on the way plus arrival at the final one.
bool sequenceIsCorrect(const Scenario &S, const CommandSeq &Cmds,
                       std::string *Why) {
  auto Fail = [&](std::string Msg) {
    if (Why)
      *Why = std::move(Msg);
    return false;
  };
  FormulaFactory FF;
  Formula Phi = S.buildProperty(FF);
  std::vector<TrafficClass> Classes = S.classes();
  KripkeStructure K(S.Topo, S.Initial, Classes);
  if (!holdsOn(K, Phi))
    return Fail("initial configuration violates the property");
  std::vector<StateId> Changed;
  KripkeStructure::UndoRecord Undo;
  size_t Step = 0;
  for (const Command &C : Cmds) {
    ++Step;
    if (C.K != Command::Kind::Update)
      continue;
    if (C.Sw >= S.Topo.numSwitches())
      return Fail("command " + std::to_string(Step) + " names no switch");
    Changed.clear();
    K.applySwitchUpdate(C.Sw, C.NewTable, Changed, Undo);
    // An update that changes no edge leaves every trace as it was.
    if (!Changed.empty() && !holdsOn(K, Phi))
      return Fail("configuration after command " + std::to_string(Step) +
                  " violates the property");
  }
  // Arrival is semantic: rule-granularity sequences assemble a table
  // slice by slice, so compare forwarding behaviour, not rule order.
  for (SwitchId Sw : diffSwitches(K.config(), S.Final))
    for (const TrafficClass &C : Classes)
      for (PortId Pt : S.Topo.switchPorts(Sw))
        if (!(K.config().table(Sw).apply(C.Hdr, Pt) ==
              S.Final.table(Sw).apply(C.Hdr, Pt)))
          return Fail("sequence does not reach the final configuration");
  return true;
}

} // namespace

bool Oracle::finalViolates(size_t Base) {
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = FinalChecked.find(Base);
    if (It != FinalChecked.end())
      return It->second;
  }
  const Scenario &S = W.Jobs[W.Bases[Base].ExampleJob].Job.S;
  bool Violates = !configHolds(S, S.Final);
  std::lock_guard<std::mutex> Lock(M);
  FinalChecked[Base] = Violates;
  return Violates;
}

bool Oracle::judge(size_t JobIdx, const SynthReport &Rep, std::string *Why) {
  const BenchJob &J = W.Jobs[JobIdx];
  SynthStatus St = Rep.Result.Status;
  auto Fail = [&](std::string Msg) {
    if (Why)
      *Why = J.Job.Name + ": " + Msg;
    return false;
  };
  if (J.Budgeted && St == SynthStatus::Aborted)
    return true;
  if (J.Want == Expect::Impossible) {
    if (St != SynthStatus::Impossible)
      return Fail(std::string("expected impossible, got ") + statusName(St));
    if (W.Bases[J.Base].FinalViolates && !finalViolates(J.Base))
      return Fail("final configuration satisfies the property, so the "
                  "known answer is wrong");
    return true;
  }
  if (St != SynthStatus::Success)
    return Fail(std::string("expected success, got ") + statusName(St));
  Digest Key = verificationKey(J.Base, J.RuleGranularity, Rep.Result.Commands);
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Verified.find(Key);
    if (It != Verified.end())
      return It->second.empty() ? true : Fail(It->second);
  }
  std::string Reason;
  if (sequenceIsCorrect(J.Job.S, Rep.Result.Commands, &Reason))
    Reason.clear();
  {
    std::lock_guard<std::mutex> Lock(M);
    Verified[Key] = Reason;
  }
  return Reason.empty() ? true : Fail(Reason);
}

size_t Oracle::judgeBatch(const std::vector<SynthReport> &Reports,
                          unsigned Threads, std::vector<std::string> &Why) {
  // Jobs run in parallel; the first report of each distinct unverified
  // sequence goes to the pool, the rest hit the memo afterwards.
  std::vector<size_t> Pending;
  {
    std::unordered_set<Digest, DigestHash> Seen;
    std::lock_guard<std::mutex> Lock(M);
    for (size_t I = 0; I != Reports.size(); ++I) {
      const BenchJob &J = W.Jobs[I];
      if (J.Want != Expect::Success ||
          Reports[I].Result.Status != SynthStatus::Success)
        continue;
      Digest Key =
          verificationKey(J.Base, J.RuleGranularity, Reports[I].Result.Commands);
      if (!Verified.count(Key) && Seen.insert(Key).second)
        Pending.push_back(I);
    }
  }
  parallelFor(Pending.size(), Threads,
              [&](size_t P) { judge(Pending[P], Reports[Pending[P]], nullptr); });

  size_t Failed = 0;
  for (size_t I = 0; I != Reports.size(); ++I) {
    std::string Reason;
    if (!judge(I, Reports[I], &Reason)) {
      ++Failed;
      Why.push_back(std::move(Reason));
    }
  }
  return Failed;
}

bool perfbench::oracleSelfTest(std::string *Why) {
  auto Fail = [&](std::string Msg) {
    if (Why)
      *Why = std::move(Msg);
    return false;
  };
  // Find a small diamond on which the naive ascending-switch order
  // really breaks the property. "Really" is decided by the program's
  // batch labeling checker, so the oracle is not graded by itself.
  for (uint64_t Seed = 1; Seed != 200; ++Seed) {
    Rng R(Seed);
    Topology T = buildSmallWorld(24, 4, 0.3, R);
    std::optional<Scenario> S =
        makeDiamondScenario(T, R, PropertyKind::Reachability);
    if (!S)
      continue;
    CommandSeq Naive = naiveSequence(S->Initial, S->Final);
    FormulaFactory FF;
    Formula Phi = S->buildProperty(FF);
    bool NaiveBreaks = false;
    Config Cur = S->Initial;
    for (const Command &C : Naive) {
      if (C.K != Command::Kind::Update)
        continue;
      Cur.setTable(C.Sw, C.NewTable);
      KripkeStructure K(S->Topo, Cur, S->classes());
      LabelingChecker Batch(LabelingChecker::Mode::Batch);
      if (!Batch.bind(K, Phi).Holds) {
        NaiveBreaks = true;
        break;
      }
    }
    if (!NaiveBreaks)
      continue;

    LabelingChecker Checker;
    SynthResult Good = synthesizeUpdate(*S, FF, Checker);
    if (!Good.ok())
      return Fail("self-test: the synthesizer found no sequence for a "
                  "feasible diamond");

    Workload W;
    W.Name = "self-test";
    BenchJob J;
    J.Job.Name = "self-test";
    J.Job.S = *S;
    W.Jobs.push_back(J);
    W.Bases.push_back({0, false});
    Oracle O(W);

    SynthReport Rep;
    Rep.Result.Status = SynthStatus::Success;
    Rep.Result.Commands = Good.Commands;
    if (!O.judge(0, Rep, Why))
      return false;
    Rep.Result.Commands = Naive;
    if (O.judge(0, Rep, nullptr))
      return Fail("self-test: an injected naiveSequence order passed");
    Rep.Result.Status = SynthStatus::Impossible;
    Rep.Result.Commands.clear();
    if (O.judge(0, Rep, nullptr))
      return Fail("self-test: a flipped verdict (impossible for a feasible "
                  "job) passed");
    return true;
  }
  return Fail("self-test: no instance where the naive order breaks");
}
