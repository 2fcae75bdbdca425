//===- perfbench/src/Tracing.cpp - Traced-run instrumentation -------------===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's view into the checker and Kripke layers, built from
/// the layers' public interfaces only:
///
///  - TracedChecker, a CheckerBackend decorator registered under
///    "traced:<backend>", forwards every call to the real backend, times
///    each bind / recheckAfterUpdate / notifyRollback as a span, and
///    records the update/rollback stream it saw;
///  - replayKripke re-drives that stream through KripkeStructure's
///    constructor, applySwitchUpdate and undo;
///  - replayBackend re-drives it through a fresh backend of any
///    registered name, which prices the checkers on the identical query
///    stream (the §6 backend comparison).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "mc/BackendFactory.h"

#include <algorithm>

using namespace perfbench;

namespace {

/// See file comment. One instance serves one synthesis thread, like any
/// backend, so its buffers need no lock until they are handed over.
class TracedChecker final : public CheckerBackend {
public:
  TracedChecker(std::unique_ptr<CheckerBackend> Inner, long Job)
      : Inner(std::move(Inner)), Job(Job) {}
  ~TracedChecker() override {
    Recorder::instance().add(std::move(Spans), std::move(Segs));
  }
  TracedChecker(const TracedChecker &) = delete;
  TracedChecker &operator=(const TracedChecker &) = delete;

  void notifyRollback() override {
    uint64_t T0 = nowNs();
    Inner->notifyRollback();
    span(McSpan::Rollback, false, T0);
    if (!Segs.empty()) {
      StreamEvent E;
      E.Rollback = true;
      Segs.back().Events.push_back(std::move(E));
    }
  }
  bool providesCounterexamples() const override {
    return Inner->providesCounterexamples();
  }
  const char *name() const override { return Inner->name(); }
  uint64_t cacheHits() const override { return Inner->cacheHits(); }
  uint64_t cacheMisses() const override { return Inner->cacheMisses(); }

protected:
  CheckResult bindImpl(KripkeStructure &K, Formula Phi) override {
    StreamSegment Seg;
    Seg.Job = Job;
    Seg.Start = K.config();
    Segs.push_back(std::move(Seg));
    uint64_t T0 = nowNs();
    CheckResult R = Inner->bind(K, Phi);
    span(McSpan::Bind, !R.Holds, T0);
    return R;
  }
  CheckResult recheckImpl(const UpdateInfo &U) override {
    uint64_t T0 = nowNs();
    CheckResult R = Inner->recheckAfterUpdate(U);
    span(McSpan::Recheck, !R.Holds, T0);
    if (!Segs.empty()) {
      StreamEvent E;
      E.Sw = U.Sw;
      E.NewTable = *U.NewTable;
      E.Holds = R.Holds;
      Segs.back().Events.push_back(std::move(E));
    }
    return R;
  }

private:
  void span(McSpan::Kind K, bool Failed, uint64_t T0) {
    uint64_t T1 = nowNs();
    Spans.push_back({K, Failed, Job, T0, T1});
    // Report the inner backend's real work as this checker's.
    // relaxed: statistics counter, as in CheckerBackend::numQueries.
    Queries.store(Inner->numQueries(), std::memory_order_relaxed);
  }

  std::unique_ptr<CheckerBackend> Inner;
  long Job;
  std::vector<McSpan> Spans;
  std::vector<StreamSegment> Segs;
};

/// Applies one recorded update through the recycled undo stack.
void applyEvent(KripkeStructure &K, const StreamEvent &E,
                std::vector<KripkeStructure::UndoRecord> &Stack, size_t &Depth,
                std::vector<StateId> &Changed) {
  if (Depth == Stack.size())
    Stack.emplace_back();
  Changed.clear();
  K.applySwitchUpdate(E.Sw, E.NewTable, Changed, Stack[Depth]);
  ++Depth;
}

} // namespace

Recorder &Recorder::instance() {
  static Recorder R;
  return R;
}

void Recorder::add(std::vector<McSpan> &&NewSpans,
                   std::vector<StreamSegment> &&NewSegs) {
  std::lock_guard<std::mutex> Lock(M);
  Spans.insert(Spans.end(), NewSpans.begin(), NewSpans.end());
  for (StreamSegment &S : NewSegs) {
    if (Events + S.Events.size() > MaxStreamEvents)
      continue;
    Events += S.Events.size();
    Segs.push_back(std::move(S));
  }
}

void Recorder::take(std::vector<McSpan> &OutSpans,
                    std::vector<StreamSegment> &OutSegs) {
  std::lock_guard<std::mutex> Lock(M);
  OutSpans = std::move(Spans);
  OutSegs = std::move(Segs);
  Spans.clear();
  Segs.clear();
  Events = 0;
}

void perfbench::registerTracedBackends() {
  static std::once_flag Once;
  std::call_once(Once, [] {
    for (const char *Name : {"incremental", "batch", "hsa"}) {
      std::string Inner = Name;
      BackendFactory::instance().registerBackend(
          std::string(TracedPrefix) + Name,
          [Inner](const Scenario &S) -> std::unique_ptr<CheckerBackend> {
            std::unique_ptr<CheckerBackend> C =
                BackendFactory::instance().create(Inner, S);
            if (!C)
              return nullptr;
            return std::make_unique<TracedChecker>(std::move(C), jobTagOf(S));
          });
    }
  });
}

KripkeReplay perfbench::replayKripke(const Workload &W,
                                     const std::vector<StreamSegment> &Segs) {
  KripkeReplay Out;
  std::vector<double> BuildMs;
  uint64_t MutateNs = 0, Changed = 0;
  std::vector<KripkeStructure::UndoRecord> Stack;
  std::vector<StateId> ChangedBuf;
  for (const StreamSegment &Seg : Segs) {
    if (Seg.Job < 0 || static_cast<size_t>(Seg.Job) >= W.Jobs.size())
      continue;
    const Scenario &S = W.Jobs[static_cast<size_t>(Seg.Job)].Job.S;
    std::vector<TrafficClass> Classes = S.classes();
    uint64_t T0 = nowNs();
    KripkeStructure K(S.Topo, Seg.Start, std::move(Classes));
    BuildMs.push_back((nowNs() - T0) / 1e6);
    size_t Depth = 0;
    for (const StreamEvent &E : Seg.Events) {
      if (E.Rollback) {
        if (Depth == 0)
          continue;
        --Depth;
        uint64_t U0 = nowNs();
        K.undo(std::move(Stack[Depth]));
        MutateNs += nowNs() - U0;
        continue;
      }
      uint64_t A0 = nowNs();
      applyEvent(K, E, Stack, Depth, ChangedBuf);
      MutateNs += nowNs() - A0;
      Changed += ChangedBuf.size();
      ++Out.Updates;
    }
  }
  if (!BuildMs.empty()) {
    std::sort(BuildMs.begin(), BuildMs.end());
    Out.BuildMsMedian = BuildMs[BuildMs.size() / 2];
  }
  if (Out.Updates) {
    Out.ApplyUndoNs = static_cast<double>(MutateNs) / Out.Updates;
    Out.ChangedStates = static_cast<double>(Changed) / Out.Updates;
  }
  return Out;
}

double perfbench::replayBackend(const Workload &W,
                                const std::vector<StreamSegment> &Segs,
                                const std::string &Name, uint64_t MaxRechecks,
                                uint64_t &Mismatches) {
  uint64_t Rechecks = 0, RecheckNs = 0;
  std::vector<KripkeStructure::UndoRecord> Stack;
  std::vector<StateId> Changed;
  for (const StreamSegment &Seg : Segs) {
    if (Rechecks >= MaxRechecks)
      break;
    if (Seg.Job < 0 || static_cast<size_t>(Seg.Job) >= W.Jobs.size())
      continue;
    const Scenario &S = W.Jobs[static_cast<size_t>(Seg.Job)].Job.S;
    std::unique_ptr<CheckerBackend> C =
        BackendFactory::instance().create(Name, S);
    if (!C)
      return 0.0;
    FormulaFactory FF;
    KripkeStructure K(S.Topo, Seg.Start, S.classes());
    C->bind(K, S.buildProperty(FF));
    size_t Depth = 0;
    for (const StreamEvent &E : Seg.Events) {
      if (E.Rollback) {
        if (Depth == 0)
          continue;
        --Depth;
        C->notifyRollback();
        K.undo(std::move(Stack[Depth]));
        continue;
      }
      applyEvent(K, E, Stack, Depth, Changed);
      UpdateInfo Info;
      Info.Sw = E.Sw;
      Info.OldTable = &Stack[Depth - 1].OldTable;
      Info.NewTable = &E.NewTable;
      Info.ChangedStates = &Changed;
      uint64_t T0 = nowNs();
      CheckResult R = C->recheckAfterUpdate(Info);
      RecheckNs += nowNs() - T0;
      ++Rechecks;
      Mismatches += R.Holds != E.Holds;
    }
  }
  return Rechecks ? RecheckNs / 1e3 / static_cast<double>(Rechecks) : 0.0;
}
