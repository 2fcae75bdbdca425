//===- mc/LabelingChecker.cpp - §5 labeling model checker ------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "mc/LabelingChecker.h"

#include <algorithm>
#include <cassert>

using namespace netupd;

CheckerBackend::~CheckerBackend() = default;

CheckResult LabelingChecker::bindImpl(KripkeStructure &Structure, Formula Phi) {
  K = &Structure;
  Cl = std::make_unique<Closure>(Phi);
  UndoStack.clear();

  AtomBits.clear();
  AtomBits.reserve(K->numStates());
  for (StateId S = 0; S != K->numStates(); ++S)
    AtomBits.push_back(Cl->atomBits(K->stateInfo(S)));

  Labels.assign(K->numStates(), LabelSet());
  GrayStamp.assign(K->numStates(), 0);
  DoneStamp.assign(K->numStates(), 0);
  AncestorStamp.assign(K->numStates(), 0);
  DirtyStamp.assign(K->numStates(), 0);
  Stamp = 0;
  return fullCheck();
}

LabelSet LabelingChecker::computeLabel(StateId S) {
  ++LabelOps;
  if (K->isSink(S))
    return {Cl->sinkLabel(AtomBits[S])};

  LabelSet Out;
  for (StateId Next : K->succs(S)) {
    assert(Next != S && "self-loop on a non-sink state");
    for (const Bitset &SuccM : Labels[Next])
      Out.push_back(Cl->extend(SuccM, AtomBits[S]));
  }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

CheckResult LabelingChecker::fullCheck() {
  ++Queries;
  // A forwarding loop makes the structure non-DAG-like; such
  // configurations are rejected outright (§3.2), reported as a violation
  // whose counterexample is the loop itself.
  if (auto Loop = K->findForwardingLoop()) {
    CheckResult R;
    R.Holds = false;
    R.Cex = std::move(*Loop);
    return R;
  }

  for (StateId S : K->topoOrder())
    Labels[S] = computeLabel(S);
  return checkInitStates();
}

std::optional<std::vector<StateId>>
LabelingChecker::findLoopFrom(const std::vector<StateId> &Changed) {
  // Three-color DFS over the descendants of the changed states. Any cycle
  // introduced by the update contains a changed state (its edges are the
  // only new ones) and hence lies among those descendants; the pre-update
  // structure was DAG-like by the checker's invariant.
  ++Stamp;
  std::vector<std::pair<StateId, size_t>> &Stack = ScratchDfs;
  Stack.clear();
  for (StateId Root : Changed) {
    if (DoneStamp[Root] == Stamp)
      continue;
    Stack.emplace_back(Root, 0);
    GrayStamp[Root] = Stamp;
    while (!Stack.empty()) {
      auto &[S, EdgeIdx] = Stack.back();
      const auto &Succs = K->succs(S);
      if (EdgeIdx == Succs.size()) {
        DoneStamp[S] = Stamp;
        Stack.pop_back();
        continue;
      }
      StateId Next = Succs[EdgeIdx++];
      if (Next == S || DoneStamp[Next] == Stamp)
        continue;
      if (GrayStamp[Next] == Stamp) {
        std::vector<StateId> Cycle;
        bool InCycle = false;
        for (const auto &[Q, Unused] : Stack) {
          (void)Unused;
          if (Q == Next)
            InCycle = true;
          if (InCycle)
            Cycle.push_back(Q);
        }
        return Cycle;
      }
      GrayStamp[Next] = Stamp;
      Stack.emplace_back(Next, 0);
    }
  }
  return std::nullopt;
}

CheckResult
LabelingChecker::incrementalCheck(const std::vector<StateId> &Changed) {
  ++Queries;
  UndoStack.emplace_back();
  UndoFrame &Frame = UndoStack.back();

  if (auto Loop = findLoopFrom(Changed)) {
    // Labels are left untouched: the caller must roll this update back
    // (the search cannot proceed through a rejected configuration), and
    // rollback restores the edges the current labels describe.
    CheckResult R;
    R.Holds = false;
    R.Cex = std::move(*Loop);
    return R;
  }

  // The relabel region is the ancestor set of the changed states; collect
  // it by reverse DFS, then topologically order the induced subgraph so
  // children are relabeled before parents (the relbl function of §5).
  ++Stamp;
  std::vector<StateId> &Ancestors = ScratchAncestors;
  Ancestors.clear();
  {
    std::vector<StateId> &Stack = ScratchStack;
    Stack.assign(Changed.begin(), Changed.end());
    for (StateId S : Changed)
      AncestorStamp[S] = Stamp;
    while (!Stack.empty()) {
      StateId S = Stack.back();
      Stack.pop_back();
      Ancestors.push_back(S);
      for (StateId P : K->preds(S)) {
        if (P == S || AncestorStamp[P] == Stamp)
          continue;
        AncestorStamp[P] = Stamp;
        Stack.push_back(P);
      }
    }
  }

  // Post-order DFS within the ancestor set (following successor edges
  // restricted to the set) yields children-first positions.
  std::vector<StateId> &Order = ScratchOrder;
  Order.clear();
  Order.reserve(Ancestors.size());
  {
    std::vector<std::pair<StateId, size_t>> &Stack = ScratchDfs;
    Stack.clear();
    for (StateId Root : Ancestors) {
      if (DoneStamp[Root] == Stamp)
        continue;
      Stack.emplace_back(Root, 0);
      DoneStamp[Root] = Stamp;
      while (!Stack.empty()) {
        auto &[S, EdgeIdx] = Stack.back();
        const auto &Succs = K->succs(S);
        if (EdgeIdx == Succs.size()) {
          Order.push_back(S);
          Stack.pop_back();
          continue;
        }
        StateId Next = Succs[EdgeIdx++];
        if (Next == S || AncestorStamp[Next] != Stamp ||
            DoneStamp[Next] == Stamp)
          continue;
        DoneStamp[Next] = Stamp;
        Stack.emplace_back(Next, 0);
      }
    }
  }
  // Relabel in one forward pass over Order, children first, visiting only
  // dirty states: the changed states, and predecessors of a state whose
  // label changed. A predecessor always sits later in Order, so the pass
  // sees every state it dirties; an unchanged label stops propagation.
  for (StateId S : Changed)
    DirtyStamp[S] = Stamp;
  for (StateId S : Order) {
    if (DirtyStamp[S] != Stamp)
      continue;
    LabelSet New = computeLabel(S);
    if (New == Labels[S])
      continue; // Unchanged: ancestors keep their labels.
    Frame.OldLabels.emplace_back(S, std::move(Labels[S]));
    Labels[S] = std::move(New);
    for (StateId P : K->preds(S))
      DirtyStamp[P] = Stamp;
  }

  return checkInitStates();
}

CheckResult
LabelingChecker::recheckImpl(const UpdateInfo &Update) {
  assert(K && "recheck before bind");
  if (M == Mode::Batch)
    return fullCheck(); // fullCheck() counts the query.
  assert(Update.ChangedStates && "incremental recheck needs changed states");
  return incrementalCheck(*Update.ChangedStates);
}

void LabelingChecker::notifyRollback() {
  if (M == Mode::Batch)
    return; // Batch never reuses labels; nothing to restore.
  assert(!UndoStack.empty() && "rollback without a matching recheck");
  UndoFrame &Frame = UndoStack.back();
  // Restore in reverse order of saving.
  for (auto It = Frame.OldLabels.rbegin(); It != Frame.OldLabels.rend();
       ++It)
    Labels[It->first] = std::move(It->second);
  UndoStack.pop_back();
}

CheckResult LabelingChecker::checkInitStates() {
  unsigned RootIdx = Cl->rootIndex();
  for (StateId Init : K->initialStates()) {
    for (const Bitset &M : Labels[Init]) {
      if (M.test(RootIdx))
        continue;
      CheckResult R;
      R.Holds = false;
      R.Cex = extractCex(Init, M);
      return R;
    }
  }
  CheckResult R;
  R.Holds = true;
  return R;
}

std::vector<StateId> LabelingChecker::extractCex(StateId Init,
                                                 const Bitset &M) {
  // Walk the labeled graph: at each non-sink state find the child set M'
  // explaining the current set M (§5, "Counterexamples").
  std::vector<StateId> Path = {Init};
  StateId Cur = Init;
  Bitset CurM = M;
  while (!K->isSink(Cur)) {
    bool Found = false;
    for (StateId Next : K->succs(Cur)) {
      assert(Next != Cur && "self-loop on a non-sink state");
      for (const Bitset &SuccM : Labels[Next]) {
        if (Cl->extend(SuccM, AtomBits[Cur]) != CurM)
          continue;
        Path.push_back(Next);
        Cur = Next;
        CurM = SuccM;
        Found = true;
        break;
      }
      if (Found)
        break;
    }
    assert(Found && "label set without a witness child");
    if (!Found)
      break; // Defensive: avoid an infinite loop in release builds.
  }
  return Path;
}
