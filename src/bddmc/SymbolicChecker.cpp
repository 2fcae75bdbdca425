//===- bddmc/SymbolicChecker.cpp - NuSMV-substitute backend ----*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "bddmc/SymbolicChecker.h"

#include "bdd/Bdd.h"
#include "ltl/Closure.h"

#include <cassert>

using namespace netupd;
using namespace netupd::bdd;

namespace {

/// Bit-vector bookkeeping for the four variable groups x, x', m, m'.
struct VarLayout {
  unsigned StateBits, FormulaBits;

  unsigned x(unsigned Bit) const { return Bit; }
  unsigned xp(unsigned Bit) const { return StateBits + Bit; }
  unsigned m(unsigned Bit) const { return 2 * StateBits + Bit; }
  unsigned mp(unsigned Bit) const {
    return 2 * StateBits + FormulaBits + Bit;
  }
  unsigned total() const { return 2 * (StateBits + FormulaBits); }
};

/// The per-query symbolic model.
class SymbolicModel {
public:
  SymbolicModel(KripkeStructure &K, const Closure &Cl, Arena &NodeArena)
      : K(K), Cl(Cl), Layout{bitsFor(K.numStates()), Cl.size()},
        M(Layout.total(), &NodeArena) {}

  /// Runs the check; fills Cex with a violating trace when it fails.
  bool check(std::vector<StateId> &Cex);

  size_t numNodes() const { return M.numNodes(); }

private:
  static unsigned bitsFor(unsigned N) {
    unsigned Bits = 1;
    while ((1u << Bits) < N)
      ++Bits;
    return Bits;
  }

  /// The cube "state bits (primed or not) encode S".
  NodeRef stateCube(StateId S, bool Primed) {
    NodeRef Out = True;
    for (unsigned B = 0; B != Layout.StateBits; ++B) {
      unsigned V = Primed ? Layout.xp(B) : Layout.x(B);
      Out = M.andOp(Out, (S >> B) & 1 ? M.var(V) : M.nvar(V));
    }
    return Out;
  }

  /// The cube "formula bits (primed or not) encode the set Ms".
  NodeRef setCube(const Bitset &Ms, bool Primed) {
    NodeRef Out = True;
    for (unsigned B = 0; B != Layout.FormulaBits; ++B) {
      unsigned V = Primed ? Layout.mp(B) : Layout.m(B);
      Out = M.andOp(Out, Ms.test(B) ? M.var(V) : M.nvar(V));
    }
    return Out;
  }

  NodeRef buildDelta();
  NodeRef buildConsistency();
  NodeRef buildFollows();
  NodeRef buildSinks();
  NodeRef buildInit();

  /// Renames (x, m) to (x', m') via the equality relation.
  NodeRef primeRelation(NodeRef R);

  KripkeStructure &K;
  const Closure &Cl;
  VarLayout Layout;
  Manager M;
};

NodeRef SymbolicModel::buildDelta() {
  NodeRef Delta = False;
  for (StateId S = 0; S != K.numStates(); ++S) {
    NodeRef Src = stateCube(S, /*Primed=*/false);
    NodeRef Targets = False;
    for (StateId Next : K.succs(S))
      Targets = M.orOp(Targets, stateCube(Next, /*Primed=*/true));
    Delta = M.orOp(Delta, M.andOp(Src, Targets));
  }
  return Delta;
}

NodeRef SymbolicModel::buildConsistency() {
  // For each state: its atom bits, extended with the boolean-skeleton
  // constraints (And/Or bits are functions of their children).
  NodeRef C = False;
  for (StateId S = 0; S != K.numStates(); ++S) {
    Bitset Atoms = Cl.atomBits(K.stateInfo(S));
    NodeRef Local = True;
    for (unsigned I = 0; I != Cl.size(); ++I) {
      const Closure::Node &N = Cl.node(I);
      NodeRef BitI = M.var(Layout.m(I));
      switch (N.Kind) {
      case FKind::True:
      case FKind::False:
      case FKind::Atom:
      case FKind::NotAtom:
        Local = M.andOp(Local, Atoms.test(I) ? BitI : M.notOp(BitI));
        break;
      case FKind::And:
        Local = M.andOp(Local, M.iffOp(BitI, M.andOp(M.var(Layout.m(N.Lhs)),
                                                     M.var(Layout.m(N.Rhs)))));
        break;
      case FKind::Or:
        Local = M.andOp(Local, M.iffOp(BitI, M.orOp(M.var(Layout.m(N.Lhs)),
                                                    M.var(Layout.m(N.Rhs)))));
        break;
      default:
        break; // Temporal bits are constrained by Follows.
      }
    }
    C = M.orOp(C, M.andOp(stateCube(S, /*Primed=*/false), Local));
  }
  return C;
}

NodeRef SymbolicModel::buildFollows() {
  NodeRef F = True;
  for (unsigned I = 0; I != Cl.size(); ++I) {
    const Closure::Node &N = Cl.node(I);
    NodeRef BitI = M.var(Layout.m(I));
    switch (N.Kind) {
    case FKind::Next:
      F = M.andOp(F, M.iffOp(BitI, M.var(Layout.mp(N.Lhs))));
      break;
    case FKind::Until: {
      NodeRef A = M.var(Layout.m(N.Lhs));
      NodeRef B = M.var(Layout.m(N.Rhs));
      NodeRef Nxt = M.var(Layout.mp(I));
      F = M.andOp(F, M.iffOp(BitI, M.orOp(B, M.andOp(A, Nxt))));
      break;
    }
    case FKind::Release: {
      NodeRef A = M.var(Layout.m(N.Lhs));
      NodeRef B = M.var(Layout.m(N.Rhs));
      NodeRef Nxt = M.var(Layout.mp(I));
      F = M.andOp(F, M.iffOp(BitI, M.andOp(B, M.orOp(A, Nxt))));
      break;
    }
    default:
      break;
    }
  }
  return F;
}

NodeRef SymbolicModel::buildSinks() {
  NodeRef Sinks = False;
  for (StateId S = 0; S != K.numStates(); ++S) {
    if (!K.isSink(S))
      continue;
    Bitset Ms = Cl.sinkLabel(Cl.atomBits(K.stateInfo(S)));
    Sinks = M.orOp(Sinks, M.andOp(stateCube(S, false), setCube(Ms, false)));
  }
  return Sinks;
}

NodeRef SymbolicModel::buildInit() {
  NodeRef Init = False;
  for (StateId S : K.initialStates())
    Init = M.orOp(Init, stateCube(S, false));
  return Init;
}

NodeRef SymbolicModel::primeRelation(NodeRef R) {
  // R'(x', m') = exists x, m. R(x, m) & (x = x') & (m = m').
  NodeRef Eq = True;
  for (unsigned B = 0; B != Layout.StateBits; ++B)
    Eq = M.andOp(Eq, M.iffOp(M.var(Layout.x(B)), M.var(Layout.xp(B))));
  for (unsigned B = 0; B != Layout.FormulaBits; ++B)
    Eq = M.andOp(Eq, M.iffOp(M.var(Layout.m(B)), M.var(Layout.mp(B))));

  std::vector<uint8_t> Unprimed(Layout.total(), 0);
  for (unsigned B = 0; B != Layout.StateBits; ++B)
    Unprimed[Layout.x(B)] = 1;
  for (unsigned B = 0; B != Layout.FormulaBits; ++B)
    Unprimed[Layout.m(B)] = 1;

  return M.exists(M.andOp(R, Eq), Unprimed);
}

bool SymbolicModel::check(std::vector<StateId> &Cex) {
  NodeRef Delta = buildDelta();
  NodeRef C = buildConsistency();
  NodeRef Follows = buildFollows();

  // Transfer(x, m, x', m'): one consistent tableau step.
  NodeRef Transfer = M.andOp(M.andOp(Delta, Follows), C);

  std::vector<uint8_t> PrimedVars(Layout.total(), 0);
  for (unsigned B = 0; B != Layout.StateBits; ++B)
    PrimedVars[Layout.xp(B)] = 1;
  for (unsigned B = 0; B != Layout.FormulaBits; ++B)
    PrimedVars[Layout.mp(B)] = 1;

  // Least fixpoint: R = Sinks | pre(R).
  NodeRef R = buildSinks();
  for (;;) {
    NodeRef RPrimed = primeRelation(R);
    NodeRef Pre = M.exists(M.andOp(Transfer, RPrimed), PrimedVars);
    NodeRef Next = M.orOp(R, Pre);
    if (Next == R)
      break;
    R = Next;
  }

  // Violation: an initial state whose realizable set lacks the root bit.
  NodeRef Bad = M.andOp(M.andOp(buildInit(), R),
                        M.nvar(Layout.m(Cl.rootIndex())));
  if (Bad == False)
    return true;

  // Counterexample extraction: pick a bad (state, set) pair and walk the
  // Transfer relation to a sink.
  NodeRef RPrimed = primeRelation(R);
  std::vector<uint8_t> Assign = M.pickAssignment(Bad);
  auto DecodeState = [&](bool Primed) {
    StateId S = 0;
    for (unsigned B = 0; B != Layout.StateBits; ++B)
      S |= static_cast<StateId>(
               Assign[Primed ? Layout.xp(B) : Layout.x(B)])
           << B;
    return S;
  };
  auto DecodeSet = [&](bool Primed) {
    Bitset Ms(Cl.size());
    for (unsigned B = 0; B != Layout.FormulaBits; ++B)
      if (Assign[Primed ? Layout.mp(B) : Layout.m(B)])
        Ms.set(B);
    return Ms;
  };

  StateId Cur = DecodeState(false);
  Bitset CurSet = DecodeSet(false);
  Cex.push_back(Cur);
  while (!K.isSink(Cur) && Cex.size() <= K.numStates()) {
    NodeRef Step = M.andOp(M.andOp(stateCube(Cur, false),
                                   setCube(CurSet, false)),
                           M.andOp(Transfer, RPrimed));
    assert(Step != False && "realizable pair without a witness step");
    if (Step == False)
      break;
    Assign = M.pickAssignment(Step);
    Cur = DecodeState(true);
    CurSet = DecodeSet(true);
    Cex.push_back(Cur);
  }
  return false;
}

} // namespace

CheckResult SymbolicChecker::bindImpl(KripkeStructure &Structure,
                                  Formula Property) {
  K = &Structure;
  Phi = Property;
  return checkNow();
}

CheckResult SymbolicChecker::recheckImpl(const UpdateInfo &) {
  assert(K && "recheck before bind");
  return checkNow();
}

CheckResult SymbolicChecker::checkNow() {
  ++Queries;
  CheckResult R;
  if (auto Loop = K->findForwardingLoop()) {
    R.Holds = false;
    R.Cex = std::move(*Loop);
    return R;
  }

  Closure Cl(Phi);
  // Nothing from the previous query's manager is live; recycle its
  // node chunks.
  QueryArena.reset();
  SymbolicModel Model(*K, Cl, QueryArena);
  std::vector<StateId> Cex;
  R.Holds = Model.check(Cex);
  R.Cex = std::move(Cex);
  PeakNodes = std::max(PeakNodes, Model.numNodes());
  return R;
}
