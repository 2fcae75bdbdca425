//===- ltl/Closure.cpp - Extended closure and consistent sets --*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "ltl/Closure.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace netupd;

Closure::Closure(Formula Root) {
  assert(Root && "null root formula");

  // Collect the subformula DAG.
  std::vector<Formula> Stack = {Root};
  std::unordered_map<Formula, bool> Seen;
  while (!Stack.empty()) {
    Formula F = Stack.back();
    Stack.pop_back();
    if (Seen.count(F))
      continue;
    Seen[F] = true;
    Items.push_back(F);
    if (F->lhs())
      Stack.push_back(F->lhs());
    if (F->rhs())
      Stack.push_back(F->rhs());
  }

  // Factory ids increase from children to parents (a node is interned only
  // after its children exist), so sorting by id yields a topological order
  // with children first.
  std::sort(Items.begin(), Items.end(),
            [](Formula A, Formula B) { return A->id() < B->id(); });

  for (unsigned I = 0, E = size(); I != E; ++I)
    Index[Items[I]] = I;
  Nodes.reserve(Items.size());
  for (Formula F : Items)
    Nodes.push_back(Node{F->kind(), F->lhs() ? indexOf(F->lhs()) : 0,
                         F->rhs() ? indexOf(F->rhs()) : 0});
  RootIdx = indexOf(Root);
}

unsigned Closure::indexOf(Formula F) const {
  auto It = Index.find(F);
  assert(It != Index.end() && "formula not in closure");
  return It->second;
}

Bitset Closure::atomBits(const StateInfo &S) const {
  Bitset Bits(size());
  for (unsigned I = 0, E = size(); I != E; ++I) {
    Formula F = Items[I];
    switch (F->kind()) {
    case FKind::True:
      Bits.set(I);
      break;
    case FKind::Atom:
      Bits.assign(I, evalProp(F->prop(), S));
      break;
    case FKind::NotAtom:
      Bits.assign(I, !evalProp(F->prop(), S));
      break;
    default:
      break;
    }
  }
  return Bits;
}

Bitset Closure::sinkLabel(const Bitset &AtomBits) const {
  assert(AtomBits.size() == size() && "atom bits from a different closure");
  Bitset M = AtomBits;
  // Children precede parents, so a single forward pass settles every bit.
  // On the constant trace of a sink: X a = a, a U b = b, a R b = b.
  for (unsigned I = 0, E = size(); I != E; ++I) {
    const Node &N = Nodes[I];
    switch (N.Kind) {
    case FKind::And:
      M.assign(I, M.test(N.Lhs) && M.test(N.Rhs));
      break;
    case FKind::Or:
      M.assign(I, M.test(N.Lhs) || M.test(N.Rhs));
      break;
    case FKind::Next:
      M.assign(I, M.test(N.Lhs));
      break;
    case FKind::Until:
    case FKind::Release:
      M.assign(I, M.test(N.Rhs));
      break;
    default:
      break; // Constants and atoms came from AtomBits.
    }
  }
  return M;
}

Bitset Closure::extend(const Bitset &SuccM, const Bitset &AtomBits) const {
  assert(SuccM.size() == size() && AtomBits.size() == size() &&
         "sets from a different closure");
  Bitset M = AtomBits;
  for (unsigned I = 0, E = size(); I != E; ++I) {
    const Node &N = Nodes[I];
    switch (N.Kind) {
    case FKind::And:
      M.assign(I, M.test(N.Lhs) && M.test(N.Rhs));
      break;
    case FKind::Or:
      M.assign(I, M.test(N.Lhs) || M.test(N.Rhs));
      break;
    case FKind::Next:
      M.assign(I, SuccM.test(N.Lhs));
      break;
    case FKind::Until:
      // a U b = b | (a & X(a U b)).
      M.assign(I, M.test(N.Rhs) || (M.test(N.Lhs) && SuccM.test(I)));
      break;
    case FKind::Release:
      // a R b = b & (a | X(a R b)).
      M.assign(I, M.test(N.Rhs) && (M.test(N.Lhs) || SuccM.test(I)));
      break;
    default:
      break;
    }
  }
  return M;
}

bool Closure::follows(const Bitset &M1, const Bitset &M2) const {
  assert(M1.size() == size() && M2.size() == size() &&
         "sets from a different closure");
  for (unsigned I = 0, E = size(); I != E; ++I) {
    const Node &N = Nodes[I];
    bool Expected;
    switch (N.Kind) {
    case FKind::Next:
      Expected = M2.test(N.Lhs);
      break;
    case FKind::Until:
      Expected = M1.test(N.Rhs) || (M1.test(N.Lhs) && M2.test(I));
      break;
    case FKind::Release:
      Expected = M1.test(N.Rhs) && (M1.test(N.Lhs) || M2.test(I));
      break;
    default:
      continue;
    }
    if (M1.test(I) != Expected)
      return false;
  }
  return true;
}

bool Closure::consistentAt(const Bitset &M, const Bitset &AtomBits) const {
  assert(M.size() == size() && AtomBits.size() == size() &&
         "sets from a different closure");
  for (unsigned I = 0, E = size(); I != E; ++I) {
    const Node &N = Nodes[I];
    switch (N.Kind) {
    case FKind::True:
      if (!M.test(I))
        return false;
      break;
    case FKind::False:
      if (M.test(I))
        return false;
      break;
    case FKind::Atom:
    case FKind::NotAtom:
      if (M.test(I) != AtomBits.test(I))
        return false;
      break;
    case FKind::And:
      if (M.test(I) != (M.test(N.Lhs) && M.test(N.Rhs)))
        return false;
      break;
    case FKind::Or:
      if (M.test(I) != (M.test(N.Lhs) || M.test(N.Rhs)))
        return false;
      break;
    default:
      break; // Temporal bits are unconstrained locally.
    }
  }
  return true;
}
