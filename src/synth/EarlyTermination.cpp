//===- synth/EarlyTermination.cpp - SAT-based search cutoff ----*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "synth/EarlyTermination.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <cassert>

using namespace netupd;

sat::Lit EarlyTermination::before(unsigned A, unsigned B) {
  assert(A != B && "no ordering variable for an operation with itself");
  // One variable per unordered pair; the literal's sign encodes direction
  // (positive: min-id op first), giving antisymmetry and totality for
  // free.
  bool Swapped = A > B;
  uint64_t Key = Swapped ? (uint64_t{B} << 32 | A) : (uint64_t{A} << 32 | B);
  auto [It, Inserted] = PairVars.try_emplace(Key, 0);
  if (Inserted) {
    It->second = static_cast<sat::Var>(Witness.size());
    Witness.push_back(!Swapped);
  }
  return sat::Lit(It->second, /*Negated=*/Swapped);
}

void EarlyTermination::mention(unsigned Op, bool AtFront) {
  if (Op >= IsMentioned.size())
    IsMentioned.resize(Op + 1, 0);
  if (IsMentioned[Op])
    return;
  IsMentioned[Op] = 1;
  // Transitivity against already-mentioned operations while small:
  // before(a,b) & before(b,c) -> before(a,c) for every ordered triple
  // containing Op, 3 per ordered pair of earlier capped ops. loadSolver()
  // emits them. Op's pairs are all new, and putting Op at either end of
  // the witness order satisfies every one of those triples, whatever
  // order the earlier ops have.
  size_t Earlier = Mentioned.size();
  if (Earlier < TransitivityCap) {
    for (unsigned A : Mentioned) {
      if (AtFront)
        before(Op, A);
      else
        before(A, Op);
    }
    Clauses += 3 * Earlier * (Earlier ? Earlier - 1 : 0);
  }
  Mentioned.push_back(Op);
}

void EarlyTermination::loadSolver() {
  std::vector<sat::Lit> Clause;
  auto Add = [&] {
    // Expanding a pending clause may create pairs; each must be a solver
    // variable before a clause names it.
    while (static_cast<size_t>(Solver.numVars()) < Witness.size())
      Solver.newVar();
    Solver.addClause(Clause);
  };
  for (size_t I = 0, E = Pending.size(); I != E;) {
    size_t NumNot = Pending[I], NumUpd = Pending[I + 1];
    const unsigned *Not = &Pending[I + 2], *Upd = Not + NumNot;
    Clause.clear();
    for (const unsigned *D = Not; D != Upd; ++D)
      for (const unsigned *U = Upd; U != Upd + NumUpd; ++U)
        Clause.push_back(before(*D, *U));
    Add();
    I += 2 + NumNot + NumUpd;
  }
  Pending.clear();
  size_t Capped = std::min<size_t>(Mentioned.size(), TransitivityCap);
  for (; TriplesLoaded < Capped; ++TriplesLoaded) {
    unsigned Op = Mentioned[TriplesLoaded];
    for (size_t I = 0; I != TriplesLoaded; ++I) {
      for (size_t J = 0; J != TriplesLoaded; ++J) {
        if (I == J)
          continue;
        unsigned A = Mentioned[I], B = Mentioned[J];
        // Triples (A,B,Op), (A,Op,B), (Op,A,B).
        Clause = {~before(A, B), ~before(B, Op), before(A, Op)};
        Add();
        Clause = {~before(A, Op), ~before(Op, B), before(A, B)};
        Add();
        Clause = {~before(Op, A), ~before(A, B), before(Op, B)};
        Add();
      }
    }
  }
}

namespace {
/// Wait-time histogram for the EarlyTermination mutex — held across SAT
/// solves, so it is the prime suspect for shard stalls under learning.
netupd::obs::Histogram &satLockWait() {
  static netupd::obs::Histogram &H =
      netupd::obs::MetricsRegistry::instance().histogram(
          "synth.sat_lock_ns");
  return H;
}

/// Luby restarts performed inside SAT solves, summed over every
/// EarlyTermination instance in the process.
netupd::obs::Counter &satRestarts() {
  static netupd::obs::Counter &C =
      netupd::obs::MetricsRegistry::instance().counter("synth.sat_restarts");
  return C;
}
} // namespace

void EarlyTermination::addCexConstraint(
    const std::vector<unsigned> &Updated,
    const std::vector<unsigned> &NotUpdated) {
  obs::timedLock(M, satLockWait());
  MutexLock Lock(M, std::adopt_lock);
  if (KnownImpossible)
    return;
  // A cancelled search learns nothing: skip the (cubic) transitivity
  // encoding and leave the clause set as-is — soundness is unaffected
  // because constraints only ever shrink the set of admitted orders.
  if (Stop.stopRequested())
    return;
  if (NotUpdated.empty()) {
    // The all-updated combination is bad: the final configuration itself
    // violates the property, so no order whatsoever can work.
    KnownImpossible = true;
    return;
  }
  assert(!Updated.empty() &&
         "a counterexample with no updated switch would already hold in "
         "the initial configuration");

  // Oversized constraints are dropped (sound relaxation; see header).
  if (Updated.size() * NotUpdated.size() > MaxClauseLits)
    return;

  // Updated ops go to the back of the witness order and NotUpdated ops
  // to the front, so a constraint naming a new op is satisfied at once.
  for (unsigned Op : Updated)
    mention(Op, /*AtFront=*/false);
  for (unsigned Op : NotUpdated)
    mention(Op, /*AtFront=*/true);
  ++Clauses;
  if (!LastSat)
    return; // The UNSAT verdict is latched; no clause can undo it.

  Pending.push_back(static_cast<unsigned>(NotUpdated.size()));
  Pending.push_back(static_cast<unsigned>(Updated.size()));
  Pending.insert(Pending.end(), NotUpdated.begin(), NotUpdated.end());
  Pending.insert(Pending.end(), Updated.begin(), Updated.end());
  if (Dirty)
    return; // The witness is stale until the next solve.
  // The first literal that holds satisfies the clause; one that creates
  // its pair holds by construction, and later clauses can only create
  // pairs, never change this one's value.
  for (unsigned D : NotUpdated)
    for (unsigned U : Updated)
      if (holds(before(D, U)))
        return;
  Dirty = true;
}

void EarlyTermination::addMaskValueConstraint(const Bitset &Mask,
                                              const Bitset &Value) {
  std::vector<unsigned> Updated, NotUpdated;
  for (size_t I = 0, E = Mask.size(); I != E; ++I) {
    if (!Mask.test(I))
      continue;
    (Value.test(I) ? Updated : NotUpdated).push_back(
        static_cast<unsigned>(I));
  }
  addCexConstraint(Updated, NotUpdated);
}

void EarlyTermination::reset() {
  MutexLock Lock(M);
  Solver = sat::Solver();
  PairVars.clear();
  Witness.clear();
  for (unsigned Op : Mentioned)
    IsMentioned[Op] = 0;
  Mentioned.clear();
  Pending.clear();
  TriplesLoaded = 0;
  Clauses = 0;
  Solves = 0;
  KnownImpossible = false;
  Dirty = false;
  LastSat = true;
}

bool EarlyTermination::impossible() {
  obs::timedLock(M, satLockWait());
  MutexLock Lock(M, std::adopt_lock);
  if (KnownImpossible || !LastSat)
    return true;
  if (!Dirty)
    return false;
  if (Stop.stopRequested())
    return false; // Stay Dirty: a resumed caller re-solves.
  Dirty = false;
  loadSolver();
  ++Solves;
  uint64_t RestartsBefore = Solver.numRestarts();
  LastSat = Solver.solve();
  if (uint64_t Delta = Solver.numRestarts() - RestartsBefore)
    satRestarts().add(Delta);
  assert(static_cast<size_t>(Solver.numVars()) == Witness.size() &&
         "every pair is in a loaded clause");
  if (LastSat)
    for (size_t V = 0, E = Witness.size(); V != E; ++V)
      Witness[V] = Solver.modelValue(static_cast<sat::Var>(V));
  return !LastSat;
}
