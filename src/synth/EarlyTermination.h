//===- synth/EarlyTermination.h - SAT-based search cutoff ------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The early-search-termination optimization of §4.2 (B). Every
/// counterexample observed during the DFS names a set of updated
/// operations U and not-yet-updated operations D whose combination is bad;
/// any correct total order must therefore update some d in D before some u
/// in U. These disjunctive precedence constraints accumulate in an
/// incremental SAT solver over "a before b" variables; when they become
/// unsatisfiable, no simple order exists and the search stops.
///
/// Soundness note: the ordering theory needs transitivity, which is cubic
/// in the number of mentioned operations. We add transitivity clauses only
/// while the mentioned set is small (TransitivityCap); beyond that the
/// encoding is a *relaxation* — it admits more orders than really exist —
/// so an UNSAT verdict remains a valid proof of impossibility, which is
/// the only verdict the search acts on.
///
/// Witness-first checking: deciding "some order still exists" after
/// every learned constraint by a full CDCL solve re-decides every pair
/// variable each time, although almost every answer is SAT. Instead the
/// instance keeps a witness, a value for every pair variable that
/// satisfies every clause learned so far (the last SAT model, extended
/// for new pairs), and checks each new clause against it in O(clause).
/// Only when the witness falsifies a clause is the instance marked
/// dirty; the next impossible() then loads the clauses into the solver
/// (lazily, on the first such call), solves, and refreshes the witness
/// from the model. The formula is the one an eager encoding builds, so
/// every verdict and numClauses() equal that encoding's; only the
/// number of solves (numSolves()) is smaller. A new pair takes the
/// value that makes the literal asking for it true. Pairs among the
/// capped ops are all created when their later op is mentioned, placing
/// that op at the front or back of the witness order the capped set
/// already has, so no transitivity triple is ever falsified by a new op
/// and no pair a triple touches is free for a later precedence clause
/// to set.
///
/// Thread safety: one instance is shared by every shard of a sharded
/// search (constraints mined on any shard prove impossibility for all),
/// so addCexConstraint(), impossible(), and the counters serialize on an
/// internal mutex. The mutex is held across SAT solves, the one
/// unbounded-cost step, which blocks concurrent learners for their
/// duration; solves run only when the witness fails, which is rare (24
/// solves in a 984-job paper-scale perfbench run). The search still
/// batches its impossible() checks (one per EtCheckInterval failures per
/// shard), although a check without a solve is cheap: that cadence
/// decides where an UNSAT verdict can first stop the search, so keeping
/// it keeps every query count, budget spend and verdict identical.
/// setStopToken() takes the same mutex, so installing a token mid-flight
/// (the seed-import path does this between search phases) is safe too.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_SYNTH_EARLYTERMINATION_H
#define NETUPD_SYNTH_EARLYTERMINATION_H

#include "engine/StopToken.h"
#include "sat/Solver.h"
#include "support/Bitset.h"
#include "support/ThreadAnnotations.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace netupd {

/// Accumulates ordering constraints mined from counterexamples and decides
/// when they are jointly contradictory.
class EarlyTermination {
public:
  /// \p TransitivityCap bounds the mentioned-operation set for which full
  /// transitivity is encoded (see file comment). \p MaxClauseLits drops
  /// constraints whose |Updated| x |NotUpdated| disjunction would exceed
  /// the bound — another relaxation: large counterexamples (long paths)
  /// produce enormous clauses of little pruning value, and omitting them
  /// keeps the solver calls cheap without affecting soundness.
  /// The defaults keep the encoding small: clause count grows with the
  /// cube of TransitivityCap, and a solve loads every clause.
  explicit EarlyTermination(unsigned TransitivityCap = 16,
                            size_t MaxClauseLits = 1024)
      : TransitivityCap(TransitivityCap), MaxClauseLits(MaxClauseLits) {}

  /// Records the constraint from one counterexample: some operation of
  /// \p NotUpdated must precede some operation of \p Updated. An empty
  /// \p NotUpdated set means the final configuration itself is bad and no
  /// order can exist.
  void addCexConstraint(const std::vector<unsigned> &Updated,
                        const std::vector<unsigned> &NotUpdated);

  /// Records the ordering constraint encoded by one wrong-set entry in
  /// its (mask, value) form — the form the search's learnCex derives
  /// and the cross-job ConstraintStore persists: some masked-but-not-
  /// updated operation must precede some updated one. Converts and
  /// forwards to addCexConstraint, so imported and freshly-learned
  /// constraints take the identical path (size caps and the stop token
  /// included).
  void addMaskValueConstraint(const Bitset &Mask, const Bitset &Value);

  /// True when the accumulated constraints admit no total order. Solves
  /// only when a constraint since the last answer falsified the witness
  /// (see file comment); an UNSAT answer is latched. When the stop token
  /// has fired the solve is skipped and the cached verdict returned: the
  /// caller is about to abandon the search anyway, and SAT calls are the
  /// one unbounded-cost step in the learning path.
  bool impossible();

  /// Installs the cancellation token polled by impossible() and
  /// addCexConstraint(); an empty token (the default) never stops.
  /// Serialized on the same mutex as the learners, so it is safe at any
  /// point — the previous "call before any concurrent use" contract was
  /// an unguarded write racing the locked readers.
  void setStopToken(StopToken Token) {
    MutexLock Lock(M);
    Stop = std::move(Token);
  }

  /// Clauses of the encoding: precedence clauses plus transitivity
  /// triples, counted whether or not they have reached the solver yet.
  uint64_t numClauses() const {
    MutexLock Lock(M);
    return Clauses;
  }

  /// SAT solves run so far; zero while the witness satisfies everything.
  uint64_t numSolves() const {
    MutexLock Lock(M);
    return Solves;
  }

  /// Drops every constraint, returning to the freshly constructed state
  /// (the stop token stays installed). Deterministic budget mode reuses
  /// one instance per searcher this way, resetting it at every unit.
  void reset();

private:
  /// The literal meaning "operation A is updated before operation B",
  /// creating its pair variable if new. A new variable's witness value
  /// makes the returned literal true.
  sat::Lit before(unsigned A, unsigned B) NETUPD_REQUIRES(M);

  /// The literal's value under the witness.
  bool holds(sat::Lit L) const NETUPD_REQUIRES(M) {
    return Witness[static_cast<size_t>(L.var())] != L.sign();
  }

  /// Registers \p Op as mentioned. While under the cap this counts its
  /// transitivity triples and creates its pairs with the earlier capped
  /// ops, placing \p Op first (\p AtFront) or last in the witness order.
  void mention(unsigned Op, bool AtFront) NETUPD_REQUIRES(M);

  /// Moves every clause not yet in the solver into it: the pending
  /// precedence clauses and the triples of capped ops mentioned since
  /// the last load.
  void loadSolver() NETUPD_REQUIRES(M);

  /// Serializes every member below; see the thread-safety note above.
  mutable Mutex M;
  sat::Solver Solver NETUPD_GUARDED_BY(M);
  StopToken Stop NETUPD_GUARDED_BY(M);
  /// (min op << 32 | max op) -> pair variable; the positive literal
  /// means the min-id op goes first.
  std::unordered_map<uint64_t, sat::Var> PairVars NETUPD_GUARDED_BY(M);
  /// Per variable, the witness value of its positive literal.
  std::vector<uint8_t> Witness NETUPD_GUARDED_BY(M);
  /// Ops in mention order; the first TransitivityCap carry transitivity.
  std::vector<unsigned> Mentioned NETUPD_GUARDED_BY(M);
  std::vector<uint8_t> IsMentioned NETUPD_GUARDED_BY(M); // Indexed by op.
  /// Precedence clauses not yet in the solver, each as its op lists
  /// [|NotUpdated|, |Updated|, NotUpdated..., Updated...]: smaller than
  /// the |NotUpdated| x |Updated| literals loadSolver() expands them to.
  std::vector<unsigned> Pending NETUPD_GUARDED_BY(M);
  /// Capped ops whose transitivity triples the solver already holds.
  size_t TriplesLoaded NETUPD_GUARDED_BY(M) = 0;
  unsigned TransitivityCap;
  size_t MaxClauseLits;
  uint64_t Clauses NETUPD_GUARDED_BY(M) = 0;
  uint64_t Solves NETUPD_GUARDED_BY(M) = 0;
  bool KnownImpossible NETUPD_GUARDED_BY(M) = false;
  /// Some clause since the last solve is falsified by the witness.
  bool Dirty NETUPD_GUARDED_BY(M) = false;
  bool LastSat NETUPD_GUARDED_BY(M) = true; // Cached verdict.
};

} // namespace netupd

#endif // NETUPD_SYNTH_EARLYTERMINATION_H
