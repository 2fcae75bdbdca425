//===- mc/LabelingChecker.h - §5 labeling model checker --------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's incremental LTL model checker for DAG-like Kripke
/// structures (§5), plus the Batch variant used as a baseline in Fig. 7.
///
/// Each state q is labeled with the set of maximally-consistent subsets M
/// of ecl(phi) realizable by some trace from q (labGr in the paper). For
/// sinks the label is the singleton Holds0 set; for inner states it is
/// labelNode: { extend(M', atoms(q)) | q' in succ(q), M' in labGr(q') }.
/// The property holds iff every initial state's label contains only sets
/// with phi (checkInitStates).
///
/// Incrementality (relbl): after an update changes the edges of a state
/// set U, only ancestors of U can change labels. States are relabeled
/// children-first; propagation stops at states whose labels are unchanged.
/// The complexity is O(|ancestors(U)| * 2^|phi|) versus O(|K| * 2^|phi|)
/// for the monolithic relabeling (Corollary 1 discussion).
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_MC_LABELINGCHECKER_H
#define NETUPD_MC_LABELINGCHECKER_H

#include "ltl/Closure.h"
#include "mc/CheckerBackend.h"

#include <memory>

namespace netupd {

/// A deduplicated set of maximally-consistent sets (one state's label).
using LabelSet = std::vector<Bitset>;

/// The labeling checker; Mode selects the Incremental or Batch behaviour
/// of §6 (they share all labeling code, Batch just never reuses labels).
class LabelingChecker : public CheckerBackend {
public:
  enum class Mode { Incremental, Batch };

  explicit LabelingChecker(Mode M = Mode::Incremental) : M(M) {}

  void notifyRollback() override;
  const char *name() const override {
    return M == Mode::Incremental ? "Incremental" : "Batch";
  }

  /// Total number of state-label computations performed; the work measure
  /// that incrementality reduces.
  uint64_t numLabelOps() const { return LabelOps; }

  /// The current label of \p S; exposed for tests.
  const LabelSet &label(StateId S) const { return Labels[S]; }

protected:
  CheckResult bindImpl(KripkeStructure &K, Formula Phi) override;
  CheckResult recheckImpl(const UpdateInfo &Update) override;

private:
  /// Computes the label of \p S from its successors' current labels.
  LabelSet computeLabel(StateId S);

  /// Relabels every state (monolithic pass) and re-checks initial states.
  CheckResult fullCheck();

  /// Relabels ancestors of \p Changed only; records undo info into the
  /// current frame.
  CheckResult incrementalCheck(const std::vector<StateId> &Changed);

  /// Looks for a forwarding loop among the descendants of \p Changed (a
  /// new cycle must contain a changed state). Returns the cycle if found.
  std::optional<std::vector<StateId>>
  findLoopFrom(const std::vector<StateId> &Changed);

  /// Verifies all initial states and extracts a counterexample if needed.
  CheckResult checkInitStates();

  /// Reconstructs a violating trace starting at \p Init whose
  /// maximally-consistent set is \p M (Section 5, "Counterexamples").
  std::vector<StateId> extractCex(StateId Init, const Bitset &M);

  Mode M;
  KripkeStructure *K = nullptr;
  std::unique_ptr<Closure> Cl;
  std::vector<Bitset> AtomBits; // Per-state atom valuations.
  std::vector<LabelSet> Labels;
  uint64_t LabelOps = 0;

  /// Saved labels for rollback, one frame per recheckAfterUpdate.
  struct UndoFrame {
    std::vector<std::pair<StateId, LabelSet>> OldLabels;
  };
  std::vector<UndoFrame> UndoStack;

  /// Stamp-based scratch marks, reused across queries so the incremental
  /// path never touches memory proportional to the whole structure.
  std::vector<uint32_t> GrayStamp, DoneStamp, AncestorStamp, DirtyStamp;
  uint32_t Stamp = 0;

  /// Scratch buffers reused across incremental queries.
  std::vector<StateId> ScratchAncestors, ScratchOrder, ScratchStack;
  std::vector<std::pair<StateId, size_t>> ScratchDfs;
};

} // namespace netupd

#endif // NETUPD_MC_LABELINGCHECKER_H
