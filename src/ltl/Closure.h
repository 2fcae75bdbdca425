//===- ltl/Closure.h - Extended closure and consistent sets ----*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The extended closure ecl(phi) of §5 and operations on maximally-
/// consistent subsets of it.
///
/// Since formulas are in NNF and a maximally-consistent set M contains
/// exactly one of {psi, !psi} for every subformula psi, M is represented as
/// a Bitset over the *subformulas* of phi: bit i set means subformula i is
/// in M, unset means its negation is. The three key operations are:
///
///  - sinkLabel:  the unique M satisfied by the constant trace of a sink
///                state (the Holds0 function, Fig. 5);
///  - extend:     given a successor's set M' and a state's atom valuation,
///                the unique M with follows(M, M') and matching atoms —
///                this is how labelNode enumerates a non-sink label;
///  - follows:    the successor relation on consistent sets, used by tests
///                and by counterexample extraction.
///
/// Note: the paper's Fig. 5 lists Holds0(q, a R b) = Holds0(a) | Holds0(b)
/// and follows has "a R b in M1 iff a in M1 or (b in M1 and ...)"; both
/// deviate from the standard release expansion a R b = b & (a | X(a R b)).
/// We implement the standard semantics (the paper's variants appear to be
/// typos: they would make G b = false R b behave correctly only by the
/// accident of the first disjunct being false).
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_LTL_CLOSURE_H
#define NETUPD_LTL_CLOSURE_H

#include "ltl/Formula.h"
#include "support/Bitset.h"

#include <unordered_map>
#include <vector>

namespace netupd {

/// The closure of one root formula: its subformulas indexed in
/// children-before-parents order, with fast maximally-consistent-set
/// operations.
class Closure {
public:
  /// A closure item compiled to its kind and its children's closure
  /// indices (0 where the kind has no such child), so the set operations
  /// read flat arrays instead of hashing formulas.
  struct Node {
    FKind Kind;
    uint32_t Lhs;
    uint32_t Rhs;
  };

  explicit Closure(Formula Root);

  /// Number of closure items (subformulas of the root).
  unsigned size() const { return static_cast<unsigned>(Items.size()); }

  /// The I-th closure item; children always precede parents.
  Formula item(unsigned I) const { return Items[I]; }

  /// The I-th closure item, compiled.
  const Node &node(unsigned I) const { return Nodes[I]; }

  /// The index of the root formula.
  unsigned rootIndex() const { return RootIdx; }

  /// The index of subformula \p F; asserts that F is in the closure.
  unsigned indexOf(Formula F) const;

  /// Computes the truth values of the non-temporal skeleton at a state:
  /// constants, atoms, and (since they are determined by their children)
  /// nothing else — And/Or/temporal bits are left 0 and filled by extend /
  /// sinkLabel. The result is cached per state by the checkers.
  Bitset atomBits(const StateInfo &S) const;

  /// The unique maximally-consistent set holding on the constant trace of
  /// a sink state with atom valuation \p AtomBits.
  Bitset sinkLabel(const Bitset &AtomBits) const;

  /// The unique maximally-consistent set M at a state with atoms
  /// \p AtomBits whose temporal obligations defer to successor set
  /// \p SuccM, i.e. the M with follows(M, SuccM) and matching atoms.
  Bitset extend(const Bitset &SuccM, const Bitset &AtomBits) const;

  /// The follows(M1, M2) relation of §5 restricted to this closure.
  bool follows(const Bitset &M1, const Bitset &M2) const;

  /// True if the boolean skeleton of \p M is internally consistent and its
  /// atom bits equal \p AtomBits; used by tests and debug assertions.
  bool consistentAt(const Bitset &M, const Bitset &AtomBits) const;

private:
  std::vector<Formula> Items;
  std::vector<Node> Nodes;
  std::unordered_map<Formula, unsigned> Index; // Serves indexOf only.
  unsigned RootIdx = 0;
};

} // namespace netupd

#endif // NETUPD_LTL_CLOSURE_H
