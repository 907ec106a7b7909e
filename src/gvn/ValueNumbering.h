//===- gvn/ValueNumbering.h - Partition-based GVN (§3.2) ---------*- C++ -*-===//
///
/// \file
/// Alpern–Wegman–Zadeck partition-based global value numbering plus the
/// renaming pass that encodes the discovered congruences into the name
/// space (Briggs & Cooper §3.2).
///
/// The optimistic algorithm starts from the assumption that all values
/// computed by the same operator are equal and refines the partition until
/// the program's statements no longer disprove any equivalence. Phi nodes
/// are congruent only within the same block; loads and parameters are
/// incongruent to everything else ("the simplest variation described by
/// Alpern, Wegman, and Zadeck").
///
/// After renaming: every lexically identical expression has the same name;
/// variable names (phi targets) are defined only by copies. This is exactly
/// the name space PRE requires (§2.2), established *inside* the optimizer,
/// independent of the front end's choices.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_GVN_VALUENUMBERING_H
#define EPRE_GVN_VALUENUMBERING_H

#include "analysis/AnalysisManager.h"
#include "instrument/PassInstrumentation.h"
#include "ir/Function.h"

#include <vector>

namespace epre {

struct GVNStats {
  unsigned Registers = 0;     ///< registers participating
  unsigned Classes = 0;       ///< congruence classes found
  unsigned MergedDefs = 0;    ///< definitions renamed to another name
};

/// The complete §3.2 phase behind the unified pass-entry API, on non-SSA
/// code: (re)builds pruned SSA with copy folding, computes the AWZ
/// partition, renames every value to its class representative, and leaves
/// SSA again via predecessor copies. "The names are the only things
/// changed during this phase; no instructions are added, deleted, or
/// moved" — except the phi/copy shuffling inherent in entering and
/// leaving SSA.
///
/// Counters: gvn.registers, gvn.classes, gvn.merged_defs.
/// Remarks: Merge per definition renamed to its congruence class rep.
class GVNPass {
public:
  static constexpr const char *name() { return "gvn"; }
  PreservedAnalyses run(Function &F, FunctionAnalysisManager &AM,
                        PassContext &Ctx);

  /// Stats of the most recent run.
  const GVNStats &lastStats() const { return Last; }

private:
  GVNStats Last;
};

/// The partition+rename core, for code already in SSA form. Exposed for
/// unit tests. Phis are deduplicated after renaming; the function stays in
/// SSA-with-shared-names form (destroySSA must follow before other passes).
GVNStats valueNumberSSA(Function &F);

/// The refined AWZ congruence partition of an SSA-form function, before
/// renaming, in flat Reg-indexed tables: a class id per register plus the
/// structural ingredients the refinement used (an interned base-key id per
/// register; the refinement operand lists in CSR form, phi operands in
/// sorted predecessor order). Class ids are dense from 0, numbered in
/// order of each class's smallest register. Registers that are neither
/// defined nor parameters have no class. The Saleena–Paleri engine
/// (gvn/SimpleGVN.h) coarsens ClassOf with its value-expression rules
/// before renaming.
struct CongruencePartition {
  static constexpr unsigned NoClass = ~0u;

  /// Register -> class id, or NoClass.
  std::vector<unsigned> ClassOf;
  /// Register -> base-key id (equal ids iff equal base keys), or NoClass.
  std::vector<unsigned> KeyOf;
  /// Register R's refinement operands are
  /// Operands[OpBegin[R] .. OpBegin[R + 1]).
  std::vector<unsigned> OpBegin;
  std::vector<Reg> Operands;
  unsigned NumClasses = 0;

  unsigned classOf(Reg R) const {
    return R < ClassOf.size() ? ClassOf[R] : NoClass;
  }
};

CongruencePartition computeCongruencePartition(Function &F);

/// The shared rename step of the AWZ and simple-gvn engines: renames every
/// definition and use to its class representative (the smallest register,
/// except parameters always represent their class) and collapses congruent
/// phis within a block. \p ClassOf is Reg-indexed, NoClass for registers
/// outside the partition, and may be any sound coarsening of the refined
/// partition. \p Ctx, when non-null, receives a Merge remark per renamed
/// definition.
GVNStats renameToClassReps(Function &F, const std::vector<unsigned> &ClassOf,
                           PassContext *Ctx = nullptr);

} // namespace epre

#endif // EPRE_GVN_VALUENUMBERING_H
