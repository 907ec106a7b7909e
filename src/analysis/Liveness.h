//===- analysis/Liveness.h - Global register liveness -----------*- C++ -*-===//
///
/// \file
/// Backward iterative liveness over registers. Phi-aware: a phi's operands
/// are uses at the end of the corresponding predecessor, and a phi's result
/// is defined at the top of its block.
///
/// Only cross-block registers can be live at a block boundary (see
/// globals()), so the solve runs over that universe alone: NB x NG bits
/// rather than NB x NR, where NG is typically a small fraction of NR. Every
/// other register is reported not live anywhere. Clients ask per register
/// (isLiveIn/isLiveOut) or iterate a block's live set.
///
/// Used for pruned SSA construction (live-in sets), dead code elimination,
/// copy coalescing (interference) and the row layout of constant
/// propagation. Solved on the shared worklist dataflow engine
/// (analysis/Dataflow.h).
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_ANALYSIS_LIVENESS_H
#define EPRE_ANALYSIS_LIVENESS_H

#include "analysis/CFG.h"
#include "analysis/Dataflow.h"
#include "support/BitVector.h"

#include <vector>

namespace epre {

/// Where a phi's operand counts as read.
enum class PhiOperandSite {
  /// At the end of the incoming block only (exact SSA liveness).
  PredecessorExit,
  /// At the top of the phi's block, on every incoming edge. Conservative:
  /// an operand is live into the phi's block and hence out of every
  /// predecessor. Constant propagation uses it, because its phis meet every
  /// operand's value over all executable incoming edges.
  PhiBlockEntry,
};

/// Per-block live-in/live-out sets over the cross-block registers.
class Liveness {
public:
  static Liveness
  compute(const Function &F, const CFG &G,
          PhiOperandSite Site = PhiOperandSite::PredecessorExit);

  /// The universe, slot -> register, ascending: the registers whose values
  /// can cross a block boundary. Those are the registers read in some block
  /// before any definition there, and every phi operand (phis read their
  /// inputs on the incoming edge). Any other register is written before it
  /// is read in every block that reads it, so it is never live on a block
  /// boundary.
  const std::vector<Reg> &globals() const { return Globals; }
  unsigned numGlobals() const { return unsigned(Globals.size()); }

  /// True if register \p R is live on entry to \p B (phi results of B
  /// excluded; a phi's result becomes live at the phi itself).
  bool isLiveIn(Reg R, BlockId B) const {
    unsigned S = slot(R);
    return S != NoSlot && LiveIn[B].test(S);
  }

  /// True if register \p R is live on exit from \p B (includes values
  /// flowing into successors' phis from B).
  bool isLiveOut(Reg R, BlockId B) const {
    unsigned S = slot(R);
    return S != NoSlot && LiveOut[B].test(S);
  }

  /// Calls \p Fn(Reg) for every register live on entry to \p B, ascending.
  template <typename FnT> void forEachLiveIn(BlockId B, FnT Fn) const {
    forEachIn(LiveIn[B], Fn);
  }

  /// Calls \p Fn(Reg) for every register live on exit from \p B, ascending.
  template <typename FnT> void forEachLiveOut(BlockId B, FnT Fn) const {
    forEachIn(LiveOut[B], Fn);
  }

  /// Slots (bit S stands for globals()[S]) with an upward-exposed use in
  /// \p B.
  const BitVector &upwardExposed(BlockId B) const { return UEVar[B]; }

  /// Slots defined (killed) in \p B. Together with upwardExposed this is
  /// the full transfer function, letting callers re-pose the live-range
  /// system to solveBitDataflow directly (e.g. solver benchmarks).
  const BitVector &kill(BlockId B) const { return Kill[B]; }

  /// Cost counters of the dataflow solve that produced these sets.
  const DataflowStats &solveStats() const { return SolveStats; }

private:
  static constexpr unsigned NoSlot = ~0u;

  /// Slot of \p R in the universe, or NoSlot for a block-local register.
  unsigned slot(Reg R) const { return R < Slot.size() ? Slot[R] : NoSlot; }

  template <typename FnT>
  void forEachIn(const BitVector &Set, FnT &Fn) const {
    for (int S = Set.findFirst(); S != -1; S = Set.findNext(unsigned(S)))
      Fn(Globals[unsigned(S)]);
  }

  std::vector<Reg> Globals;
  std::vector<unsigned> Slot;
  std::vector<BitVector> LiveIn, LiveOut, UEVar, Kill;
  DataflowStats SolveStats;
};

} // namespace epre

#endif // EPRE_ANALYSIS_LIVENESS_H
