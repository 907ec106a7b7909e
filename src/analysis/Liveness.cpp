//===- analysis/Liveness.cpp ----------------------------------------------===//

#include "analysis/Liveness.h"

#include <cstdint>

using namespace epre;

/// The universe rule of Liveness::globals(), ascending.
static std::vector<Reg> crossBlockRegisters(const Function &F) {
  unsigned NR = F.numRegs();
  std::vector<uint8_t> Crosses(NR, 0);
  // DefStamp[R] == the current block's stamp iff R is defined earlier in
  // the block being scanned.
  std::vector<uint32_t> DefStamp(NR, 0);
  uint32_t BlockStamp = 0;
  F.forEachBlock([&](const BasicBlock &B) {
    ++BlockStamp;
    for (const Instruction &I : B.Insts) {
      for (Reg Op : I.Operands)
        if (I.isPhi() || DefStamp[Op] != BlockStamp)
          Crosses[Op] = 1;
      if (I.hasDst())
        DefStamp[I.Dst] = BlockStamp;
    }
  });
  std::vector<Reg> Regs;
  for (Reg R = 0; R < NR; ++R)
    if (Crosses[R])
      Regs.push_back(R);
  return Regs;
}

Liveness Liveness::compute(const Function &F, const CFG &G,
                           PhiOperandSite Site) {
  Liveness L;
  unsigned NB = F.numBlocks();
  L.Globals = crossBlockRegisters(F);
  L.Slot.assign(F.numRegs(), NoSlot);
  for (unsigned S = 0; S < L.Globals.size(); ++S)
    L.Slot[L.Globals[S]] = S;
  unsigned NG = L.numGlobals();
  L.UEVar.assign(NB, BitVector(NG));
  L.Kill.assign(NB, BitVector(NG));

  // PhiUse[p] = slots used by successors' phis along the edge from p.
  std::vector<BitVector> PhiUse;
  if (Site == PhiOperandSite::PredecessorExit)
    PhiUse.assign(NB, BitVector(NG));

  // Every operand read before a definition in its block, and every phi
  // operand, is a global: the slot lookups below cannot miss.
  F.forEachBlock([&](const BasicBlock &B) {
    BitVector &UE = L.UEVar[B.id()];
    BitVector &K = L.Kill[B.id()];
    for (const Instruction &I : B.Insts) {
      if (I.isPhi()) {
        for (unsigned J = 0; J < I.Operands.size(); ++J) {
          unsigned S = L.Slot[I.Operands[J]];
          if (Site == PhiOperandSite::PredecessorExit)
            PhiUse[I.PhiBlocks[J]].set(S);
          else
            UE.set(S); // phis read in parallel, before any phi writes
        }
      } else {
        for (Reg R : I.Operands) {
          unsigned S = L.Slot[R];
          if (S != NoSlot && !K.test(S))
            UE.set(S);
        }
      }
      if (I.hasDst() && L.Slot[I.Dst] != NoSlot)
        K.set(L.Slot[I.Dst]);
    }
  });

  // LiveOut = PhiUse + union of successors' LiveIn;
  // LiveIn  = (LiveOut - Kill) + UEVar.
  BitDataflowProblem P;
  P.Dir = DataflowDirection::Backward;
  P.Meet = MeetOp::Union;
  P.NumBits = NG;
  if (!PhiUse.empty())
    P.MeetSeed = &PhiUse;
  P.Gen = &L.UEVar;
  P.Kill = &L.Kill;
  L.SolveStats = solveBitDataflow(G, P, L.LiveOut, L.LiveIn);
  return L;
}
