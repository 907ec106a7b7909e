//===- gvn/ValueNumbering.cpp ---------------------------------------------===//

#include "gvn/ValueNumbering.h"

#include "analysis/AnalysisManager.h"

#include "analysis/CFG.h"
#include "analysis/EdgeSplitting.h"
#include "ir/ExprKey.h"
#include "ssa/SSA.h"
#include "support/StringUtil.h"
#include "support/WordInterner.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

using namespace epre;

namespace {

/// Base-key kinds: the first word of an interned base key.
enum class KeyKind : uint32_t {
  IntConst,
  FloatConst,
  Load,
  Phi,
  Copy,
  Call,
  Op,
  Param
};

/// Builds the base keys (interned in ascending register order, so a key's
/// id is also the class id of the optimistic initial partition) and the
/// operand lists used for refinement.
void collect(Function &F, CongruencePartition &P) {
  unsigned NR = F.numRegs();
  std::vector<const Instruction *> Def(NR, nullptr);
  std::vector<BlockId> DefBlock(NR, InvalidBlock);
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts) {
      if (!I.hasDst())
        continue;
      assert(!Def[I.Dst] && "valueNumberSSA requires SSA form");
      Def[I.Dst] = &I;
      DefBlock[I.Dst] = B.id();
    }
  });
  std::vector<uint8_t> IsParam(NR, 0);
  for (Reg Param : F.params())
    IsParam[Param] = 1;

  P.KeyOf.assign(NR, CongruencePartition::NoClass);
  P.OpBegin.assign(NR + 1, 0);
  P.Operands.clear();
  WordInterner Keys;
  std::vector<uint32_t> K;
  std::vector<std::pair<BlockId, Reg>> Inputs;
  for (Reg R = 0; R < NR; ++R) {
    P.OpBegin[R] = unsigned(P.Operands.size());
    const Instruction *I = Def[R];
    if (!IsParam[R] && !I)
      continue;
    K.clear();
    if (IsParam[R]) {
      K = {uint32_t(KeyKind::Param), R};
    } else {
      switch (I->Op) {
      case Opcode::LoadI:
        K = {uint32_t(KeyKind::IntConst), uint32_t(uint64_t(I->IImm)),
             uint32_t(uint64_t(I->IImm) >> 32)};
        break;
      case Opcode::LoadF: {
        uint64_t Bits;
        std::memcpy(&Bits, &I->FImm, sizeof(double));
        K = {uint32_t(KeyKind::FloatConst), uint32_t(Bits),
             uint32_t(Bits >> 32)};
        break;
      }
      case Opcode::Load:
        // Memory values are never congruent to anything (no alias info).
        K = {uint32_t(KeyKind::Load), R};
        P.Operands.insert(P.Operands.end(), I->Operands.begin(),
                          I->Operands.end());
        break;
      case Opcode::Phi:
        // Phis are congruent only within one block; operands compared in
        // predecessor order so positional refinement is meaningful.
        K = {uint32_t(KeyKind::Phi), DefBlock[R], uint32_t(I->Ty)};
        Inputs.clear();
        for (unsigned J = 0; J < I->Operands.size(); ++J)
          Inputs.push_back({I->PhiBlocks[J], I->Operands[J]});
        std::sort(Inputs.begin(), Inputs.end());
        for (auto &[Pred, Op] : Inputs)
          P.Operands.push_back(Op);
        break;
      case Opcode::Copy:
        // SSA construction folds copies; a remaining one is equivalent to
        // its source, which refinement discovers if we class it with the
        // identity operator.
        K = {uint32_t(KeyKind::Copy)};
        P.Operands.insert(P.Operands.end(), I->Operands.begin(),
                          I->Operands.end());
        break;
      case Opcode::Call:
        K = {uint32_t(KeyKind::Call), uint32_t(I->Intr), uint32_t(I->Ty)};
        P.Operands.insert(P.Operands.end(), I->Operands.begin(),
                          I->Operands.end());
        break;
      default:
        K = {uint32_t(KeyKind::Op), uint32_t(I->Op), uint32_t(I->Ty)};
        P.Operands.insert(P.Operands.end(), I->Operands.begin(),
                          I->Operands.end());
        break;
      }
    }
    P.KeyOf[R] = Keys.intern(K).first;
  }
  P.OpBegin[NR] = unsigned(P.Operands.size());

  // Initial (optimistic) partition: by base key alone.
  P.ClassOf = P.KeyOf;
  P.NumClasses = Keys.size();
}

/// Iteratively re-partitions by (base key, operand classes) until stable:
/// each round interns every register's signature word sequence, and the
/// new class id is the signature's id.
void refine(CongruencePartition &P) {
  unsigned NR = unsigned(P.ClassOf.size());
  std::vector<unsigned> NewClassOf(NR, CongruencePartition::NoClass);
  WordInterner Sigs;
  std::vector<uint32_t> Sig;
  while (true) {
    Sigs.clear();
    for (Reg R = 0; R < NR; ++R) {
      if (P.KeyOf[R] == CongruencePartition::NoClass)
        continue;
      Sig.clear();
      Sig.push_back(P.KeyOf[R]);
      for (unsigned J = P.OpBegin[R]; J < P.OpBegin[R + 1]; ++J) {
        Reg Op = P.Operands[J];
        unsigned C = P.classOf(Op);
        // Operands must be defined (SSA); tolerate stray registers by
        // giving them a unique class.
        Sig.push_back(C != CongruencePartition::NoClass ? C : ~Op);
      }
      NewClassOf[R] = Sigs.intern(Sig).first;
    }
    // Stable iff the new partition has the same number of classes (the
    // signatures can only refine the previous round's partition).
    bool Changed = Sigs.size() != P.NumClasses;
    P.NumClasses = Sigs.size();
    P.ClassOf.swap(NewClassOf);
    if (!Changed)
      break;
  }
}

} // namespace

CongruencePartition epre::computeCongruencePartition(Function &F) {
  CongruencePartition P;
  collect(F, P);
  refine(P);
  return P;
}

GVNStats epre::renameToClassReps(Function &F,
                                 const std::vector<unsigned> &ClassOf,
                                 PassContext *Ctx) {
  const unsigned NoClass = CongruencePartition::NoClass;
  GVNStats Stats;
  unsigned NR = unsigned(ClassOf.size());

  // Representative per class: the smallest register, except parameters
  // always represent their class (their name is part of the signature
  // anyway, so a class holds at most one parameter).
  std::vector<Reg> Rep;
  for (Reg R = 0; R < NR; ++R) {
    unsigned C = ClassOf[R];
    if (C == NoClass)
      continue;
    ++Stats.Registers;
    if (C >= Rep.size())
      Rep.resize(C + 1, NoReg);
    if (Rep[C] == NoReg) {
      Rep[C] = R;
      ++Stats.Classes;
    }
  }
  for (Reg P : F.params())
    if (P < NR && ClassOf[P] != NoClass)
      Rep[ClassOf[P]] = P;

  auto repOf = [&](Reg R) {
    return R < NR && ClassOf[R] != NoClass ? Rep[ClassOf[R]] : R;
  };

  // PhiSeen[R] == block id + 1: a phi defining R was kept in that block.
  std::vector<unsigned> PhiSeen(F.numRegs(), 0);
  F.forEachBlock([&](BasicBlock &B) {
    std::vector<Instruction> Out;
    Out.reserve(B.Insts.size());
    for (Instruction &I : B.Insts) {
      if (I.hasDst()) {
        Reg NewDst = repOf(I.Dst);
        if (NewDst != I.Dst) {
          ++Stats.MergedDefs;
          if (Ctx && Ctx->remarksEnabled())
            Ctx->remark(RemarkKind::Merge, F, B.label(), opcodeName(I.Op),
                        strprintf("r%u renamed to congruent r%u", I.Dst,
                                  NewDst));
        }
        I.Dst = NewDst;
      }
      for (Reg &Op : I.Operands)
        Op = repOf(Op);
      // Congruent phis in one block collapse to a single phi.
      if (I.isPhi()) {
        if (PhiSeen[I.Dst] == B.id() + 1)
          continue;
        PhiSeen[I.Dst] = B.id() + 1;
      }
      Out.push_back(std::move(I));
    }
    B.Insts = std::move(Out);
  });
  return Stats;
}

GVNStats epre::valueNumberSSA(Function &F) {
  CongruencePartition P = computeCongruencePartition(F);
  return renameToClassReps(F, P.ClassOf, nullptr);
}

PreservedAnalyses epre::GVNPass::run(Function &F, FunctionAnalysisManager &AM,
                                     PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  // Keep copies as instructions: they are the definitions of "variable
  // names" (§2.2), and folding them away would let phi inputs reference
  // expression names across block boundaries — undoing the locality that
  // forward propagation established for PRE (§5.1).
  SSAOptions Opts;
  Opts.FoldCopies = false;
  SSABuildPass(Opts).run(F, AM, Ctx);
  CongruencePartition P = computeCongruencePartition(F);
  Last = renameToClassReps(F, P.ClassOf, &Ctx);
  // AWZ rewrites uses to class representatives; instructions changed but
  // the graph did not.
  F.bumpVersion();
  AM.finishPass(PreservedAnalyses::cfgShape());
  SSADestroyPass().run(F, AM, Ctx);
  Ctx.addStat("registers", Last.Registers);
  Ctx.addStat("classes", Last.Classes);
  Ctx.addStat("merged_defs", Last.MergedDefs);
  Ctx.addStat("redundancies_found", Last.MergedDefs);
  // The SSA sandwich always rewrites the function; AM was settled by the
  // sub-passes.
  return PreservedAnalyses::none();
}
