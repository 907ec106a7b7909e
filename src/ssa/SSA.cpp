//===- ssa/SSA.cpp --------------------------------------------------------===//

#include "ssa/SSA.h"

#include "analysis/AnalysisManager.h"
#include "analysis/EdgeSplitting.h"
#include "analysis/Liveness.h"
#include "ssa/ParallelCopy.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

using namespace epre;

namespace {

/// Erases blocks unreachable from entry and drops phi operands arriving
/// from erased blocks. SSA construction requires a reachable-only CFG.
void removeUnreachable(Function &F, FunctionAnalysisManager &AM) {
  const CFG &G = AM.cfg();
  std::vector<BlockId> Dead;
  F.forEachBlock([&](BasicBlock &B) {
    if (!G.isReachable(B.id()))
      Dead.push_back(B.id());
  });
  if (Dead.empty())
    return;
  for (BlockId D : Dead)
    F.eraseBlock(D);
  F.forEachBlock([&](BasicBlock &B) {
    for (Instruction &I : B.Insts) {
      if (!I.isPhi())
        break;
      for (int J = int(I.Operands.size()) - 1; J >= 0; --J) {
        if (G.isReachable(I.PhiBlocks[J]))
          continue;
        I.Operands.erase(I.Operands.begin() + J);
        I.PhiBlocks.erase(I.PhiBlocks.begin() + J);
      }
    }
  });
  AM.finishPass(PreservedAnalyses::none());
}

class SSABuilder {
public:
  SSABuilder(Function &F, FunctionAnalysisManager &AM,
             const SSAOptions &Opts)
      : F(F), AM(AM), Opts(Opts) {}

  SSAInfo run() {
#ifndef NDEBUG
    F.forEachBlock([](const BasicBlock &B) {
      assert(B.firstNonPhi() == 0 &&
             "SSA construction requires phi-free input; destroy SSA first");
    });
#endif
    removeUnreachable(F, AM);
    // Pointers stay valid through the mutations below: no AM accessor runs
    // again until finishPass at the end of buildSSA.
    G = &AM.cfg();
    DT = &AM.domTree();
    DF = DominanceFrontier::compute(F, *G, *DT);

    insertEntryInits();
    Live = Liveness::compute(F, *G);
    collectDefSites();
    insertPhis();
    rename();

    Info.OriginalOf.resize(F.numRegs(), NoReg);
    return Info;
  }

private:
  /// Zero-initializes any register that may be used before being defined,
  /// so renaming always finds a reaching definition.
  void insertEntryInits() {
    Liveness L0 = Liveness::compute(F, *G);
    std::vector<Instruction> Inits;
    L0.forEachLiveIn(0, [&](Reg R) {
      if (F.isParam(R))
        return;
      if (F.regType(R) == Type::F64)
        Inits.push_back(Instruction::makeLoadF(R, 0.0));
      else
        Inits.push_back(Instruction::makeLoadI(R, 0));
    });
    BasicBlock *Entry = F.entry();
    Entry->Insts.insert(Entry->Insts.begin(), Inits.begin(), Inits.end());
  }

  /// The blocks defining each register, ascending and duplicate-free, in
  /// CSR form: register R's are DefSites[DefBegin[R] .. DefBegin[R + 1]).
  void collectDefSites() {
    unsigned NR = F.numRegs();
    // LastIn[R] == block id + 1: R's def site in that block is recorded.
    std::vector<unsigned> LastIn(NR, 0);
    DefBegin.assign(NR + 1, 0);
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &I : B.Insts)
        if (I.hasDst() && LastIn[I.Dst] != B.id() + 1) {
          LastIn[I.Dst] = B.id() + 1;
          ++DefBegin[I.Dst + 1];
        }
    });
    for (Reg R = 0; R < NR; ++R)
      DefBegin[R + 1] += DefBegin[R];
    DefSites.resize(DefBegin[NR]);
    std::vector<unsigned> Fill(DefBegin.begin(), DefBegin.end() - 1);
    std::fill(LastIn.begin(), LastIn.end(), 0);
    // Blocks are visited in ascending id order, so every list is sorted.
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &I : B.Insts)
        if (I.hasDst() && LastIn[I.Dst] != B.id() + 1) {
          LastIn[I.Dst] = B.id() + 1;
          DefSites[Fill[I.Dst]++] = B.id();
        }
    });
  }

  void insertPhis() {
    unsigned NR = F.numRegs();
    unsigned NB = F.numBlocks();
    // Per variable V, block stamps (V + 1): HasPhi marks the blocks that
    // got a phi for V, IsDef the blocks defining V.
    std::vector<unsigned> HasPhi(NB, 0), IsDef(NB, 0);
    // The variables given a phi in each block, in insertion order.
    std::vector<std::vector<Reg>> NewPhis(NB);
    std::vector<BlockId> Work;
    for (Reg V = 0; V < NR; ++V) {
      if (DefBegin[V] == DefBegin[V + 1])
        continue;
      unsigned Stamp = V + 1;
      for (unsigned K = DefBegin[V]; K < DefBegin[V + 1]; ++K)
        IsDef[DefSites[K]] = Stamp;
      // Iterated dominance frontier of the def sites.
      Work.assign(DefSites.begin() + DefBegin[V],
                  DefSites.begin() + DefBegin[V + 1]);
      while (!Work.empty()) {
        BlockId B = Work.back();
        Work.pop_back();
        for (BlockId D : DF.frontier(B)) {
          if (HasPhi[D] == Stamp)
            continue;
          if (!Live.isLiveIn(V, D))
            continue;
          HasPhi[D] = Stamp;
          NewPhis[D].push_back(V);
          ++Info.NumPhis;
          if (IsDef[D] != Stamp)
            Work.push_back(D);
        }
      }
    }
    // Each phi goes to the front of its block, so the block lists them
    // last-inserted first; the phi destinations still carry the original
    // variable names, from which PhiVar is read.
    PhiVar.assign(NB, {});
    F.forEachBlock([&](BasicBlock &B) {
      std::vector<Reg> &Vars = NewPhis[B.id()];
      if (!Vars.empty()) {
        std::vector<Instruction> Phis;
        Phis.reserve(Vars.size());
        for (auto It = Vars.rbegin(); It != Vars.rend(); ++It)
          Phis.push_back(Instruction::makePhi(F.regType(*It), *It));
        B.Insts.insert(B.Insts.begin(), std::make_move_iterator(Phis.begin()),
                       std::make_move_iterator(Phis.end()));
      }
      for (unsigned I = 0; I < B.Insts.size() && B.Insts[I].isPhi(); ++I)
        PhiVar[B.id()].push_back(B.Insts[I].Dst);
    });
  }

  Reg currentName(Reg V) {
    assert(V < Top.size() && Top[V] != NoName &&
           "use of register with no reaching definition");
    return Names[Top[V]].Name;
  }

  void pushName(Reg V, Reg Name) {
    Names.push_back({V, Name, Top[V]});
    Top[V] = unsigned(Names.size() - 1);
  }

  /// A fresh SSA name for variable \p V.
  Reg newName(Reg V) {
    Reg Name = F.makeReg(F.regType(V));
    if (Name >= Info.OriginalOf.size())
      Info.OriginalOf.resize(Name + 1, NoReg);
    Info.OriginalOf[Name] = V;
    return Name;
  }

  void rename() {
    Top.assign(F.numRegs(), NoName);
    Names.clear();
    // Parameters name themselves.
    for (Reg P : F.params())
      pushName(P, P);

    renameBlock(G->rpo()[0]);

    assert(Names.size() == F.params().size() && "unbalanced rename stack");
  }

  void renameBlock(BlockId B) {
    // Names pushed below this mark belong to dominators; the ones above it
    // are popped when the block's dominator subtree is done.
    size_t Mark = Names.size();
    BasicBlock *BB = F.block(B);

    std::vector<Instruction> Kept;
    Kept.reserve(BB->Insts.size());
    unsigned PhiIdx = 0;
    for (Instruction &I : BB->Insts) {
      if (I.isPhi()) {
        Reg V = PhiVar[B][PhiIdx++];
        Reg NewName = newName(V);
        I.Dst = NewName;
        pushName(V, NewName);
        Kept.push_back(std::move(I));
        continue;
      }
      // Rewrite uses to the current version.
      for (Reg &U : I.Operands)
        U = currentName(U);
      // Copy folding: x <- y makes y's current name the name of x.
      if (Opts.FoldCopies && I.isCopy()) {
        pushName(I.Dst, I.Operands[0]);
        ++Info.NumCopiesFolded;
        continue; // the copy disappears
      }
      if (I.hasDst()) {
        Reg V = I.Dst;
        Reg NewName = newName(V);
        I.Dst = NewName;
        pushName(V, NewName);
      }
      Kept.push_back(std::move(I));
    }
    BB->Insts = std::move(Kept);

    // Fill phi operands of successors with the names current at the end
    // of this block.
    for (BlockId S : G->succs(B)) {
      BasicBlock *SB = F.block(S);
      for (unsigned I = 0; I < PhiVar[S].size(); ++I)
        SB->Insts[I].addPhiIncoming(currentName(PhiVar[S][I]), B);
    }

    for (BlockId C : DT->children(B))
      renameBlock(C);

    while (Names.size() > Mark) {
      Top[Names.back().Var] = Names.back().Prev;
      Names.pop_back();
    }
  }

  Function &F;
  FunctionAnalysisManager &AM;
  SSAOptions Opts;
  const CFG *G = nullptr;
  const DominatorTree *DT = nullptr;
  DominanceFrontier DF;
  Liveness Live;
  SSAInfo Info;
  std::vector<unsigned> DefBegin;
  std::vector<BlockId> DefSites;
  /// The original variable of each phi, per block in phi order.
  std::vector<std::vector<Reg>> PhiVar;
  /// The renaming stacks, all in one array: Names[Top[V]] holds V's
  /// current name, and each entry links to the one it shadows.
  struct NameEntry {
    Reg Var;
    Reg Name;
    unsigned Prev;
  };
  static constexpr unsigned NoName = ~0u;
  std::vector<NameEntry> Names;
  std::vector<unsigned> Top;
};

} // namespace

PreservedAnalyses epre::SSABuildPass::run(Function &F,
                                          FunctionAnalysisManager &AM,
                                          PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  SSABuilder B(F, AM, Opts);
  Last = B.run();
  Ctx.addStat("phis", Last.NumPhis);
  Ctx.addStat("copies_folded", Last.NumCopiesFolded);
  F.bumpVersion();
  // Phi insertion and renaming rewrite instructions and registers but never
  // blocks or edges.
  PreservedAnalyses PA = PreservedAnalyses::cfgShape();
  AM.finishPass(PA);
  return PA;
}

namespace {

void destroySSAImpl(Function &F, FunctionAnalysisManager &AM) {
  // Copies for single-successor predecessors and loop back edges are
  // placed inline at the end of the predecessor (keeping loop bodies in
  // one block, the paper's Figure 5 shape); other critical entering edges
  // get forwarding blocks. A forwarding-block copy whose source is about
  // to be clobbered by the predecessor's inline group reads a temporary
  // captured in parallel with the clobber.
  const CFG &G = AM.cfg();
  const DominatorTree &DT = AM.domTree();
  Liveness Live = Liveness::compute(F, G);

  struct EdgeGroup {
    BlockId Pred;
    BlockId Succ;
    bool Inline;
    BlockId CopyBlock = InvalidBlock;
    std::vector<PendingCopy> Items;
  };
  std::vector<EdgeGroup> Groups;

  // A back-edge group may stay inline at the predecessor only if none of
  // its destinations is *directly* live into one of the predecessor's
  // other successors — otherwise the copy would clobber a value a non-phi
  // use still needs (e.g. a swapped variable read after the loop).
  auto canInline = [&](BlockId P, BlockId S,
                       const std::vector<PendingCopy> &Items) {
    if (G.succs(P).size() <= 1)
      return true;
    if (!DT.dominates(S, P))
      return false; // not a back edge
    for (BlockId T : G.succs(P)) {
      if (T == S)
        continue;
      for (const PendingCopy &C : Items)
        if (Live.isLiveIn(C.Dst, T))
          return false;
    }
    return true;
  };

  F.forEachBlock([&](BasicBlock &B) {
    unsigned NumPhis = B.firstNonPhi();
    if (NumPhis == 0)
      return;
    std::map<BlockId, std::vector<PendingCopy>> ByPred;
    for (unsigned I = 0; I < NumPhis; ++I) {
      const Instruction &Phi = B.Insts[I];
      for (unsigned J = 0; J < Phi.Operands.size(); ++J)
        ByPred[Phi.PhiBlocks[J]].push_back({Phi.Dst, Phi.Operands[J]});
    }
    for (auto &[P, Items] : ByPred) {
      EdgeGroup EG;
      EG.Pred = P;
      EG.Succ = B.id();
      EG.Inline = canInline(P, B.id(), Items);
      EG.Items = std::move(Items);
      Groups.push_back(std::move(EG));
    }
    B.Insts.erase(B.Insts.begin(), B.Insts.begin() + NumPhis);
  });

  for (EdgeGroup &EG : Groups)
    if (!EG.Inline)
      EG.CopyBlock = splitEdge(F, EG.Pred, EG.Succ)->id();

  // Process per predecessor so the inline group and the temporaries it
  // implies are sequenced together.
  std::map<BlockId, std::vector<EdgeGroup *>> ByPred;
  for (EdgeGroup &EG : Groups)
    ByPred[EG.Pred].push_back(&EG);

  // Registers holding expression values: a forwarding-block copy may not
  // read them across the block boundary (it would violate the §5.1 naming
  // rule and force PRE to drop the expression from its universe).
  std::set<Reg> ExprNames;
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts)
      if (I.hasDst() && I.isExpression())
        ExprNames.insert(I.Dst);
  });

  for (auto &[P, List] : ByPred) {
    std::set<Reg> InlineDsts;
    std::map<Reg, Reg> InlineCopyOf;
    for (EdgeGroup *EG : List)
      if (EG->Inline)
        for (const PendingCopy &C : EG->Items) {
          InlineDsts.insert(C.Dst);
          InlineCopyOf.emplace(C.Src, C.Dst);
        }

    std::vector<PendingCopy> AtPred;
    for (EdgeGroup *EG : List) {
      if (EG->Inline) {
        for (const PendingCopy &C : EG->Items)
          AtPred.push_back(C);
        continue;
      }
      for (PendingCopy &C : EG->Items) {
        bool Clobbered = InlineDsts.count(C.Src) != 0;
        bool IsExpr = ExprNames.count(C.Src) != 0;
        if (!Clobbered && !IsExpr)
          continue;
        auto Shared = InlineCopyOf.find(C.Src);
        if (!Clobbered && Shared != InlineCopyOf.end()) {
          C.Src = Shared->second;
          continue;
        }
        Reg Tmp = F.makeReg(F.regType(C.Src));
        AtPred.push_back({Tmp, C.Src});
        C.Src = Tmp;
      }
    }
    std::vector<Instruction> Seq =
        sequenceParallelCopies(F, std::move(AtPred));
    BasicBlock *PB = F.block(P);
    PB->Insts.insert(PB->Insts.end() - 1,
                     std::make_move_iterator(Seq.begin()),
                     std::make_move_iterator(Seq.end()));

    for (EdgeGroup *EG : List) {
      if (EG->Inline)
        continue;
      std::vector<Instruction> MidSeq =
          sequenceParallelCopies(F, std::move(EG->Items));
      BasicBlock *Mid = F.block(EG->CopyBlock);
      for (Instruction &C : MidSeq)
        Mid->insertBeforeTerminator(std::move(C));
    }
  }
  F.bumpVersion();
  // Forwarding blocks reroute edges; even without them, phi removal and
  // copy insertion rewrite instructions everywhere.
  AM.finishPass(PreservedAnalyses::none());
}

} // namespace

PreservedAnalyses epre::SSADestroyPass::run(Function &F,
                                            FunctionAnalysisManager &AM,
                                            PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  destroySSAImpl(F, AM);
  return PreservedAnalyses::none();
}

