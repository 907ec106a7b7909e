//===- gvn/SimpleGVN.cpp --------------------------------------------------===//

#include "gvn/SimpleGVN.h"

#include "analysis/AnalysisManager.h"
#include "ssa/SSA.h"
#include "support/WordInterner.h"

#include <algorithm>
#include <vector>

using namespace epre;

namespace {

bool FaultFirstInputPhi = false;

/// Union-find over the dense class ids of the refined AWZ partition.
/// Classes only ever merge; the root chosen on union is arbitrary because
/// renameToClassReps picks representatives independently.
class UnionFind {
public:
  explicit UnionFind(unsigned N) : Parent(N) {
    for (unsigned I = 0; I < N; ++I)
      Parent[I] = I;
  }

  unsigned find(unsigned C) {
    while (Parent[C] != C) {
      Parent[C] = Parent[Parent[C]];
      C = Parent[C];
    }
    return C;
  }

  /// Returns true if the two classes were distinct (a merge happened).
  bool unite(unsigned A, unsigned B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return false;
    Parent[B] = A;
    return true;
  }

private:
  std::vector<unsigned> Parent;
};

class SimpleGVN {
public:
  SimpleGVN(Function &F, PassContext *Ctx)
      : F(F), Ctx(Ctx), P(computeCongruencePartition(F)), UF(P.NumClasses),
        VR(P.NumClasses, None), Seen(P.NumClasses, 0),
        Tried(F.numBlocks(), 0) {}

  SimpleGVNStats run() {
    // Coarsen the AWZ fixpoint with the value-expression rules until no
    // rule fires. Each round is a full sweep; unions strictly decrease the
    // class count, so the loop terminates.
    bool Changed = true;
    while (Changed) {
      Changed = false;
      computeValueRoots();
      Changed |= closureRound();
      Changed |= phiIdentityRound();
      Changed |= compositionRound(/*DetectOnly=*/false);
    }
    computeValueRoots();
    compositionRound(/*DetectOnly=*/true);

    std::vector<unsigned> Final(P.ClassOf.size(), None);
    for (Reg R = 0; R < P.ClassOf.size(); ++R)
      if (P.ClassOf[R] != None)
        Final[R] = UF.find(P.ClassOf[R]);
    GVNStats RS = renameToClassReps(F, Final, Ctx);
    Stats.Registers = RS.Registers;
    Stats.Classes = RS.Classes;
    Stats.MergedDefs = RS.MergedDefs;
    return Stats;
  }

private:
  /// "No class": a register the partition never saw, or an absent entry.
  static constexpr unsigned None = CongruencePartition::NoClass;
  /// First word of a phi value signature. Other signatures start with a
  /// base-key id, which is always smaller, so the two kinds never collide.
  static constexpr uint32_t PhiTag = ~0u;

  /// Root class of a register, or None for a register the partition never
  /// saw (malformed input; every rule skips such operands).
  unsigned rootOf(Reg R) {
    unsigned C = P.classOf(R);
    return C == None ? None : UF.find(C);
  }

  /// Copies are renaming barriers (their classes never merge with their
  /// source's class — the §2.2 variable-name discipline), but they are
  /// value-transparent: for VALUE comparisons a copy's class stands for
  /// its source's class. VR maps each class root to the root it carries
  /// the value of; None for everything but copy classes.
  void computeValueRoots() {
    std::fill(VR.begin(), VR.end(), None);
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &I : B.Insts) {
        if (!I.isCopy() || !I.hasDst() || I.Operands.empty())
          continue;
        unsigned C = rootOf(I.Dst), S = rootOf(I.Operands[0]);
        if (C != None && S != None && C != S)
          VR[C] = S;
      }
    });
  }

  /// Resolves a class root through copy chains to the class whose value it
  /// carries (cycle-guarded: pathological copy cycles resolve to the last
  /// class before the loop closes).
  unsigned valueOf(unsigned C) {
    if (C == None)
      return C;
    C = UF.find(C);
    if (++Epoch == 0) {
      std::fill(Seen.begin(), Seen.end(), 0);
      Epoch = 1;
    }
    while (true) {
      if (VR[C] == None)
        return C;
      unsigned Next = UF.find(VR[C]);
      if (Next == C || Seen[C] == Epoch)
        return C;
      Seen[C] = Epoch;
      C = Next;
    }
  }

  unsigned valueOfReg(Reg R) { return valueOf(rootOf(R)); }

  /// Writes the value signature of non-phi \p I into Sig: its base key,
  /// then its operands' value classes.
  void exprSig(const Instruction &I) {
    Sig.clear();
    Sig.push_back(P.KeyOf[I.Dst]);
    for (Reg Op : I.Operands)
      Sig.push_back(valueOfReg(Op));
  }

  /// Interns Sig; the first class to intern a signature owns it.
  unsigned internSig(unsigned C) {
    auto [Id, Inserted] = Sigs.intern(Sig);
    if (Inserted)
      Owner.push_back(C);
    return Id;
  }

  /// Upward congruence closure over VALUE signatures: at the AWZ fixpoint,
  /// equal (base key, operand classes) already imply equal classes, so
  /// this fires where values agree through copies or after a union made
  /// two operands congruent; then their users become congruent too. Also
  /// collapses phis whose inputs carry one value per edge.
  bool closureRound() {
    bool Changed = false;
    Sigs.clear();
    Owner.clear();
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &I : B.Insts) {
        if (!I.hasDst())
          continue;
        unsigned C = rootOf(I.Dst);
        if (C == None)
          continue;
        // Loads are never congruent to anything; their keys are unique.
        if (I.Op == Opcode::Load)
          continue;
        if (I.isPhi()) {
          phiEdgeValues(I);
          phiSig(B.id(), I.Ty, Edges);
        } else {
          exprSig(I);
        }
        unsigned Id = internSig(C);
        if (UF.unite(Owner[Id], C))
          Changed = true;
      }
    });
    return Changed;
  }

  /// phi(v, ..., v) == v, ignoring self-references (a phi that only ever
  /// carries its own value around a loop). Under the planted fault the
  /// check degrades to the first input alone.
  bool phiIdentityRound() {
    bool Changed = false;
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &I : B.Insts) {
        if (!I.isPhi() || !I.hasDst() || I.Operands.empty())
          continue;
        unsigned C = rootOf(I.Dst);
        if (C == None)
          continue;
        if (FaultFirstInputPhi) {
          unsigned In = rootOf(I.Operands[0]);
          if (In != None && UF.unite(C, In))
            Changed = true;
          continue;
        }
        unsigned Common = None;
        bool Ok = true;
        for (Reg Op : I.Operands) {
          unsigned In = valueOfReg(Op);
          if (In == None) {
            Ok = false;
            break;
          }
          if (In == valueOf(C))
            continue; // self-reference
          if (Common == None)
            Common = In;
          else if (In != Common)
            Ok = false;
          if (!Ok)
            break;
        }
        if (Ok && Common != None && UF.unite(C, Common)) {
          ++Stats.PhiSimplified;
          Changed = true;
        }
      }
    });
    return Changed;
  }

  /// Value-phi composition: x = a op b whose operands carry phi values of
  /// a block B equals phi_B over the per-edge component values — when
  /// every component a_k op b_k is already computed somewhere, x is
  /// congruent to an existing phi with those inputs (merge) or at least a
  /// proven phi-carried redundancy (DetectOnly counts it).
  bool compositionRound(bool DetectOnly) {
    // Phi instructions by VALUE root, with their blocks; and the
    // value-phi / value-expression signatures of this round.
    Sigs.clear();
    Owner.clear();
    std::vector<std::pair<unsigned, PhiSite>> Phis;
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &I : B.Insts) {
        if (!I.hasDst())
          continue;
        unsigned C = rootOf(I.Dst);
        if (C == None)
          continue;
        if (I.isPhi()) {
          Phis.push_back({valueOf(C), {B.id(), &I}});
          phiEdgeValues(I);
          phiSig(B.id(), I.Ty, Edges);
          internSig(C);
        } else if (I.isExpression() && !I.Operands.empty()) {
          exprSig(I);
          internSig(C);
        }
      }
    });
    // Bucket the phis by value class, keeping block order in each bucket.
    PhiBegin.assign(P.NumClasses + 1, 0);
    for (auto &[V, Site] : Phis)
      ++PhiBegin[V + 1];
    for (unsigned V = 0; V < P.NumClasses; ++V)
      PhiBegin[V + 1] += PhiBegin[V];
    PhiSites.resize(Phis.size());
    {
      std::vector<unsigned> Fill(PhiBegin.begin(), PhiBegin.end() - 1);
      for (auto &[V, Site] : Phis)
        PhiSites[Fill[V]++] = Site;
    }

    bool Changed = false;
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &X : B.Insts) {
        if (!X.hasDst() || X.isPhi() || !X.isExpression() ||
            X.Operands.empty())
          continue;
        unsigned CX = rootOf(X.Dst);
        if (CX == None)
          continue;
        // Candidate phi blocks: any block holding a phi whose value one of
        // x's operands carries. Tried[b] == TryEpoch: b was tried for x.
        if (++TryEpoch == 0) {
          std::fill(Tried.begin(), Tried.end(), 0);
          TryEpoch = 1;
        }
        bool Done = false;
        for (Reg Op : X.Operands) {
          if (Done)
            break;
          unsigned VO = valueOfReg(Op);
          if (VO == None)
            continue;
          for (unsigned K = PhiBegin[VO]; K < PhiBegin[VO + 1]; ++K) {
            auto [BId, Anchor] = PhiSites[K];
            if (Done || Tried[BId] == TryEpoch)
              continue;
            Tried[BId] = TryEpoch;
            if (!composeOver(X, BId, *Anchor))
              continue;
            phiSig(BId, X.Ty, Comp);
            unsigned Id = Sigs.find(Sig);
            if (Id != WordInterner::None) {
              if (!DetectOnly && UF.unite(CX, Owner[Id])) {
                ++Stats.PhiCarried;
                Changed = true;
                Done = true; // x's class changed; revisit next round
              }
            } else if (DetectOnly) {
              // The per-edge values all exist but no phi combines them:
              // a detected phi-carried redundancy with no merge target.
              ++Stats.PhiCarriedDetected;
              Done = true;
            }
          }
        }
      }
    });
    return Changed;
  }

  using PhiSite = std::pair<BlockId, const Instruction *>;

  /// The phi of block \p B among those carrying value \p V, or null.
  const Instruction *phiOfValueIn(unsigned V, BlockId B) const {
    for (unsigned K = PhiBegin[V]; K < PhiBegin[V + 1]; ++K)
      if (PhiSites[K].first == B)
        return PhiSites[K].second;
    return nullptr;
  }

  /// Builds into Comp the per-edge component value classes of \p X over
  /// the edges of block \p B (edge order taken from \p Anchor, a phi of
  /// B). Each operand contributes its phi's incoming value when its value
  /// class holds a phi of B, and its (edge-invariant) value class
  /// otherwise. Fails when a component expression is computed nowhere.
  bool composeOver(const Instruction &X, BlockId B,
                   const Instruction &Anchor) {
    Comp.clear();
    for (unsigned J = 0; J < Anchor.Operands.size(); ++J) {
      BlockId Pred = Anchor.PhiBlocks[J];
      CSig.clear();
      CSig.push_back(P.KeyOf[X.Dst]);
      for (Reg Op : X.Operands) {
        unsigned VO = valueOfReg(Op);
        if (VO == None)
          return false;
        unsigned EdgeV = VO;
        // Does this operand carry the value of a phi of B?
        if (const Instruction *PhiO = phiOfValueIn(VO, B)) {
          unsigned K = J;
          if (PhiO != &Anchor || PhiO->PhiBlocks.size() <= J ||
              PhiO->PhiBlocks[J] != Pred) {
            K = None;
            for (unsigned L = 0; L < PhiO->PhiBlocks.size(); ++L)
              if (PhiO->PhiBlocks[L] == Pred) {
                K = L;
                break;
              }
            if (K == None)
              return false;
          }
          EdgeV = valueOfReg(PhiO->Operands[K]);
          if (EdgeV == None)
            return false;
        }
        CSig.push_back(EdgeV);
      }
      unsigned Id = Sigs.find(CSig);
      if (Id == WordInterner::None)
        return false;
      Comp.push_back({Pred, valueOf(Owner[Id])});
    }
    return true;
  }

  /// Writes into Sig the canonical value signature of "phi in block B over
  /// these per-edge value classes": edges sorted by (predecessor, class).
  /// Used both to collapse congruent phis and to look up the value-phi a
  /// composition built.
  void phiSig(BlockId B, Type Ty,
              std::vector<std::pair<BlockId, unsigned>> &EdgeVals) {
    std::sort(EdgeVals.begin(), EdgeVals.end());
    Sig.clear();
    Sig.push_back(PhiTag);
    Sig.push_back(B);
    Sig.push_back(uint32_t(Ty));
    for (auto &[Pred, C] : EdgeVals) {
      Sig.push_back(Pred);
      Sig.push_back(C);
    }
  }

  /// Writes into Edges the (predecessor, value class) pair of each input of
  /// phi \p I.
  void phiEdgeValues(const Instruction &I) {
    Edges.clear();
    for (unsigned J = 0; J < I.Operands.size(); ++J)
      Edges.push_back({I.PhiBlocks[J], valueOfReg(I.Operands[J])});
  }

  Function &F;
  PassContext *Ctx;
  CongruencePartition P;
  UnionFind UF;
  /// Class root -> root of the class it carries the value of, or None.
  std::vector<unsigned> VR;
  /// valueOf's cycle guard: Seen[c] == Epoch once c was passed this call.
  std::vector<unsigned> Seen;
  unsigned Epoch = 0;
  /// compositionRound's per-candidate guard over phi blocks.
  std::vector<unsigned> Tried;
  unsigned TryEpoch = 0;
  /// One round's signatures, and the class that interned each first.
  WordInterner Sigs;
  std::vector<unsigned> Owner;
  /// compositionRound's phis bucketed by value class (CSR).
  std::vector<unsigned> PhiBegin;
  std::vector<PhiSite> PhiSites;
  /// Signature scratch buffers, reused across instructions.
  std::vector<uint32_t> Sig, CSig;
  std::vector<std::pair<BlockId, unsigned>> Edges, Comp;
  SimpleGVNStats Stats;
};

} // namespace

void epre::fault::setSimpleGVNFirstInputPhi(bool Enabled) {
  FaultFirstInputPhi = Enabled;
}

bool epre::fault::simpleGVNFirstInputPhi() { return FaultFirstInputPhi; }

SimpleGVNStats epre::simpleGVNValueNumberSSA(Function &F, PassContext *Ctx) {
  return SimpleGVN(F, Ctx).run();
}

PreservedAnalyses epre::SimpleGVNPass::run(Function &F,
                                           FunctionAnalysisManager &AM,
                                           PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  // The same SSA sandwich as GVNPass: copies stay instructions so the
  // variable-name discipline PRE relies on (§2.2, §5.1) survives the
  // round trip.
  SSAOptions Opts;
  Opts.FoldCopies = false;
  SSABuildPass(Opts).run(F, AM, Ctx);
  Last = simpleGVNValueNumberSSA(F, &Ctx);
  F.bumpVersion();
  AM.finishPass(PreservedAnalyses::cfgShape());
  SSADestroyPass().run(F, AM, Ctx);
  Ctx.addStat("registers", Last.Registers);
  Ctx.addStat("classes", Last.Classes);
  Ctx.addStat("merged_defs", Last.MergedDefs);
  Ctx.addStat("phi_simplified", Last.PhiSimplified);
  Ctx.addStat("phi_carried", Last.PhiCarried);
  Ctx.addStat("phi_carried_detected", Last.PhiCarriedDetected);
  Ctx.addStat("redundancies_found", Last.redundanciesFound());
  return PreservedAnalyses::none();
}
