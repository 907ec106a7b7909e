//===- gvn/SimpleGVN.cpp --------------------------------------------------===//

#include "gvn/SimpleGVN.h"

#include "analysis/AnalysisManager.h"
#include "ssa/SSA.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <map>
#include <set>
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
      : F(F), Ctx(Ctx), P(computeCongruencePartition(F)), UF(numClasses()) {}

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

    std::map<Reg, unsigned> Final;
    for (auto &[R, C] : P.ClassOf)
      Final[R] = UF.find(C);
    GVNStats RS = renameToClassReps(F, Final, Ctx);
    Stats.Registers = RS.Registers;
    Stats.Classes = RS.Classes;
    Stats.MergedDefs = RS.MergedDefs;
    return Stats;
  }

private:
  unsigned numClasses() const {
    unsigned N = 0;
    for (auto &[R, C] : P.ClassOf)
      N = std::max(N, C + 1);
    return N;
  }

  /// Root class of a register, or ~0u for a register the partition never
  /// saw (malformed input; every rule skips such operands).
  unsigned rootOf(Reg R) {
    auto It = P.ClassOf.find(R);
    return It == P.ClassOf.end() ? ~0u : UF.find(It->second);
  }

  /// Copies are renaming barriers (their classes never merge with their
  /// source's class — the §2.2 variable-name discipline), but they are
  /// value-transparent: for VALUE comparisons a copy's class stands for
  /// its source's class. VR maps each class root to the root it carries
  /// the value of; identity for everything but copy classes.
  void computeValueRoots() {
    VR.clear();
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &I : B.Insts) {
        if (!I.isCopy() || !I.hasDst() || I.Operands.empty())
          continue;
        unsigned C = rootOf(I.Dst), S = rootOf(I.Operands[0]);
        if (C != ~0u && S != ~0u && C != S)
          VR[C] = S;
      }
    });
  }

  /// Resolves a class root through copy chains to the class whose value it
  /// carries (cycle-guarded: pathological copy cycles resolve to the last
  /// class before the loop closes).
  unsigned valueOf(unsigned C) {
    if (C == ~0u)
      return C;
    C = UF.find(C);
    std::set<unsigned> Seen;
    while (true) {
      auto It = VR.find(C);
      if (It == VR.end())
        return C;
      unsigned Next = UF.find(It->second);
      if (Next == C || !Seen.insert(C).second)
        return C;
      C = Next;
    }
  }

  unsigned valueOfReg(Reg R) { return valueOf(rootOf(R)); }

  /// Upward congruence closure over VALUE signatures: at the AWZ fixpoint,
  /// equal (base key, operand classes) already imply equal classes, so
  /// this fires where values agree through copies or after a union made
  /// two operands congruent; then their users become congruent too. Also
  /// collapses phis whose inputs carry one value per edge.
  bool closureRound() {
    bool Changed = false;
    std::map<std::string, unsigned> Index;
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &I : B.Insts) {
        if (!I.hasDst())
          continue;
        unsigned C = rootOf(I.Dst);
        if (C == ~0u)
          continue;
        const std::string &Key = P.Keys[I.Dst];
        // Loads are never congruent to anything; their keys are unique.
        if (Key.compare(0, 5, "load:") == 0)
          continue;
        std::string Sig;
        if (I.isPhi())
          Sig = phiSig(B.id(), I.Ty, phiEdgeValues(I));
        else {
          Sig = Key;
          for (Reg Op : I.Operands)
            Sig += strprintf("|%u", valueOfReg(Op));
        }
        auto [It, Inserted] = Index.emplace(Sig, C);
        if (!Inserted && UF.unite(It->second, C))
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
        if (C == ~0u)
          continue;
        if (FaultFirstInputPhi) {
          unsigned In = rootOf(I.Operands[0]);
          if (In != ~0u && UF.unite(C, In))
            Changed = true;
          continue;
        }
        unsigned Common = ~0u;
        bool Ok = true;
        for (Reg Op : I.Operands) {
          unsigned In = valueOfReg(Op);
          if (In == ~0u) {
            Ok = false;
            break;
          }
          if (In == valueOf(C))
            continue; // self-reference
          if (Common == ~0u)
            Common = In;
          else if (In != Common)
            Ok = false;
          if (!Ok)
            break;
        }
        if (Ok && Common != ~0u && UF.unite(C, Common)) {
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
    // value-phi / value-expression lookup tables for this round.
    PhiMap PhisByValue;
    std::map<std::string, unsigned> PhiIndex;
    std::map<std::string, unsigned> ExprIndex;
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &I : B.Insts) {
        if (!I.hasDst())
          continue;
        unsigned C = rootOf(I.Dst);
        if (C == ~0u)
          continue;
        if (I.isPhi()) {
          PhisByValue[valueOf(C)].push_back({B.id(), &I});
          PhiIndex.emplace(phiSig(B.id(), I.Ty, phiEdgeValues(I)), C);
        } else if (I.isExpression() && !I.Operands.empty()) {
          std::string Sig = P.Keys[I.Dst];
          for (Reg Op : I.Operands)
            Sig += strprintf("|%u", valueOfReg(Op));
          ExprIndex.emplace(Sig, C);
        }
      }
    });

    bool Changed = false;
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &X : B.Insts) {
        if (!X.hasDst() || X.isPhi() || !X.isExpression() ||
            X.Operands.empty())
          continue;
        unsigned CX = rootOf(X.Dst);
        if (CX == ~0u)
          continue;
        // Candidate phi blocks: any block holding a phi whose value one of
        // x's operands carries.
        std::set<BlockId> Tried;
        bool Done = false;
        for (Reg Op : X.Operands) {
          if (Done)
            break;
          unsigned VO = valueOfReg(Op);
          if (VO == ~0u)
            continue;
          auto PIt = PhisByValue.find(VO);
          if (PIt == PhisByValue.end())
            continue;
          for (auto &[BId, Anchor] : PIt->second) {
            if (Done || !Tried.insert(BId).second)
              continue;
            std::vector<std::pair<BlockId, unsigned>> Comp;
            if (!composeOver(X, BId, *Anchor, PhisByValue, ExprIndex, Comp))
              continue;
            auto VIt = PhiIndex.find(phiSig(BId, X.Ty, std::move(Comp)));
            if (VIt != PhiIndex.end()) {
              if (!DetectOnly && UF.unite(CX, VIt->second)) {
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

  using PhiMap =
      std::map<unsigned,
               std::vector<std::pair<BlockId, const Instruction *>>>;

  /// Builds the per-edge component value classes of \p X over the edges of
  /// block \p B (edge order taken from \p Anchor, a phi of B). Each
  /// operand contributes its phi's incoming value when its value class
  /// holds a phi of B, and its (edge-invariant) value class otherwise.
  /// Fails when a component expression is computed nowhere.
  bool composeOver(const Instruction &X, BlockId B, const Instruction &Anchor,
                   PhiMap &PhisByValue,
                   const std::map<std::string, unsigned> &ExprIndex,
                   std::vector<std::pair<BlockId, unsigned>> &Comp) {
    for (unsigned J = 0; J < Anchor.Operands.size(); ++J) {
      BlockId Pred = Anchor.PhiBlocks[J];
      std::string CSig = P.Keys[X.Dst];
      for (Reg Op : X.Operands) {
        unsigned VO = valueOfReg(Op);
        if (VO == ~0u)
          return false;
        unsigned EdgeV = VO;
        // Does this operand carry the value of a phi of B?
        auto PIt = PhisByValue.find(VO);
        if (PIt != PhisByValue.end()) {
          const Instruction *PhiO = nullptr;
          for (auto &[BId, Phi] : PIt->second)
            if (BId == B) {
              PhiO = Phi;
              break;
            }
          if (PhiO) {
            unsigned K = J;
            if (PhiO != &Anchor || PhiO->PhiBlocks.size() <= J ||
                PhiO->PhiBlocks[J] != Pred) {
              K = ~0u;
              for (unsigned L = 0; L < PhiO->PhiBlocks.size(); ++L)
                if (PhiO->PhiBlocks[L] == Pred) {
                  K = L;
                  break;
                }
              if (K == ~0u)
                return false;
            }
            EdgeV = valueOfReg(PhiO->Operands[K]);
            if (EdgeV == ~0u)
              return false;
          }
        }
        CSig += strprintf("|%u", EdgeV);
      }
      auto EIt = ExprIndex.find(CSig);
      if (EIt == ExprIndex.end())
        return false;
      Comp.push_back({Pred, valueOf(EIt->second)});
    }
    return true;
  }

  /// Canonical value signature of "phi in block B over these per-edge
  /// value classes": edges sorted by (predecessor, class). Used both to
  /// collapse congruent phis and to look up the value-phi a composition
  /// built.
  static std::string phiSig(BlockId B, Type Ty,
                            std::vector<std::pair<BlockId, unsigned>> Edges) {
    std::sort(Edges.begin(), Edges.end());
    std::string Sig = strprintf("phi:%u:%u", B, unsigned(Ty));
    for (auto &[Pred, C] : Edges)
      Sig += strprintf("|%u:%u", Pred, C);
    return Sig;
  }

  std::vector<std::pair<BlockId, unsigned>>
  phiEdgeValues(const Instruction &I) {
    std::vector<std::pair<BlockId, unsigned>> Edges;
    for (unsigned J = 0; J < I.Operands.size(); ++J)
      Edges.push_back({I.PhiBlocks[J], valueOfReg(I.Operands[J])});
    return Edges;
  }

  Function &F;
  PassContext *Ctx;
  CongruencePartition P;
  UnionFind UF;
  std::map<unsigned, unsigned> VR;
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
