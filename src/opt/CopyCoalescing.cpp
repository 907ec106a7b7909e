//===- opt/CopyCoalescing.cpp ---------------------------------------------===//

#include "opt/CopyCoalescing.h"

#include "analysis/AnalysisManager.h"
#include "analysis/Liveness.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

using namespace epre;

namespace {

constexpr unsigned NoIndex = ~0u;

/// The registers a copy can merge: every destination and source of a copy
/// in a reachable block, numbered densely in first-seen order. Classes only
/// ever merge through a copy and the interference query only compares two
/// such classes, so interference among these registers alone decides every
/// merge exactly.
struct CopyRegs {
  std::vector<unsigned> Index; ///< register -> dense index, or NoIndex
  std::vector<Reg> Regs;       ///< dense index -> register

  CopyRegs(const Function &F, const CFG &G) : Index(F.numRegs(), NoIndex) {
    F.forEachBlock([&](const BasicBlock &B) {
      if (!G.isReachable(B.id()))
        return;
      for (const Instruction &I : B.Insts)
        if (I.isCopy()) {
          add(I.Dst);
          add(I.Operands[0]);
        }
    });
  }

  void add(Reg R) {
    if (Index[R] == NoIndex) {
      Index[R] = unsigned(Regs.size());
      Regs.push_back(R);
    }
  }
};

/// Interference among the copy-related registers as unique (lo, hi) index
/// pairs: a definition of `d` interferes with every register live
/// immediately after it — except, for a copy `d <- s`, with `s` itself
/// (Chaitin's refinement: they hold the same value there).
std::vector<uint64_t> buildInterference(const Function &F, const CFG &G,
                                        const Liveness &Live,
                                        const CopyRegs &CR) {
  std::vector<uint64_t> Edges;
  auto addEdge = [&](unsigned A, unsigned B) {
    if (A != B)
      Edges.push_back(uint64_t(std::min(A, B)) << 32 | std::max(A, B));
  };
  // The running live set of the backward walk, restricted to copy-related
  // registers: a dense list plus each index's position in it.
  std::vector<unsigned> LiveNow;
  std::vector<unsigned> Pos(CR.Regs.size(), NoIndex);
  auto makeLive = [&](Reg R) {
    unsigned X = CR.Index[R];
    if (X != NoIndex && Pos[X] == NoIndex) {
      Pos[X] = unsigned(LiveNow.size());
      LiveNow.push_back(X);
    }
  };
  auto makeDead = [&](unsigned X) {
    if (Pos[X] == NoIndex)
      return;
    unsigned Last = LiveNow.back();
    LiveNow[Pos[X]] = Last;
    Pos[Last] = Pos[X];
    LiveNow.pop_back();
    Pos[X] = NoIndex;
  };
  F.forEachBlock([&](const BasicBlock &B) {
    if (!G.isReachable(B.id()))
      return;
    Live.forEachLiveOut(B.id(), makeLive);
    for (auto It = B.Insts.rbegin(); It != B.Insts.rend(); ++It) {
      const Instruction &I = *It;
      if (I.hasDst() && CR.Index[I.Dst] != NoIndex) {
        unsigned D = CR.Index[I.Dst];
        unsigned CopySrc = I.isCopy() ? CR.Index[I.Operands[0]] : NoIndex;
        for (unsigned X : LiveNow)
          if (X != CopySrc)
            addEdge(D, X);
        makeDead(D);
      }
      for (Reg R : I.Operands)
        makeLive(R);
    }
    // Parameters are live at function entry simultaneously.
    if (B.id() == 0)
      for (Reg P1 : F.params())
        for (Reg P2 : F.params())
          if (CR.Index[P1] != NoIndex && CR.Index[P2] != NoIndex)
            addEdge(CR.Index[P1], CR.Index[P2]);
    for (unsigned X : LiveNow)
      Pos[X] = NoIndex;
    LiveNow.clear();
  });
  std::sort(Edges.begin(), Edges.end());
  Edges.erase(std::unique(Edges.begin(), Edges.end()), Edges.end());
  return Edges;
}

unsigned coalesceCopiesImpl(Function &F, FunctionAnalysisManager &AM,
                            uint64_t &InterferenceEdges) {
  unsigned Removed = 0;
  // Coalescing renames registers and deletes self-copies; the block graph
  // never changes, so one CFG serves every round.
  const CFG &G = AM.cfg();
  std::vector<Instruction> Kept; // reused across blocks to recycle capacity
  bool Changed = true;
  while (Changed) {
    Changed = false;
    CopyRegs CR(F, G);
    if (CR.Regs.empty())
      break; // no copy left: nothing to analyze
    Liveness Live = Liveness::compute(F, G);
    std::vector<uint64_t> Edges = buildInterference(F, G, Live, CR);
    InterferenceEdges += Edges.size();

    // Union-find over copy-related registers; each class's adjacency list
    // is the concatenation of its members' (entries may name merged-away
    // members; find() maps them to their class). Representatives prefer
    // parameters so the function signature never changes.
    unsigned N = unsigned(CR.Regs.size());
    std::vector<unsigned> Parent(N);
    std::vector<std::vector<unsigned>> Adj(N);
    for (unsigned X = 0; X < N; ++X)
      Parent[X] = X;
    for (uint64_t E : Edges) {
      unsigned A = unsigned(E >> 32), B = unsigned(E);
      Adj[A].push_back(B);
      Adj[B].push_back(A);
    }
    auto find = [&](unsigned X) {
      while (Parent[X] != X) {
        Parent[X] = Parent[Parent[X]];
        X = Parent[X];
      }
      return X;
    };
    // Classes A and B interfere iff some member of one interferes with
    // some member of the other: scan the shorter list.
    auto interferes = [&](unsigned A, unsigned B) {
      if (Adj[A].size() > Adj[B].size())
        std::swap(A, B);
      for (unsigned X : Adj[A])
        if (find(X) == B)
          return true;
      return false;
    };

    bool Merged = false;
    F.forEachBlock([&](const BasicBlock &B) {
      if (!G.isReachable(B.id()))
        return;
      for (const Instruction &I : B.Insts) {
        if (!I.isCopy())
          continue;
        unsigned DX = find(CR.Index[I.Dst]);
        unsigned SX = find(CR.Index[I.Operands[0]]);
        if (DX == SX)
          continue;
        Reg D = CR.Regs[DX], S = CR.Regs[SX];
        if (F.regType(D) != F.regType(S))
          continue;
        if (interferes(DX, SX))
          continue;
        // Two parameters cannot merge (both fixed names).
        bool DParam = F.isParam(D), SParam = F.isParam(S);
        if (DParam && SParam)
          continue;
        unsigned Rep = SParam ? SX : (DParam ? DX : SX);
        unsigned Other = Rep == SX ? DX : SX;
        // Append the shorter list to the longer (small-to-large), keeping
        // the result in the representative's slot.
        if (Adj[Rep].size() < Adj[Other].size())
          Adj[Rep].swap(Adj[Other]);
        Adj[Rep].insert(Adj[Rep].end(), Adj[Other].begin(), Adj[Other].end());
        std::vector<unsigned>().swap(Adj[Other]);
        Parent[Other] = Rep;
        Merged = true;
      }
    });

    if (!Merged)
      break;

    // Rewrite every register to its representative; self-copies vanish.
    auto rename = [&](Reg R) {
      unsigned X = CR.Index[R];
      return X == NoIndex ? R : CR.Regs[find(X)];
    };
    F.forEachBlock([&](BasicBlock &B) {
      Kept.clear();
      Kept.reserve(B.Insts.size());
      for (Instruction &I : B.Insts) {
        if (I.hasDst())
          I.Dst = rename(I.Dst);
        for (Reg &R : I.Operands)
          R = rename(R);
        if (I.isCopy() && I.Dst == I.Operands[0]) {
          ++Removed;
          Changed = true;
          continue;
        }
        Kept.push_back(std::move(I));
      }
      B.Insts.swap(Kept);
    });
  }
  if (Removed) {
    F.bumpVersion();
    AM.finishPass(PreservedAnalyses::cfgShape());
  }
  return Removed;
}

} // namespace

PreservedAnalyses epre::CopyCoalescingPass::run(Function &F,
                                                FunctionAnalysisManager &AM,
                                                PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  uint64_t InterferenceEdges = 0;
  unsigned Removed = coalesceCopiesImpl(F, AM, InterferenceEdges);
  Ctx.addStat("copies_removed", Removed);
  Ctx.addStat("interference_edges", InterferenceEdges);
  // The impl already settled AM (cfgShape) when it removed anything.
  return Removed ? PreservedAnalyses::cfgShape() : PreservedAnalyses::all();
}
