//===- pre/PRE.cpp --------------------------------------------------------===//

#include "pre/PRE.h"

#include "analysis/AnalysisManager.h"
#include "analysis/Dataflow.h"
#include "analysis/EdgeSplitting.h"
#include "ir/ExprKey.h"
#include "support/BitVector.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <vector>

using namespace epre;

namespace {

/// One expression of the universe: a name and its defining shape.
struct ExprInfo {
  Reg Name = NoReg;
  Instruction Proto; ///< a representative definition (all are identical)
};

/// Dinic max-flow over a small per-expression network (Speculative
/// strategy). Arcs are stored paired so Arcs[I ^ 1] is the reverse arc;
/// capacities are profiled execution counts, far below the Unbounded
/// sentinel, so sums never overflow.
class MaxFlow {
public:
  static constexpr uint64_t Unbounded = uint64_t(1) << 62;

  explicit MaxFlow(unsigned NumNodes)
      : Head(NumNodes, -1), Level(NumNodes), It(NumNodes) {}

  void addArc(unsigned From, unsigned To, uint64_t Cap) {
    unsigned Id = unsigned(Arcs.size());
    Arcs.push_back({To, Head[From], Cap});
    Head[From] = int(Id);
    Arcs.push_back({From, Head[To], 0});
    Head[To] = int(Id + 1);
  }

  uint64_t solve(unsigned S, unsigned T) {
    uint64_t Flow = 0;
    while (bfs(S, T)) {
      It = Head;
      while (uint64_t Pushed = dfs(S, T, Unbounded))
        Flow += Pushed;
    }
    return Flow;
  }

  /// After solve(): the source side of the minimum cut (residual
  /// reachability from \p S). An original arc (u,v) is in the cut iff
  /// u is on the source side and v is not.
  std::vector<char> sourceSide(unsigned S) const {
    std::vector<char> Reach(Head.size(), 0);
    std::vector<unsigned> Work{S};
    Reach[S] = 1;
    while (!Work.empty()) {
      unsigned U = Work.back();
      Work.pop_back();
      for (int A = Head[U]; A != -1; A = Arcs[A].Next)
        if (Arcs[A].Cap > 0 && !Reach[Arcs[A].To]) {
          Reach[Arcs[A].To] = 1;
          Work.push_back(Arcs[A].To);
        }
    }
    return Reach;
  }

private:
  struct Arc {
    unsigned To;
    int Next;
    uint64_t Cap; ///< remaining (residual) capacity
  };

  bool bfs(unsigned S, unsigned T) {
    std::fill(Level.begin(), Level.end(), -1);
    std::deque<unsigned> Q{S};
    Level[S] = 0;
    while (!Q.empty()) {
      unsigned U = Q.front();
      Q.pop_front();
      for (int A = Head[U]; A != -1; A = Arcs[A].Next)
        if (Arcs[A].Cap > 0 && Level[Arcs[A].To] < 0) {
          Level[Arcs[A].To] = Level[U] + 1;
          Q.push_back(Arcs[A].To);
        }
    }
    return Level[T] >= 0;
  }

  uint64_t dfs(unsigned U, unsigned T, uint64_t Limit) {
    if (U == T)
      return Limit;
    for (int &A = It[U]; A != -1; A = Arcs[A].Next) {
      Arc &E = Arcs[A];
      if (E.Cap == 0 || Level[E.To] != Level[U] + 1)
        continue;
      if (uint64_t Pushed = dfs(E.To, T, std::min(Limit, E.Cap))) {
        E.Cap -= Pushed;
        Arcs[A ^ 1].Cap += Pushed;
        return Pushed;
      }
    }
    return 0;
  }

  std::vector<Arc> Arcs;
  std::vector<int> Head;
  std::vector<int> Level;
  std::vector<int> It;
};

/// Only expressions that cannot trap may be computed on a path where the
/// program would not have computed them. In this IR the trapping shapes
/// are integer division/remainder (÷0, INT64_MIN/-1), F2I (NaN / out of
/// range), and intrinsic calls (i64 abs of INT64_MIN) — see evalPure.
/// Everything else (including FP divide: IEEE inf/NaN, no trap) is safe:
/// a speculatively computed value is either dead or bit-equal to what the
/// deleted occurrence would have produced.
bool speculationSafe(const Instruction &I) {
  switch (I.Op) {
  case Opcode::Div:
  case Opcode::Mod:
    return I.Ty != Type::I64;
  case Opcode::F2I:
  case Opcode::Call:
    return false;
  default:
    return true;
  }
}

class PREImpl {
public:
  PREImpl(Function &F, FunctionAnalysisManager &AM, PREStrategy Strategy)
      : F(F), AM(AM), G(AM.cfg()), Strategy(Strategy) {}

  /// Optional remark emitter (instrumented runs only).
  PassContext *Ctx = nullptr;

  /// Runs only the analysis half (universe, local sets, AVAIL/ANT solves);
  /// leaves the function untouched.
  PREDataflow analyze() {
    PREDataflow D;
    buildUniverse();
    Stats.UniverseSize = unsigned(Universe.size());
    if (!Universe.empty()) {
      computeLocal();
      solveAvailability();
      solveAnticipability();
    }
    D.Stats = Stats;
    D.ANTLOC = std::move(ANTLOC);
    D.COMP = std::move(COMP);
    D.TRANSP = std::move(TRANSP);
    D.AntBoundary = std::move(AntBoundary);
    D.AVIN = std::move(AVIN);
    D.AVOUT = std::move(AVOUT);
    D.ANTIN = std::move(ANTIN);
    D.ANTOUT = std::move(ANTOUT);
    return D;
  }

  PREStats run() {
    buildUniverse();
    if (Universe.empty()) {
      Stats.UniverseSize = 0;
      return Stats;
    }
    Stats.UniverseSize = unsigned(Universe.size());
    computeLocal();
    solveAvailability();
    solveAnticipability();
    collectEdges();
    switch (Strategy) {
    case PREStrategy::LazyCodeMotion:
      placeLazyCodeMotion();
      break;
    case PREStrategy::MorelRenvoise:
      placeMorelRenvoise();
      break;
    case PREStrategy::GlobalCSE:
      placeGlobalCSE();
      break;
    case PREStrategy::Speculative:
      placeSpeculative();
      break;
    }
    applyDeletions();
    applyInsertions();
    if (Stats.Inserted || Stats.Deleted) {
      F.bumpVersion();
      // Deletions and in-block insertions keep the graph; a split edge adds
      // a block and reroutes an edge.
      AM.finishPass(Stats.EdgesSplit ? PreservedAnalyses::none()
                                     : PreservedAnalyses::cfgShape());
    }
    return Stats;
  }

private:
  static constexpr unsigned NoExpr = ~0u;

  unsigned numExprs() const { return unsigned(Universe.size()); }

  // --- Universe -------------------------------------------------------------

  void buildUniverse() {
    unsigned NR = F.numRegs();
    // Candidate: every def is the same lexical expression. CandOf[r]
    // indexes the candidate named r; Bad[r] marks names that cannot join
    // the universe.
    struct Candidate {
      ExprKey Key;
      const Instruction *Proto;
    };
    std::vector<Candidate> Cands;
    std::vector<unsigned> CandOf(NR, NoExpr);
    std::vector<uint8_t> Bad(NR, 0);
    F.forEachBlock([&](const BasicBlock &B) {
      if (!G.isReachable(B.id()))
        return;
      for (const Instruction &I : B.Insts) {
        if (!I.hasDst())
          continue;
        if (I.isPhi()) {
          Bad[I.Dst] = 1;
          continue;
        }
        if (!I.isExpression()) {
          Bad[I.Dst] = 1; // variables (copies) and loads
          continue;
        }
        // Self-referential names can never be moved.
        for (Reg Op : I.Operands)
          if (Op == I.Dst)
            Bad[I.Dst] = 1;
        ExprKey K = makeExprKey(I, /*NormalizeCommutative=*/true);
        if (CandOf[I.Dst] == NoExpr) {
          CandOf[I.Dst] = unsigned(Cands.size());
          Cands.push_back({std::move(K), &I});
        } else if (!(Cands[CandOf[I.Dst]].Key == K)) {
          Bad[I.Dst] = 1; // one name, two different expressions
        }
      }
    });
    for (Reg P : F.params())
      Bad[P] = 1;

    // §5.1 rule: an expression name may not be live across a basic block
    // boundary — every use must follow a local definition. Names violating
    // this are conservatively dropped from the universe. DefinedIn[r] ==
    // block id + 1: r was defined earlier in that block.
    std::vector<unsigned> DefinedIn(NR, 0);
    F.forEachBlock([&](const BasicBlock &B) {
      if (!G.isReachable(B.id()))
        return;
      unsigned Stamp = B.id() + 1;
      for (const Instruction &I : B.Insts) {
        for (Reg Op : I.Operands)
          if (CandOf[Op] != NoExpr && DefinedIn[Op] != Stamp && !Bad[Op]) {
            Bad[Op] = 1;
            ++Stats.DroppedUnsafe;
          }
        if (I.hasDst())
          DefinedIn[I.Dst] = Stamp;
      }
    });

    // The universe in ascending register order, which fixes the order of
    // insertions on each edge.
    ExprOf.assign(NR, NoExpr);
    for (Reg R = 0; R < NR; ++R) {
      if (CandOf[R] == NoExpr || Bad[R])
        continue;
      ExprOf[R] = unsigned(Universe.size());
      Universe.push_back({R, *Cands[CandOf[R]].Proto});
    }
    // Reverse map: operand register -> expressions it occurs in.
    RegToExprs.assign(NR, {});
    for (unsigned E = 0; E < Universe.size(); ++E)
      for (Reg Op : Universe[E].Proto.Operands)
        RegToExprs[Op].push_back(E);
  }

  /// The universe expression named \p R, or NoExpr.
  unsigned exprOf(Reg R) const {
    return R < ExprOf.size() ? ExprOf[R] : NoExpr;
  }

  /// True if \p I is the (unique) computation of universe expression \p E.
  bool computes(const Instruction &I, unsigned E) const {
    return I.hasDst() && I.Dst == Universe[E].Name && I.isExpression();
  }

  // --- Local properties -----------------------------------------------------

  void computeLocal() {
    unsigned NB = F.numBlocks();
    unsigned NE = numExprs();
    ANTLOC.assign(NB, BitVector(NE));
    COMP.assign(NB, BitVector(NE));
    TRANSP.assign(NB, BitVector(NE, true));

    // Per-expression block stamps (block id + 1), so a block costs its
    // instructions and kills, not NE bits. KilledIn[e]: some operand of e
    // was redefined so far in the block. CleanIn[e]: e was computed and no
    // operand changed since.
    std::vector<unsigned> KilledIn(NE, 0), CleanIn(NE, 0);
    std::vector<unsigned> Computed; // expressions computed in the block
    F.forEachBlock([&](const BasicBlock &B) {
      if (!G.isReachable(B.id()))
        return;
      unsigned Stamp = B.id() + 1;
      Computed.clear();
      for (const Instruction &I : B.Insts) {
        if (!I.hasDst())
          continue;
        unsigned E = exprOf(I.Dst);
        if (E != NoExpr && computes(I, E)) {
          if (KilledIn[E] != Stamp)
            ANTLOC[B.id()].set(E);
          CleanIn[E] = Stamp;
          Computed.push_back(E);
        }
        for (unsigned K : RegToExprs[I.Dst]) {
          KilledIn[K] = Stamp;
          CleanIn[K] = 0;
          TRANSP[B.id()].reset(K);
        }
      }
      for (unsigned E : Computed)
        if (CleanIn[E] == Stamp)
          COMP[B.id()].set(E);
    });
  }

  // --- Global dataflow ------------------------------------------------------

  // AVIN = product of predecessors' AVOUT (empty at entry);
  // AVOUT = COMP + TRANSP*AVIN.
  void solveAvailability() {
    BitDataflowProblem P;
    P.Dir = DataflowDirection::Forward;
    P.Meet = fault::preDropAvailabilityMeet() ? MeetOp::Union
                                              : MeetOp::Intersect;
    P.NumBits = numExprs();
    P.Gen = &COMP;
    P.Preserve = &TRANSP;
    Stats.AvailSolve = solveBitDataflow(G, P, AVIN, AVOUT);
  }

  // ANTOUT = product of successors' ANTIN (empty at exits);
  // ANTIN = ANTLOC + TRANSP*ANTOUT.
  void solveAnticipability() {
    unsigned NB = F.numBlocks();

    // Blocks that cannot reach an exit get empty ANTOUT: hoisting into or
    // above an infinite loop is never down-safe.
    AntBoundary.assign(NB, 1);
    {
      std::vector<BlockId> Work;
      F.forEachBlock([&](const BasicBlock &B) {
        if (G.isReachable(B.id()) && B.terminator().Op == Opcode::Ret) {
          AntBoundary[B.id()] = 0;
          Work.push_back(B.id());
        }
      });
      while (!Work.empty()) {
        BlockId B = Work.back();
        Work.pop_back();
        for (BlockId P : G.preds(B))
          if (AntBoundary[P]) {
            AntBoundary[P] = 0;
            Work.push_back(P);
          }
      }
    }

    BitDataflowProblem P;
    P.Dir = DataflowDirection::Backward;
    P.Meet = MeetOp::Intersect;
    P.NumBits = numExprs();
    P.ExtraBoundary = &AntBoundary;
    P.Gen = &ANTLOC;
    P.Preserve = &TRANSP;
    Stats.AntSolve = solveBitDataflow(G, P, ANTOUT, ANTIN);
  }

  // --- Edge set -------------------------------------------------------------

  struct Edge {
    BlockId From = InvalidBlock; ///< InvalidBlock marks the virtual entry edge
    BlockId To = 0;
    BitVector Insert;
  };

  void collectEdges() {
    Edges.push_back({InvalidBlock, G.rpo().front(), BitVector(numExprs())});
    F.forEachBlock([&](const BasicBlock &B) {
      if (!G.isReachable(B.id()))
        return;
      for (BlockId S : B.successors())
        Edges.push_back({B.id(), S, BitVector(numExprs())});
    });
    // In-edge index per block.
    InEdges.assign(F.numBlocks(), {});
    for (unsigned E = 0; E < Edges.size(); ++E)
      InEdges[Edges[E].To].push_back(E);
  }

  /// EARLIEST(p,b) = ANTIN(b) * ~AVOUT(p) * (~TRANSP(p) + ~ANTOUT(p)),
  /// and ANTIN(b) on the virtual entry edge, written into \p R; \p Guard
  /// is scratch.
  void earliest(const Edge &E, BitVector &R, BitVector &Guard) const {
    R.assignFrom(ANTIN[E.To]);
    if (E.From == InvalidBlock)
      return;
    R.intersectWithComplement(AVOUT[E.From]);
    Guard.assignFrom(TRANSP[E.From]);
    Guard.intersectWith(ANTOUT[E.From]);
    R.intersectWithComplement(Guard);
  }

  // --- Placement: Drechsler–Stadel lazy code motion -------------------------

  void placeLazyCodeMotion() {
    unsigned NB = F.numBlocks();
    unsigned NE = numExprs();

    std::vector<BitVector> Earliest(Edges.size(), BitVector(NE));
    BitVectorScratch Scratch(NE);
    for (unsigned EI = 0; EI < Edges.size(); ++EI)
      earliest(Edges[EI], Earliest[EI], Scratch.raw(0));

    // LATERIN as greatest fixpoint, solved with a forward worklist instead
    // of round-robin sweeps: LATERIN only shrinks, and a shrink at a block
    // can only shrink its successors, so each block is re-solved once per
    // incoming change rather than once per global iteration. LATER is
    // derivable from LATERIN (edge formula below), so it is not stored.
    // All iteration-local temporaries live in the scratch pool, keeping
    // the loop allocation-free in steady state.
    LATERIN.assign(NB, BitVector(NE, true));
    auto laterOf = [&](unsigned EI, BitVector &L) {
      // LATER = EARLIEST + LATERIN(from)*~ANTLOC(from).
      const Edge &E = Edges[EI];
      L.assignFrom(Earliest[EI]);
      if (E.From != InvalidBlock) {
        BitVector &Prop = Scratch.raw(2);
        Prop.assignFrom(LATERIN[E.From]);
        Prop.intersectWithComplement(ANTLOC[E.From]);
        L.unionWith(Prop);
      }
    };
    std::deque<BlockId> WL;
    std::vector<char> InWL(NB, false);
    for (BlockId B : G.rpo()) {
      if (InEdges[B].empty())
        continue;
      WL.push_back(B);
      InWL[B] = true;
    }
    while (!WL.empty()) {
      BlockId B = WL.front();
      WL.pop_front();
      InWL[B] = false;
      BitVector &In = Scratch.ones(0);
      for (unsigned EI : InEdges[B]) {
        BitVector &L = Scratch.raw(1);
        laterOf(EI, L);
        In.intersectWith(L);
      }
      if (LATERIN[B].assignFrom(In)) {
        for (BlockId S : G.succs(B)) {
          if (!InEdges[S].empty() && !InWL[S]) {
            WL.push_back(S);
            InWL[S] = true;
          }
        }
      }
    }

    // INSERT(p,b) = LATER(p,b) * ~LATERIN(b), into the edge's own set.
    for (unsigned EI = 0; EI < Edges.size(); ++EI) {
      BitVector &Ins = Edges[EI].Insert;
      laterOf(EI, Ins);
      Ins.intersectWithComplement(LATERIN[Edges[EI].To]);
    }

    // DELETE(b) = ANTLOC(b) * ~LATERIN(b).
    DELETE.assign(NB, BitVector(NE));
    F.forEachBlock([&](const BasicBlock &B) {
      if (!G.isReachable(B.id()))
        return;
      BitVector &D = DELETE[B.id()];
      D.assignFrom(ANTLOC[B.id()]);
      D.intersectWithComplement(LATERIN[B.id()]);
    });
  }

  // --- Placement: Morel–Renvoise with D-S'88 edge correction ----------------

  void placeMorelRenvoise() {
    unsigned NB = F.numBlocks();
    unsigned NE = numExprs();
    std::vector<BitVector> PPIN(NB, BitVector(NE, true));
    std::vector<BitVector> PPOUT(NB, BitVector(NE, true));

    // The system is bidirectional (Morel–Renvoise), so it stays a dense
    // round-robin sweep; the per-block temporaries live in the scratch pool
    // and results are stored with changed-flag kernels, so each iteration
    // is allocation-free.
    BitVectorScratch Scratch(NE);
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (BlockId B : G.rpo()) {
        // PPOUT = product of successors' PPIN (empty at exits).
        BitVector &Out = Scratch.raw(0);
        if (G.succs(B).empty()) {
          Out.resetAll();
        } else {
          Out.setAll();
          for (BlockId S : G.succs(B))
            Out.intersectWith(PPIN[S]);
        }
        // PPIN = ANTIN * (ANTLOC + TRANSP*PPOUT)
        //        * prod_preds (PPOUT(p) + AVOUT(p)); empty at entry.
        BitVector &In = Scratch.raw(1);
        if (B == G.rpo().front()) {
          In.resetAll();
        } else {
          BitVector &Mid = Scratch.raw(2);
          Mid.assignFrom(TRANSP[B]);
          Mid.intersectWith(Out);
          Mid.unionWith(ANTLOC[B]);
          In.assignFrom(ANTIN[B]);
          In.intersectWith(Mid);
          for (BlockId P : G.preds(B)) {
            BitVector &Avail = Scratch.raw(2);
            Avail.assignFrom(PPOUT[P]);
            Avail.unionWith(AVOUT[P]);
            In.intersectWith(Avail);
          }
        }
        bool InChanged = PPIN[B].assignFrom(In);
        bool OutChanged = PPOUT[B].assignFrom(Out);
        Changed |= InChanged || OutChanged;
      }
    }

    // Edge insertions (the Drechsler–Stadel 1988 correction):
    // INSERT(p,b) = PPIN(b) * ~AVOUT(p) * ~PPOUT(p).
    // The virtual entry edge keeps its empty set.
    for (Edge &E : Edges) {
      if (E.From == InvalidBlock)
        continue;
      E.Insert.assignFrom(PPIN[E.To]);
      E.Insert.intersectWithComplement(AVOUT[E.From]);
      E.Insert.intersectWithComplement(PPOUT[E.From]);
    }

    // Morel–Renvoise block insertions (at the end of b) remain:
    // INSERT(b) = PPOUT(b) * ~AVOUT(b) * (~PPIN(b) + ~TRANSP(b)).
    BlockInsert.assign(NB, BitVector(NE));
    F.forEachBlock([&](const BasicBlock &B) {
      if (!G.isReachable(B.id()))
        return;
      BlockId Id = B.id();
      BitVector &Ins = BlockInsert[Id];
      Ins.assignFrom(PPOUT[Id]);
      Ins.intersectWithComplement(AVOUT[Id]);
      BitVector &Guard = Scratch.raw(0);
      Guard.assignFrom(PPIN[Id]);
      Guard.intersectWith(TRANSP[Id]);
      Ins.intersectWithComplement(Guard);
    });

    DELETE.assign(NB, BitVector(NE));
    F.forEachBlock([&](const BasicBlock &B) {
      if (!G.isReachable(B.id()))
        return;
      DELETE[B.id()].assignFrom(ANTLOC[B.id()]);
      DELETE[B.id()].intersectWith(PPIN[B.id()]);
    });
  }

  // --- Placement: available-expressions CSE (delete-only) -------------------

  void placeGlobalCSE() {
    unsigned NB = F.numBlocks();
    unsigned NE = numExprs();
    // Every edge keeps its empty insertion set.
    DELETE.assign(NB, BitVector(NE));
    F.forEachBlock([&](const BasicBlock &B) {
      if (!G.isReachable(B.id()))
        return;
      DELETE[B.id()].assignFrom(ANTLOC[B.id()]);
      DELETE[B.id()].intersectWith(AVIN[B.id()]);
    });
  }

  // --- Placement: profile-guided speculative min cut ------------------------

  /// Dynamic cost of carrying an insertion on edge \p EI, in executed
  /// operations under profile \p PI (index 0 is the virtual entry edge:
  /// one insertion per invocation). A critical edge costs double: it has
  /// to be split, and the split block's jump executes on every traversal
  /// alongside the inserted evaluation. Charging the jump per expression
  /// is conservative when several expressions share one split block.
  uint64_t insertEdgeCost(const ProfileInfo &PI, unsigned EI) const {
    const Edge &E = Edges[EI];
    if (E.From == InvalidBlock)
      return PI.entryWeight();
    uint64_t W = PI.edgeWeight(E.From, E.To);
    if (G.preds(E.To).size() > 1 && G.succs(E.From).size() > 1)
      W *= 2;
    return W;
  }

  /// Lospre-style placement (docs/speculative-pre.md): start from the LCM
  /// solution, then re-place each speculation-safe expression by a min cut
  /// of a network whose finite capacities are profiled execution counts —
  /// CFG-edge arcs cost what inserting there would execute, occurrence
  /// arcs cost what keeping the original computation executes. The cut is
  /// adopted only when strictly cheaper than LCM's weighted cost, so
  /// missing profiles, cold expressions, and ties all keep the safe LCM
  /// placement.
  void placeSpeculative() {
    placeLazyCodeMotion();
    const ProfileInfo &PI = AM.profileInfo();
    if (!PI.attached())
      return;

    unsigned NB = F.numBlocks();
    unsigned NE = numExprs();
    // Node numbering: every block is split so availability can terminate
    // inside it. S feeds every source of unavailability (function entry,
    // exits of blocks that kill without recomputing); T collects the
    // upward-exposed occurrences.
    const unsigned S = 0, T = 1;
    auto InNode = [](BlockId B) { return 2 + 2 * B; };
    auto OutNode = [](BlockId B) { return 3 + 2 * B; };
    BlockId Entry = G.rpo().front();

    for (unsigned E = 0; E < NE; ++E) {
      if (!speculationSafe(Universe[E].Proto))
        continue;

      // Weighted cost of the upward-exposed occurrences: the most any
      // placement could have to pay, and the speculation budget. A cold
      // expression (no matched counts) stays on the LCM placement.
      uint64_t OccWeight = 0;
      for (BlockId B : G.rpo())
        if (ANTLOC[B].test(E))
          OccWeight += PI.blockWeight(B);
      if (OccWeight == 0)
        continue;

      // Unknown edges (label drift: the CFG changed after the profile was
      // collected) count as free here and unbounded in the network below.
      // Both choices bias the same way — toward keeping the LCM placement
      // in regions the profile cannot price.
      uint64_t LCMCost = 0;
      for (unsigned EI = 0; EI < Edges.size(); ++EI)
        if (Edges[EI].Insert.test(E) &&
            (Edges[EI].From == InvalidBlock ||
             PI.edgeKnown(Edges[EI].From, Edges[EI].To)))
          LCMCost += insertEdgeCost(PI, EI);
      for (BlockId B : G.rpo())
        if (ANTLOC[B].test(E) && !DELETE[B].test(E))
          LCMCost += PI.blockWeight(B);
      if (LCMCost == 0)
        continue; // already free on this profile; nothing to gain

      MaxFlow Net(2 + 2 * NB);
      Net.addArc(S, InNode(Entry), PI.blockKnown(Entry) ? PI.entryWeight()
                                                        : MaxFlow::Unbounded);
      for (BlockId B : G.rpo()) {
        if (ANTLOC[B].test(E))
          Net.addArc(InNode(B), T, PI.blockWeight(B));
        if (COMP[B].test(E)) {
          // Computed clean at exit: unavailability ends here, no out arc.
        } else if (TRANSP[B].test(E)) {
          Net.addArc(InNode(B), OutNode(B), MaxFlow::Unbounded);
        } else {
          Net.addArc(S, OutNode(B), MaxFlow::Unbounded);
        }
      }
      for (unsigned EI = 1; EI < Edges.size(); ++EI)
        Net.addArc(OutNode(Edges[EI].From), InNode(Edges[EI].To),
                   PI.edgeKnown(Edges[EI].From, Edges[EI].To)
                       ? insertEdgeCost(PI, EI)
                       : MaxFlow::Unbounded);

      uint64_t CutCost = Net.solve(S, T);
      if (CutCost >= LCMCost)
        continue; // speculation does not pay on this profile; keep LCM

      // Adopt the cut: insertions are the saturated source-to-sink-side
      // arcs; an occurrence is deleted exactly when the cut separates it
      // from every remaining source of unavailability.
      std::vector<char> Reach = Net.sourceSide(S);
      for (Edge &Ed : Edges)
        Ed.Insert.reset(E);
      for (BlockId B : G.rpo())
        DELETE[B].reset(E);
      if (!Reach[InNode(Entry)])
        Edges[0].Insert.set(E);
      for (unsigned EI = 1; EI < Edges.size(); ++EI)
        if (Reach[OutNode(Edges[EI].From)] && !Reach[InNode(Edges[EI].To)])
          Edges[EI].Insert.set(E);
      for (BlockId B : G.rpo())
        if (ANTLOC[B].test(E) && !Reach[InNode(B)])
          DELETE[B].set(E);
      ++Stats.Speculated;
      if (Ctx && Ctx->remarksEnabled())
        Ctx->remark(RemarkKind::Insert, F, F.block(Entry)->label(),
                    opcodeName(Universe[E].Proto.Op),
                    strprintf("speculative placement of r%u adopted: "
                              "weighted cost %llu -> %llu",
                              Universe[E].Name, (unsigned long long)LCMCost,
                              (unsigned long long)CutCost));
    }
  }

  // --- Rewrite --------------------------------------------------------------

  void applyDeletions() {
    // Killed: some operand redefined since block entry (the globally
    // deletable occurrences are the ones before the first kill).
    // CompClean: e was computed and no operand changed since — any further
    // computation is locally redundant (classic local CSE, which
    // Morel–Renvoise assume as a preprocessing step). Both are kept as
    // per-expression block stamps (block id + 1), as in computeLocal.
    std::vector<unsigned> KilledIn(numExprs(), 0), CleanIn(numExprs(), 0);
    std::vector<Instruction> Kept; // reused across blocks to recycle capacity
    F.forEachBlock([&](BasicBlock &B) {
      if (!G.isReachable(B.id()))
        return;
      unsigned Stamp = B.id() + 1;
      Kept.clear();
      Kept.reserve(B.Insts.size());
      for (Instruction &I : B.Insts) {
        bool DropLocal = false, DropGlobal = false;
        if (I.hasDst()) {
          unsigned E = exprOf(I.Dst);
          if (E != NoExpr && computes(I, E)) {
            if (CleanIn[E] == Stamp)
              DropLocal = true; // locally redundant recomputation
            else if (DELETE[B.id()].test(E) && KilledIn[E] != Stamp)
              DropGlobal = true; // globally (partially) redundant
            CleanIn[E] = Stamp;
          }
          for (unsigned K : RegToExprs[I.Dst]) {
            KilledIn[K] = Stamp;
            CleanIn[K] = 0;
          }
        }
        if (DropLocal || DropGlobal) {
          ++Stats.Deleted;
          if (Ctx && Ctx->remarksEnabled())
            Ctx->remark(
                RemarkKind::Delete, F, B.label(), opcodeName(I.Op),
                strprintf(DropLocal
                              ? "locally redundant recomputation of r%u removed"
                              : "redundant computation of r%u removed",
                          I.Dst));
          continue;
        }
        Kept.push_back(std::move(I));
      }
      B.Insts.swap(Kept);
    });
  }

  /// Orders the expressions inserted on one edge so operands defined by
  /// sibling insertions come first.
  std::vector<unsigned> orderInsertions(const BitVector &Ins) {
    std::vector<unsigned> List;
    for (int E = Ins.findFirst(); E != -1; E = Ins.findNext(unsigned(E)))
      List.push_back(unsigned(E));
    std::vector<unsigned> Ordered;
    // PlacedIn[e] == PlaceEpoch: e is already in Ordered.
    if (PlacedIn.size() != numExprs())
      PlacedIn.assign(numExprs(), 0);
    ++PlaceEpoch;
    auto placed = [&](unsigned E) { return PlacedIn[E] == PlaceEpoch; };
    auto place = [&](unsigned E) {
      Ordered.push_back(E);
      PlacedIn[E] = PlaceEpoch;
    };
    // Simple repeated sweep; dependency chains are short.
    while (Ordered.size() < List.size()) {
      bool Progress = false;
      for (unsigned E : List) {
        if (placed(E))
          continue;
        bool Ready = true;
        for (Reg Op : Universe[E].Proto.Operands) {
          unsigned OpE = exprOf(Op);
          if (OpE != NoExpr && Ins.test(OpE) && !placed(OpE))
            Ready = false;
        }
        if (!Ready)
          continue;
        place(E);
        Progress = true;
      }
      if (!Progress) {
        // Operand cycle between inserted expressions cannot happen with
        // acyclic lexical nesting, but fall back gracefully.
        for (unsigned E : List)
          if (!placed(E))
            place(E);
      }
    }
    return Ordered;
  }

  void applyInsertions() {
    // Morel–Renvoise block insertions: computations placed at block ends.
    if (!BlockInsert.empty()) {
      F.forEachBlock([&](BasicBlock &B) {
        if (!G.isReachable(B.id()) || BlockInsert[B.id()].none())
          return;
        std::vector<unsigned> Ordered = orderInsertions(BlockInsert[B.id()]);
        for (unsigned Ex : Ordered) {
          B.insertBeforeTerminator(Universe[Ex].Proto);
          ++Stats.Inserted;
          if (Ctx && Ctx->remarksEnabled())
            Ctx->remark(RemarkKind::Insert, F, B.label(),
                        opcodeName(Universe[Ex].Proto.Op),
                        strprintf("computation of r%u inserted at block end",
                                  Universe[Ex].Name));
        }
      });
    }
    for (Edge &E : Edges) {
      if (E.Insert.none())
        continue;
      std::vector<unsigned> Ordered = orderInsertions(E.Insert);
      std::vector<Instruction> News;
      for (unsigned Ex : Ordered) {
        News.push_back(Universe[Ex].Proto);
        ++Stats.Inserted;
        if (Ctx && Ctx->remarksEnabled())
          Ctx->remark(
              RemarkKind::Insert, F, F.block(E.To)->label(),
              opcodeName(Universe[Ex].Proto.Op),
              E.From == InvalidBlock
                  ? strprintf("computation of r%u inserted on the entry edge",
                              Universe[Ex].Name)
                  : strprintf("computation of r%u inserted on edge ^%s -> ^%s",
                              Universe[Ex].Name,
                              F.block(E.From)->label().c_str(),
                              F.block(E.To)->label().c_str()));
      }
      if (E.From == InvalidBlock) {
        BasicBlock *Entry = F.block(E.To);
        Entry->Insts.insert(Entry->Insts.begin(),
                            std::make_move_iterator(News.begin()),
                            std::make_move_iterator(News.end()));
        continue;
      }
      BasicBlock *To = F.block(E.To);
      BasicBlock *From = F.block(E.From);
      if (G.preds(E.To).size() == 1) {
        To->Insts.insert(To->Insts.begin() + To->firstNonPhi(),
                         std::make_move_iterator(News.begin()),
                         std::make_move_iterator(News.end()));
      } else if (G.succs(E.From).size() == 1) {
        From->Insts.insert(From->Insts.end() - 1,
                           std::make_move_iterator(News.begin()),
                           std::make_move_iterator(News.end()));
      } else {
        BasicBlock *Mid = splitEdge(F, E.From, E.To);
        ++Stats.EdgesSplit;
        Mid->Insts.insert(Mid->Insts.begin(),
                          std::make_move_iterator(News.begin()),
                          std::make_move_iterator(News.end()));
      }
    }
  }

  Function &F;
  FunctionAnalysisManager &AM;
  /// Cached in AM; valid for the whole run (mutations happen strictly after
  /// the last analysis read, and no AM accessor is called in between).
  const CFG &G;
  PREStrategy Strategy;
  PREStats Stats;
  std::vector<ExprInfo> Universe;
  /// Register -> index of the universe expression it names, or NoExpr.
  std::vector<unsigned> ExprOf;
  std::vector<std::vector<unsigned>> RegToExprs;
  std::vector<BitVector> ANTLOC, COMP, TRANSP;
  std::vector<uint8_t> AntBoundary;
  std::vector<BitVector> AVIN, AVOUT, ANTIN, ANTOUT;
  std::vector<BitVector> LATERIN, DELETE;
  /// Block-end insertions (Morel–Renvoise strategy only).
  std::vector<BitVector> BlockInsert;
  std::vector<Edge> Edges;
  std::vector<std::vector<unsigned>> InEdges;
  /// orderInsertions' per-call placed marks.
  std::vector<unsigned> PlacedIn;
  unsigned PlaceEpoch = 0;
};

} // namespace

PreservedAnalyses epre::PREPass::run(Function &F, FunctionAnalysisManager &AM,
                                     PassContext &Ctx) {
  PassScope Scope(Ctx, name(), F);
  PREImpl Impl(F, AM, Strategy);
  Impl.Ctx = &Ctx;
  Last = Impl.run();
  Ctx.addStat("universe", Last.UniverseSize);
  Ctx.addStat("dropped_unsafe", Last.DroppedUnsafe);
  Ctx.addStat("inserted", Last.Inserted);
  Ctx.addStat("deleted", Last.Deleted);
  Ctx.addStat("edges_split", Last.EdgesSplit);
  Ctx.addStat("speculated", Last.Speculated);
  Ctx.addStat("avail_iterations", Last.AvailSolve.Iterations);
  Ctx.addStat("ant_iterations", Last.AntSolve.Iterations);
  if (!Last.Inserted && !Last.Deleted)
    return PreservedAnalyses::all();
  // The impl already settled AM with the matching set.
  return Last.EdgesSplit ? PreservedAnalyses::none()
                         : PreservedAnalyses::cfgShape();
}

PREDataflow epre::analyzePartialRedundancies(Function &F) {
  FunctionAnalysisManager AM(F);
  return PREImpl(F, AM, PREStrategy::LazyCodeMotion).analyze();
}

namespace {
bool PREDropAvailMeet = false;
} // namespace

void epre::fault::setPREDropAvailabilityMeet(bool Enable) {
  PREDropAvailMeet = Enable;
}

bool epre::fault::preDropAvailabilityMeet() { return PREDropAvailMeet; }
