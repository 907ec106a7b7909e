//===- tests/dataflow_test.cpp - Worklist solver vs dense reference -------===//
///
/// The worklist dataflow engine must compute exactly the fixpoints of a
/// dense round-robin iteration written here over the public
/// BitDataflowProblem: AVAIL/ANT inside PRE, live sets in Liveness, and the
/// sets PRE's rewrite leaves behind. A monotone system of this kind has a
/// single fixpoint whatever the iteration order, so the two can only
/// disagree through a solver bug. Checked on the paper's running example
/// and on generated loop-nest inputs of increasing size (the bench corpus).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/CFG.h"
#include "analysis/Liveness.h"
#include "pre/PRE.h"
#include "ssa/SSA.h"
#include "support/StringUtil.h"

#include <gtest/gtest.h>

using namespace epre;
using epre::test::runPass;

namespace {

const char *FooSource = R"(
function foo(y, z)
  s = 0
  x = y + z
  do i = x, 100
    s = i + s + x
  end do
  return s
end
)";

/// Same shape as the bench generator: sequential loop nests with shared
/// invariant subexpressions and array addressing.
std::string loopNestSource(unsigned NumLoops) {
  std::string S = "function gen(a, b, n)\n  integer n\n  real w(64)\n";
  S += "  s = 0.0\n";
  for (unsigned L = 0; L < NumLoops; ++L) {
    S += strprintf("  do i%u = 1, n\n", L);
    S += strprintf("    w(i%u) = (a + b) * i%u + a * %u.0\n", L, L, L + 1);
    S += strprintf("    s = s + w(i%u) + (a + b + %u.0)\n", L, L);
    S += "  end do\n";
  }
  S += "  return s\nend\n";
  return S;
}

std::unique_ptr<Module> compile(const std::string &Src, NamingMode NM) {
  LowerResult LR = compileMiniFortran(Src, NM);
  EXPECT_TRUE(LR.ok()) << LR.Error;
  return std::move(LR.M);
}

void expectSetsEqual(const std::vector<BitVector> &A,
                     const std::vector<BitVector> &B, const char *What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  for (unsigned I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I], B[I]) << What << " differs at block " << I;
}

/// The reference: sweep every reachable block in (reverse) postorder,
/// recomputing meet and transfer from scratch, until a full sweep changes
/// nothing. Follows the problem contract of analysis/Dataflow.h (initial
/// values, boundary blocks, meet seed, Gen/Kill or generic transfer).
/// Returns the number of block transfer evaluations.
unsigned denseSolve(const CFG &G, const BitDataflowProblem &P,
                    std::vector<BitVector> &MeetSets,
                    std::vector<BitVector> &FlowSets) {
  bool Fwd = P.Dir == DataflowDirection::Forward;
  bool Intersect = P.Meet == MeetOp::Intersect;
  MeetSets.assign(G.numBlockSlots(), BitVector(P.NumBits, Intersect));
  FlowSets.assign(G.numBlockSlots(), BitVector(P.NumBits, Intersect));
  std::vector<BlockId> Order = Fwd ? G.rpo() : G.postorder();
  unsigned Evals = 0;
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (BlockId B : Order) {
      ++Evals;
      const std::vector<BlockId> &Nbrs = Fwd ? G.preds(B) : G.succs(B);
      BitVector Meet(P.NumBits);
      if (!Intersect) {
        if (P.MeetSeed)
          Meet = (*P.MeetSeed)[B];
        for (BlockId N : Nbrs)
          Meet.unionWith(FlowSets[N]);
      } else if (!Nbrs.empty() &&
                 !(Fwd ? B == Order.front() : G.succs(B).empty()) &&
                 !(P.ExtraBoundary && (*P.ExtraBoundary)[B])) {
        Meet = FlowSets[Nbrs[0]];
        for (BlockId N : Nbrs)
          Meet.intersectWith(FlowSets[N]);
      }
      BitVector Flow = Meet;
      if (!P.Gen) {
        P.Transfer(B, Flow);
      } else {
        if (P.Preserve)
          Flow.intersectWith((*P.Preserve)[B]);
        else
          Flow.intersectWithComplement((*P.Kill)[B]);
        Flow.unionWith((*P.Gen)[B]);
      }
      if (Meet != MeetSets[B] || Flow != FlowSets[B]) {
        MeetSets[B] = std::move(Meet);
        FlowSets[B] = std::move(Flow);
        Changed = true;
      }
    }
  }
  return Evals;
}

struct DenseSets {
  std::vector<BitVector> AVIN, AVOUT, ANTIN, ANTOUT;
  unsigned AvailEvals = 0, AntEvals = 0;
};

/// PRE's two fixpoint systems, re-posed from its exported local sets and
/// solved by the reference.
DenseSets densePRE(const Function &F, const PREDataflow &D) {
  CFG G = CFG::compute(F);
  BitDataflowProblem Avail;
  Avail.Dir = DataflowDirection::Forward;
  Avail.Meet = MeetOp::Intersect;
  Avail.NumBits = D.Stats.UniverseSize;
  Avail.Gen = &D.COMP;
  Avail.Preserve = &D.TRANSP;
  BitDataflowProblem Ant;
  Ant.Dir = DataflowDirection::Backward;
  Ant.Meet = MeetOp::Intersect;
  Ant.NumBits = D.Stats.UniverseSize;
  Ant.ExtraBoundary = &D.AntBoundary;
  Ant.Gen = &D.ANTLOC;
  Ant.Preserve = &D.TRANSP;
  DenseSets S;
  S.AvailEvals = denseSolve(G, Avail, S.AVIN, S.AVOUT);
  S.AntEvals = denseSolve(G, Ant, S.ANTOUT, S.ANTIN);
  return S;
}

/// AVAIL/ANT sets from the solver must match the reference bit for bit.
/// Returns the reference sets.
DenseSets expectPRESetsMatchReference(Function &F) {
  PREDataflow W = analyzePartialRedundancies(F);
  if (W.Stats.UniverseSize == 0)
    return {};
  DenseSets R = densePRE(F, W);
  expectSetsEqual(W.AVIN, R.AVIN, "AVIN");
  expectSetsEqual(W.AVOUT, R.AVOUT, "AVOUT");
  expectSetsEqual(W.ANTIN, R.ANTIN, "ANTIN");
  expectSetsEqual(W.ANTOUT, R.ANTOUT, "ANTOUT");
  // The worklist solve must not be doing more transfer evaluations than the
  // dense sweep — that is the whole point.
  EXPECT_LE(W.Stats.AvailSolve.Iterations, R.AvailEvals);
  EXPECT_LE(W.Stats.AntSolve.Iterations, R.AntEvals);
  return R;
}

void checkPREDataflowEquivalence(const std::string &Src,
                                 const std::string &Fn) {
  auto M = compile(Src, NamingMode::Hashed);
  ASSERT_TRUE(M);
  DenseSets R = expectPRESetsMatchReference(*M->find(Fn));
  EXPECT_FALSE(R.AVIN.empty()) << "empty expression universe";
}

/// Live-in/live-out from the solver must match the reference bit for bit.
void checkLivenessEquivalence(const std::string &Src, const std::string &Fn,
                              bool SSAForm) {
  auto M = compile(Src, NamingMode::Naive);
  ASSERT_TRUE(M);
  Function &F = *M->find(Fn);
  if (SSAForm)
    runPass(F, SSABuildPass());
  CFG G = CFG::compute(F);
  Liveness W = Liveness::compute(F, G);

  // LiveOut = PhiUse + union of successors' LiveIn;
  // LiveIn  = (LiveOut - Kill) + UEVar.
  unsigned NB = F.numBlocks(), NR = F.numRegs();
  std::vector<BitVector> PhiUse(NB, BitVector(NR)), UE, Kill;
  for (unsigned B = 0; B < NB; ++B) {
    UE.push_back(W.upwardExposed(B));
    Kill.push_back(W.kill(B));
  }
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts)
      if (I.isPhi())
        for (unsigned J = 0; J < I.Operands.size(); ++J)
          PhiUse[I.PhiBlocks[J]].set(I.Operands[J]);
  });
  BitDataflowProblem P;
  P.Dir = DataflowDirection::Backward;
  P.Meet = MeetOp::Union;
  P.NumBits = NR;
  P.MeetSeed = &PhiUse;
  P.Gen = &UE;
  P.Kill = &Kill;
  std::vector<BitVector> LiveOut, LiveIn;
  unsigned Evals = denseSolve(G, P, LiveOut, LiveIn);
  for (unsigned B = 0; B < NB; ++B) {
    if (!F.block(B))
      continue;
    EXPECT_EQ(W.liveIn(B), LiveIn[B]) << "LiveIn differs at block " << B;
    EXPECT_EQ(W.liveOut(B), LiveOut[B]) << "LiveOut differs at block " << B;
  }
  EXPECT_LE(W.solveStats().Iterations, Evals);
}

/// Full PRE must produce a deterministic rewrite that leaves no full
/// redundancy behind by the reference's own sets, and the solver must
/// still match the reference on the rewritten flow graph (split edges
/// included). For GlobalCSE, every upward-exposed computation the
/// reference finds available is one deletion.
void checkPRERewriteEquivalence(const std::string &Src, const std::string &Fn,
                                PREStrategy Strategy) {
  auto M1 = compile(Src, NamingMode::Hashed);
  auto M2 = compile(Src, NamingMode::Hashed);
  ASSERT_TRUE(M1 && M2);
  Function &F = *M1->find(Fn);

  PREDataflow Before = analyzePartialRedundancies(F);
  DenseSets Ref = densePRE(F, Before);
  unsigned FullyRedundant = 0;
  for (unsigned B = 0; B < Before.ANTLOC.size(); ++B) {
    BitVector Avail = Before.ANTLOC[B];
    Avail &= Ref.AVIN[B];
    FullyRedundant += Avail.count();
  }

  PREStats W = runPass(F, PREPass(Strategy)).lastStats();
  PREStats W2 = runPass(*M2->find(Fn), PREPass(Strategy)).lastStats();
  EXPECT_EQ(W.Inserted, W2.Inserted);
  EXPECT_EQ(W.Deleted, W2.Deleted);
  EXPECT_EQ(W.EdgesSplit, W2.EdgesSplit);
  EXPECT_EQ(printFunction(F), printFunction(*M2->find(Fn)));
  if (Strategy == PREStrategy::GlobalCSE) {
    EXPECT_GE(W.Deleted, FullyRedundant);
  }

  PREDataflow After = analyzePartialRedundancies(F);
  DenseSets RefAfter = expectPRESetsMatchReference(F);
  for (unsigned B = 0; B < After.ANTLOC.size(); ++B) {
    BitVector Left = After.ANTLOC[B];
    Left &= RefAfter.AVIN[B];
    EXPECT_TRUE(Left.none()) << "fully redundant computation left in block "
                             << B;
  }
}

TEST(DataflowEquivalence, PaperExamplePRESets) {
  checkPREDataflowEquivalence(FooSource, "foo");
}

TEST(DataflowEquivalence, PaperExampleLiveness) {
  checkLivenessEquivalence(FooSource, "foo", /*SSAForm=*/false);
  checkLivenessEquivalence(FooSource, "foo", /*SSAForm=*/true);
}

TEST(DataflowEquivalence, PaperExamplePRERewrite) {
  checkPRERewriteEquivalence(FooSource, "foo", PREStrategy::LazyCodeMotion);
  checkPRERewriteEquivalence(FooSource, "foo", PREStrategy::MorelRenvoise);
  checkPRERewriteEquivalence(FooSource, "foo", PREStrategy::GlobalCSE);
}

class DataflowEquivalenceLoopNests : public testing::TestWithParam<unsigned> {
};

TEST_P(DataflowEquivalenceLoopNests, PRESets) {
  checkPREDataflowEquivalence(loopNestSource(GetParam()), "gen");
}

TEST_P(DataflowEquivalenceLoopNests, Liveness) {
  checkLivenessEquivalence(loopNestSource(GetParam()), "gen",
                           /*SSAForm=*/false);
}

TEST_P(DataflowEquivalenceLoopNests, PRERewrite) {
  checkPRERewriteEquivalence(loopNestSource(GetParam()), "gen",
                             PREStrategy::LazyCodeMotion);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DataflowEquivalenceLoopNests,
                         testing::Values(1u, 4u, 16u, 64u));

/// The fused Gen/Kill problem formulation must solve to exactly the same
/// fixpoint as the same transfer posed as a general in-place lambda, on
/// the solver and on the reference. Uses the liveness system of a generated
/// input.
TEST(DataflowEquivalence, GenKillMatchesGenericTransfer) {
  auto M = compile(loopNestSource(8), NamingMode::Naive);
  ASSERT_TRUE(M);
  Function &F = *M->find("gen");
  CFG G = CFG::compute(F);
  Liveness L = Liveness::compute(F, G);

  BitDataflowProblem Fused;
  Fused.Dir = DataflowDirection::Backward;
  Fused.Meet = MeetOp::Union;
  Fused.NumBits = unsigned(F.numRegs());
  std::vector<BitVector> Gen, Kill;
  for (unsigned B = 0; B < F.numBlocks(); ++B) {
    Gen.push_back(L.upwardExposed(B));
    Kill.push_back(L.kill(B));
  }
  Fused.Gen = &Gen;
  Fused.Kill = &Kill;

  BitDataflowProblem Generic = Fused;
  Generic.Gen = nullptr;
  Generic.Kill = nullptr;
  Generic.Transfer = [&](BlockId B, BitVector &S) {
    S.intersectWithComplement(Kill[B]);
    S.unionWith(Gen[B]);
  };

  std::vector<BitVector> FO, FI, GO, GI, RO, RI;
  solveBitDataflow(G, Fused, FO, FI);
  solveBitDataflow(G, Generic, GO, GI);
  expectSetsEqual(FO, GO, "LiveOut fused vs generic");
  expectSetsEqual(FI, GI, "LiveIn fused vs generic");
  denseSolve(G, Fused, RO, RI);
  expectSetsEqual(FO, RO, "LiveOut fused vs reference");
  expectSetsEqual(FI, RI, "LiveIn fused vs reference");
  denseSolve(G, Generic, RO, RI);
  expectSetsEqual(GO, RO, "LiveOut generic vs reference");
  expectSetsEqual(GI, RI, "LiveIn generic vs reference");
}

/// The parallel pipeline driver must produce exactly what the serial one
/// does, function by function, in module order.
TEST(PipelineParallel, MatchesSerialOnMultiFunctionModule) {
  std::string Src;
  for (unsigned I = 0; I < 6; ++I) {
    std::string One = loopNestSource(3 + I);
    // Rename each copy so the module holds distinct functions.
    size_t Pos = One.find("function gen");
    One.replace(Pos, 12, "function gen" + std::to_string(I));
    Src += One;
  }
  auto MSerial = compile(Src, NamingMode::Naive);
  auto MParallel = compile(Src, NamingMode::Naive);
  ASSERT_TRUE(MSerial && MParallel);
  ASSERT_EQ(MSerial->Functions.size(), 6u);

  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  std::vector<PipelineStats> S = optimizeModule(*MSerial, PO);
  std::vector<PipelineStats> P = runPipelineParallel(*MParallel, PO, 4);
  ASSERT_EQ(S.size(), P.size());
  for (unsigned I = 0; I < S.size(); ++I) {
    EXPECT_EQ(S[I].opsAfter(), P[I].opsAfter()) << "function " << I;
    EXPECT_EQ(S[I].preDeleted(), P[I].preDeleted()) << "function " << I;
    EXPECT_EQ(printFunction(*MSerial->Functions[I]),
              printFunction(*MParallel->Functions[I]))
        << "function " << I;
  }
}

} // namespace
