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

#include "PipelineGolden.h"
#include "TestUtil.h"

#include "analysis/CFG.h"
#include "analysis/Liveness.h"
#include "fuzz/FuzzGen.h"
#include "fuzz/ModuleOps.h"
#include "opt/CopyCoalescing.h"
#include "pre/PRE.h"
#include "ssa/SSA.h"
#include "suite/Suite.h"
#include "support/StringUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>

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
using pipeline_golden::loopChainSource;

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
/// values, boundary blocks, meet seed, Gen with Preserve or Kill).
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
      if (P.Preserve)
        Flow.intersectWith((*P.Preserve)[B]);
      else
        Flow.intersectWithComplement((*P.Kill)[B]);
      Flow.unionWith((*P.Gen)[B]);
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

/// The liveness system posed densely over every register, as Liveness
/// solved it before its universe shrank to the cross-block registers, and
/// solved by the reference iteration.
struct DenseLiveness {
  std::vector<BitVector> In, Out;
  unsigned Evals = 0;              ///< reference block evaluations
  unsigned WorklistIterations = 0; ///< the worklist solver on this posing
};

DenseLiveness denseLiveness(const Function &F, const CFG &G,
                            PhiOperandSite Site) {
  // LiveOut = PhiUse + union of successors' LiveIn;
  // LiveIn  = (LiveOut - Kill) + UEVar.
  unsigned NB = F.numBlocks(), NR = F.numRegs();
  std::vector<BitVector> PhiUse(NB, BitVector(NR)), UE(NB, BitVector(NR)),
      Kill(NB, BitVector(NR));
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts) {
      if (I.isPhi()) {
        for (unsigned J = 0; J < I.Operands.size(); ++J)
          if (Site == PhiOperandSite::PredecessorExit)
            PhiUse[I.PhiBlocks[J]].set(I.Operands[J]);
          else
            UE[B.id()].set(I.Operands[J]);
      } else {
        for (Reg R : I.Operands)
          if (!Kill[B.id()].test(R))
            UE[B.id()].set(R);
      }
      if (I.hasDst())
        Kill[B.id()].set(I.Dst);
    }
  });
  BitDataflowProblem P;
  P.Dir = DataflowDirection::Backward;
  P.Meet = MeetOp::Union;
  P.NumBits = NR;
  P.MeetSeed = &PhiUse;
  P.Gen = &UE;
  P.Kill = &Kill;
  DenseLiveness D;
  D.Evals = denseSolve(G, P, D.Out, D.In);
  std::vector<BitVector> WOut, WIn;
  D.WorklistIterations = solveBitDataflow(G, P, WOut, WIn).Iterations;
  return D;
}

/// The compact Liveness must agree with the dense reference for every
/// (register, block) pair, block-local registers included (never live),
/// under both phi-operand conventions; its live-set iteration must list
/// exactly the live registers in ascending order. With
/// \p CheckAgainstRoundRobin, the worklist must also need no more block
/// evaluations than the round-robin reference (a cost check that holds on
/// the paper example and the loop chains, not a property of every CFG).
void expectLivenessMatchesDense(const Function &F, const std::string &What,
                                bool CheckAgainstRoundRobin) {
  CFG G = CFG::compute(F);
  for (PhiOperandSite Site :
       {PhiOperandSite::PredecessorExit, PhiOperandSite::PhiBlockEntry}) {
    Liveness W = Liveness::compute(F, G, Site);
    DenseLiveness D = denseLiveness(F, G, Site);
    unsigned Mismatches = 0;
    auto report = [&](const std::string &Msg) {
      if (++Mismatches <= 5)
        ADD_FAILURE() << What << ": " << Msg;
    };
    F.forEachBlock([&](const BasicBlock &B) {
      BlockId Id = B.id();
      std::vector<Reg> In, Out, DenseIn, DenseOut;
      W.forEachLiveIn(Id, [&](Reg R) { In.push_back(R); });
      W.forEachLiveOut(Id, [&](Reg R) { Out.push_back(R); });
      for (Reg R = 0; R < F.numRegs(); ++R) {
        if (W.isLiveIn(R, Id) != D.In[Id].test(R))
          report(strprintf("r%u live-in at block %u", R, Id));
        if (W.isLiveOut(R, Id) != D.Out[Id].test(R))
          report(strprintf("r%u live-out at block %u", R, Id));
        if (D.In[Id].test(R))
          DenseIn.push_back(R);
        if (D.Out[Id].test(R))
          DenseOut.push_back(R);
      }
      if (In != DenseIn || Out != DenseOut)
        report(strprintf("live-set iteration at block %u", Id));
    });
    // The registers outside the universe are zero in every dense set, so
    // the worklist solver takes exactly the same steps on both posings.
    EXPECT_EQ(W.solveStats().Iterations, D.WorklistIterations) << What;
    if (CheckAgainstRoundRobin)
      EXPECT_LE(W.solveStats().Iterations, D.Evals) << What;
  }
}

/// Checks function \p Fn of \p M as given and, when it is phi-free, in
/// pruned SSA form too.
void checkLivenessEquivalence(Module &M, const std::string &Fn,
                              const std::string &What,
                              bool CheckAgainstRoundRobin = false) {
  const Function &F = *M.find(Fn);
  expectLivenessMatchesDense(F, What, CheckAgainstRoundRobin);
  bool PhiFree = true;
  F.forEachBlock([&](const BasicBlock &B) { PhiFree &= B.firstNonPhi() == 0; });
  if (!PhiFree)
    return;
  std::unique_ptr<Module> SSA = fuzz::cloneModule(M);
  runPass(*SSA->find(Fn), SSABuildPass());
  expectLivenessMatchesDense(*SSA->find(Fn), What + " (SSA)",
                             CheckAgainstRoundRobin);
}

void checkLivenessEquivalence(const std::string &Src, const std::string &Fn) {
  auto M = compile(Src, NamingMode::Naive);
  ASSERT_TRUE(M);
  checkLivenessEquivalence(*M, Fn, Fn, /*CheckAgainstRoundRobin=*/true);
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
  checkLivenessEquivalence(FooSource, "foo");
}

TEST(DataflowEquivalence, PaperExamplePRERewrite) {
  checkPRERewriteEquivalence(FooSource, "foo", PREStrategy::LazyCodeMotion);
  checkPRERewriteEquivalence(FooSource, "foo", PREStrategy::MorelRenvoise);
  checkPRERewriteEquivalence(FooSource, "foo", PREStrategy::GlobalCSE);
}

class DataflowEquivalenceLoopNests : public testing::TestWithParam<unsigned> {
};

TEST_P(DataflowEquivalenceLoopNests, PRESets) {
  checkPREDataflowEquivalence(loopChainSource(GetParam()), "gen");
}

TEST_P(DataflowEquivalenceLoopNests, Liveness) {
  checkLivenessEquivalence(loopChainSource(GetParam()), "gen");
}

TEST_P(DataflowEquivalenceLoopNests, PRERewrite) {
  checkPRERewriteEquivalence(loopChainSource(GetParam()), "gen",
                             PREStrategy::LazyCodeMotion);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DataflowEquivalenceLoopNests,
                         testing::Values(1u, 4u, 16u, 64u));

/// The fused Gen/Kill problem formulation must solve to exactly the same
/// fixpoint as the same transfer posed with a Preserve mask (the
/// complement of Kill), on the solver and on the reference. Uses the
/// liveness system of a generated input.
TEST(DataflowEquivalence, GenKillMatchesGenericTransfer) {
  auto M = compile(loopChainSource(8), NamingMode::Naive);
  ASSERT_TRUE(M);
  Function &F = *M->find("gen");
  CFG G = CFG::compute(F);
  Liveness L = Liveness::compute(F, G);

  BitDataflowProblem Fused;
  Fused.Dir = DataflowDirection::Backward;
  Fused.Meet = MeetOp::Union;
  Fused.NumBits = L.numGlobals();
  std::vector<BitVector> Gen, Kill, Preserve;
  for (unsigned B = 0; B < F.numBlocks(); ++B) {
    Gen.push_back(L.upwardExposed(B));
    Kill.push_back(L.kill(B));
    Preserve.push_back(BitVector(Fused.NumBits, true));
    Preserve.back().intersectWithComplement(Kill.back());
  }
  Fused.Gen = &Gen;
  Fused.Kill = &Kill;

  BitDataflowProblem Masked = Fused;
  Masked.Kill = nullptr;
  Masked.Preserve = &Preserve;

  std::vector<BitVector> FO, FI, MO, MI, RO, RI;
  solveBitDataflow(G, Fused, FO, FI);
  solveBitDataflow(G, Masked, MO, MI);
  expectSetsEqual(FO, MO, "LiveOut kill vs preserve");
  expectSetsEqual(FI, MI, "LiveIn kill vs preserve");
  denseSolve(G, Fused, RO, RI);
  expectSetsEqual(FO, RO, "LiveOut fused vs reference");
  expectSetsEqual(FI, RI, "LiveIn fused vs reference");
  denseSolve(G, Masked, RO, RI);
  expectSetsEqual(MO, RO, "LiveOut preserve vs reference");
  expectSetsEqual(MI, RI, "LiveIn preserve vs reference");
}

/// The parallel pipeline driver must produce exactly what the serial one
/// does, function by function, in module order.
TEST(PipelineParallel, MatchesSerialOnMultiFunctionModule) {
  std::string Src;
  for (unsigned I = 0; I < 6; ++I) {
    std::string One = loopChainSource(3 + I);
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

//===----------------------------------------------------------------------===//
// Program sets: the committed corpus, 500 fuzz programs, the suite.
//===----------------------------------------------------------------------===//

/// Every module of the committed corpus, with its file name.
std::vector<std::pair<std::string, std::unique_ptr<Module>>> corpusModules() {
  std::vector<std::string> Files;
  for (const auto &Ent : std::filesystem::directory_iterator(EPRE_CORPUS_DIR))
    if (Ent.path().extension() == ".iloc")
      Files.push_back(Ent.path().string());
  std::sort(Files.begin(), Files.end());
  std::vector<std::pair<std::string, std::unique_ptr<Module>>> Ms;
  for (const std::string &Path : Files) {
    std::ifstream In(Path);
    std::stringstream SS;
    SS << In.rdbuf();
    std::unique_ptr<Module> M = fuzz::parseModuleText(SS.str());
    EXPECT_TRUE(M) << Path;
    if (M)
      Ms.push_back({std::filesystem::path(Path).filename().string(),
                    std::move(M)});
  }
  return Ms;
}

/// Generated program \p Seed, the shapes taken round-robin.
std::unique_ptr<Module> fuzzModule(unsigned Seed) {
  std::vector<std::string> Shapes = fuzz::generatorShapeNames();
  const std::string &Shape = Shapes[Seed % Shapes.size()];
  fuzz::GeneratorOptions Opts;
  EXPECT_TRUE(fuzz::shapeOptions(Shape, Opts));
  fuzz::FuzzProgram Prog = fuzz::generateProgram(9000 + Seed, Opts, Shape);
  std::unique_ptr<Module> M = fuzz::parseModuleText(Prog.Text);
  EXPECT_TRUE(M) << "seed " << Seed;
  return M;
}

TEST(CompactLiveness, MatchesDenseReferenceOnCorpus) {
  for (auto &[Name, M] : corpusModules())
    for (auto &F : M->Functions)
      checkLivenessEquivalence(*M, F->name(), Name + "/" + F->name());
}

TEST(CompactLiveness, MatchesDenseReferenceOnFuzzPrograms) {
  for (unsigned Seed = 0; Seed < 500; ++Seed)
    if (std::unique_ptr<Module> M = fuzzModule(Seed))
      checkLivenessEquivalence(*M, M->Functions[0]->name(),
                               "fuzz seed " + std::to_string(Seed));
}

TEST(CompactLiveness, MatchesDenseReferenceOnSuite) {
  for (const Routine &R : benchmarkSuite())
    for (NamingMode NM : {NamingMode::Naive, NamingMode::Hashed}) {
      auto M = compile(R.Source, NM);
      ASSERT_TRUE(M);
      checkLivenessEquivalence(*M, R.Name, R.Name);
    }
}

//===----------------------------------------------------------------------===//
// Copy coalescing against the std::set interference-graph algorithm.
//===----------------------------------------------------------------------===//

/// The coalescer as it was written before interference shrank to the
/// copy-related registers: a std::set interference graph over every
/// register, built from the dense reference liveness, and set merges per
/// coalesced copy. Returns the number of copies removed.
unsigned referenceCoalesce(Function &F) {
  unsigned Removed = 0;
  CFG G = CFG::compute(F);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    DenseLiveness Live =
        denseLiveness(F, G, PhiOperandSite::PredecessorExit);
    std::vector<std::set<Reg>> IG(F.numRegs());
    auto addEdge = [&](Reg A, Reg B) {
      if (A == B)
        return;
      IG[A].insert(B);
      IG[B].insert(A);
    };
    F.forEachBlock([&](const BasicBlock &B) {
      if (!G.isReachable(B.id()))
        return;
      BitVector LiveNow = Live.Out[B.id()];
      for (auto It = B.Insts.rbegin(); It != B.Insts.rend(); ++It) {
        const Instruction &I = *It;
        if (I.hasDst()) {
          Reg D = I.Dst;
          Reg CopySrc = I.isCopy() ? I.Operands[0] : NoReg;
          for (int R = LiveNow.findFirst(); R != -1;
               R = LiveNow.findNext(unsigned(R)))
            if (Reg(R) != D && Reg(R) != CopySrc)
              addEdge(D, Reg(R));
          LiveNow.reset(D);
        }
        for (Reg R : I.Operands)
          LiveNow.set(R);
      }
      if (B.id() == 0)
        for (Reg P1 : F.params())
          for (Reg P2 : F.params())
            addEdge(P1, P2);
    });

    std::vector<Reg> Parent(F.numRegs());
    for (Reg R = 0; R < F.numRegs(); ++R)
      Parent[R] = R;
    std::function<Reg(Reg)> find = [&](Reg R) {
      while (Parent[R] != R) {
        Parent[R] = Parent[Parent[R]];
        R = Parent[R];
      }
      return R;
    };
    bool Merged = false;
    F.forEachBlock([&](const BasicBlock &B) {
      if (!G.isReachable(B.id()))
        return;
      for (const Instruction &I : B.Insts) {
        if (!I.isCopy())
          continue;
        Reg D = find(I.Dst), S = find(I.Operands[0]);
        if (D == S || F.regType(D) != F.regType(S) || IG[D].count(S))
          continue;
        bool DParam = F.isParam(D), SParam = F.isParam(S);
        if (DParam && SParam)
          continue;
        Reg Rep = SParam ? S : (DParam ? D : S);
        Reg Other = Rep == S ? D : S;
        for (Reg N : IG[Other]) {
          IG[N].erase(Other);
          IG[N].insert(Rep);
          IG[Rep].insert(N);
        }
        IG[Other].clear();
        Parent[Other] = Rep;
        Merged = true;
      }
    });
    if (!Merged)
      break;
    F.forEachBlock([&](BasicBlock &B) {
      std::vector<Instruction> Kept;
      for (Instruction &I : B.Insts) {
        if (I.hasDst())
          I.Dst = find(I.Dst);
        for (Reg &R : I.Operands)
          R = find(R);
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
  return Removed;
}

/// Runs \p PO's pipeline on \p M's function \p Fn up to (not including) the
/// first coalescing pass; returns false when the pipeline has none.
bool runToCoalesce(Module &M, const std::string &Fn,
                   const PipelineOptions &PO) {
  std::unique_ptr<Module> Probe = fuzz::cloneModule(M);
  PassPrefixResult Full = optimizeFunctionPrefix(*Probe->find(Fn), PO, ~0u);
  auto It = std::find(Full.Trace.begin(), Full.Trace.end(), "coalesce");
  if (It == Full.Trace.end())
    return false;
  optimizeFunctionPrefix(*M.find(Fn), PO, unsigned(It - Full.Trace.begin()));
  return true;
}

/// On the coalescer's real input at \p Level, the pass and the reference
/// must make the same merges: identical printed IR and removal counts.
/// Returns the number of copies removed.
uint64_t checkCoalescingMatchesReference(Module &M, const std::string &Fn,
                                         OptLevel Level,
                                         const std::string &What) {
  PipelineOptions PO;
  PO.Level = Level;
  PO.Naming = InputNaming::Hashed;
  if (!runToCoalesce(M, Fn, PO))
    return 0;
  // Both sides read the same re-parsed copy (re-parsing renumbers
  // registers, so comparing against M itself would compare names).
  std::unique_ptr<Module> Pass = fuzz::cloneModule(M);
  std::unique_ptr<Module> Ref = fuzz::cloneModule(M);
  Function &F = *Pass->find(Fn);
  uint64_t Removed = test::runPassStat(F, "copies_removed",
                                       CopyCoalescingPass());
  unsigned RefRemoved = referenceCoalesce(*Ref->find(Fn));
  EXPECT_EQ(Removed, RefRemoved) << What;
  EXPECT_EQ(printFunction(F), printFunction(*Ref->find(Fn))) << What;
  return Removed;
}

// Each set must exercise the coalescer: some copies get removed.

TEST(CoalescingReference, SameMergesOnCorpus) {
  uint64_t Removed = 0;
  for (OptLevel L : {OptLevel::Baseline, OptLevel::Distribution})
    for (auto &[Name, M] : corpusModules())
      for (auto &F : M->Functions)
        Removed += checkCoalescingMatchesReference(*M, F->name(), L,
                                                   Name + "/" + F->name());
  EXPECT_GT(Removed, 0u);
}

TEST(CoalescingReference, SameMergesOnFuzzPrograms) {
  uint64_t Removed = 0;
  for (unsigned Seed = 0; Seed < 200; ++Seed)
    for (OptLevel L : {OptLevel::Baseline, OptLevel::Distribution})
      if (std::unique_ptr<Module> M = fuzzModule(Seed))
        Removed += checkCoalescingMatchesReference(
            *M, M->Functions[0]->name(), L,
            "fuzz seed " + std::to_string(Seed));
  EXPECT_GT(Removed, 0u);
}

TEST(CoalescingReference, SameMergesOnSuiteAndLoopChains) {
  uint64_t Removed = 0;
  for (OptLevel L : {OptLevel::Baseline, OptLevel::Distribution}) {
    for (const Routine &R : benchmarkSuite()) {
      auto M = compile(R.Source, NamingMode::Naive);
      ASSERT_TRUE(M);
      Removed += checkCoalescingMatchesReference(*M, R.Name, L, R.Name);
    }
    auto M = compile(loopChainSource(32), NamingMode::Naive);
    ASSERT_TRUE(M);
    Removed += checkCoalescingMatchesReference(*M, "gen", L, "loop chain 32");
  }
  EXPECT_GT(Removed, 0u);
}

} // namespace
