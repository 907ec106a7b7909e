//===- tests/gvn_test.cpp - AWZ value numbering and renaming --------------===//

#include "gvn/ValueNumbering.h"
#include "interp/Interpreter.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "ssa/SSA.h"

#include "PipelineGolden.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

using namespace epre;
using epre::test::runPass;

namespace {

std::unique_ptr<Module> parse(const char *Src) {
  ParseResult R = parseModule(Src);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.M);
}

TEST(GVN, CongruentExpressionsShareName) {
  auto M = parse(R"(
func @f(%a:i64, %b:i64) -> i64 {
^e:
  %t1:i64 = add %a, %b
  %t2:i64 = add %a, %b
  %t3:i64 = mul %t1, %t2
  ret %t3
}
)");
  Function &F = *M->Functions[0];
  GVNStats S = valueNumberSSA(F);
  EXPECT_GT(S.MergedDefs, 0u);
  const BasicBlock *E = F.entry();
  EXPECT_EQ(E->Insts[0].Dst, E->Insts[1].Dst);
  const Instruction &Mul = E->Insts[2];
  EXPECT_EQ(Mul.Operands[0], Mul.Operands[1]);
}

TEST(GVN, DifferentConstantsStayApart) {
  auto M = parse(R"(
func @f() -> i64 {
^e:
  %a:i64 = loadi 1
  %b:i64 = loadi 2
  %c:i64 = loadi 1
  %d:i64 = add %a, %b
  %e2:i64 = add %c, %b
  %r:i64 = add %d, %e2
  ret %r
}
)");
  Function &F = *M->Functions[0];
  valueNumberSSA(F);
  const BasicBlock *E = F.entry();
  // The two loadi 1 merge; loadi 2 stays distinct; the adds merge too.
  EXPECT_EQ(E->Insts[0].Dst, E->Insts[2].Dst);
  EXPECT_NE(E->Insts[0].Dst, E->Insts[1].Dst);
  EXPECT_EQ(E->Insts[3].Dst, E->Insts[4].Dst);
}

TEST(GVN, OptimisticLoopPhis) {
  // Two parallel induction chains with identical structure: the optimistic
  // AWZ fixpoint proves i ≅ j (pessimistic approaches cannot).
  auto M = parse(R"(
func @f(%n:i64) -> i64 {
^e:
  %z1:i64 = loadi 0
  %z2:i64 = loadi 0
  br ^l
^l:
  %i:i64 = phi [%z1, ^e], [%i2, ^l]
  %j:i64 = phi [%z2, ^e], [%j2, ^l]
  %one:i64 = loadi 1
  %i2:i64 = add %i, %one
  %j2:i64 = add %j, %one
  %c:i64 = cmplt %i2, %n
  cbr %c, ^l, ^x
^x:
  %r:i64 = add %i2, %j2
  ret %r
}
)");
  Function &F = *M->Functions[0];
  GVNStats S = valueNumberSSA(F);
  EXPECT_GT(S.MergedDefs, 0u);
  // After renaming, the add in ^x adds a register to itself.
  const BasicBlock *X = F.block(2);
  const Instruction &Add = X->Insts[0];
  EXPECT_EQ(Add.Operands[0], Add.Operands[1]) << printFunction(F);
}

TEST(GVN, PhisInDifferentBlocksNeverMerge) {
  auto M = parse(R"(
func @f(%p:i64, %a:i64, %b:i64) -> i64 {
^e:
  cbr %p, ^m1, ^m2
^m1:
  br ^j1
^m2:
  br ^j1
^j1:
  %x:i64 = phi [%a, ^m1], [%b, ^m2]
  cbr %p, ^m3, ^m4
^m3:
  br ^j2
^m4:
  br ^j2
^j2:
  %y:i64 = phi [%a, ^m3], [%b, ^m4]
  %r:i64 = add %x, %y
  ret %r
}
)");
  Function &F = *M->Functions[0];
  valueNumberSSA(F);
  // Even with positionally identical inputs, the phis sit in different
  // blocks ("the simplest variation") and must not merge.
  const BasicBlock *J2 = F.block(6);
  const Instruction &Add = J2->Insts[1];
  EXPECT_NE(Add.Operands[0], Add.Operands[1]);
}

TEST(GVN, LoadsNeverCongruent) {
  auto M = parse(R"(
func @f(%a:i64) -> f64 {
^e:
  %v1:f64 = load %a
  %v2:f64 = load %a
  %s:f64 = add %v1, %v2
  ret %s
}
)");
  Function &F = *M->Functions[0];
  valueNumberSSA(F);
  const BasicBlock *E = F.entry();
  EXPECT_NE(E->Insts[0].Dst, E->Insts[1].Dst);
}

TEST(GVN, FullPhasePreservesBehaviour) {
  const char *Src = R"(
func @f(%a:i64, %n:i64) -> i64 {
^e:
  %z:i64 = loadi 0
  %s:i64 = copy %z
  %i:i64 = copy %z
  br ^l
^l:
  %t1:i64 = add %a, %i
  %t2:i64 = add %a, %i
  %prod:i64 = mul %t1, %t2
  %s:i64 = add %s, %prod
  %one:i64 = loadi 1
  %i:i64 = add %i, %one
  %c:i64 = cmplt %i, %n
  cbr %c, ^l, ^x
^x:
  ret %s
}
)";
  for (int64_t N : {1, 3, 9}) {
    auto M = parse(Src);
    Function &F = *M->Functions[0];
    MemoryImage Mem(0);
    int64_t Before =
        interpret(F, {RtValue::ofI(2), RtValue::ofI(N)}, Mem).ReturnValue.I;
    GVNStats S = runPass(F, GVNPass()).lastStats();
    EXPECT_TRUE(verifyFunction(F, SSAMode::NoSSA).empty())
        << printFunction(F);
    EXPECT_GT(S.MergedDefs, 0u);
    int64_t After =
        interpret(F, {RtValue::ofI(2), RtValue::ofI(N)}, Mem).ReturnValue.I;
    EXPECT_EQ(Before, After) << "N=" << N;
  }
}

TEST(GVN, CommutedOperandsSimplestVariation) {
  // a+b vs b+a: the "simplest variation" is positional, so these do NOT
  // merge — documenting the paper's stated limitation.
  auto M = parse(R"(
func @f(%a:i64, %b:i64) -> i64 {
^e:
  %t1:i64 = add %a, %b
  %t2:i64 = add %b, %a
  %r:i64 = add %t1, %t2
  ret %r
}
)");
  Function &F = *M->Functions[0];
  valueNumberSSA(F);
  const BasicBlock *E = F.entry();
  EXPECT_NE(E->Insts[0].Dst, E->Insts[1].Dst);
}

//===----------------------------------------------------------------------===//
// Partition properties: checked against the IR itself, with no reference
// implementation, on the suite, the corpus and the 200 golden fuzz programs
//===----------------------------------------------------------------------===//

constexpr unsigned NoClass = CongruencePartition::NoClass;

/// Calls \p Check on every suite routine, corpus function and golden fuzz
/// program, each put in SSA form the way GVNPass does it (copies kept).
template <typename CheckFn> void forEachSSAProgram(CheckFn Check) {
  std::vector<pipeline_golden::Program> Ps = pipeline_golden::suitePrograms();
  for (std::vector<pipeline_golden::Program> More :
       {pipeline_golden::corpusPrograms(EPRE_CORPUS_DIR),
        pipeline_golden::fuzzPrograms()})
    Ps.insert(Ps.end(), More.begin(), More.end());
  ASSERT_GE(Ps.size(), 250u);
  for (const pipeline_golden::Program &P : Ps) {
    std::unique_ptr<Module> M = P.Build(OptLevel::Reassociation);
    ASSERT_NE(M, nullptr) << P.Id;
    Function *F = M->find(P.FnName);
    ASSERT_NE(F, nullptr) << P.Id;
    SSAOptions Opts;
    Opts.FoldCopies = false;
    runPass(*F, SSABuildPass(Opts));
    Check(P.Id, *F);
  }
}

/// The refinement signature of \p R under \p P's own classes: base key,
/// then operand classes (an undefined operand stands for itself).
std::vector<unsigned> signatureOf(const CongruencePartition &P, Reg R) {
  std::vector<unsigned> Sig{P.KeyOf[R]};
  for (unsigned J = P.OpBegin[R]; J < P.OpBegin[R + 1]; ++J) {
    Reg Op = P.Operands[J];
    unsigned C = P.classOf(Op);
    Sig.push_back(C != NoClass ? C : ~Op);
  }
  return Sig;
}

/// The defining instruction and block of every register of \p F.
struct Defs {
  std::vector<const Instruction *> Inst;
  std::vector<BlockId> Block;
  explicit Defs(const Function &F)
      : Inst(F.numRegs(), nullptr), Block(F.numRegs(), InvalidBlock) {
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &I : B.Insts)
        if (I.hasDst()) {
          Inst[I.Dst] = &I;
          Block[I.Dst] = B.id();
        }
    });
  }
};

/// The refinement operands of \p I: phi inputs in predecessor order.
std::vector<Reg> refinementOperands(const Instruction &I) {
  if (!I.isPhi())
    return std::vector<Reg>(I.Operands.begin(), I.Operands.end());
  std::vector<std::pair<BlockId, Reg>> In;
  for (unsigned J = 0; J < I.Operands.size(); ++J)
    In.push_back({I.PhiBlocks[J], I.Operands[J]});
  std::sort(In.begin(), In.end());
  std::vector<Reg> Ops;
  for (auto &[Pred, R] : In)
    Ops.push_back(R);
  return Ops;
}

TEST(CongruencePartition, OneMoreRoundChangesNoClass) {
  forEachSSAProgram([](const std::string &Id, Function &F) {
    CongruencePartition P = computeCongruencePartition(F);
    // Re-partitioning by signature must give back exactly the classes:
    // equal signatures share a class, and a class has one signature.
    std::map<std::vector<unsigned>, unsigned> ClassBySig;
    std::map<unsigned, std::vector<unsigned>> SigByClass;
    for (Reg R = 0; R < P.ClassOf.size(); ++R) {
      unsigned C = P.ClassOf[R];
      if (C == NoClass)
        continue;
      ASSERT_LT(C, P.NumClasses) << Id;
      std::vector<unsigned> Sig = signatureOf(P, R);
      EXPECT_EQ(ClassBySig.emplace(Sig, C).first->second, C)
          << Id << ": r" << R << " would split from its class";
      EXPECT_EQ(SigByClass.emplace(C, Sig).first->second, Sig)
          << Id << ": r" << R << " would join another class";
    }
    EXPECT_EQ(SigByClass.size(), P.NumClasses) << Id;
  });
}

TEST(CongruencePartition, ClassmatesShareKeyAndCongruentOperands) {
  unsigned Shared = 0;
  forEachSSAProgram([&](const std::string &Id, Function &F) {
    CongruencePartition P = computeCongruencePartition(F);
    Defs D(F);
    std::map<unsigned, Reg> FirstOf;
    for (Reg R = 0; R < P.ClassOf.size(); ++R) {
      if (P.ClassOf[R] == NoClass)
        continue;
      auto [It, New] = FirstOf.emplace(P.ClassOf[R], R);
      if (New)
        continue;
      ++Shared;
      Reg A = It->second;
      const Instruction *IA = D.Inst[A], *IR = D.Inst[R];
      ASSERT_TRUE(IA && IR) << Id << ": r" << A << " ~ r" << R;
      // Same base key: operator, type, payload; phis in one block.
      EXPECT_EQ(IA->Op, IR->Op) << Id << ": r" << A << " ~ r" << R;
      EXPECT_EQ(IA->Ty, IR->Ty) << Id << ": r" << A << " ~ r" << R;
      if (IA->Op == Opcode::Call) {
        EXPECT_EQ(IA->Intr, IR->Intr) << Id;
      }
      if (IA->Op == Opcode::LoadI) {
        EXPECT_EQ(IA->IImm, IR->IImm) << Id;
      }
      if (IA->Op == Opcode::LoadF) {
        EXPECT_EQ(std::memcmp(&IA->FImm, &IR->FImm, sizeof(double)), 0)
            << Id;
      }
      if (IA->isPhi()) {
        EXPECT_EQ(D.Block[A], D.Block[R]) << Id;
      }
      // Pairwise-congruent operands.
      std::vector<Reg> OA = refinementOperands(*IA);
      std::vector<Reg> OR = refinementOperands(*IR);
      ASSERT_EQ(OA.size(), OR.size()) << Id << ": r" << A << " ~ r" << R;
      for (unsigned J = 0; J < OA.size(); ++J) {
        unsigned CA = P.classOf(OA[J]), CR = P.classOf(OR[J]);
        EXPECT_EQ(CA, CR) << Id << ": operand " << J << " of r" << A
                          << " ~ r" << R;
        if (CA == NoClass) {
          EXPECT_EQ(OA[J], OR[J]) << Id;
        }
      }
    }
  });
  EXPECT_GT(Shared, 0u);
}

TEST(CongruencePartition, ParameterRepresentsItsClass) {
  forEachSSAProgram([](const std::string &Id, Function &F) {
    CongruencePartition P = computeCongruencePartition(F);
    for (Reg Param : F.params()) {
      unsigned C = P.classOf(Param);
      ASSERT_NE(C, NoClass) << Id;
      // The parameter is its class's only member, so renaming can never
      // replace it by another name.
      for (Reg R = 0; R < P.ClassOf.size(); ++R) {
        if (R != Param) {
          EXPECT_NE(P.ClassOf[R], C)
              << Id << ": r" << R << " joins param r" << Param;
        }
      }
    }
    // Renaming keeps every use of a parameter outside phis (phis alone may
    // collapse), and adds none.
    auto nonPhiParamUses = [&] {
      std::vector<unsigned> N;
      for (Reg Param : F.params()) {
        unsigned Uses = 0;
        F.forEachBlock([&](const BasicBlock &B) {
          for (const Instruction &I : B.Insts)
            if (!I.isPhi())
              Uses += unsigned(std::count(I.Operands.begin(),
                                          I.Operands.end(), Param));
        });
        N.push_back(Uses);
      }
      return N;
    };
    std::vector<unsigned> Before = nonPhiParamUses();
    renameToClassReps(F, P.ClassOf);
    EXPECT_EQ(nonPhiParamUses(), Before) << Id;
  });
}

TEST(CongruencePartition, LoadNeverSharesAClass) {
  unsigned Loads = 0;
  forEachSSAProgram([&](const std::string &Id, Function &F) {
    CongruencePartition P = computeCongruencePartition(F);
    std::vector<unsigned> Members(P.NumClasses, 0);
    for (unsigned C : P.ClassOf)
      if (C != NoClass)
        ++Members[C];
    F.forEachBlock([&](const BasicBlock &B) {
      for (const Instruction &I : B.Insts)
        if (I.Op == Opcode::Load) {
          ++Loads;
          EXPECT_EQ(Members[P.classOf(I.Dst)], 1u)
              << Id << ": load r" << I.Dst;
        }
    });
  });
  EXPECT_GT(Loads, 0u);
}

TEST(CongruencePartition, UndefinedOperandGetsAClassOfItsOwn) {
  auto M = parse(R"(
func @f(%a:i64) -> i64 {
^e:
  %x:i64 = add %a, %a
  %y:i64 = add %a, %a
  %z:i64 = add %a, %a
  %w:i64 = add %a, %a
  %s:i64 = add %x, %z
  %t:i64 = add %s, %w
  ret %t
}
)");
  Function &F = *M->Functions[0];
  // The parser refuses undefined registers, so x, y and z get theirs here:
  // x = a + u, y = a + u, z = a + v.
  Reg U = F.makeReg(Type::I64), V = F.makeReg(Type::I64);
  BasicBlock *E = F.entry();
  E->Insts[0].Operands[1] = U;
  E->Insts[1].Operands[1] = U;
  E->Insts[2].Operands[1] = V;
  Reg X = E->Insts[0].Dst, Y = E->Insts[1].Dst, Z = E->Insts[2].Dst,
      W = E->Insts[3].Dst;
  CongruencePartition P = computeCongruencePartition(F);
  // The undefined registers take no class, yet each stands for itself in
  // its users' signatures: one undefined register, one class.
  EXPECT_EQ(P.classOf(U), NoClass);
  EXPECT_EQ(P.classOf(V), NoClass);
  EXPECT_EQ(P.classOf(X), P.classOf(Y));
  EXPECT_NE(P.classOf(X), P.classOf(Z));
  EXPECT_NE(P.classOf(X), P.classOf(W));
  EXPECT_NE(P.classOf(Z), P.classOf(W));
}

} // namespace
