//===- tests/predecode_test.cpp - Interpreter golden and totality suite ---===//
///
/// \file
/// Holds interpret() to golden records: for every (program, fuel budget)
/// case of tests/InterpGolden.h — the committed corpus, the paper's Fig. 2
/// running example, 1000+ fuzz-generated programs, hand-written programs
/// for every TrapKind, and fuel sweeps that cut the fuel-crossing block at
/// every boundary (N-1, N, N+1) — the return value, memory-image hash,
/// DynOps, WeightedCost, per-opcode OpCounts, trap kind/location/message,
/// and the finalized profile must match tests/golden/interp.tsv, with and
/// without a profile collector attached.
///
/// The records were written by the original tree-walking interpreter (the
/// reference engine up to commit ccf9630) and are the semantics the
/// predecoded engine must keep. Regenerate them only for a deliberate
/// semantic change, then review the diff:
///
///   ./build/tests/interp_golden_gen > tests/golden/interp.tsv
///
/// The second half checks predecoder totality: every shape predecode()
/// refuses is one verifyFunction() rejects, and interpret() reports it as
/// a MalformedIR trap; blocks over 65,535 instructions and functions over
/// 65,535 blocks run like any other.
///
//===----------------------------------------------------------------------===//

#include "InterpGolden.h"

#include "interp/Predecode.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <map>

using namespace epre;
using namespace epre::golden;

namespace {

/// The committed records, keyed by case id.
const std::map<std::string, std::string> &goldenFile() {
  static const std::map<std::string, std::string> File = [] {
    std::map<std::string, std::string> M;
    std::ifstream In(EPRE_GOLDEN_FILE);
    EXPECT_TRUE(In.good()) << EPRE_GOLDEN_FILE;
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.empty() || Line[0] == '#')
        continue;
      size_t Tab = Line.find('\t');
      EXPECT_NE(Tab, std::string::npos) << Line;
      if (Tab != std::string::npos)
        M[Line.substr(0, Tab)] = Line.substr(Tab + 1);
    }
    return M;
  }();
  return File;
}

/// Every record of \p Rs must be in the file, rendered identically.
void expectGolden(const Records &Rs) {
  ASSERT_FALSE(Rs.empty());
  const auto &File = goldenFile();
  unsigned Failures = 0;
  for (const auto &[Id, Line] : Rs) {
    auto It = File.find(Id);
    if (It == File.end()) {
      ADD_FAILURE() << "no golden record for " << Id;
    } else if (It->second != Line) {
      ADD_FAILURE() << Id << "\n  golden: " << It->second
                    << "\n  actual: " << Line;
    } else {
      continue;
    }
    if (++Failures == 10) {
      ADD_FAILURE() << "stopping after 10 mismatches";
      return;
    }
  }
}

TEST(PredecodeIdentity, CorpusPrograms) {
  expectGolden(corpusRecords(EPRE_CORPUS_DIR));
}

TEST(PredecodeIdentity, Fig2RunningExample) {
  Records Rs = fig2Records();
  EXPECT_EQ(Rs.size(), 2 * 9u); // both namings, clean run + 8 budgets
  expectGolden(Rs);
}

TEST(PredecodeIdentity, FuzzGeneratedPrograms) {
  Records Rs = fuzzRecords();
  unsigned Programs = 0;
  for (const auto &R : Rs)
    Programs += R.first.size() > 9 &&
                R.first.compare(R.first.size() - 8, 8, "@2000000") == 0;
  EXPECT_GE(Programs, 1000u);
  expectGolden(Rs);
}

/// The file holds exactly the cases the suite generates: no record is
/// stale and none is missing.
TEST(PredecodeIdentity, GoldenFileCoversExactlyTheCases) {
  Records All = allRecords(EPRE_CORPUS_DIR);
  std::map<std::string, std::string> Ids(All.begin(), All.end());
  EXPECT_EQ(Ids.size(), All.size()) << "duplicate case ids";
  EXPECT_EQ(Ids.size(), goldenFile().size());
  for (const auto &[Id, Line] : goldenFile())
    EXPECT_TRUE(Ids.count(Id)) << "stale golden record " << Id;
}

//===--------------------------------------------------------------------===//
// Trap programs: every TrapKind, including fused positions.
//===--------------------------------------------------------------------===//

/// The records of \p Rs whose id starts with \p Prefix.
Records only(Records Rs, const std::string &Prefix) {
  Rs.erase(std::remove_if(Rs.begin(), Rs.end(),
                          [&](const auto &Rec) {
                            return Rec.first.rfind(Prefix, 0) != 0;
                          }),
           Rs.end());
  return Rs;
}

/// The golden records of trap program \p Name, plus its expected kind.
void expectTrapProgram(const char *Name, TrapKind Expected) {
  Records Mine = only(trapRecords(), std::string("trap/") + Name + "@");
  expectGolden(Mine);
  ASSERT_FALSE(Mine.empty());
  // The first record is the run at a generous budget.
  EXPECT_EQ(Mine[0].second.rfind(trapKindName(Expected), 0), 0u)
      << Mine[0].second;
}

TEST(PredecodeTraps, LoadOutOfBounds) {
  expectTrapProgram("load-oob", TrapKind::MemoryOutOfBounds);
}

TEST(PredecodeTraps, FusedAddLoadOutOfBounds) {
  std::unique_ptr<Module> M = fuzz::parseModuleText(trapPrograms()[1].Text);
  ASSERT_NE(M, nullptr);
  Predecoder PD;
  Arena A;
  BytecodeFunction BF;
  ASSERT_TRUE(PD.predecode(*M->Functions[0], A, BF));
  EXPECT_GE(BF.FusedCount, 1u);
  expectTrapProgram("fused-add-load-oob", TrapKind::MemoryOutOfBounds);
  // And the in-bounds case through the same fused pair.
  MemoryImage Mem(64);
  EXPECT_FALSE(interpret(*M->Functions[0], {RtValue::ofI(0)}, Mem).Trapped);
}

TEST(PredecodeTraps, StoreOutOfBounds) {
  expectTrapProgram("store-oob", TrapKind::MemoryOutOfBounds);
}

TEST(PredecodeTraps, DivByZeroAndModByZero) {
  expectTrapProgram("div-by-zero", TrapKind::ArithmeticTrap);
  expectTrapProgram("mod-by-zero", TrapKind::ArithmeticTrap);
  expectTrapProgram("div-overflow", TrapKind::ArithmeticTrap);
}

TEST(PredecodeTraps, F2IOutOfRange) {
  expectTrapProgram("f2i-out-of-range", TrapKind::ArithmeticTrap);
}

TEST(PredecodeTraps, IntAbsMinTraps) {
  expectTrapProgram("int-abs-min", TrapKind::ArithmeticTrap);
}

TEST(PredecodeTraps, ArgumentMismatch) {
  std::unique_ptr<Module> M = fuzz::parseModuleText(retParamText());
  ASSERT_NE(M, nullptr);
  const Function &F = *M->Functions[0];
  MemoryImage Mem(0);
  ExecResult R = interpret(F, {}, Mem); // wrong count
  EXPECT_EQ(R.Kind, TrapKind::ArgumentMismatch);
  EXPECT_EQ(R.DynOps, 0u);
  R = interpret(F, {RtValue::ofF(1.0)}, Mem); // wrong type
  EXPECT_EQ(R.Kind, TrapKind::ArgumentMismatch);
  Records Rs = only(shapeRecords(), "shape/arg-");
  EXPECT_EQ(Rs.size(), 2u);
  expectGolden(Rs);
}

TEST(PredecodeTraps, ErasedBlock) {
  std::unique_ptr<Function> F = erasedBlockFunction();
  MemoryImage Mem(0);
  ExecResult R = interpret(*F, {RtValue::ofI(0)}, Mem);
  EXPECT_EQ(R.Kind, TrapKind::ErasedBlock);
  EXPECT_EQ(R.DynOps, 1u); // the branch executed and counted
  EXPECT_TRUE(R.TrapBlock.empty());
  expectGolden(only(shapeRecords(), "shape/erased-block@"));
}

TEST(PredecodeTraps, MissingPhiEntry) {
  std::unique_ptr<Function> F = missingPhiFunction();
  MemoryImage Mem(0);
  ExecResult R = interpret(*F, {RtValue::ofI(3)}, Mem);
  EXPECT_EQ(R.Kind, TrapKind::MissingPhiEntry);
  EXPECT_EQ(R.TrapBlock, "join");
  EXPECT_EQ(R.TrapInstIndex, 0u);
  EXPECT_EQ(R.DynOps, 1u);
  expectGolden(only(shapeRecords(), "shape/missing-phi@"));
}

TEST(PredecodeTraps, FuelBoundaryExact) {
  // loadi + ret: 2 ops. A budget of 1 traps on the ret; 2 and 3 succeed.
  std::unique_ptr<Module> M = fuzz::parseModuleText(loadImmRetText());
  ASSERT_NE(M, nullptr);
  const Function &F = *M->Functions[0];
  MemoryImage Mem(0);
  ExecLimits L;
  L.MaxOps = 2;
  ExecResult R = interpret(F, {}, Mem, L);
  EXPECT_FALSE(R.Trapped);
  EXPECT_EQ(R.DynOps, 2u);
  L.MaxOps = 1;
  R = interpret(F, {}, Mem, L);
  EXPECT_EQ(R.Kind, TrapKind::FuelExhausted);
  EXPECT_EQ(R.DynOps, 2u); // the trapped op is counted, not executed
  EXPECT_EQ(R.TrapInstIndex, 1u);
  L.MaxOps = 3;
  EXPECT_FALSE(interpret(F, {}, Mem, L).Trapped);
  expectGolden(only(shapeRecords(), "shape/fuel-exact@"));
}

//===--------------------------------------------------------------------===//
// Engine plumbing: fusion, dispatch mode, arena reuse.
//===--------------------------------------------------------------------===//

TEST(Predecode, FusesHotPairs) {
  std::unique_ptr<Module> M = fuzz::parseModuleText(fusedPairsText());
  ASSERT_NE(M, nullptr);
  Predecoder PD;
  Arena A;
  BytecodeFunction BF;
  ASSERT_TRUE(PD.predecode(*M->Functions[0], A, BF));
  EXPECT_EQ(BF.FusedCount, 2u); // mul+add and cmp+cbr
  MemoryImage Mem(0);
  ExecResult R =
      interpret(*M->Functions[0], {RtValue::ofI(6), RtValue::ofI(7)}, Mem);
  ASSERT_TRUE(R.HasReturn);
  EXPECT_EQ(R.ReturnValue.I, 42 + 6);
  R = interpret(*M->Functions[0], {RtValue::ofI(-6), RtValue::ofI(7)}, Mem);
  ASSERT_TRUE(R.HasReturn);
  EXPECT_EQ(R.ReturnValue.I, 7);
  // Including fuel cuts that split each pair.
  expectGolden(only(shapeRecords(), "shape/fused-"));
}

TEST(Predecode, DispatchModeIsExposed) {
  std::string Mode = interpDispatchMode();
#if defined(EPRE_NO_COMPUTED_GOTO)
  EXPECT_EQ(Mode, "switch");
#else
  EXPECT_TRUE(Mode == "computed-goto" || Mode == "switch") << Mode;
#endif
}

TEST(Predecode, ArenaIsReusedAcrossRuns) {
  std::unique_ptr<Module> M = fuzz::parseModuleText(R"(func @t(%r1:i64) -> i64 {
^entry:
  %r2:i64 = add %r1, %r1
  ret %r2
})");
  ASSERT_NE(M, nullptr);
  Predecoder PD;
  Arena Code, Scratch;
  BytecodeFunction BF;
  ASSERT_TRUE(PD.predecode(*M->Functions[0], Code, BF));
  MemoryImage Mem(0);
  ExecLimits Fuel;
  Fuel.MaxOps = 1; // the cut copy of the block comes from Scratch too
  (void)executeBytecode(BF, {RtValue::ofI(1)}, Mem, Fuel, nullptr, Scratch);
  size_t Reserved = Scratch.bytesReserved();
  for (int I = 0; I < 100; ++I) {
    (void)executeBytecode(BF, {RtValue::ofI(I)}, Mem, ExecLimits(), nullptr,
                          Scratch);
    (void)executeBytecode(BF, {RtValue::ofI(I)}, Mem, Fuel, nullptr, Scratch);
  }
  EXPECT_EQ(Scratch.bytesReserved(), Reserved); // no growth after warm-up
}

//===--------------------------------------------------------------------===//
// Totality: predecode() refuses only verifier-rejected shapes.
//===--------------------------------------------------------------------===//

/// \p F must fail verification, be refused by the predecoder with a shape
/// description containing \p Shape, and trap as MalformedIR without
/// executing anything; the collector still finalizes to an all-zero
/// profile.
void expectRefused(const Function &F, const std::string &Shape,
                   const std::vector<RtValue> &Args = {}) {
  SCOPED_TRACE(Shape);
  EXPECT_FALSE(verifyFunction(F).empty());
  Predecoder PD;
  Arena A;
  BytecodeFunction BF;
  EXPECT_FALSE(PD.predecode(F, A, BF));
  EXPECT_FALSE(BF.valid());
  EXPECT_NE(PD.refusal().Shape.find(Shape), std::string::npos)
      << PD.refusal().Shape;

  MemoryImage Mem(0);
  ProfileCollector PC;
  ExecResult R = interpret(F, Args, Mem, ExecLimits(), &PC);
  EXPECT_TRUE(R.Trapped);
  EXPECT_EQ(R.Kind, TrapKind::MalformedIR);
  EXPECT_STREQ(trapKindName(R.Kind), "malformed-ir");
  EXPECT_EQ(R.TrapReason.rfind("malformed IR: " + PD.refusal().Shape, 0), 0u)
      << R.TrapReason;
  EXPECT_NE(R.TrapReason.find("(in @" + F.name()), std::string::npos);
  EXPECT_EQ(R.TrapFunction, F.name());
  EXPECT_EQ(R.DynOps, 0u);
  EXPECT_EQ(R.WeightedCost, 0u);
  for (uint64_t C : R.OpCounts)
    EXPECT_EQ(C, 0u);
  FunctionProfile P = PC.finalize(F);
  EXPECT_EQ(P.Function, F.name());
  EXPECT_EQ(P.DynOps, 0u);
  EXPECT_EQ(P.WeightedCost, 0u);
  for (const BlockProfile &B : P.Blocks) {
    EXPECT_EQ(B.Count, 0u);
    EXPECT_TRUE(B.Edges.empty());
  }
}

/// A one-block function `entry: <I>; ret` over two i64 params.
std::unique_ptr<Function> withInst(const Instruction &I) {
  auto F = std::make_unique<Function>("t");
  F->addParam(Type::I64);
  F->addParam(Type::I64);
  F->makeReg(Type::I64);
  F->addBlock("entry");
  F->entry()->Insts.push_back(I);
  F->entry()->Insts.push_back(Instruction::makeRet());
  return F;
}

TEST(Predecode, RefusedShapesAreVerifierRejectedAndTrap) {
  {
    Function F("t");
    expectRefused(F, "function has no entry block");
  }
  {
    // No terminator: would re-run the block forever.
    auto F = std::make_unique<Function>("t");
    Reg A0 = F->addParam(Type::I64);
    Reg D = F->makeReg(Type::I64);
    F->addBlock("entry");
    F->entry()->Insts.push_back(
        Instruction::makeBinary(Opcode::Add, Type::I64, D, A0, A0));
    expectRefused(*F, "block does not end in a terminator",
                  {RtValue::ofI(1)});
    MemoryImage Mem(0);
    ExecResult R = interpret(*F, {RtValue::ofI(1)}, Mem);
    EXPECT_EQ(R.TrapBlock, "entry");
    EXPECT_EQ(R.TrapInstIndex, 1u); // where the terminator should be
  }
  {
    auto F = std::make_unique<Function>("t");
    Reg A0 = F->addParam(Type::I64);
    Reg D = F->makeReg(Type::I64);
    F->addBlock("entry");
    F->entry()->Insts.push_back(
        Instruction::makeBinary(Opcode::Add, Type::I64, D, A0, A0));
    Instruction Phi = Instruction::makePhi(Type::I64, D);
    Phi.addPhiIncoming(A0, 0);
    F->entry()->Insts.push_back(Phi);
    F->entry()->Insts.push_back(Instruction::makeRet(Type::I64, D));
    expectRefused(*F, "phi after non-phi", {RtValue::ofI(1)});
  }
  expectRefused(
      *withInst(Instruction::makeBinary(Opcode::Add, Type::I64, 40, 1, 2)),
      "destination register %r40 out of range");
  expectRefused(
      *withInst(Instruction::makeBinary(Opcode::Add, Type::I64, 3, 1, 41)),
      "operand register %r41 out of range");
  {
    Instruction Short =
        Instruction::makeBinary(Opcode::Add, Type::I64, 3, 1, 2);
    Short.Operands.pop_back();
    expectRefused(*withInst(Short), "add expects 2 operands, has 1");
  }
  {
    Instruction NoArgs =
        Instruction::makeCall(Intrinsic::Abs, Type::I64, 3, {1});
    NoArgs.Operands.clear();
    expectRefused(*withInst(NoArgs), "call expects 1 or 2 operands, has 0");
    Instruction ThreeArgs =
        Instruction::makeCall(Intrinsic::Pow, Type::F64, 3, {1, 2});
    ThreeArgs.Operands.push_back(1);
    expectRefused(*withInst(ThreeArgs), "call expects 1 or 2 operands, has 3");
  }
  {
    auto F = std::make_unique<Function>("t");
    F->addBlock("entry");
    F->entry()->Insts.push_back(Instruction::makeBr(7));
    expectRefused(*F, "branch to nonexistent block 7");
  }
  {
    auto F = std::make_unique<Function>("t");
    F->addBlock("entry");
    Instruction Br = Instruction::makeBr(0);
    Br.Succs.clear();
    F->entry()->Insts.push_back(Br);
    expectRefused(*F, "br expects 1 successor, has 0");
  }
  {
    auto F = std::make_unique<Function>("t");
    Reg C = F->addParam(Type::I64);
    F->addBlock("entry");
    F->addBlock("exit");
    Instruction Cbr = Instruction::makeCbr(C, 1, 1);
    Cbr.Succs.pop_back();
    F->entry()->Insts.push_back(Cbr);
    F->block(1)->Insts.push_back(Instruction::makeRet());
    expectRefused(*F, "cbr expects 2 successors, has 1", {RtValue::ofI(1)});
  }
  {
    auto F = std::make_unique<Function>("t");
    Reg P = F->addParam(Type::I64);
    Reg D = F->makeReg(Type::I64);
    F->addBlock("entry");
    F->addBlock("join");
    F->entry()->Insts.push_back(Instruction::makeBr(1));
    Instruction Phi = Instruction::makePhi(Type::I64, D);
    Phi.addPhiIncoming(P, 0);
    Phi.PhiBlocks.clear();
    F->block(1)->Insts.push_back(Phi);
    F->block(1)->Insts.push_back(Instruction::makeRet(Type::I64, D));
    expectRefused(*F, "phi operand/block count mismatch", {RtValue::ofI(1)});
  }
}

/// One block of 2K+8 instructions: K fused multiply-add pairs counting an
/// accumulator up to K, then a fused add+load at address acc-K and a final
/// add. With \p K past 32,767 every index and op count overflows 16 bits.
std::unique_ptr<Function> hugeBlockFunction(unsigned K) {
  auto F = std::make_unique<Function>("huge");
  Reg One = F->makeReg(Type::I64), Unit = F->makeReg(Type::I64);
  Reg Acc = F->makeReg(Type::I64), Prod = F->makeReg(Type::I64);
  Reg Off = F->makeReg(Type::I64), Addr = F->makeReg(Type::I64);
  Reg Val = F->makeReg(Type::I64), Out = F->makeReg(Type::I64);
  F->addBlock("entry");
  auto &I = F->entry()->Insts;
  I.push_back(Instruction::makeLoadI(One, 1));
  I.push_back(Instruction::makeLoadI(Unit, 1));
  I.push_back(Instruction::makeLoadI(Acc, 0));
  for (unsigned J = 0; J < K; ++J) {
    I.push_back(
        Instruction::makeBinary(Opcode::Mul, Type::I64, Prod, Acc, Unit));
    I.push_back(
        Instruction::makeBinary(Opcode::Add, Type::I64, Acc, Prod, One));
  }
  I.push_back(Instruction::makeLoadI(Off, -int64_t(K)));
  I.push_back(Instruction::makeBinary(Opcode::Add, Type::I64, Addr, Acc, Off));
  I.push_back(Instruction::makeLoad(Type::I64, Val, Addr));
  I.push_back(Instruction::makeBinary(Opcode::Add, Type::I64, Out, Val, Acc));
  I.push_back(Instruction::makeRet(Type::I64, Out));
  return F;
}

TEST(PredecodeTotality, BlockOver65535Instructions) {
  const unsigned K = 40'000;
  const uint64_t N = 2 * K + 8; // instructions = counted ops
  std::unique_ptr<Function> F = hugeBlockFunction(K);
  ASSERT_TRUE(verifyFunction(*F).empty());
  Predecoder PD;
  Arena A;
  BytecodeFunction BF;
  ASSERT_TRUE(PD.predecode(*F, A, BF));
  EXPECT_EQ(BF.FusedCount, K + 1);

  auto opCount = [](const ExecResult &R, Opcode Op) {
    return R.OpCounts[unsigned(Op)];
  };
  auto sum = [](const ExecResult &R) {
    uint64_t S = 0;
    for (uint64_t C : R.OpCounts)
      S += C;
    return S;
  };

  MemoryImage Mem(8);
  ExecResult R = interpret(*F, {}, Mem);
  ASSERT_FALSE(R.Trapped) << R.TrapReason;
  EXPECT_EQ(R.ReturnValue.I, int64_t(K));
  EXPECT_EQ(R.DynOps, N);
  EXPECT_EQ(sum(R), N);
  EXPECT_EQ(opCount(R, Opcode::Mul), K);
  EXPECT_EQ(opCount(R, Opcode::Add), K + 2);
  EXPECT_EQ(R.WeightedCost, N - K + 3 * K + 1); // mul 3, load 2, others 1

  // The fused load's trap points at its own index, far past 65,535.
  MemoryImage NoMem(0);
  R = interpret(*F, {}, NoMem);
  EXPECT_EQ(R.Kind, TrapKind::MemoryOutOfBounds);
  EXPECT_EQ(R.TrapInstIndex, 2 * K + 5);
  EXPECT_EQ(R.DynOps, 2 * K + 6);
  EXPECT_EQ(sum(R), R.DynOps);

  // Fuel runs out inside the block: once on a pair's first half, once on
  // its second (the pair is split at the cut).
  for (uint64_t MaxOps : {70'001u, 70'002u}) {
    SCOPED_TRACE(MaxOps);
    ExecLimits L;
    L.MaxOps = MaxOps;
    ProfileCollector PC;
    R = interpret(*F, {}, Mem, L, &PC);
    EXPECT_EQ(R.Kind, TrapKind::FuelExhausted);
    EXPECT_EQ(R.TrapInstIndex, MaxOps);
    EXPECT_EQ(R.DynOps, MaxOps + 1);
    EXPECT_EQ(sum(R), MaxOps + 1);
    uint64_t Pairs = MaxOps + 1 - 3; // counted instructions past the loadis
    EXPECT_EQ(opCount(R, Opcode::Mul), (Pairs + 1) / 2);
    EXPECT_EQ(opCount(R, Opcode::Add), Pairs / 2);
    FunctionProfile P = PC.finalize(*F);
    ASSERT_EQ(P.Blocks.size(), 1u);
    EXPECT_EQ(P.Blocks[0].DynOps, MaxOps + 1);
    EXPECT_EQ(P.DynOps, MaxOps + 1);
  }
}

TEST(PredecodeTotality, FunctionOver65535Blocks) {
  const unsigned NB = 70'000;
  Function F("chain");
  for (unsigned B = 0; B < NB; ++B)
    F.addBlock();
  for (unsigned B = 0; B + 1 < NB; ++B)
    F.block(B)->Insts.push_back(Instruction::makeBr(B + 1));
  F.block(NB - 1)->Insts.push_back(Instruction::makeRet());
  ASSERT_TRUE(verifyFunction(F).empty());
  Predecoder PD;
  Arena A;
  BytecodeFunction BF;
  ASSERT_TRUE(PD.predecode(F, A, BF));
  EXPECT_EQ(BF.NumBlocks, NB);

  MemoryImage Mem(0);
  ExecResult R = interpret(F, {}, Mem);
  EXPECT_FALSE(R.Trapped);
  EXPECT_EQ(R.DynOps, NB);
  ExecLimits L;
  L.MaxOps = 68'000;
  R = interpret(F, {}, Mem, L);
  EXPECT_EQ(R.Kind, TrapKind::FuelExhausted);
  EXPECT_EQ(R.TrapBlock, "b68000");
  EXPECT_EQ(R.TrapInstIndex, 0u);
  EXPECT_EQ(R.DynOps, 68'001u);
}

TEST(PredecodeTotality, EntryBlockPhisSelectNoEdge) {
  // A back edge makes entry-block phis verifier-legal; the function's own
  // start is no incoming edge of theirs, so the run traps at once.
  Function F("t");
  Reg C = F.addParam(Type::I64);
  Reg D = F.makeReg(Type::I64);
  F.addBlock("entry");
  F.addBlock("again");
  Instruction Phi = Instruction::makePhi(Type::I64, D);
  Phi.addPhiIncoming(C, 1);
  F.entry()->Insts.push_back(Phi);
  F.entry()->Insts.push_back(Instruction::makeCbr(C, 1, 1));
  F.block(1)->Insts.push_back(Instruction::makeBr(0));
  ASSERT_TRUE(verifyFunction(F).empty());
  Predecoder PD;
  Arena A;
  BytecodeFunction BF;
  ASSERT_TRUE(PD.predecode(F, A, BF));
  MemoryImage Mem(0);
  ProfileCollector PC;
  ExecResult R = interpret(F, {RtValue::ofI(1)}, Mem, ExecLimits(), &PC);
  EXPECT_EQ(R.Kind, TrapKind::MissingPhiEntry);
  EXPECT_EQ(R.TrapBlock, "entry");
  EXPECT_EQ(R.TrapInstIndex, 0u);
  EXPECT_EQ(R.DynOps, 0u);
  FunctionProfile P = PC.finalize(F);
  EXPECT_EQ(P.Blocks[0].Count, 1u); // entered, then trapped
}

TEST(PredecodeTotality, F64TypedIntegerOpTraps) {
  // The verifier checks an integer-only op's operands, not its type; an
  // f64-typed `and` evaluates to an arithmetic trap (ir/Eval.h).
  Function F("t");
  Reg A0 = F.addParam(Type::I64);
  Reg D = F.makeReg(Type::F64);
  F.addBlock("entry");
  F.entry()->Insts.push_back(Instruction::makeLoadI(A0, 5));
  F.entry()->Insts.push_back(
      Instruction::makeBinary(Opcode::And, Type::F64, D, A0, A0));
  F.entry()->Insts.push_back(Instruction::makeRet(Type::F64, D));
  ASSERT_TRUE(verifyFunction(F).empty());
  Predecoder PD;
  Arena A;
  BytecodeFunction BF;
  ASSERT_TRUE(PD.predecode(F, A, BF));
  MemoryImage Mem(0);
  ExecResult R = interpret(F, {RtValue::ofI(1)}, Mem);
  EXPECT_EQ(R.Kind, TrapKind::ArithmeticTrap);
  EXPECT_EQ(R.TrapReason,
            "arithmetic trap in and (in @t, block ^entry, inst 1)");
  EXPECT_EQ(R.DynOps, 2u);
  EXPECT_EQ(R.OpCounts[unsigned(Opcode::And)], 1u);
  EXPECT_EQ(R.OpCounts[unsigned(Opcode::Ret)], 0u);
}

} // namespace
