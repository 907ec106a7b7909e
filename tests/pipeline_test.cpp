//===- tests/pipeline_test.cpp - Pipeline configuration matrix ------------===//
///
/// Integration tests of pipeline options that the smoke/suite tests don't
/// cover: strategy and FP-reassociation knobs, verification toggles, level
/// monotonicity on a hoisting-friendly workload, module-level driving,
/// stability (optimizing twice changes nothing the second time), and the
/// pass table that the levels and `epre-opt -passes=` share.
///
//===----------------------------------------------------------------------===//

#include "frontend/Lower.h"
#include "interp/Interpreter.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "pipeline/Pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace epre;

namespace {

const char *Workload = R"(
function work(a, b, n)
  integer n
  real w(32)
  do i = 1, n
    w(i) = (a + b) * i + (a + b)
  end do
  s = 0.0
  do i = 1, n
    s = s + w(i) * (a - b)
  end do
  return s
end
)";

struct RunOut {
  double Value = 0;
  uint64_t Ops = 0;
  bool Ok = false;
};

RunOut runWith(const PipelineOptions &PO) {
  NamingMode NM = PO.Level == OptLevel::Partial ? NamingMode::Hashed
                                                : NamingMode::Naive;
  LowerResult LR = compileMiniFortran(Workload, NM);
  EXPECT_TRUE(LR.ok()) << LR.Error;
  RunOut R;
  if (!LR.ok())
    return R;
  Function &F = *LR.M->find("work");
  PipelineOptions Opts = PO;
  optimizeFunction(F, Opts);
  MemoryImage Mem(LR.Routines[0].LocalMemBytes);
  ExecResult E = interpret(
      F, {RtValue::ofF(1.5), RtValue::ofF(0.25), RtValue::ofI(32)}, Mem);
  EXPECT_FALSE(E.Trapped) << E.TrapReason;
  R.Ok = !E.Trapped;
  R.Value = E.ReturnValue.F;
  R.Ops = E.DynOps;
  return R;
}

TEST(Pipeline, LevelsMonotoneOnHoistingWorkload) {
  PipelineOptions PO;
  PO.Level = OptLevel::None;
  RunOut None = runWith(PO);
  PO.Level = OptLevel::Baseline;
  RunOut Base = runWith(PO);
  PO.Level = OptLevel::Partial;
  RunOut Part = runWith(PO);
  PO.Level = OptLevel::Distribution;
  RunOut Dist = runWith(PO);
  ASSERT_TRUE(None.Ok && Base.Ok && Part.Ok && Dist.Ok);
  EXPECT_LE(Base.Ops, None.Ops);
  EXPECT_LT(Part.Ops, Base.Ops);
  EXPECT_LT(Dist.Ops, Part.Ops);
  EXPECT_NEAR(None.Value, Dist.Value, 1e-9 * (1 + std::abs(None.Value)));
}

TEST(Pipeline, StrategiesAllCorrect) {
  for (PREStrategy S : {PREStrategy::LazyCodeMotion,
                        PREStrategy::MorelRenvoise, PREStrategy::GlobalCSE}) {
    PipelineOptions PO;
    PO.Level = OptLevel::Distribution;
    PO.Strategy = S;
    RunOut R = runWith(PO);
    ASSERT_TRUE(R.Ok);
    PipelineOptions Ref;
    Ref.Level = OptLevel::None;
    EXPECT_NEAR(R.Value, runWith(Ref).Value, 1e-9);
  }
}

TEST(Pipeline, NoFPReassocStillSound) {
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  PO.AllowFPReassoc = false;
  RunOut R = runWith(PO);
  ASSERT_TRUE(R.Ok);
  PipelineOptions Ref;
  Ref.Level = OptLevel::None;
  // Without FP reassociation the result must be BIT-exact.
  EXPECT_EQ(R.Value, runWith(Ref).Value);
}

TEST(Pipeline, VerifyOffStillWorks) {
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  PO.Verify = false;
  RunOut R = runWith(PO);
  EXPECT_TRUE(R.Ok);
}

TEST(Pipeline, OptimizeModuleCoversAllFunctions) {
  const char *Two = R"(
function f1(a)
  return a + a
end

function f2(a)
  return a * a
end
)";
  LowerResult LR = compileMiniFortran(Two, NamingMode::Naive);
  ASSERT_TRUE(LR.ok()) << LR.Error;
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  std::vector<PipelineStats> Stats = optimizeModule(*LR.M, PO);
  EXPECT_EQ(Stats.size(), 2u);
  MemoryImage Mem(0);
  EXPECT_EQ(interpret(*LR.M->find("f1"), {RtValue::ofF(3.0)}, Mem)
                .ReturnValue.F,
            6.0);
  EXPECT_EQ(interpret(*LR.M->find("f2"), {RtValue::ofF(3.0)}, Mem)
                .ReturnValue.F,
            9.0);
}

TEST(Pipeline, Idempotent) {
  // Running the strongest level twice must not change behaviour, and the
  // second run must not blow the code back up.
  LowerResult LR = compileMiniFortran(Workload, NamingMode::Naive);
  ASSERT_TRUE(LR.ok());
  Function &F = *LR.M->find("work");
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  optimizeFunction(F, PO);
  unsigned OpsAfterFirst = F.staticOperationCount();
  optimizeFunction(F, PO);
  unsigned OpsAfterSecond = F.staticOperationCount();
  EXPECT_LE(OpsAfterSecond, OpsAfterFirst + OpsAfterFirst / 4);
  MemoryImage Mem(LR.Routines[0].LocalMemBytes);
  ExecResult E = interpret(
      F, {RtValue::ofF(1.5), RtValue::ofF(0.25), RtValue::ofI(32)}, Mem);
  EXPECT_FALSE(E.Trapped) << E.TrapReason;
}

TEST(Pipeline, StatsArePopulated) {
  LowerResult LR = compileMiniFortran(Workload, NamingMode::Naive);
  ASSERT_TRUE(LR.ok());
  Function &F = *LR.M->find("work");
  PipelineOptions PO;
  PO.Level = OptLevel::Distribution;
  PipelineStats S = optimizeFunction(F, PO);
  EXPECT_GT(S.opsBefore(), 0u);
  EXPECT_GT(S.opsAfter(), 0u);
  EXPECT_GT(S.phisRemoved(), 0u);
  EXPECT_GT(S.gvnClasses(), 0u);
  EXPECT_GT(S.preUniverse(), 0u);
  EXPECT_GT(S.preDeleted(), 0u);
}

TEST(Pipeline, InvertedComparisonNormalized) {
  // .not. (i .lt. n) must become i .ge. n (one op, not cmp+xor).
  const char *Src = R"(
function inv(i, n)
  integer i, n, inv
  if (.not. (i .lt. n)) then
    inv = 1
  else
    inv = 0
  end if
  return
end
)";
  LowerResult LR = compileMiniFortran(Src, NamingMode::Naive);
  ASSERT_TRUE(LR.ok()) << LR.Error;
  Function &F = *LR.M->find("inv");
  PipelineOptions PO;
  PO.Level = OptLevel::Baseline;
  optimizeFunction(F, PO);
  unsigned Xors = 0, Cmps = 0;
  F.forEachBlock([&](const BasicBlock &B) {
    for (const Instruction &I : B.Insts) {
      Xors += I.Op == Opcode::Xor;
      Cmps += isComparison(I.Op);
    }
  });
  EXPECT_EQ(Xors, 0u) << printFunction(F);
  EXPECT_EQ(Cmps, 1u);
  MemoryImage Mem(0);
  EXPECT_EQ(interpret(F, {RtValue::ofI(5), RtValue::ofI(3)}, Mem)
                .ReturnValue.I,
            1);
  EXPECT_EQ(interpret(F, {RtValue::ofI(2), RtValue::ofI(3)}, Mem)
                .ReturnValue.I,
            0);
}


std::unique_ptr<Module> parseOrFail(const std::string &Text) {
  ParseResult R = parseModule(Text);
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.M);
}

/// Replaying the full trace of a level through PassRunner::run, the entry
/// `epre-opt -passes=` calls, must print the same IR as optimizeFunction:
/// every corpus function, level, GVN engine and non-speculative PRE
/// strategy. Verification stays on, so every application is also checked
/// in its table entry's verifier mode.
TEST(PassTable, TraceReplayMatchesOptimizeFunction) {
  std::vector<std::string> Files;
  for (const auto &E : std::filesystem::directory_iterator(EPRE_CORPUS_DIR))
    if (E.path().extension() == ".iloc")
      Files.push_back(E.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());

  for (const std::string &Path : Files) {
    std::ifstream In(Path);
    std::stringstream Buf;
    Buf << In.rdbuf();
    const std::string Text = Buf.str();
    std::unique_ptr<Module> Probe = parseOrFail(Text);
    ASSERT_TRUE(Probe) << Path;
    for (OptLevel L : {OptLevel::None, OptLevel::Baseline, OptLevel::Partial,
                       OptLevel::Reassociation, OptLevel::Distribution})
      for (GVNEngine E : AllGVNEngines)
        for (PREStrategy S :
             {PREStrategy::LazyCodeMotion, PREStrategy::MorelRenvoise,
              PREStrategy::GlobalCSE}) {
          PipelineOptions PO;
          PO.Level = L;
          PO.Engine = E;
          PO.Strategy = S;
          std::string Config = Path + " " + optLevelName(L) + "/" +
                               gvnEngineName(E) + "/" + preStrategyName(S);
          for (size_t I = 0; I < Probe->Functions.size(); ++I) {
            std::unique_ptr<Module> Want = parseOrFail(Text);
            optimizeFunction(*Want->Functions[I], PO);

            std::unique_ptr<Module> Traced = parseOrFail(Text);
            std::vector<std::string> Trace =
                optimizeFunctionPrefix(*Traced->Functions[I], PO, ~0u).Trace;
            EXPECT_EQ(L == OptLevel::None, Trace.empty()) << Config;

            std::unique_ptr<Module> Got = parseOrFail(Text);
            StatsRegistry SR;
            PassContext Ctx(&SR);
            PassRunner Runner(*Got->Functions[I], PO, Ctx);
            for (const std::string &Name : Trace)
              ASSERT_EQ(Runner.run(Name), "") << Config;
            EXPECT_EQ(printFunction(*Got->Functions[I]),
                      printFunction(*Want->Functions[I]))
                << Config;
          }
        }
  }
}

TEST(PassTable, RefusesUnknownNamesAndPassesWithoutRanks) {
  std::unique_ptr<Module> M = parseOrFail(R"(
func @f(%a:i64, %b:i64) -> i64 {
^e:
  %x:i64 = sub %a, %b
  ret %x
}
)");
  ASSERT_TRUE(M);
  Function &F = *M->Functions[0];
  std::string Before = printFunction(F);
  PipelineOptions PO;
  PassContext Ctx;
  PassRunner Runner(F, PO, Ctx);

  // The old filter spellings are gone; the error lists the valid names.
  std::string Err = Runner.run("constprop");
  EXPECT_NE(Err.find("unknown pass 'constprop'"), std::string::npos) << Err;
  EXPECT_NE(Err.find("unreachable-elim"), std::string::npos) << Err;
  EXPECT_NE(Runner.run("verify"), "");

  // The reassociation passes extend the ranks ssa.build creates.
  EXPECT_NE(Runner.run("negnorm"), "");
  EXPECT_EQ(printFunction(F), Before);
  EXPECT_EQ(Runner.run("ssa.build"), "");
  EXPECT_EQ(Runner.run("negnorm"), "");
  EXPECT_EQ(Runner.run("reassoc"), "");
}

} // namespace
