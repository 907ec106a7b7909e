//===- tests/InterpGolden.h - Interpreter golden cases ----------*- C++ -*-===//
///
/// \file
/// The program set behind the interpreter's golden records
/// (tests/golden/interp.tsv), shared by predecode_test and the
/// interp_golden_gen tool that writes the file. Each case is one
/// (program, fuel budget) pair; its record renders every observable of a
/// run — trap kind and location, return-value bits, memory-image hash,
/// DynOps, WeightedCost, the per-opcode OpCounts, a hash of the finalized
/// profile JSON, and the trap message — on one tab-separated line.
///
/// Every case runs twice, with and without a ProfileCollector; a run whose
/// profile-free observables differ from the profiled ones is rendered with
/// a "!profiled-run-differs" marker, so it can never match a record.
///
/// The programs: the committed corpus, the paper's Fig. 2 routine in both
/// naming modes, 1,000+ fuzz-generated programs over every generator
/// shape, and hand-written programs for every TrapKind and fused-pair
/// position. Fuel sweeps (exact fit, one short, one past, midpoints, tiny
/// budgets) put the fuel-crossing block on the careful path at every
/// boundary.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_TESTS_INTERPGOLDEN_H
#define EPRE_TESTS_INTERPGOLDEN_H

#include "frontend/Lower.h"
#include "fuzz/FuzzGen.h"
#include "fuzz/ModuleOps.h"
#include "instrument/Profile.h"
#include "interp/Interpreter.h"
#include "support/Hash.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace epre::golden {

/// (case id, rendered record) pairs, in file order.
using Records = std::vector<std::pair<std::string, std::string>>;

inline std::string renderObservables(const ExecResult &R,
                                     const MemoryImage &Mem) {
  std::string S = trapKindName(R.Kind);
  S += "\t" + R.TrapFunction + "\t" + R.TrapBlock + "\t" +
       std::to_string(R.TrapInstIndex) + "\t";
  if (!R.HasReturn) {
    S += "-";
  } else if (R.ReturnValue.Ty == Type::I64) {
    S += strprintf("i:%016llx", (unsigned long long)R.ReturnValue.I);
  } else {
    uint64_t Bits;
    std::memcpy(&Bits, &R.ReturnValue.F, 8);
    S += strprintf("f:%016llx", (unsigned long long)Bits);
  }
  S += strprintf("\t%016llx\t%llu\t%llu\t", (unsigned long long)Mem.hash(),
                 (unsigned long long)R.DynOps,
                 (unsigned long long)R.WeightedCost);
  bool First = true;
  for (unsigned Op = 0; Op < R.OpCounts.size(); ++Op) {
    if (!R.OpCounts[Op])
      continue;
    S += First ? "" : ",";
    S += strprintf("%s=%llu", opcodeName(Opcode(Op)),
                   (unsigned long long)R.OpCounts[Op]);
    First = false;
  }
  return S;
}

/// Runs \p F once with a profile collector and once without, and renders
/// the record. The trap message goes last: it is free text.
inline std::string renderCase(const Function &F,
                              const std::vector<RtValue> &Args, size_t MemBytes,
                              uint64_t MaxOps, ExecResult *Out = nullptr) {
  ExecLimits Limits;
  Limits.MaxOps = MaxOps;
  MemoryImage MemP(MemBytes), MemN(MemBytes);
  ProfileCollector PC;
  ExecResult P = interpret(F, Args, MemP, Limits, &PC);
  ExecResult N = interpret(F, Args, MemN, Limits, nullptr);
  std::string Obs = renderObservables(P, MemP);
  std::string S = Obs + "\t";
  // An argument mismatch returns before the collector is reset against F:
  // there is no profile to finalize.
  if (P.Kind == TrapKind::ArgumentMismatch) {
    S += "-";
  } else {
    ProfileDoc D;
    D.Profiles.push_back(PC.finalize(F));
    S += strprintf("%016llx", (unsigned long long)hashString(
                                  D.toJSON(/*IncludeBlocks=*/true)));
  }
  S += "\t" + P.TrapReason;
  if (renderObservables(N, MemN) != Obs || N.TrapReason != P.TrapReason)
    S += "\t!profiled-run-differs";
  if (Out)
    *Out = P;
  return S;
}

/// Adds the case \p Id@MaxOps to \p Rs; returns the profiled run.
inline ExecResult addCase(Records &Rs, const std::string &Id, const Function &F,
                          const std::vector<RtValue> &Args, size_t MemBytes,
                          uint64_t MaxOps) {
  ExecResult R;
  std::string Line = renderCase(F, Args, MemBytes, MaxOps, &R);
  Rs.push_back({Id + "@" + std::to_string(MaxOps), std::move(Line)});
  return R;
}

/// Fuel sweep around and below the program's clean-run operation count:
/// exact fit, one past, one short (trap on the last instruction),
/// midpoints and tiny budgets. Duplicate budgets are dropped.
inline void addFuelSweep(Records &Rs, const std::string &Id, const Function &F,
                         const std::vector<RtValue> &Args, size_t MemBytes,
                         uint64_t CleanDynOps) {
  std::vector<uint64_t> Budgets = {CleanDynOps, CleanDynOps + 1, 1, 2, 3};
  if (CleanDynOps > 0)
    Budgets.push_back(CleanDynOps - 1);
  if (CleanDynOps > 2)
    Budgets.push_back(CleanDynOps / 2);
  if (CleanDynOps > 4)
    Budgets.push_back(CleanDynOps / 4 + 1);
  std::vector<uint64_t> Seen;
  for (uint64_t B : Budgets) {
    if (std::find(Seen.begin(), Seen.end(), B) != Seen.end())
      continue;
    Seen.push_back(B);
    addCase(Rs, Id, F, Args, MemBytes, B);
  }
}

/// Deterministic arguments for a corpus function: alternating-sign
/// integers and a scaled float sequence.
inline std::vector<RtValue> defaultArgs(const Function &F) {
  std::vector<RtValue> Args;
  int64_t NextI = 7;
  double NextF = 1.5;
  for (Reg R : F.params()) {
    if (F.regType(R) == Type::I64) {
      Args.push_back(RtValue::ofI(NextI));
      NextI = -NextI + 5;
    } else {
      Args.push_back(RtValue::ofF(NextF));
      NextF = NextF * -1.75 + 0.5;
    }
  }
  return Args;
}

/// Every function of every committed corpus file: a clean run and a sweep.
inline Records corpusRecords(const std::string &CorpusDir) {
  std::vector<std::string> Files;
  for (const auto &Ent : std::filesystem::directory_iterator(CorpusDir))
    if (Ent.path().extension() == ".iloc")
      Files.push_back(Ent.path().string());
  std::sort(Files.begin(), Files.end());
  Records Rs;
  for (const std::string &Path : Files) {
    std::ifstream In(Path);
    std::stringstream SS;
    SS << In.rdbuf();
    std::unique_ptr<Module> M = fuzz::parseModuleText(SS.str());
    if (!M)
      continue;
    std::string Base = std::filesystem::path(Path).filename().string();
    for (auto &FP : M->Functions) {
      std::string Id = "corpus/" + Base + "/" + FP->name();
      std::vector<RtValue> Args = defaultArgs(*FP);
      ExecResult Clean = addCase(Rs, Id, *FP, Args, 4096, 1'000'000);
      addFuelSweep(Rs, Id, *FP, Args, 4096, Clean.DynOps);
    }
  }
  return Rs;
}

/// The paper's Fig. 2 routine, lowered under both naming disciplines.
inline Records fig2Records() {
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
  Records Rs;
  for (NamingMode Mode : {NamingMode::Naive, NamingMode::Hashed}) {
    LowerResult LR = compileMiniFortran(FooSource, Mode);
    Function *F = LR.ok() ? LR.M->find("foo") : nullptr;
    if (!F)
      continue;
    std::string Id =
        std::string("fig2/") + (Mode == NamingMode::Naive ? "naive" : "hashed");
    std::vector<RtValue> Args = {RtValue::ofF(1.0), RtValue::ofF(2.0)};
    ExecResult Clean = addCase(Rs, Id, *F, Args, 0, 1'000'000);
    addFuelSweep(Rs, Id, *F, Args, 0, Clean.DynOps);
  }
  return Rs;
}

/// >= 1000 generated programs across every generator shape; every 8th one
/// also gets the full fuel sweep.
inline Records fuzzRecords() {
  std::vector<std::string> Shapes = fuzz::generatorShapeNames();
  Records Rs;
  if (Shapes.empty())
    return Rs;
  unsigned PerShape =
      (1000 + unsigned(Shapes.size()) - 1) / unsigned(Shapes.size());
  for (const std::string &Shape : Shapes) {
    fuzz::GeneratorOptions Opts;
    if (!fuzz::shapeOptions(Shape, Opts))
      continue;
    for (unsigned Seed = 0; Seed < PerShape; ++Seed) {
      fuzz::FuzzProgram Prog = fuzz::generateProgram(1000 + Seed, Opts, Shape);
      std::unique_ptr<Module> M = fuzz::parseModuleText(Prog.Text);
      if (!M)
        continue;
      std::string Id = "fuzz/" + Shape + "/" + std::to_string(Seed);
      const Function &F = *M->Functions[0];
      ExecResult Clean =
          addCase(Rs, Id, F, Prog.Args, Prog.MemBytes, 2'000'000);
      if (Seed % 8 == 0)
        addFuelSweep(Rs, Id, F, Prog.Args, Prog.MemBytes, Clean.DynOps);
    }
  }
  return Rs;
}

/// A hand-written trap program: one run at a generous budget plus the
/// sweep around its trapping operation count.
struct TrapProgram {
  const char *Name;
  const char *Text;
  std::vector<RtValue> Args;
  size_t MemBytes;
};

inline std::vector<TrapProgram> trapPrograms() {
  return {
      {"load-oob", R"(func @t(%r1:i64) -> i64 {
^entry:
  %r2:i64 = loadi 4096
  %r3:i64 = add %r1, %r2
  %r4:i64 = load %r3
  ret %r4
})",
       {RtValue::ofI(100)}, 64},
      // The add+load pair fuses; the trap must still attribute to the
      // load's original instruction index with exact counts.
      {"fused-add-load-oob", R"(func @t(%r1:i64) -> i64 {
^entry:
  %r2:i64 = loadi 8
  %r3:i64 = add %r1, %r2
  %r4:i64 = load %r3
  ret %r4
})",
       {RtValue::ofI(1 << 20)}, 64},
      {"store-oob", R"(func @t(%r1:i64) -> i64 {
^entry:
  store %r1 -> %r1
  ret %r1
})",
       {RtValue::ofI(-8)}, 64},
      {"div-by-zero", R"(func @t(%r1:i64) -> i64 {
^entry:
  %r2:i64 = loadi 0
  %r3:i64 = div %r1, %r2
  ret %r3
})",
       {RtValue::ofI(5)}, 0},
      {"mod-by-zero", R"(func @t(%r1:i64) -> i64 {
^entry:
  %r2:i64 = loadi 0
  %r3:i64 = mod %r1, %r2
  ret %r3
})",
       {RtValue::ofI(5)}, 0},
      // INT64_MIN / -1 also traps.
      {"div-overflow", R"(func @t(%r1:i64, %r2:i64) -> i64 {
^entry:
  %r3:i64 = div %r1, %r2
  ret %r3
})",
       {RtValue::ofI(INT64_MIN), RtValue::ofI(-1)}, 0},
      {"f2i-out-of-range", R"(func @t(%r1:f64) -> i64 {
^entry:
  %r2:i64 = f2i %r1
  ret %r2
})",
       {RtValue::ofF(1e300)}, 0},
      {"int-abs-min", R"(func @t(%r1:i64) -> i64 {
^entry:
  %r2:i64 = call abs(%r1)
  ret %r2
})",
       {RtValue::ofI(INT64_MIN)}, 0},
  };
}

inline Records trapRecords() {
  Records Rs;
  for (const TrapProgram &TP : trapPrograms()) {
    std::unique_ptr<Module> M = fuzz::parseModuleText(TP.Text);
    if (!M)
      continue;
    std::string Id = std::string("trap/") + TP.Name;
    const Function &F = *M->Functions[0];
    ExecResult R = addCase(Rs, Id, F, TP.Args, TP.MemBytes, 100'000);
    addFuelSweep(Rs, Id, F, TP.Args, TP.MemBytes, R.DynOps);
  }
  return Rs;
}

/// `entry: br ^gone` where ^gone has been erased.
inline std::unique_ptr<Function> erasedBlockFunction() {
  auto F = std::make_unique<Function>("t");
  F->addParam(Type::I64);
  F->addBlock("entry");
  F->addBlock("gone");
  F->entry()->Insts.push_back(Instruction::makeBr(1));
  F->block(1)->Insts.push_back(Instruction::makeRet());
  F->eraseBlock(1);
  return F;
}

/// A join whose phi has an entry for itself but not for the entry block.
inline std::unique_ptr<Function> missingPhiFunction() {
  auto F = std::make_unique<Function>("t");
  Reg P = F->addParam(Type::I64);
  Reg D = F->makeReg(Type::I64);
  F->addBlock("entry");
  F->addBlock("join");
  F->entry()->Insts.push_back(Instruction::makeBr(1));
  Instruction Phi = Instruction::makePhi(Type::I64, D);
  Phi.addPhiIncoming(P, 1); // entry for block 1, but we arrive from block 0
  F->block(1)->Insts.push_back(Phi);
  F->block(1)->Insts.push_back(Instruction::makeRet(Type::I64, D));
  return F;
}

inline const char *fusedPairsText() {
  return R"(func @t(%r1:i64, %r2:i64) -> i64 {
^entry:
  %r3:i64 = mul %r1, %r2
  %r4:i64 = add %r3, %r1
  %r5:i64 = cmpgt %r4, %r2
  cbr %r5, ^a, ^b
^a:
  ret %r4
^b:
  ret %r2
})";
}

inline const char *loadImmRetText() {
  return R"(func @t() -> i64 {
^entry:
  %r1:i64 = loadi 42
  ret %r1
})";
}

inline const char *retParamText() {
  return R"(func @t(%r1:i64) -> i64 {
^entry:
  ret %r1
})";
}

/// Structural traps, argument checks, fuel boundaries and fused pairs.
inline Records shapeRecords() {
  Records Rs;
  {
    std::unique_ptr<Function> F = erasedBlockFunction();
    addCase(Rs, "shape/erased-block", *F, {RtValue::ofI(0)}, 0, 1000);
    addFuelSweep(Rs, "shape/erased-block", *F, {RtValue::ofI(0)}, 0, 1);
  }
  {
    std::unique_ptr<Function> F = missingPhiFunction();
    addCase(Rs, "shape/missing-phi", *F, {RtValue::ofI(3)}, 0, 1000);
    addFuelSweep(Rs, "shape/missing-phi", *F, {RtValue::ofI(3)}, 0, 1);
  }
  if (std::unique_ptr<Module> M = fuzz::parseModuleText(retParamText())) {
    const Function &F = *M->Functions[0];
    addCase(Rs, "shape/arg-count", F, {}, 0, 1000);
    addCase(Rs, "shape/arg-type", F, {RtValue::ofF(1.0)}, 0, 1000);
  }
  if (std::unique_ptr<Module> M = fuzz::parseModuleText(loadImmRetText()))
    for (uint64_t B : {1u, 2u, 3u})
      addCase(Rs, "shape/fuel-exact", *M->Functions[0], {}, 0, B);
  if (std::unique_ptr<Module> M = fuzz::parseModuleText(fusedPairsText())) {
    const Function &F = *M->Functions[0];
    for (int64_t A : {6, -6}) {
      std::string Id = "shape/fused-pairs/" + std::to_string(A);
      std::vector<RtValue> Args = {RtValue::ofI(A), RtValue::ofI(7)};
      ExecResult R = addCase(Rs, Id, F, Args, 0, 1000);
      addFuelSweep(Rs, Id, F, Args, 0, R.DynOps);
    }
  }
  if (std::unique_ptr<Module> M = fuzz::parseModuleText(trapPrograms()[1].Text))
    addCase(Rs, "shape/fused-add-load-in-bounds", *M->Functions[0],
            {RtValue::ofI(0)}, 64, 1000);
  return Rs;
}

/// Every group, in file order.
inline Records allRecords(const std::string &CorpusDir) {
  Records All;
  for (Records Rs : {corpusRecords(CorpusDir), fig2Records(), fuzzRecords(),
                     trapRecords(), shapeRecords()})
    for (auto &R : Rs)
      All.push_back(std::move(R));
  return All;
}

} // namespace epre::golden

#endif // EPRE_TESTS_INTERPGOLDEN_H
