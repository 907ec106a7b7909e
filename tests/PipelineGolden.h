//===- tests/PipelineGolden.h - Optimized-IR golden cases -------*- C++ -*-===//
///
/// \file
/// The case set behind the optimized-IR golden records
/// (tests/golden/pipeline_ir.tsv), shared by pipeline_golden_test and the
/// pipeline_golden_gen tool that writes the file. Each case is one
/// (program, level, GVN engine, PRE strategy) combination; its record is
/// the FNV-1a hash of the printed function after optimizeFunction.
///
/// The programs: the 50 suite routines, every function of the committed
/// corpus, 200 fuzz-generated programs over every generator shape, and
/// loop chains of 16 and 64 loop nests (the bench_pass_timing shape). The
/// engine only matters where GVN runs (the reassociation levels) and the
/// strategy only where PRE runs; elsewhere the case id carries "-".
/// Speculative PRE trains on a profiled run of the unoptimized program on
/// the program's own inputs.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_TESTS_PIPELINEGOLDEN_H
#define EPRE_TESTS_PIPELINEGOLDEN_H

#include "frontend/Lower.h"
#include "fuzz/FuzzGen.h"
#include "fuzz/ModuleOps.h"
#include "instrument/Profile.h"
#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"
#include "pipeline/Pipeline.h"
#include "suite/Suite.h"
#include "support/Hash.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace epre::pipeline_golden {

/// (case id, rendered record) pairs, in file order.
using Records = std::vector<std::pair<std::string, std::string>>;

/// The bench_pass_timing loop-chain routine: \p NumLoops sequential loop
/// nests with array addressing and shared invariant subexpressions.
inline std::string loopChainSource(unsigned NumLoops) {
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

/// A program under test: a builder producing a fresh module for a level
/// (front-end programs lower with the level's naming discipline) and its
/// run inputs, used to train speculative PRE.
struct Program {
  std::string Id;
  std::string FnName;
  std::function<std::unique_ptr<Module>(OptLevel)> Build;
  std::function<std::vector<RtValue>(MemoryImage &)> MakeArgs;
  size_t MemBytes = 0;
};

/// One pipeline configuration of the case grid.
struct Config {
  OptLevel Level;
  bool HasEngine;
  GVNEngine Engine;
  bool HasStrategy;
  PREStrategy Strategy;

  std::string id() const {
    return std::string(optLevelName(Level)) + "/" +
           (HasEngine ? gvnEngineName(Engine) : "-") + "/" +
           (HasStrategy ? preStrategyName(Strategy) : "-");
  }
};

/// None and Baseline once each; Partial per PRE strategy; the two
/// reassociation levels per (engine, strategy).
inline std::vector<Config> configs() {
  const PREStrategy Strategies[] = {
      PREStrategy::LazyCodeMotion, PREStrategy::MorelRenvoise,
      PREStrategy::GlobalCSE, PREStrategy::Speculative};
  std::vector<Config> Cs;
  Cs.push_back({OptLevel::None, false, GVNEngine::AWZ, false,
                PREStrategy::LazyCodeMotion});
  Cs.push_back({OptLevel::Baseline, false, GVNEngine::AWZ, false,
                PREStrategy::LazyCodeMotion});
  for (PREStrategy S : Strategies)
    Cs.push_back({OptLevel::Partial, false, GVNEngine::AWZ, true, S});
  for (OptLevel L : {OptLevel::Reassociation, OptLevel::Distribution})
    for (GVNEngine E : AllGVNEngines)
      for (PREStrategy S : Strategies)
        Cs.push_back({L, true, E, true, S});
  return Cs;
}

inline NamingMode namingFor(OptLevel L) {
  return L == OptLevel::Partial ? NamingMode::Hashed : NamingMode::Naive;
}

/// Optimizes a fresh copy of \p P under \p C; returns the hex FNV-1a hash
/// of the printed function, or an "error: ..." record.
inline std::string renderCase(const Program &P, const Config &C) {
  std::unique_ptr<Module> M = P.Build(C.Level);
  Function *F = M ? M->find(P.FnName) : nullptr;
  if (!F)
    return "error: program did not build";
  PipelineOptions Proto;
  Proto.Level = C.Level;
  Proto.Engine = C.Engine;
  Proto.Strategy = C.Strategy;
  Proto.Naming = namingFor(C.Level) == NamingMode::Hashed
                     ? InputNaming::Hashed
                     : InputNaming::Naive;
  ProfileDoc Training;
  if (C.HasStrategy && C.Strategy == PREStrategy::Speculative) {
    MemoryImage Mem(P.MemBytes);
    std::vector<RtValue> Args = P.MakeArgs(Mem);
    ExecLimits Limits;
    Limits.MaxOps = 2'000'000;
    ProfileCollector PC;
    interpret(*F, Args, Mem, Limits, &PC);
    Training.Profiles.push_back(PC.finalize(*F));
    Proto.ProfileIn = &Training;
  }
  std::string Err;
  std::optional<PipelineOptions> PO = PipelineOptions::create(Proto, &Err);
  if (!PO)
    return "error: " + Err;
  optimizeFunction(*F, *PO);
  return strprintf("%016llx",
                   (unsigned long long)hashString(printFunction(*F)));
}

/// A front-end program: routine \p Name of MiniFortran \p Source.
inline Program frontEndProgram(
    std::string Id, std::string Name, std::string Source,
    std::function<std::vector<RtValue>(MemoryImage &)> MakeArgs) {
  Program P;
  P.Id = std::move(Id);
  P.FnName = Name;
  LowerResult Probe = compileMiniFortran(Source, NamingMode::Naive);
  for (const RoutineInfo &RI : Probe.Routines)
    if (RI.Name == Name)
      P.MemBytes = RI.LocalMemBytes;
  P.Build = [Source](OptLevel L) {
    LowerResult LR = compileMiniFortran(Source, namingFor(L));
    return LR.ok() ? std::move(LR.M) : nullptr;
  };
  P.MakeArgs = std::move(MakeArgs);
  return P;
}

/// An ILOC program: function \p Name of module text \p Text.
inline Program ilocProgram(std::string Id, std::string Name, std::string Text,
                           std::vector<RtValue> Args, size_t MemBytes) {
  Program P;
  P.Id = std::move(Id);
  P.FnName = std::move(Name);
  P.MemBytes = MemBytes;
  P.Build = [Text](OptLevel) { return fuzz::parseModuleText(Text); };
  P.MakeArgs = [Args](MemoryImage &) { return Args; };
  return P;
}

/// The 50 suite routines.
inline std::vector<Program> suitePrograms() {
  std::vector<Program> Ps;
  for (const Routine &R : benchmarkSuite())
    Ps.push_back(
        frontEndProgram("suite/" + R.Name, R.Name, R.Source, R.MakeArgs));
  return Ps;
}

/// Deterministic arguments for a corpus function: alternating-sign
/// integers and a scaled float sequence.
inline std::vector<RtValue> corpusArgs(const Function &F) {
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

/// Every function of every committed corpus file.
inline std::vector<Program> corpusPrograms(const std::string &CorpusDir) {
  std::vector<std::string> Files;
  for (const auto &Ent : std::filesystem::directory_iterator(CorpusDir))
    if (Ent.path().extension() == ".iloc")
      Files.push_back(Ent.path().string());
  std::sort(Files.begin(), Files.end());
  std::vector<Program> Ps;
  for (const std::string &Path : Files) {
    std::ifstream In(Path);
    std::stringstream SS;
    SS << In.rdbuf();
    std::unique_ptr<Module> M = fuzz::parseModuleText(SS.str());
    if (!M)
      continue;
    std::string Base = std::filesystem::path(Path).filename().string();
    for (auto &FP : M->Functions)
      Ps.push_back(ilocProgram("corpus/" + Base + "/" + FP->name(),
                               FP->name(), SS.str(), corpusArgs(*FP), 4096));
  }
  return Ps;
}

/// 200 generated programs, spread round-robin over the generator shapes.
inline std::vector<Program> fuzzPrograms() {
  std::vector<std::string> Shapes = fuzz::generatorShapeNames();
  std::vector<Program> Ps;
  for (unsigned Seed = 0; Seed < 200 && !Shapes.empty(); ++Seed) {
    const std::string &Shape = Shapes[Seed % Shapes.size()];
    fuzz::GeneratorOptions Opts;
    if (!fuzz::shapeOptions(Shape, Opts))
      continue;
    fuzz::FuzzProgram Prog = fuzz::generateProgram(5000 + Seed, Opts, Shape);
    std::unique_ptr<Module> M = fuzz::parseModuleText(Prog.Text);
    if (!M)
      continue;
    Ps.push_back(ilocProgram("fuzz/" + Shape + "/" + std::to_string(Seed),
                             M->Functions[0]->name(), Prog.Text, Prog.Args,
                             Prog.MemBytes));
  }
  return Ps;
}

/// Loop chains of 16 and 64 loop nests.
inline std::vector<Program> loopChainPrograms() {
  std::vector<Program> Ps;
  for (unsigned Loops : {16u, 64u})
    Ps.push_back(frontEndProgram(
        "chain/" + std::to_string(Loops), "gen", loopChainSource(Loops),
        [](MemoryImage &) {
          return std::vector<RtValue>{RtValue::ofF(1.5), RtValue::ofF(2.5),
                                      RtValue::ofI(6)};
        }));
  return Ps;
}

/// Every program, in file order.
inline std::vector<Program> allPrograms(const std::string &CorpusDir) {
  std::vector<Program> All;
  for (std::vector<Program> Ps : {suitePrograms(), corpusPrograms(CorpusDir),
                                  fuzzPrograms(), loopChainPrograms()})
    for (Program &P : Ps)
      All.push_back(std::move(P));
  return All;
}

/// The case ids of \p Ps, without optimizing anything.
inline std::vector<std::string> caseIds(const std::vector<Program> &Ps) {
  std::vector<std::string> Ids;
  for (const Program &P : Ps)
    for (const Config &C : configs())
      Ids.push_back(P.Id + "/" + C.id());
  return Ids;
}

/// The records of \p Ps, in file order.
inline Records records(const std::vector<Program> &Ps) {
  Records Rs;
  for (const Program &P : Ps)
    for (const Config &C : configs())
      Rs.push_back({P.Id + "/" + C.id(), renderCase(P, C)});
  return Rs;
}

} // namespace epre::pipeline_golden

#endif // EPRE_TESTS_PIPELINEGOLDEN_H
