//===- perfbench/src/CompileWorkloads.cpp - suite50 and bigfunc -----------===//
///
/// \file
/// The two compile-latency workloads. One operation is one function taken
/// from its input text to printed optimized ILOC:
///
///  - suite50: Mini-FORTRAN source -> compileMiniFortran -> optimizeFunction
///    -> printFunction, for the 50 suite routines at the four Table-1 levels
///    plus distribution with self-trained speculative PRE (250 operations a
///    round);
///  - bigfunc: ILOC text -> parseModule -> verifyModule -> optimizeFunction
///    at distribution -> printFunction, for three seeded loop chains of 64,
///    128 and 256 loops (3 operations a round).
///
/// Rounds repeat the same operations in a seeded order until the run's
/// time is up. An operation's latency is its fastest round on suite50 (see
/// BestOf) and its median round on bigfunc (see MedianOf): a bigfunc round
/// holds three compiles of 0.1-1.3 s, and over eight runs of the same code
/// the medians spread 0.06-0.13 where the fastest rounds spread 0.10-0.16.
/// After each operation (outside its latency) the optimized function runs
/// on its inputs and must agree with the unoptimized lowering's run. Every
/// printed-IR hash, dynamic operation count, analysis count and (traced)
/// per-pass count must repeat exactly whenever an operation repeats.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "LoopChain.h"

#include "frontend/Lower.h"
#include "instrument/Profile.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "suite/Harness.h"
#include "suite/Suite.h"
#include "support/Hash.h"

#include <cmath>
#include <cstdio>

using namespace epre;

namespace perfbench {
namespace {

/// setup_s is the median of this many set-ups.
constexpr unsigned SetupReps = 9;

struct CompileJob {
  std::string Label; ///< "routine@config", for messages and determinism keys
  std::string FnName;
  std::string Input; ///< Mini-FORTRAN source, or ILOC text when IsILOC
  bool IsILOC = false;
  NamingMode Naming = NamingMode::Naive;
  PipelineOptions Opts;
  const char *PreName = "pre";
  std::string Config; ///< level label of the dyn_ops.<config> metric
  size_t MemBytes = 0;
  ArgMaker MakeArgs;
  std::shared_ptr<const Outcome> Ref;
  double InstsIn = 0; ///< static operations of the lowered input
};

struct CompileSetup {
  std::vector<CompileJob> Jobs;
  std::unique_ptr<ProfileDoc> Training;
};

/// Layer times of one phase, in milliseconds.
struct LayerMs {
  double Frontend = 0, Parse = 0, Verify = 0, Print = 0, Exec = 0;
  uint64_t FrontendInsts = 0, ExecOps = 0;
};

struct PhaseResult {
  unsigned Rounds = 0;
  double WallMs = 0;
  BestOf Latency;   ///< per job, ms
  MedianOf Typical; ///< per job, ms
  std::map<std::string, uint64_t> DynOpsByConfig; ///< one round's worth
  LayerMs Layers;
  std::vector<PassTrace> JobTrace; ///< traced phase only
};

PipelineOptions validated(PipelineOptions Proto, Result &R) {
  Proto.Verify = false; // the debug verifier is not part of a compile
  std::string Err;
  std::optional<PipelineOptions> PO = PipelineOptions::create(Proto, &Err);
  if (!PO) {
    R.broken("inconsistent pipeline options: " + Err);
    return Proto;
  }
  return *PO;
}

const RoutineInfo *routineInfo(const LowerResult &LR, const std::string &N) {
  for (const RoutineInfo &RI : LR.Routines)
    if (RI.Name == N)
      return &RI;
  return nullptr;
}

CompileSetup setupSuite50(Result &R) {
  CompileSetup S;
  S.Training = std::make_unique<ProfileDoc>();
  struct Config {
    const char *Label;
    OptLevel Level;
    bool Speculative;
  };
  const Config Configs[] = {{"baseline", OptLevel::Baseline, false},
                            {"partial", OptLevel::Partial, false},
                            {"reassociation", OptLevel::Reassociation, false},
                            {"distribution", OptLevel::Distribution, false},
                            {"speculative", OptLevel::Distribution, true}};
  for (const Routine &Rt : benchmarkSuite()) {
    // The reference is the unoptimized (OptLevel::None) lowering's run,
    // which also trains the speculative configuration's profile.
    LowerResult Naive = compileMiniFortran(Rt.Source, NamingMode::Naive);
    LowerResult Hashed = compileMiniFortran(Rt.Source, NamingMode::Hashed);
    Function *F = Naive.ok() ? Naive.M->find(Rt.Name) : nullptr;
    Function *FH = Hashed.ok() ? Hashed.M->find(Rt.Name) : nullptr;
    const RoutineInfo *RI = F ? routineInfo(Naive, Rt.Name) : nullptr;
    if (!F || !FH || !RI) {
      R.broken("suite routine " + Rt.Name + " does not lower");
      continue;
    }
    ProfileCollector PC;
    auto Ref = std::make_shared<Outcome>(
        execute(*F, RI->LocalMemBytes, Rt.MakeArgs, {}, &PC));
    S.Training->Profiles.push_back(PC.finalize(*F));

    for (const Config &C : Configs) {
      CompileJob J;
      J.Label = Rt.Name + "@" + C.Label;
      J.FnName = Rt.Name;
      J.Input = Rt.Source;
      J.Naming = namingForLevel(C.Level);
      J.Config = C.Label;
      J.MemBytes = RI->LocalMemBytes;
      J.MakeArgs = Rt.MakeArgs;
      J.Ref = Ref;
      J.InstsIn = double(J.Naming == NamingMode::Hashed
                             ? FH->staticOperationCount()
                             : F->staticOperationCount());
      PipelineOptions P;
      P.Level = C.Level;
      P.Naming = J.Naming == NamingMode::Hashed ? InputNaming::Hashed
                                                : InputNaming::Naive;
      if (C.Speculative) {
        P.Strategy = PREStrategy::Speculative;
        P.ProfileIn = S.Training.get();
        J.PreName = "pre-spec";
      }
      J.Opts = validated(P, R);
      S.Jobs.push_back(std::move(J));
    }
  }
  return S;
}

/// Least-squares slope of log(Y) against log(X) over the positive pairs.
double logLogSlope(const std::vector<double> &X, const std::vector<double> &Y) {
  double SX = 0, SY = 0, SXX = 0, SXY = 0;
  unsigned N = 0;
  for (size_t I = 0; I < X.size() && I < Y.size(); ++I) {
    if (X[I] <= 0 || Y[I] <= 0)
      continue;
    double LX = std::log(X[I]), LY = std::log(Y[I]);
    SX += LX;
    SY += LY;
    SXX += LX * LX;
    SXY += LX * LY;
    ++N;
  }
  double Den = N * SXX - SX * SX;
  return N >= 2 && Den > 0 ? (N * SXY - SX * SY) / Den : 0;
}

/// Loop counts of the bigfunc functions: a 4x range in doublings.
const unsigned BigLoops[] = {64, 128, 256};

CompileSetup setupBigFunc(uint64_t Seed, Result &R) {
  CompileSetup S;
  for (unsigned L : BigLoops) {
    std::string Name = "chain" + std::to_string(L);
    std::string Src = generateLoopChain(Name, L, Seed * 1000003u + L);
    LowerResult LR = compileMiniFortran(Src, NamingMode::Naive);
    Function *F = LR.ok() ? LR.M->find(Name) : nullptr;
    const RoutineInfo *RI = F ? routineInfo(LR, Name) : nullptr;
    if (!F || !RI) {
      R.broken("generated loop chain " + Name + " does not lower: " + LR.Error);
      continue;
    }
    CompileJob J;
    J.Label = Name;
    J.FnName = Name;
    J.Input = printFunction(*F);
    J.IsILOC = true;
    J.Config = "distribution";
    J.MemBytes = RI->LocalMemBytes;
    J.MakeArgs = [](MemoryImage &) {
      return std::vector<RtValue>{RtValue::ofF(1.25), RtValue::ofF(2.5),
                                  RtValue::ofI(40)};
    };
    J.Ref = std::make_shared<Outcome>(execute(*F, J.MemBytes, J.MakeArgs));
    J.InstsIn = double(F->staticOperationCount());
    PipelineOptions P;
    P.Level = OptLevel::Distribution;
    P.Naming = InputNaming::Naive;
    J.Opts = validated(P, R);
    S.Jobs.push_back(std::move(J));
  }
  return S;
}

/// One operation: input text to printed optimized ILOC, then the check.
void runJob(const CompileJob &J, unsigned Round, bool Traced,
            PhaseResult &P, size_t JobIdx, DeterminismCheck &Det, Result &R) {
  LayerMs &L = P.Layers;
  double T0 = nowSec();
  std::unique_ptr<Module> M;
  if (J.IsILOC) {
    ParseResult Parsed = parseModule(J.Input);
    double T1 = nowSec();
    if (Parsed.ok() && verifyModule(*Parsed.M).empty())
      M = std::move(Parsed.M);
    L.Parse += (T1 - T0) * 1e3;
    L.Verify += (nowSec() - T1) * 1e3;
  } else {
    LowerResult LR = compileMiniFortran(J.Input, J.Naming);
    M = std::move(LR.M);
    L.Frontend += (nowSec() - T0) * 1e3;
  }
  Function *F = M ? M->find(J.FnName) : nullptr;
  R.attempt();
  if (!F) {
    R.fail(J.Label + ": input did not parse, verify or lower");
    return;
  }
  if (!J.IsILOC)
    L.FrontendInsts += F->staticOperationCount();

  PipelineStats Stats;
  if (Traced) {
    PassTrace Once;
    Stats = Once.run(*F, J.Opts, J.PreName);
    for (const auto &[Pass, A] : Once.Passes) {
      Det.record(J.Label + "|" + Pass + ".calls", A.Calls, R);
      Det.record(J.Label + "|" + Pass + ".insts_out", A.InstsOut, R);
    }
    P.JobTrace[JobIdx].merge(Once);
  } else {
    Stats = optimizeFunction(*F, J.Opts);
  }
  double T3 = nowSec();
  std::string Out = printFunction(*F);
  double T4 = nowSec();
  L.Print += (T4 - T3) * 1e3;

  P.Latency.record(JobIdx, (T4 - T0) * 1e3);
  P.Typical.record(JobIdx, (T4 - T0) * 1e3);

  Outcome Got = execute(*F, J.MemBytes, J.MakeArgs);
  L.Exec += (nowSec() - T4) * 1e3;
  L.ExecOps += Got.DynOps;
  std::string Diff = compareOutcome(*J.Ref, Got, fpLoose(J.Opts.Level));
  if (!Diff.empty()) {
    R.fail(J.Label + ": " + Diff);
    return;
  }
  if (Round == 0)
    P.DynOpsByConfig[J.Config] += Got.DynOps;
  Det.record(J.Label + "|print_hash", hashString(Out), R);
  Det.record(J.Label + "|dyn_ops", Got.DynOps, R);
  for (const char *A : {"cfg", "domtree", "loops", "ranks"})
    Det.record(J.Label + "|analysis." + A + ".computes",
               Stats.get(std::string("analysis.") + A, "computes"), R);
}

/// Runs whole rounds of every job, in a seeded order per round, until at
/// least \p MinRounds are done and \p Budget seconds have passed (or
/// \p ExactRounds are done, when non-zero).
PhaseResult runPhase(const std::vector<CompileJob> &Jobs, bool Traced,
                     unsigned MinRounds, unsigned ExactRounds, double Budget,
                     uint64_t Seed, DeterminismCheck &Det, Result &R) {
  PhaseResult P;
  if (Traced)
    P.JobTrace.resize(Jobs.size());
  std::vector<size_t> Order(Jobs.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  double Start = nowSec();
  for (unsigned Round = 0;; ++Round) {
    if (ExactRounds ? Round >= ExactRounds
                    : Round >= MinRounds && nowSec() - Start >= Budget)
      break;
    Rng(Seed * 7919 + Round).shuffle(Order);
    for (size_t I : Order)
      runJob(Jobs[I], Round, Traced, P, I, Det, R);
    P.Rounds = Round + 1;
  }
  P.WallMs = (nowSec() - Start) * 1e3;
  return P;
}

int runCompileWorkload(const Args &A, bool Big) {
  Result R(A.Trace);
  std::vector<double> SetupS;
  CompileSetup S;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    double T0 = nowSec();
    S = Big ? setupBigFunc(A.Seed, R) : setupSuite50(R);
    SetupS.push_back(nowSec() - T0);
  }

  DeterminismCheck Det;
  if (!A.Trace) {
    PhaseResult P = runPhase(S.Jobs, false, 2, 0, A.Seconds, A.Seed, Det, R);
    R.set("setup_s", median(SetupS));
    double InstsIn = 0;
    for (const CompileJob &J : S.Jobs)
      InstsIn += J.InstsIn;
    std::vector<double> Ms;
    for (size_t J = 0; J < S.Jobs.size(); ++J)
      Ms.push_back(P.Latency[J]);
    if (Big)
      Ms = P.Typical.medians();
    double SumMs = 0;
    for (double X : Ms)
      SumMs += X;
    R.set("latency_ms_p50", percentile(Ms, 0.5));
    R.set("latency_ms_p99", percentile(Ms, 0.99));
    R.set("throughput_per_s", InstsIn / (SumMs / 1e3));
    R.set("dyn_ops", double(P.DynOpsByConfig["distribution"]));
    R.set("peak_rss_mb", peakRssMb());
    std::string Totals;
    for (const auto &[Config, Ops] : P.DynOpsByConfig)
      Totals += " " + Config + "=" + std::to_string(Ops);
    std::fprintf(stderr, "perfbench: %s: %u rounds, dynamic ops:%s\n",
                 A.Workload.c_str(), P.Rounds, Totals.c_str());
    R.print();
    return R.correct() ? 0 : 1;
  }

  // Traced run: an untraced phase for the overhead reference, then the
  // same rounds again under pass instrumentation.
  PhaseResult U = runPhase(S.Jobs, false, 1, 0, A.Seconds / 2, A.Seed, Det, R);
  PhaseResult T = runPhase(S.Jobs, true, 0, std::max(2u, U.Rounds), 0,
                           A.Seed, Det, R);
  PassTrace All;
  for (const PassTrace &PT : T.JobTrace)
    All.merge(PT);
  All.publish(R);

  const LayerMs &L = T.Layers;
  R.set("frontend.ms", L.Frontend);
  R.set("frontend.insts_out", double(L.FrontendInsts));
  R.set("ir.parse_ms", L.Parse);
  R.set("ir.verify_ms", L.Verify);
  R.set("ir.print_ms", L.Print);
  R.set("interp.exec_ms", L.Exec);
  R.set("interp.ops_per_s",
        L.Exec > 0 ? double(L.ExecOps) / (L.Exec / 1e3) : 0);

  double PassSelf = 0;
  for (const auto &[Name, Agg] : All.Passes)
    PassSelf += Agg.SelfMs;
  double Layers = L.Frontend + L.Parse + L.Verify + PassSelf +
                  All.PipelineResidualMs + L.Print + L.Exec;
  R.set("recon.wall_ms", T.WallMs);
  R.set("recon.layers_ms", Layers);
  R.set("recon.residual_ms", T.WallMs - Layers);
  R.set("recon.residual_share", (T.WallMs - Layers) / T.WallMs);
  double UPerRound = U.WallMs / U.Rounds, TPerRound = T.WallMs / T.Rounds;
  R.set("trace.overhead_ms", (TPerRound - UPerRound) * T.Rounds);
  R.set("trace.overhead_share", (TPerRound - UPerRound) / UPerRound);
  for (const auto &[Config, Ops] : T.DynOpsByConfig)
    R.set("dyn_ops." + Config, double(Ops));

  if (Big) {
    // Scaling record: log-log slope of self time against input size.
    std::vector<double> X, Lat;
    for (size_t J = 0; J < S.Jobs.size(); ++J) {
      X.push_back(S.Jobs[J].InstsIn);
      Lat.push_back(U.Latency[J]);
    }
    R.set("compile.slope", logLogSlope(X, Lat));
    for (const std::string &Pass : tracedPassNames()) {
      std::vector<double> Y;
      for (const PassTrace &PT : T.JobTrace) {
        auto It = PT.Passes.find(Pass);
        Y.push_back(It == PT.Passes.end() ? 0 : It->second.SelfMs);
      }
      R.set("pass." + Pass + ".slope", logLogSlope(X, Y));
    }
  }
  R.set("fail_ratio", R.attempted() ? double(R.failed()) / R.attempted() : 0);
  R.print();
  return R.correct() ? 0 : 1;
}

} // namespace

int runSuite50(const Args &A) { return runCompileWorkload(A, false); }
int runBigFunc(const Args &A) { return runCompileWorkload(A, true); }

} // namespace perfbench
