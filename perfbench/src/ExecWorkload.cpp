//===- perfbench/src/ExecWorkload.cpp - exec: the interpreter -------------===//
///
/// \file
/// The suite routines, optimized once at distribution in setup, run many
/// times through interpret(). A round is a fixed, stratified mix — every
/// routine 20 times: 14 plain runs, 4 runs with the profile collector on,
/// and 2 runs under a fuel limit that must end in a FuelExhausted trap (the
/// careful path) — in a seeded order with seeded fuel limits. One
/// operation is one interpret() call; its latency excludes building the
/// arguments and checking the result, and is its fastest round (BestOf).
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "frontend/Lower.h"
#include "instrument/Profile.h"
#include "interp/Predecode.h"
#include "suite/Suite.h"

#include <cstdio>

using namespace epre;

namespace perfbench {
namespace {

/// setup_s is the median of this many set-ups.
constexpr unsigned SetupReps = 9;
/// The level the routines are optimized at.
constexpr OptLevel ExecLevel = OptLevel::Distribution;

struct ExecRoutine {
  std::string Name;
  std::unique_ptr<Module> M; ///< owns Opt
  Function *Opt = nullptr;
  size_t MemBytes = 0;
  ArgMaker MakeArgs;
  Outcome Ref;
  uint64_t OptOps = 0; ///< dynamic ops of the optimized code
};

enum class Mode { Plain, Profiled, Fuel };

struct Run {
  unsigned Routine = 0;
  Mode M = Mode::Plain;
  uint64_t Fuel = 0; ///< MaxOps of a Fuel run
};

std::vector<ExecRoutine> setupExec(Result &R) {
  std::vector<ExecRoutine> Out;
  for (const Routine &Rt : benchmarkSuite()) {
    LowerResult Ref = compileMiniFortran(Rt.Source, NamingMode::Naive);
    LowerResult Opt = compileMiniFortran(Rt.Source, NamingMode::Naive);
    Function *FR = Ref.ok() ? Ref.M->find(Rt.Name) : nullptr;
    Function *FO = Opt.ok() ? Opt.M->find(Rt.Name) : nullptr;
    if (!FR || !FO) {
      R.broken("suite routine " + Rt.Name + " does not lower");
      continue;
    }
    ExecRoutine E;
    E.Name = Rt.Name;
    for (const RoutineInfo &RI : Ref.Routines)
      if (RI.Name == Rt.Name)
        E.MemBytes = RI.LocalMemBytes;
    E.MakeArgs = Rt.MakeArgs;
    E.Ref = execute(*FR, E.MemBytes, E.MakeArgs);

    PipelineOptions P;
    P.Level = ExecLevel;
    P.Naming = InputNaming::Naive;
    P.Verify = false;
    optimizeFunction(*FO, P);
    Outcome Got = execute(*FO, E.MemBytes, E.MakeArgs);
    std::string Diff = compareOutcome(E.Ref, Got, fpLoose(ExecLevel));
    if (!Diff.empty())
      R.broken(Rt.Name + " miscompiled in setup: " + Diff);
    E.OptOps = Got.DynOps;
    E.Opt = FO;
    E.M = std::move(Opt.M);
    Out.push_back(std::move(E));
  }
  return Out;
}

std::vector<Run> makeSchedule(const std::vector<ExecRoutine> &Rs,
                              uint64_t Seed) {
  Rng G(Seed);
  std::vector<Run> S;
  for (unsigned I = 0; I < Rs.size(); ++I)
    for (unsigned K = 0; K < 20; ++K) {
      Mode M = K < 14 ? Mode::Plain : K < 18 ? Mode::Profiled : Mode::Fuel;
      // A fuel limit somewhere in the first 90% of the run.
      uint64_t Fuel = 1 + uint64_t(G.unit() * 0.9 * double(Rs[I].OptOps));
      S.push_back({I, M, Fuel});
    }
  G.shuffle(S);
  return S;
}

struct PhaseResult {
  unsigned Rounds = 0;
  double WallMs = 0;
  BestOf Latency;               ///< per schedule entry, ms
  std::vector<uint64_t> EntryOps; ///< per schedule entry
  double InterpS = 0;
  uint64_t Ops = 0, FuelRuns = 0;
  std::vector<uint64_t> RunsByRoutine;
};

PhaseResult runPhase(const std::vector<ExecRoutine> &Rs,
                     const std::vector<Run> &Schedule, unsigned MinRounds,
                     unsigned ExactRounds, double Budget, Result &R) {
  PhaseResult P;
  P.RunsByRoutine.assign(Rs.size(), 0);
  P.EntryOps.assign(Schedule.size(), 0);
  double Start = nowSec();
  for (unsigned Round = 0;; ++Round) {
    if (ExactRounds ? Round >= ExactRounds
                    : Round >= MinRounds && nowSec() - Start >= Budget)
      break;
    for (size_t Entry = 0; Entry < Schedule.size(); ++Entry) {
      const Run &Rn = Schedule[Entry];
      const ExecRoutine &E = Rs[Rn.Routine];
      MemoryImage Mem(E.MemBytes);
      std::vector<RtValue> CallArgs = E.MakeArgs(Mem);
      ExecLimits Limits;
      if (Rn.M == Mode::Fuel)
        Limits.MaxOps = Rn.Fuel;
      ProfileCollector PC;
      double T0 = nowSec();
      ExecResult X = interpret(*E.Opt, CallArgs, Mem, Limits,
                               Rn.M == Mode::Profiled ? &PC : nullptr);
      double Dt = nowSec() - T0;
      P.Latency.record(Entry, Dt * 1e3);
      P.EntryOps[Entry] = X.DynOps;
      P.InterpS += Dt;
      P.Ops += X.DynOps;
      ++P.RunsByRoutine[Rn.Routine];
      R.attempt();

      if (Rn.M == Mode::Fuel) {
        ++P.FuelRuns;
        // The trap fires on the first operation past the limit.
        if (X.Kind != TrapKind::FuelExhausted || X.DynOps != Rn.Fuel + 1)
          R.fail(E.Name + ": fuel-limited run gave " + trapKindName(X.Kind) +
                 " after " + std::to_string(X.DynOps) + " ops, expected " +
                 "fuel-exhausted after " + std::to_string(Rn.Fuel + 1));
        continue;
      }
      Outcome Got;
      Got.Trapped = X.Trapped;
      Got.Kind = X.Kind;
      Got.HasReturn = X.HasReturn;
      Got.Ret = X.ReturnValue;
      Got.Mem = std::move(Mem.Bytes);
      std::string Diff = compareOutcome(E.Ref, Got, fpLoose(ExecLevel));
      if (Diff.empty() && X.DynOps != E.OptOps)
        Diff = "ran " + std::to_string(X.DynOps) + " ops, setup ran " +
               std::to_string(E.OptOps);
      if (Rn.M == Mode::Profiled && Diff.empty() &&
          PC.finalize(*E.Opt).DynOps != X.DynOps)
        Diff = "profile total disagrees with the run";
      if (!Diff.empty())
        R.fail(E.Name + ": " + Diff);
    }
    P.Rounds = Round + 1;
  }
  P.WallMs = (nowSec() - Start) * 1e3;
  return P;
}

} // namespace

int runExec(const Args &A) {
  Result R(A.Trace);
  std::vector<double> SetupS;
  std::vector<ExecRoutine> Rs;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    double T0 = nowSec();
    Rs = setupExec(R);
    SetupS.push_back(nowSec() - T0);
  }
  std::vector<Run> Schedule = makeSchedule(Rs, A.Seed);

  if (!A.Trace) {
    PhaseResult P = runPhase(Rs, Schedule, 2, 0, A.Seconds, R);
    uint64_t SuiteOps = 0;
    for (const ExecRoutine &E : Rs)
      SuiteOps += E.OptOps;
    R.set("setup_s", median(SetupS));
    uint64_t EntryOps = 0;
    for (uint64_t Ops : P.EntryOps)
      EntryOps += Ops;
    R.set("latency_ms_p50", P.Latency.percentile(0.5));
    R.set("latency_ms_p99", P.Latency.percentile(0.99));
    R.set("throughput_per_s", double(EntryOps) / (P.Latency.sum() / 1e3));
    R.set("dyn_ops", double(SuiteOps));
    R.set("peak_rss_mb", peakRssMb());
    std::fprintf(stderr, "perfbench: exec: %u rounds of %zu runs\n",
                 P.Rounds, Schedule.size());
    R.print();
    return R.correct() ? 0 : 1;
  }

  PhaseResult U = runPhase(Rs, Schedule, 1, 0, A.Seconds / 2, R);
  PhaseResult T = runPhase(Rs, Schedule, 0, U.Rounds, 0, R);
  // Predecoding is deterministic per function: its cost inside interpret()
  // is the routine's standalone predecode time (median of 5) per run.
  double PredecodeMs = 0;
  for (size_t I = 0; I < Rs.size(); ++I) {
    std::vector<double> Times;
    for (unsigned K = 0; K < 5; ++K) {
      Predecoder PD;
      Arena Code;
      BytecodeFunction BF;
      double T0 = nowSec();
      PD.predecode(*Rs[I].Opt, Code, BF);
      Times.push_back((nowSec() - T0) * 1e3);
    }
    PredecodeMs += median(Times) * double(T.RunsByRoutine[I]);
  }
  double InterpMs = T.InterpS * 1e3;
  R.set("interp.predecode_ms", PredecodeMs);
  R.set("interp.exec_ms", InterpMs - PredecodeMs);
  R.set("interp.ops_per_s", double(T.Ops) / T.InterpS);
  R.set("interp.fuel_runs", double(T.FuelRuns));
  R.set("recon.wall_ms", T.WallMs);
  R.set("recon.layers_ms", InterpMs);
  R.set("recon.residual_ms", T.WallMs - InterpMs);
  R.set("recon.residual_share", (T.WallMs - InterpMs) / T.WallMs);
  // The exec layer's trace is its own timing around interpret(); the two
  // phases do identical work, so the overhead is their difference.
  R.set("trace.overhead_ms", T.WallMs - U.WallMs);
  R.set("trace.overhead_share", (T.WallMs - U.WallMs) / U.WallMs);
  R.set("fail_ratio", R.attempted() ? double(R.failed()) / R.attempted() : 0);
  R.print();
  return R.correct() ? 0 : 1;
}

} // namespace perfbench
