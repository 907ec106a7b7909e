//===- perfbench/src/Common.cpp -------------------------------------------===//

#include "Common.h"

#include "instrument/PassInstrumentation.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

using namespace epre;

namespace perfbench {

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(Q * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double BestOf::percentile(double Q) const {
  return perfbench::percentile(Best, Q);
}

double BestOf::sum() const {
  double S = 0;
  for (double V : Best)
    S += V;
  return S;
}

std::vector<double> MedianOf::medians() const {
  std::vector<double> Out;
  for (const std::vector<double> &V : All)
    Out.push_back(V.empty() ? 0 : median(V));
  return Out;
}

double peakRssMb(int Pid) {
  std::string Path = Pid ? "/proc/" + std::to_string(Pid) + "/status"
                         : std::string("/proc/self/status");
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0; // kB -> MB
  return 0;
}

//===----------------------------------------------------------------------===//
// Metric catalogue and result line
//===----------------------------------------------------------------------===//

const std::vector<std::string> &tracedPassNames() {
  static const std::vector<std::string> Names = {
      "unreachable-elim", "localize", "ssa.build", "fwdprop",
      "negnorm",          "reassoc",  "gvn",       "dvnt",
      "simple-gvn",       "ssa.destroy", "pre",    "pre-spec",
      "sccp",             "peephole", "dce",       "coalesce",
      "simplifycfg"};
  return Names;
}

static const char *const AnalysisNames[] = {"cfg", "domtree", "loops",
                                             "ranks"};

static std::vector<std::pair<std::string, std::string>> catalogue(bool Trace) {
  std::vector<std::pair<std::string, std::string>> C;
  if (!Trace) {
    C = {{"setup_s", "s"},
         {"latency_ms_p50", "ms"},
         {"latency_ms_p99", "ms"},
         {"throughput_per_s", "1/s"},
         {"dyn_ops", "count"},
         {"peak_rss_mb", "MB"}};
    return C;
  }
  C = {{"frontend.ms", "ms"},   {"frontend.insts_out", "count"},
       {"ir.parse_ms", "ms"},   {"ir.verify_ms", "ms"},
       {"ir.print_ms", "ms"}};
  for (const std::string &P : tracedPassNames()) {
    C.push_back({"pass." + P + ".self_ms", "ms"});
    C.push_back({"pass." + P + ".calls", "count"});
    C.push_back({"pass." + P + ".insts_out", "count"});
    C.push_back({"pass." + P + ".slope", "1"});
  }
  C.push_back({"pipeline.residual_ms", "ms"});
  C.push_back({"compile.slope", "1"});
  for (const char *A : AnalysisNames) {
    C.push_back({std::string("analysis.") + A + ".computes", "count"});
    C.push_back({std::string("analysis.") + A + ".hit_ratio", "ratio"});
  }
  for (const char *N : {"pre.avail_iterations", "pre.inserted", "pre.deleted"})
    C.push_back({N, "count"});
  C.push_back({"interp.predecode_ms", "ms"});
  C.push_back({"interp.exec_ms", "ms"});
  C.push_back({"interp.ops_per_s", "1/s"});
  C.push_back({"interp.fuel_runs", "count"});
  for (const char *N : {"serve.admit_ms_p50", "serve.cache_ms_p50",
                        "serve.compile_ms_p50", "serve.respond_ms_p50"})
    C.push_back({N, "ms"});
  C.push_back({"cache.hit_ratio", "ratio"});
  C.push_back({"cache.evictions", "count"});
  C.push_back({"serve.hit_ms_p50", "ms"});
  C.push_back({"serve.miss_ms_p50", "ms"});
  C.push_back({"recon.wall_ms", "ms"});
  C.push_back({"recon.layers_ms", "ms"});
  C.push_back({"recon.residual_ms", "ms"});
  C.push_back({"recon.residual_share", "ratio"});
  C.push_back({"trace.overhead_ms", "ms"});
  C.push_back({"trace.overhead_share", "ratio"});
  C.push_back({"fail_ratio", "ratio"});
  for (const char *L :
       {"baseline", "partial", "reassociation", "distribution", "speculative"})
    C.push_back({std::string("dyn_ops.") + L, "count"});
  return C;
}

Result::Result(bool Trace) {
  for (auto &[Name, Unit] : catalogue(Trace)) {
    Order.push_back(Name);
    Units[Name] = Unit;
    Values[Name] = 0;
  }
}

void Result::set(const std::string &Name, double Value) {
  // Metrics of the other mode are simply not part of this run's line.
  auto It = Values.find(Name);
  if (It != Values.end())
    It->second = Value;
}

void Result::fail(const std::string &Why) {
  ++Failed;
  if (Reported++ < 20)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", Why.c_str());
}

void Result::broken(const std::string &Why) {
  Broken = true;
  if (Reported++ < 20)
    std::fprintf(stderr, "perfbench: BROKEN: %s\n", Why.c_str());
}

void Result::print() const {
  std::string Out = "{\"correct\": ";
  Out += correct() ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  for (const std::string &Name : Order) {
    double V = Values.at(Name);
    if (!std::isfinite(V))
      V = 0;
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    if (!First)
      Out += ", ";
    First = false;
    Out += "\"" + Name + "\": {\"value\": " + Buf + ", \"unit\": \"" +
           Units.at(Name) + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// Execution reference
//===----------------------------------------------------------------------===//

Outcome execute(const Function &F, size_t MemBytes, const ArgMaker &MakeArgs,
                const ExecLimits &Limits, ProfileCollector *Prof) {
  MemoryImage Mem(MemBytes);
  std::vector<RtValue> CallArgs =
      MakeArgs ? MakeArgs(Mem) : std::vector<RtValue>{};
  ExecResult E = interpret(F, CallArgs, Mem, Limits, Prof);
  Outcome O;
  O.Trapped = E.Trapped;
  O.Kind = E.Kind;
  O.HasReturn = E.HasReturn;
  O.Ret = E.ReturnValue;
  O.Mem = std::move(Mem.Bytes);
  O.DynOps = E.DynOps;
  return O;
}

static bool isNormal(double D) { return std::isnormal(D); }

/// F64 agreement under reassociation: relative 1e-9, or both within 1e-12
/// of zero (cancellation).
static bool closeF64(double A, double B) {
  if (A == B)
    return true;
  double Diff = std::fabs(A - B);
  return Diff <= 1e-9 * std::max(std::fabs(A), std::fabs(B)) || Diff <= 1e-12;
}

std::string compareOutcome(const Outcome &Ref, const Outcome &Got,
                           bool FPLoose) {
  if (Ref.Trapped != Got.Trapped || Ref.Kind != Got.Kind)
    return std::string("trap verdict ") + trapKindName(Got.Kind) +
           ", expected " + trapKindName(Ref.Kind);
  if (Ref.Trapped)
    return "";
  if (Ref.HasReturn != Got.HasReturn || Ref.Ret.Ty != Got.Ret.Ty)
    return "return presence/type differs";
  if (Ref.HasReturn) {
    if (Ref.Ret.isI() && Ref.Ret.I != Got.Ret.I)
      return "return value " + std::to_string(Got.Ret.I) + ", expected " +
             std::to_string(Ref.Ret.I);
    bool SameF = FPLoose ? closeF64(Ref.Ret.F, Got.Ret.F) ||
                               (std::isnan(Ref.Ret.F) && std::isnan(Got.Ret.F))
                         : Ref.Ret.identical(Got.Ret);
    if (Ref.Ret.isF() && !SameF)
      return "return value " + std::to_string(Got.Ret.F) + ", expected " +
             std::to_string(Ref.Ret.F);
  }
  if (Ref.Mem.size() != Got.Mem.size())
    return "memory size differs";
  if (Ref.Mem == Got.Mem)
    return "";
  if (!FPLoose)
    for (size_t Off = 0; Off < Ref.Mem.size(); ++Off)
      if (Ref.Mem[Off] != Got.Mem[Off])
        return "memory byte at offset " + std::to_string(Off) + " differs";
  // Words that differ must both be normal doubles (an integer word never
  // is, unless it is huge), or an F64 zero against a near-zero double.
  for (size_t Off = 0; Off + 8 <= Ref.Mem.size(); Off += 8) {
    if (std::memcmp(&Ref.Mem[Off], &Got.Mem[Off], 8) == 0)
      continue;
    double A = 0, B = 0;
    std::memcpy(&A, &Ref.Mem[Off], 8);
    std::memcpy(&B, &Got.Mem[Off], 8);
    bool Ok = (isNormal(A) || A == 0) && (isNormal(B) || B == 0) &&
              (isNormal(A) || isNormal(B)) && closeF64(A, B);
    if (!Ok)
      return "memory word at offset " + std::to_string(Off) + " differs";
  }
  for (size_t Off = Ref.Mem.size() & ~size_t(7); Off < Ref.Mem.size(); ++Off)
    if (Ref.Mem[Off] != Got.Mem[Off])
      return "memory byte at offset " + std::to_string(Off) + " differs";
  return "";
}

//===----------------------------------------------------------------------===//
// Pass attribution
//===----------------------------------------------------------------------===//

PipelineStats PassTrace::run(Function &F, PipelineOptions Opts,
                             const char *PreName) {
  InstrumentationOptions IO;
  IO.TimePasses = true;
  PassInstrumentation PI(IO);
  // The after-pass callback runs inside the enclosing slice; its own cost
  // is measured and taken back out of that slice so the attribution is not
  // skewed by the tracer.
  std::vector<std::pair<int, uint64_t>> CallbackNs;
  PI.registerAfterPass([&](std::string_view Name, const Function &Fn) {
    uint64_t T0 = TimerTree::nowNs();
    if (Name != "pipeline") {
      PassAgg &A = Passes[Name == "pre" ? PreName : std::string(Name)];
      ++A.Calls;
      A.InstsOut += Fn.staticOperationCount();
    }
    CallbackNs.push_back({PI.timers().openIndex(), TimerTree::nowNs() - T0});
  });
  Opts.Instr = &PI;
  PipelineStats S = optimizeFunction(F, Opts);

  const std::vector<TimerTree::Slice> &Sl = PI.timers().slices();
  std::vector<int64_t> Self(Sl.size());
  for (size_t I = 0; I < Sl.size(); ++I) {
    Self[I] += int64_t(Sl[I].DurNs);
    if (Sl[I].Parent >= 0)
      Self[size_t(Sl[I].Parent)] -= int64_t(Sl[I].DurNs);
  }
  for (auto [Idx, Ns] : CallbackNs)
    if (Idx >= 0)
      Self[size_t(Idx)] -= int64_t(Ns);
  for (size_t I = 0; I < Sl.size(); ++I) {
    double Ms = double(Self[I]) / 1e6;
    if (Sl[I].Name == "pipeline")
      PipelineResidualMs += Ms;
    else
      Passes[Sl[I].Name == "pre" ? PreName : Sl[I].Name].SelfMs += Ms;
  }
  for (const char *A : AnalysisNames) {
    std::string P = std::string("analysis.") + A;
    Counters[P + ".computes"] += S.get(P, "computes");
    Counters[P + ".hits"] += S.get(P, "hits");
  }
  Counters["pre.avail_iterations"] += S.preAvailIterations();
  Counters["pre.inserted"] += S.preInserted();
  Counters["pre.deleted"] += S.preDeleted();
  return S;
}

void PassTrace::merge(const PassTrace &O) {
  for (const auto &[Name, A] : O.Passes) {
    PassAgg &Into = Passes[Name];
    Into.SelfMs += A.SelfMs;
    Into.Calls += A.Calls;
    Into.InstsOut += A.InstsOut;
  }
  PipelineResidualMs += O.PipelineResidualMs;
  for (const auto &[Name, V] : O.Counters)
    Counters[Name] += V;
}

void PassTrace::publish(Result &R) const {
  for (const auto &[Name, A] : Passes) {
    R.set("pass." + Name + ".self_ms", A.SelfMs);
    R.set("pass." + Name + ".calls", double(A.Calls));
    R.set("pass." + Name + ".insts_out", double(A.InstsOut));
  }
  R.set("pipeline.residual_ms", PipelineResidualMs);
  for (const char *A : AnalysisNames) {
    std::string P = std::string("analysis.") + A;
    auto Get = [&](const std::string &K) {
      auto It = Counters.find(K);
      return It == Counters.end() ? 0.0 : double(It->second);
    };
    double Computes = Get(P + ".computes"), Hits = Get(P + ".hits");
    R.set(P + ".computes", Computes);
    R.set(P + ".hit_ratio",
          Hits + Computes > 0 ? Hits / (Hits + Computes) : 0);
  }
  for (const char *N :
       {"pre.avail_iterations", "pre.inserted", "pre.deleted"}) {
    auto It = Counters.find(N);
    R.set(N, It == Counters.end() ? 0 : double(It->second));
  }
}

void DeterminismCheck::record(const std::string &Key, uint64_t Value,
                              Result &R) {
  auto [It, Inserted] = First.try_emplace(Key, Value);
  if (!Inserted && It->second != Value)
    R.broken("non-deterministic count " + Key + ": " + std::to_string(Value) +
             ", first seen as " + std::to_string(It->second));
}

} // namespace perfbench
