//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
///
/// \file
/// What every workload of the repository benchmark shares: the command
/// line, a seeded generator, exact-rank percentiles, the metric catalogue
/// and result line, the independent execution reference that every
/// optimized program is checked against, and the pass-level tracer that
/// attaches to the pipeline's existing PassInstrumentation hooks.
///
/// The benchmark only calls the public functions of the optimizer's
/// modules; nothing here reaches inside src/.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "interp/Interpreter.h"
#include "pipeline/Pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Path of the epre-served binary (serve-mix only).
  std::string Served;
};

inline double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: small, seedable, identical on every platform.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed)
      : S(Seed * 0x9E3779B97F4A7C15ull + 0x1234567ull) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  unsigned below(unsigned N) { return unsigned(next() % N); }
  /// Uniform in [0, 1).
  double unit() { return double(next() >> 11) * 0x1.0p-53; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(unsigned(I))]);
  }
};

/// Exact-rank percentile: the ceil(Q*N)-th smallest sample (0 when empty).
double percentile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 0.5);
}

/// Latencies of a fixed set of operations that a run repeats in rounds.
/// The host may be shared, so an operation's latency is its fastest round
/// (interference only ever adds time); percentiles are taken over the
/// operations.
class BestOf {
public:
  void record(size_t Op, double Ms) {
    if (Op >= Best.size())
      Best.resize(Op + 1, std::numeric_limits<double>::infinity());
    Best[Op] = std::min(Best[Op], Ms);
  }
  double percentile(double Q) const;
  double sum() const;
  double operator[](size_t Op) const {
    return Op < Best.size() ? Best[Op]
                            : std::numeric_limits<double>::infinity();
  }

private:
  std::vector<double> Best;
};

/// Every round's latency of a fixed set of operations, for the workloads
/// whose operations' median round is steadier than their fastest: bigfunc,
/// whose few long compiles see the host's slow spells in every round, and
/// serve-mix, whose round trips cross two processes (see README.md).
class MedianOf {
public:
  void record(size_t Op, double Ms) {
    if (Op >= All.size())
      All.resize(Op + 1);
    All[Op].push_back(Ms);
  }
  /// Each operation's median round (0 for one never recorded).
  std::vector<double> medians() const;

private:
  std::vector<std::vector<double>> All;
};

/// Peak resident set size (VmHWM) of \p Pid (0 = this process), in MB.
double peakRssMb(int Pid = 0);

/// The result line: correctness verdict, attempted/failed operations and
/// the metrics. Every metric of the run's catalogue (end-to-end without
/// tracing, per-layer with it) is printed, 0 where the workload does not
/// exercise that layer.
class Result {
public:
  explicit Result(bool Trace);

  void set(const std::string &Name, double Value);

  /// One operation that produced a wrong or failed result.
  void fail(const std::string &Why);
  /// The benchmark itself is inconsistent (e.g. a determinism check).
  void broken(const std::string &Why);
  void attempt(uint64_t N = 1) { Attempted += N; }

  bool correct() const { return Failed == 0 && !Broken; }
  uint64_t failed() const { return Failed; }
  uint64_t attempted() const { return Attempted; }

  /// Prints the JSON result line on stdout.
  void print() const;

private:
  bool Broken = false;
  uint64_t Attempted = 0, Failed = 0;
  unsigned Reported = 0;
  std::map<std::string, double> Values;
  std::map<std::string, std::string> Units;
  std::vector<std::string> Order;
};

/// What one execution of a function produced; two executions agree when
/// their trap verdicts, return values and memory images agree.
struct Outcome {
  bool Trapped = false;
  epre::TrapKind Kind = epre::TrapKind::None;
  bool HasReturn = false;
  epre::RtValue Ret;
  std::vector<uint8_t> Mem;
  uint64_t DynOps = 0;
};

using ArgMaker =
    std::function<std::vector<epre::RtValue>(epre::MemoryImage &Mem)>;

/// Runs \p F on fresh memory of \p MemBytes filled by \p MakeArgs.
Outcome execute(const epre::Function &F, size_t MemBytes,
                const ArgMaker &MakeArgs,
                const epre::ExecLimits &Limits = {},
                epre::ProfileCollector *Prof = nullptr);

/// "" when \p Got agrees with \p Ref, else a description of the first
/// difference. Everything must be identical, except that with \p FPLoose
/// F64 values may differ by a relative 1e-9: the reassociating levels are
/// allowed to reassociate floating-point arithmetic (FORTRAN semantics).
std::string compareOutcome(const Outcome &Ref, const Outcome &Got,
                           bool FPLoose);

/// Whether code optimized at \p L may reassociate F64 arithmetic.
inline bool fpLoose(epre::OptLevel L) {
  return L == epre::OptLevel::Reassociation ||
         L == epre::OptLevel::Distribution;
}

/// Per-pass attribution of pipeline runs, taken from outside through the
/// pipeline's PassInstrumentation: wall-clock self time (slice minus nested
/// slices), calls, and the static operation count each call left behind.
class PassTrace {
public:
  struct PassAgg {
    double SelfMs = 0;
    uint64_t Calls = 0;
    uint64_t InstsOut = 0;
  };

  /// Runs the pipeline on \p F under instrumentation and folds the result
  /// in. The pass named "pre" is recorded as \p PreName (so the speculative
  /// configuration reports as "pre-spec").
  epre::PipelineStats run(epre::Function &F, epre::PipelineOptions Opts,
                          const char *PreName = "pre");

  void merge(const PassTrace &O);

  std::map<std::string, PassAgg> Passes;
  double PipelineResidualMs = 0;
  std::map<std::string, uint64_t> Counters; // "analysis.cfg.computes", ...

  /// Publishes pass.* / pipeline.* / analysis.* / pre.* metrics.
  void publish(Result &R) const;
};

/// The passes the per-layer catalogue reports, by their pipeline names.
const std::vector<std::string> &tracedPassNames();

/// Counts that must repeat exactly whenever the same work is done again
/// (later rounds of one run, the traced phase after the untraced one): the
/// first sighting of a key records it, every later one compares.
class DeterminismCheck {
public:
  void record(const std::string &Key, uint64_t Value, Result &R);

private:
  std::map<std::string, uint64_t> First;
};

int runSuite50(const Args &A);
int runBigFunc(const Args &A);
int runExec(const Args &A);
int runServeMix(const Args &A);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
