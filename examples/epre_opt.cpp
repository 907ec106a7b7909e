//===- examples/epre_opt.cpp - Pass-by-pass ILOC filter -------------------===//
///
/// The paper structured its optimizer as "a sequence of passes, where each
/// pass is a Unix filter that consumes and produces ILOC". This tool is
/// that filter: textual IR on stdin (or a file), a pass list on the
/// command line, textual IR on stdout.
///
///   epre_opt [FILE] -passes=ssa.build,fwdprop,reassoc,gvn,pre,...
///   epre_opt [FILE] -O=distribution [-strategy=lcm] [-gvn=awz] [-j N]
///
/// Passes are the pipeline's own names, the ones -time-passes, -remarks=
/// and -stats print (the usage text lists them), plus the `verify`
/// pseudo-pass. Each runs exactly as the -O levels run it, from the same
/// pass table, with its settings taken from the same flags: -strategy=
/// picks the PRE strategy and -O=distribution makes reassoc distribute. A
/// prefix trace bisected by epre-fuzz replays as is.
///
/// Observability (both modes):
///   -time-passes        hierarchical wall-clock report on stderr
///   -trace-out=FILE     Chrome trace_event JSON (chrome://tracing, Perfetto)
///   -remarks[=p1,p2]    optimization remarks on stderr (optionally only
///                       from the named passes)
///   -remarks-json       render remarks as JSON instead of text
///   -stats              the aggregate statsJSON() document on stderr
///   -print-changed      dump IR after each pass that changed it
///
/// Dynamic profiling (zero-argument functions are interpreted against a
/// 4 KiB zeroed memory image; functions with parameters are skipped):
///   -profile-out=FILE   run the OPTIMIZED module and write its dynamic
///                       block/edge profile (epre-dynamic-profile-v1 JSON)
///   -profile-in=FILE    attach a saved profile as the pipeline's
///                       profile-guided input (required by
///                       -strategy=speculative; docs/speculative-pre.md)
///   -hot-remarks[=BASE] remarks sorted by dynamic impact on stderr: each
///                       remark is weighted by its block's execution count
///                       in a baseline profile (BASE, a -profile-out file;
///                       without BASE, the UNOPTIMIZED input is profiled
///                       as its own baseline). Implies -remarks.
///
/// Example:
///   ./build/examples/epre-opt in.iloc -remarks=pre -time-passes
///       -passes=ssa.build,fwdprop,reassoc,gvn,pre
///
//===----------------------------------------------------------------------===//

#include "instrument/Profile.h"
#include "interp/Interpreter.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "pipeline/Pipeline.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

using namespace epre;

namespace {

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  std::string Cur;
  for (char C : S) {
    if (C == ',') {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Out.push_back(Cur);
  return Out;
}

/// Parses a -j thread count: decimal digits only, within unsigned range.
bool parseJobs(const char *Text, unsigned &Jobs) {
  std::string_view Digits(Text);
  if (Digits.empty() || Digits.find_first_not_of("0123456789") != Digits.npos)
    return false;
  errno = 0;
  unsigned long V = std::strtoul(Text, nullptr, 10);
  if (errno == ERANGE || V > UINT_MAX)
    return false;
  Jobs = unsigned(V);
  return true;
}

/// Interprets every zero-argument function of \p M against a fresh zeroed
/// memory image and returns the per-function dynamic profiles. Functions
/// with parameters cannot be driven standalone and are skipped with a note.
ProfileDoc profileModule(Module &M) {
  ProfileDoc Doc;
  for (auto &F : M.Functions) {
    if (!F->params().empty()) {
      std::fprintf(stderr, "profile: skipping @%s (takes arguments)\n",
                   F->name().c_str());
      continue;
    }
    MemoryImage Mem(4096);
    ProfileCollector Prof;
    ExecResult E = interpret(*F, {}, Mem, ExecLimits(), &Prof);
    if (E.Trapped)
      std::fprintf(stderr, "profile: @%s trapped: %s\n", F->name().c_str(),
                   E.TrapReason.c_str());
    // Trapped runs still yield the profile of everything executed.
    Doc.Profiles.push_back(Prof.finalize(*F));
  }
  return Doc;
}

} // namespace

int main(int argc, char **argv) {
  std::string File;
  std::string PassList;
  std::string TraceOut;
  std::string ProfileOut;
  std::string ProfileInFile;
  std::string HotRemarkBaseline;
  bool HaveLevel = false, HavePasses = false;
  bool TimePasses = false, WantRemarks = false, RemarksJSON = false;
  bool WantStats = false, PrintChanged = false, HotRemarks = false;
  unsigned Jobs = 1;
  std::vector<std::string> RemarkFilter;
  PipelineOptions PO;
  PO.Verify = false; // filter input is hand-written; do not abort the tool

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A.rfind("-passes=", 0) == 0) {
      PassList = A.substr(8);
      HavePasses = true;
    } else if (A.rfind("-O=", 0) == 0) {
      if (!parseOptLevel(A.substr(3), PO.Level)) {
        std::fprintf(stderr, "error: unknown opt level '%s'\n",
                     A.substr(3).c_str());
        return 2;
      }
      HaveLevel = true;
    } else if (A.rfind("-strategy=", 0) == 0) {
      if (!parsePREStrategy(A.substr(10), PO.Strategy)) {
        std::fprintf(stderr, "error: unknown PRE strategy '%s'\n",
                     A.substr(10).c_str());
        return 2;
      }
    } else if (A.rfind("-gvn=", 0) == 0) {
      if (!parseGVNEngine(A.substr(5), PO.Engine)) {
        std::fprintf(stderr, "error: unknown GVN engine '%s' (valid: %s)\n",
                     A.substr(5).c_str(), gvnEngineNames().c_str());
        return 2;
      }
    } else if (A.rfind("-naming=", 0) == 0) {
      if (!parseInputNaming(A.substr(8), PO.Naming)) {
        std::fprintf(stderr, "error: unknown naming discipline '%s'\n",
                     A.substr(8).c_str());
        return 2;
      }
    } else if (A.rfind("-j", 0) == 0) {
      const char *V =
          A.size() > 2 ? argv[I] + 2 : I + 1 < argc ? argv[++I] : "";
      if (!parseJobs(V, Jobs)) {
        std::fprintf(stderr, "error: -j needs a thread count, got '%s'\n", V);
        return 2;
      }
    } else if (A == "-time-passes") {
      TimePasses = true;
    } else if (A.rfind("-trace-out=", 0) == 0) {
      TraceOut = A.substr(11);
    } else if (A == "-remarks") {
      WantRemarks = true;
    } else if (A.rfind("-remarks=", 0) == 0) {
      WantRemarks = true;
      RemarkFilter = splitList(A.substr(9));
    } else if (A == "-remarks-json") {
      WantRemarks = true;
      RemarksJSON = true;
    } else if (A == "-stats") {
      WantStats = true;
    } else if (A == "-print-changed") {
      PrintChanged = true;
    } else if (A.rfind("-profile-out=", 0) == 0) {
      ProfileOut = A.substr(13);
    } else if (A.rfind("-profile-in=", 0) == 0) {
      ProfileInFile = A.substr(12);
    } else if (A == "-hot-remarks") {
      HotRemarks = WantRemarks = true;
    } else if (A.rfind("-hot-remarks=", 0) == 0) {
      HotRemarks = WantRemarks = true;
      HotRemarkBaseline = A.substr(13);
    } else if (!A.empty() && A[0] != '-') {
      File = A;
    } else {
      std::fprintf(
          stderr,
          "usage: %s [FILE] -passes=p1,p2,... | -O=LEVEL\n"
          "  [-strategy=lcm|morel-renvoise|gcse|speculative]\n"
          "  [-gvn=awz|dvnt|simple-gvn] [-naming=hashed|naive] [-j N]\n"
          "  [-time-passes]\n"
          "  [-trace-out=FILE] [-remarks[=p1,p2]] [-remarks-json]\n"
          "  [-stats] [-print-changed] [-profile-out=FILE]\n"
          "  [-profile-in=FILE] [-hot-remarks[=BASELINE.json]]\n"
          "\n"
          "  -passes: any of %s, verify.\n"
          "        Each pass runs as the -O levels run it; -strategy= and\n"
          "        -O=distribution supply its settings.\n"
          "  -j N: optimize N functions in parallel in -O mode (default 1;\n"
          "        -j 0 = one worker per hardware thread). Output is\n"
          "        deterministic at any -j: the parallel driver merges each\n"
          "        function's counters/remarks in module order, so printed\n"
          "        IR, -stats, and -remarks are bit-identical to -j 1.\n",
          argv[0], PassRunner::passNames().c_str());
      return 2;
    }
  }

  std::stringstream Buf;
  if (File.empty()) {
    Buf << std::cin.rdbuf();
  } else {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", File.c_str());
      return 1;
    }
    Buf << In.rdbuf();
  }

  ParseResult R = parseModule(Buf.str());
  if (!R.ok()) {
    std::fprintf(stderr, "parse error: %s\n", R.Error.c_str());
    return 1;
  }
  // Passes, the profiler and remarks assume well-formed IR (a block without
  // a terminator crashes the first pass): refuse malformed input up front.
  std::vector<std::string> Problems = verifyModule(*R.M);
  if (!Problems.empty()) {
    for (const std::string &Msg : Problems)
      std::fprintf(stderr, "verify: %s\n", Msg.c_str());
    std::fprintf(stderr, "error: input does not verify; no pass was run\n");
    return 1;
  }

  InstrumentationOptions IO;
  IO.TimePasses = TimePasses || !TraceOut.empty();
  IO.CollectRemarks = WantRemarks;
  IO.RemarkPasses = RemarkFilter;
  IO.PrintChangedIR = PrintChanged;
  PassInstrumentation PI(IO);

  // Profile-guided input: the document the pipeline consumes (speculative
  // PRE). PO.ProfileIn points at it for the whole run.
  ProfileDoc ProfileIn;
  if (!ProfileInFile.empty()) {
    std::string Err;
    if (!ProfileDoc::loadFromFile(ProfileInFile, ProfileIn, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    PO.ProfileIn = &ProfileIn;
  }

  // Establish the hot-remark baseline before optimizing: either a saved
  // -profile-out document, or a profiled run of the unoptimized input.
  ProfileDoc Baseline;
  if (HotRemarks) {
    if (!HotRemarkBaseline.empty()) {
      std::string Err;
      if (!ProfileDoc::loadFromFile(HotRemarkBaseline, Baseline, &Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 1;
      }
    } else {
      ParseResult Pristine = parseModule(Buf.str());
      Baseline = profileModule(*Pristine.M);
    }
  }

  std::string Err;
  std::optional<PipelineOptions> Valid = PipelineOptions::create(PO, &Err);
  if (!Valid) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }
  Valid->Instr = &PI;
  if (HavePasses) {
    if (Jobs != 1)
      std::fprintf(stderr,
                   "note: -j applies to -O mode only; -passes runs serial\n");
    std::vector<std::string> Passes = splitList(PassList);
    for (auto &F : R.M->Functions) {
      PassContext Ctx(&PI.stats(), &PI);
      PassRunner Runner(*F, *Valid, Ctx);
      for (const std::string &P : Passes) {
        if (P == "verify") {
          std::vector<std::string> E = verifyFunction(*F, SSAMode::Relaxed);
          for (const std::string &Msg : E)
            std::fprintf(stderr, "verify: %s\n", Msg.c_str());
          if (!E.empty())
            return 1;
          continue;
        }
        std::string Problem = Runner.run(P);
        if (!Problem.empty()) {
          std::fprintf(stderr, "error: %s\n", Problem.c_str());
          return 1;
        }
      }
    }
  } else if (HaveLevel) {
    runPipelineParallel(*R.M, *Valid, Jobs);
  }

  if (TimePasses)
    std::fprintf(stderr, "%s", PI.timers().report().c_str());
  if (!TraceOut.empty()) {
    std::ofstream Out(TraceOut);
    Out << PI.timers().toChromeTrace();
    std::fprintf(stderr, "trace written to %s\n", TraceOut.c_str());
  }
  if (HotRemarks) {
    std::vector<HotRemark> Hot =
        annotateHotness(PI.remarks().remarks(), Baseline);
    std::fprintf(stderr, "%s", renderHotRemarks(Hot).c_str());
  } else if (WantRemarks) {
    std::fprintf(stderr, "%s",
                 RemarksJSON ? PI.remarks().toJSON().c_str()
                             : PI.remarks().toText().c_str());
  }
  if (WantStats)
    std::fprintf(stderr, "%s\n", PI.statsJSON().c_str());

  if (!ProfileOut.empty()) {
    ProfileDoc Doc = profileModule(*R.M);
    std::ofstream Out(ProfileOut);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", ProfileOut.c_str());
      return 1;
    }
    Out << Doc.toJSON() << "\n";
    std::fprintf(stderr, "profile written to %s\n", ProfileOut.c_str());
  }

  std::printf("%s", printModule(*R.M).c_str());
  return 0;
}
