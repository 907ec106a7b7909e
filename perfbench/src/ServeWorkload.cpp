//===- perfbench/src/ServeWorkload.cpp - serve-mix: the compile daemon ----===//
///
/// \file
/// Starts epre-served and drives it over its Unix socket in a closed loop:
/// one connection that sends its next request only after the previous
/// reply, against a daemon with one worker (2 busy threads at most).
///
/// The hot set is the 50 suite routines (lowered with hashed naming) and 30
/// fuzz-generated functions, each compiled under five option sets (levels
/// and GVN engines) while setting up, so the cache holds them all. A
/// request carries 1-4 functions drawn from a seeded Zipf ranking of the hot
/// set under one option set drawn uniformly; 5% of requests are one fresh
/// function (a hot function under a new name; see makeSequence), which
/// misses the cache and compiles. So the median follows the read path
/// (admit, cache, respond) and the 99th percentile the write path (compile,
/// insert). The hot set's size and make-up and the uniform option sets are
/// assumptions, not taken from request logs (see README.md).
///
/// The connection repeats a fixed sequence of 1000 request slots in rounds
/// (fresh names change every round, so those slots miss every time). A
/// slot's latency is its median round (MedianOf), not its fastest: over
/// eight runs of the same code, the quartile spread of p50, p99 and
/// throughput was 0.06-0.13 with best rounds and 0.06 with medians. A round
/// trip crosses two processes, and the fastest of about ten depends on the
/// host more than the typical one does. Throughput is the closed loop's
/// rate at those latencies: slots over their summed median round trips.
/// Peak RSS is the daemon's, read once the first round is done, since every
/// later round only inserts the same number of fresh entries again.
///
/// One connection, not several: on a shared 4-vCPU host, two connections
/// against two workers made the figures of runs of the same code spread by
/// 30% to 80% (the host's interference hits whichever of the four busy
/// threads it lands on, and the connections then wait on each other),
/// against 10% to 20% for one connection and one worker. The client and the
/// daemon also share one CPU (pinToOneCpu).
///
/// Checks: every reply must succeed; a seeded sample of replies must equal,
/// byte for byte, an in-process parseModule + optimizeFunction +
/// printFunction under the options the daemon parsed; and after the run the
/// served distribution code of every hot function must run like its
/// unoptimized lowering. The traced run traces those in-process compiles
/// for its pass.* metrics.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "frontend/Lower.h"
#include "fuzz/FuzzGen.h"
#include "instrument/JSONReader.h"
#include "instrument/JSONWriter.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "serve/Protocol.h"
#include "suite/Suite.h"
#include "support/Hash.h"

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace epre;

namespace perfbench {
namespace {

constexpr unsigned DaemonWorkers = 1;
constexpr unsigned NumFuzz = 30;
constexpr double SampleRate = 0.05;
/// At least 1000, so that the 99th percentile has ten slots beyond it.
constexpr unsigned NumSlots = 1000;
/// Hot function I goes out fresh once a round when I % 8 < 5: 50 of the 80
/// (31 suite routines, 19 fuzz functions), which is 5% of the slots.
inline bool goesFresh(unsigned Item) { return Item % 8 < 5; }
/// setup_s is the median of this many set-ups (each starts a daemon).
constexpr unsigned SetupReps = 5;

/// The option sets a request may carry, drawn uniformly: every level once,
/// every GVN engine at least once.
struct Combo {
  const char *Level;
  const char *Gvn;
  OptLevel L;
};
const Combo Combos[] = {
    {"distribution", "awz", OptLevel::Distribution},
    {"distribution", "simple-gvn", OptLevel::Distribution},
    {"reassociation", "dvnt", OptLevel::Reassociation},
    {"partial", "awz", OptLevel::Partial},
    {"baseline", "awz", OptLevel::Baseline}};
constexpr unsigned NumCombos = sizeof(Combos) / sizeof(Combos[0]);
constexpr unsigned CheckCombo = 0; // distribution/awz: the executed code

/// Keeps this process, and the daemon it starts (which inherits the mask),
/// on one CPU: the last one the process may use, so every run picks the
/// same one. Only one side of the closed loop is busy at a time, so no
/// parallelism is lost; what goes is the host moving the two between CPUs
/// and the cross-CPU wake-up of every round trip. In five runs each, the
/// p50 spread 0.16 unpinned and 0.08 pinned.
void pinToOneCpu() {
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  if (::sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return;
  int Last = -1;
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Allowed))
      Last = C;
  if (Last < 0)
    return;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Last, &One);
  ::sched_setaffinity(0, sizeof(One), &One);
}

/// Replaces the name in the first "func @NAME(" header of \p ILOC.
std::string renameFunction(const std::string &ILOC, const std::string &To) {
  size_t At = ILOC.find("func @");
  if (At == std::string::npos)
    return ILOC;
  At += 6;
  size_t End = ILOC.find('(', At);
  if (End == std::string::npos)
    return ILOC;
  return ILOC.substr(0, At) + To + ILOC.substr(End);
}

struct Item {
  std::string Name, ILOC;
  size_t MemBytes = 0;
  ArgMaker MakeArgs;
  Outcome Ref;
  bool Suite = false;
};

struct Universe {
  std::vector<Item> Items;
  std::vector<unsigned> ByRank; ///< Zipf rank -> item
  std::vector<double> Cdf;      ///< Zipf(s = 1) over ranks
};

/// The hot set and its Zipf ranking are the same for every seed (the seed
/// draws the request sequences), so the cost of a typical request does not
/// depend on which functions a seed happened to make hot.
Universe makeUniverse(Result &R) {
  Universe U;
  for (const Routine &Rt : benchmarkSuite()) {
    LowerResult LR = compileMiniFortran(Rt.Source, NamingMode::Hashed);
    Function *F = LR.ok() ? LR.M->find(Rt.Name) : nullptr;
    if (!F) {
      R.broken("suite routine " + Rt.Name + " does not lower");
      continue;
    }
    Item I;
    I.Name = Rt.Name;
    I.ILOC = printFunction(*F);
    for (const RoutineInfo &RI : LR.Routines)
      if (RI.Name == Rt.Name)
        I.MemBytes = RI.LocalMemBytes;
    I.MakeArgs = Rt.MakeArgs;
    I.Ref = execute(*F, I.MemBytes, I.MakeArgs);
    I.Suite = true;
    U.Items.push_back(std::move(I));
  }
  const char *Shapes[] = {"loopy", "branchy", "arrays", "intonly", "phiweb"};
  for (unsigned K = 0; K < NumFuzz; ++K) {
    fuzz::GeneratorOptions GO;
    fuzz::shapeOptions(Shapes[K % 5], GO);
    fuzz::FuzzProgram P =
        fuzz::generateProgram(1000 + K, GO, Shapes[K % 5]);
    ParseResult Parsed = parseModule(P.Text);
    if (!Parsed.ok() || Parsed.M->Functions.empty()) {
      R.broken("fuzz program does not parse: " + Parsed.Error);
      continue;
    }
    Item I;
    I.Name = "fuzz" + std::to_string(K);
    I.ILOC = renameFunction(printFunction(*Parsed.M->Functions[0]), I.Name);
    I.MemBytes = P.MemBytes;
    std::vector<RtValue> CallArgs = P.Args;
    I.MakeArgs = [CallArgs](MemoryImage &) { return CallArgs; };
    I.Ref = execute(*Parsed.M->Functions[0], I.MemBytes, I.MakeArgs);
    U.Items.push_back(std::move(I));
  }
  U.ByRank.resize(U.Items.size());
  for (unsigned I = 0; I < U.ByRank.size(); ++I)
    U.ByRank[I] = I;
  Rng(0).shuffle(U.ByRank);
  double Sum = 0;
  for (unsigned K = 0; K < U.ByRank.size(); ++K)
    U.Cdf.push_back(Sum += 1.0 / (K + 1));
  for (double &C : U.Cdf)
    C /= Sum;
  return U;
}

std::string compileRequest(unsigned Combo,
                           const std::vector<std::string> &Sources) {
  JSONWriter W;
  W.beginObject();
  W.key("v").value(uint64_t(1));
  W.key("cmd").value("compile");
  W.key("options").beginObject();
  W.key("level").value(Combos[Combo].Level);
  W.key("gvn").value(Combos[Combo].Gvn);
  W.key("naming").value("hashed");
  W.endObject();
  W.key("requests").beginArray();
  for (size_t I = 0; I < Sources.size(); ++I) {
    W.beginObject();
    W.key("id").value("r" + std::to_string(I));
    W.key("lang").value("iloc");
    W.key("source").value(Sources[I]);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.take();
}

/// One client connection to the daemon.
class Conn {
public:
  Conn() = default;
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  bool open(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    return Fd >= 0 &&
           ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
               0;
  }
  bool call(const std::string &Req, std::string &Resp) {
    return writeFrame(Fd, Req) && readFrame(Fd, Resp) == FrameStatus::Ok;
  }

private:
  int Fd = -1;
};

/// The daemon process, started from the epre-served binary.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  bool start(const std::string &Binary, const std::string &Socket) {
    Sock = Socket;
    std::vector<std::string> Argv = {Binary, "-socket", Socket, "-workers",
                                     std::to_string(DaemonWorkers),
                                     "-cache-bytes", std::to_string(64u << 20),
                                     "-stats-interval", "0"};
    std::vector<char *> CArgv;
    for (std::string &S : Argv)
      CArgv.push_back(S.data());
    CArgv.push_back(nullptr);
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    posix_spawn_file_actions_addopen(&FA, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&FA, 2, "/dev/null", O_WRONLY, 0);
    int Err = posix_spawn(&Pid, Binary.c_str(), &FA, nullptr, CArgv.data(),
                          environ);
    posix_spawn_file_actions_destroy(&FA);
    if (Err != 0) {
      Pid = -1;
      return false;
    }
    for (unsigned Try = 0; Try < 400; ++Try) {
      Conn C;
      std::string Resp;
      if (C.open(Sock) && C.call("{\"v\":1,\"cmd\":\"ping\"}", Resp))
        return true;
      if (::waitpid(Pid, nullptr, WNOHANG) == Pid) {
        Pid = -1;
        return false;
      }
      ::usleep(25000);
    }
    return false;
  }

  /// Orderly shutdown through the protocol; killed if it does not exit.
  void stop() {
    if (Pid < 0)
      return;
    {
      Conn C;
      std::string Resp;
      if (C.open(Sock))
        C.call("{\"v\":1,\"cmd\":\"shutdown\"}", Resp);
    }
    for (unsigned Try = 0; Try < 200; ++Try) {
      if (::waitpid(Pid, nullptr, WNOHANG) == Pid) {
        Pid = -1;
        return;
      }
      ::usleep(25000);
    }
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, nullptr, 0);
    Pid = -1;
  }

  int pid() const { return Pid; }
  const std::string &socket() const { return Sock; }

private:
  pid_t Pid = -1;
  std::string Sock;
};

struct FnReply {
  bool Ok = false;
  bool Cached = false;
  std::string ILOC;
};

/// Parses a compile reply into one entry per request item.
bool parseReply(const std::string &Resp, std::vector<FnReply> &Out) {
  JSONValue V;
  if (!parseJSON(Resp, V) || !V.isObject())
    return false;
  const JSONValue *Ok = V.get("ok");
  const JSONValue *Rs = V.get("responses");
  if (!Ok || !Ok->B || !Rs || !Rs->isArray())
    return false;
  for (const JSONValue &R : Rs->Arr) {
    FnReply F;
    const JSONValue *ROk = R.get("ok");
    const JSONValue *Fns = R.get("functions");
    if (ROk && ROk->B && Fns && Fns->isArray() && Fns->Arr.size() == 1) {
      const JSONValue &Fn = Fns->Arr[0];
      const JSONValue *C = Fn.get("cached");
      F.Ok = true;
      F.Cached = C && C->B;
      F.ILOC = Fn.getString("iloc");
    }
    Out.push_back(std::move(F));
  }
  return true;
}

/// Hash of the part of a compile reply that repeats exactly when the same
/// request is answered from cache again: the responses, without the trace
/// id and the cache counters around them. 0 when the reply has no
/// responses.
uint64_t repeatableHash(const std::string &Resp) {
  size_t From = Resp.find("\"responses\":");
  size_t To = Resp.rfind(",\"cache\":");
  if (From == std::string::npos || To == std::string::npos || To < From)
    return 0;
  return hashString(std::string_view(Resp).substr(From, To - From));
}

struct Sample {
  unsigned Combo = 0;
  std::vector<std::string> Sources, Replies;
};

/// One request slot of the sequence.
struct Slot {
  unsigned Combo = 0;
  std::vector<unsigned> Items;
  bool Fresh = false; ///< Items[0] goes out under a new name, so it misses
  bool Keep = false;  ///< checked byte for byte against in-process compile
};

/// The fixed request sequence, drawn from the seed. The fresh slots are
/// stratified: every hot function that goesFresh is sent fresh once, alone,
/// function I under option set I modulo NumCombos, at seeded positions. So
/// every seed misses on the same (function, option set) pairs and only
/// their order changes, and the write path's cost does not depend on the
/// seed. (With drawn companions in the fresh requests, the 99th percentile,
/// which falls among the misses, moved with the seed's luck.)
std::vector<Slot> makeSequence(const Universe &U, uint64_t Seed) {
  Rng G(Seed * 131);
  std::vector<Slot> Seq(NumSlots);
  for (Slot &S : Seq) {
    S.Combo = G.below(NumCombos);
    unsigned K = 1 + G.below(4);
    for (unsigned I = 0; I < K; ++I) {
      size_t Rank = std::lower_bound(U.Cdf.begin(), U.Cdf.end(), G.unit()) -
                    U.Cdf.begin();
      S.Items.push_back(U.ByRank[std::min(Rank, U.Cdf.size() - 1)]);
    }
    S.Keep = G.unit() < SampleRate;
  }
  std::vector<unsigned> Pos(Seq.size());
  for (unsigned I = 0; I < Pos.size(); ++I)
    Pos[I] = I;
  G.shuffle(Pos);
  unsigned Next = 0;
  for (unsigned I = 0; I < U.Items.size() && Next < Pos.size(); ++I) {
    if (!goesFresh(I))
      continue;
    Slot &S = Seq[Pos[Next++]];
    S.Fresh = true;
    S.Items = {I};
    S.Combo = I % NumCombos;
  }
  return Seq;
}

struct ClientStats {
  MedianOf Latency;        ///< per slot, ms
  double LatencySumMs = 0; ///< every answered request, every round
  double WallMs = 0;
  unsigned Rounds = 0;
  /// The daemon's peak RSS once the first round is done: every later round
  /// only adds the same number of fresh entries again.
  double DaemonRssMb = 0;
  uint64_t Attempted = 0, Failures = 0, Unexpected = 0;
  std::vector<Sample> Samples;
  std::string FirstError;
};

/// The closed-loop client: rounds over \p Seq, \p MaxRounds of them, or
/// until \p Seconds have passed.
ClientStats runClient(const Daemon &D, const std::vector<Slot> &Seq,
                      const Universe &U, double Seconds, unsigned MaxRounds,
                      const std::string &Tag) {
  ClientStats S;
  double Start = nowSec();
  Conn C;
  if (!C.open(D.socket())) {
    ++S.Attempted;
    ++S.Failures;
    S.FirstError = "cannot connect";
    return S;
  }
  // The requests that stay the same every round are encoded once. A reply
  // to one of them that repeats its first round's checked reply is not
  // parsed again: that keeps the client's share of a round small, so a run
  // has more rounds.
  std::vector<std::string> Fixed(Seq.size());
  std::vector<uint64_t> Checked(Seq.size(), 0);
  for (size_t SI = 0; SI < Seq.size(); ++SI)
    if (!Seq[SI].Fresh) {
      std::vector<std::string> Sources;
      for (unsigned Item : Seq[SI].Items)
        Sources.push_back(U.Items[Item].ILOC);
      Fixed[SI] = compileRequest(Seq[SI].Combo, Sources);
    }
  for (unsigned Round = 0;; ++Round) {
    if (MaxRounds ? Round >= MaxRounds
                  : Round > 0 && nowSec() >= Start + Seconds)
      break;
    for (size_t SI = 0; SI < Seq.size(); ++SI) {
      const Slot &Sl = Seq[SI];
      std::vector<std::string> Sources;
      std::string Req;
      if (Sl.Fresh || (Sl.Keep && Round == 0)) {
        for (unsigned Item : Sl.Items)
          Sources.push_back(U.Items[Item].ILOC);
        if (Sl.Fresh)
          Sources[0] = renameFunction(
              Sources[0], U.Items[Sl.Items[0]].Name + "_" + Tag + "r" +
                              std::to_string(Round) + "s" +
                              std::to_string(SI));
      }
      const std::string &Sent =
          Sl.Fresh ? (Req = compileRequest(Sl.Combo, Sources)) : Fixed[SI];
      std::string Resp;
      double T0 = nowSec();
      bool Answered = C.call(Sent, Resp);
      double Ms = (nowSec() - T0) * 1e3;
      ++S.Attempted;
      uint64_t Hash = Answered && !Sl.Fresh ? repeatableHash(Resp) : 0;
      if (Hash && Hash == Checked[SI]) {
        S.Latency.record(SI, Ms);
        S.LatencySumMs += Ms;
        continue;
      }
      std::vector<FnReply> Replies;
      bool Ok = Answered && parseReply(Resp, Replies) &&
                Replies.size() == Sl.Items.size();
      for (const FnReply &F : Replies)
        Ok &= F.Ok;
      if (!Ok) {
        ++S.Failures;
        if (S.FirstError.empty())
          S.FirstError = Answered ? "bad reply: " + Resp.substr(0, 200)
                                  : "connection lost";
        if (!Answered)
          return S;
        continue;
      }
      // A hot function must hit and a fresh one must miss.
      bool AsExpected = true;
      for (size_t I = 0; I < Replies.size(); ++I)
        if (Replies[I].Cached == (Sl.Fresh && I == 0)) {
          ++S.Unexpected;
          AsExpected = false;
        }
      if (AsExpected)
        Checked[SI] = Hash;
      S.Latency.record(SI, Ms);
      S.LatencySumMs += Ms;
      if (Sl.Keep && Round == 0) {
        Sample Sm{Sl.Combo, Sources, {}};
        for (FnReply &F : Replies)
          Sm.Replies.push_back(std::move(F.ILOC));
        S.Samples.push_back(std::move(Sm));
      }
    }
    S.Rounds = Round + 1;
    if (Round == 0)
      S.DaemonRssMb = peakRssMb(D.pid());
  }
  S.WallMs = (nowSec() - Start) * 1e3;
  return S;
}

/// The daemon's metrics verb, reduced to what the per-layer report needs.
struct Snapshot {
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, std::map<uint64_t, uint64_t>> Buckets; ///< ns
  std::map<std::string, uint64_t> SumNs;
};

bool snapshot(const Daemon &D, Snapshot &S) {
  Conn C;
  std::string Resp;
  JSONValue V;
  if (!C.open(D.socket()) || !C.call("{\"v\":1,\"cmd\":\"metrics\"}", Resp) ||
      !parseJSON(Resp, V))
    return false;
  if (const JSONValue *Cs = V.get("counters"))
    for (const auto &[K, X] : Cs->Obj)
      S.Counters[K] = X.UInt;
  if (const JSONValue *Hs = V.get("histograms"))
    for (const auto &[K, H] : Hs->Obj) {
      S.SumNs[K] = H.getU64("sum");
      if (const JSONValue *B = H.get("buckets"))
        for (const JSONValue &Pair : B->Arr)
          if (Pair.Arr.size() == 2)
            S.Buckets[K][Pair.Arr[0].UInt] += Pair.Arr[1].UInt;
    }
  return true;
}

/// Median (bucket upper bound) of the samples recorded between two
/// snapshots, in ms, after skipping the \p Skip smallest.
double bucketMedianMs(const Snapshot &A, const Snapshot &B,
                      const std::string &H, uint64_t Skip = 0) {
  auto ItB = B.Buckets.find(H);
  if (ItB == B.Buckets.end())
    return 0;
  auto ItA = A.Buckets.find(H);
  std::map<uint64_t, uint64_t> Diff;
  uint64_t N = 0;
  for (auto [Upper, Count] : ItB->second) {
    uint64_t Before = 0;
    if (ItA != A.Buckets.end()) {
      auto X = ItA->second.find(Upper);
      Before = X == ItA->second.end() ? 0 : X->second;
    }
    Diff[Upper] = Count - Before;
    N += Count - Before;
  }
  if (N <= Skip)
    return 0;
  uint64_t Rank = Skip + (N - Skip + 1) / 2, Seen = 0;
  for (auto [Upper, Count] : Diff)
    if ((Seen += Count) >= Rank)
      return double(Upper) / 1e6;
  return 0;
}

uint64_t delta(const Snapshot &A, const Snapshot &B, const std::string &K,
               bool Sum = false) {
  const auto &MA = Sum ? A.SumNs : A.Counters;
  const auto &MB = Sum ? B.SumNs : B.Counters;
  auto IA = MA.find(K), IB = MB.find(K);
  uint64_t VA = IA == MA.end() ? 0 : IA->second;
  uint64_t VB = IB == MB.end() ? 0 : IB->second;
  return VB - VA;
}

/// Sends every hot function under option set \p Combo, four per request;
/// returns the replies in item order (empty on failure).
std::vector<FnReply> sendAll(const Daemon &D, const Universe &U,
                             unsigned Combo) {
  std::vector<FnReply> Out;
  Conn C;
  if (!C.open(D.socket()))
    return {};
  for (size_t I = 0; I < U.Items.size(); I += 4) {
    std::vector<std::string> Sources;
    for (size_t J = I; J < std::min(I + 4, U.Items.size()); ++J)
      Sources.push_back(U.Items[J].ILOC);
    std::string Resp;
    if (!C.call(compileRequest(Combo, Sources), Resp) ||
        !parseReply(Resp, Out))
      return {};
  }
  return Out;
}

/// The in-process compile a served reply must equal byte for byte; traced
/// through \p Trace when it is given.
std::string expectedILOC(unsigned Combo, const std::string &Source,
                         PassTrace *Trace) {
  ServeRequest SR;
  std::string Err;
  if (!parseServeRequest(compileRequest(Combo, {}), SR, &Err))
    return "options rejected: " + Err;
  PipelineOptions Opts = SR.Options;
  Opts.Verify = false;
  ParseResult Parsed = parseModule(Source);
  if (!Parsed.ok() || Parsed.M->Functions.empty())
    return "parse error: " + Parsed.Error;
  if (Trace)
    Trace->run(*Parsed.M->Functions[0], Opts);
  else
    optimizeFunction(*Parsed.M->Functions[0], Opts);
  return printFunction(*Parsed.M->Functions[0]);
}

/// Byte-for-byte check of the sampled replies; returns functions checked.
/// Each distinct (option set, function) is compiled once, through \p Trace
/// when it is given.
uint64_t checkSamples(const ClientStats &S, PassTrace *Trace, Result &R) {
  std::map<std::string, std::string> Memo;
  uint64_t Checked = 0;
  for (const Sample &Sm : S.Samples)
    for (size_t I = 0; I < Sm.Sources.size(); ++I) {
      std::string Key = std::to_string(Sm.Combo) + "\n" + Sm.Sources[I];
      auto [It, New] = Memo.try_emplace(Key);
      if (New)
        It->second = expectedILOC(Sm.Combo, Sm.Sources[I], Trace);
      ++Checked;
      if (It->second != Sm.Replies[I])
        R.fail(std::string("served code differs from the in-process "
                           "compile under ") +
               Combos[Sm.Combo].Level + "/" + Combos[Sm.Combo].Gvn);
    }
  return Checked;
}

/// The Harrell-Davis estimate of quantile \p Q: the mean of all order
/// statistics of \p V, weighted by the Beta((n+1)Q, (n+1)(1-Q)) density
/// over each one's share of [0, 1]. The 99th percentile of serve-mix falls
/// among the 50 misses, whose costs leave gaps of 25% between neighbouring
/// ranks; the exact rank jumped across such a gap from run to run (spread
/// 0.43 over eight runs of the same code), this estimate does not (0.06).
double harrellDavis(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  if (N < 2)
    return N ? V[0] : 0;
  double A = (N + 1) * Q, B = (N + 1) * (1 - Q);
  double LogBeta = std::lgamma(A) + std::lgamma(B) - std::lgamma(A + B);
  auto Density = [&](double X) {
    return X <= 0 || X >= 1 ? 0.0
                            : std::exp((A - 1) * std::log(X) +
                                       (B - 1) * std::log1p(-X) - LogBeta);
  };
  // Simpson's rule with 8 steps over each order statistic's interval.
  double Sum = 0, Weights = 0, Step = 1.0 / double(N) / 8;
  for (size_t I = 0; I < N; ++I) {
    double Lo = double(I) / double(N);
    double W = Density(Lo) + Density(Lo + 8 * Step);
    for (int K = 1; K < 8; ++K)
      W += (K % 2 ? 4 : 2) * Density(Lo + K * Step);
    Sum += W * V[I];
    Weights += W;
  }
  return Sum / Weights;
}

void foldStats(const ClientStats &S, Result &R) {
  R.attempt(S.Attempted);
  for (uint64_t I = 0; I < S.Failures; ++I)
    R.fail("request failed: " + S.FirstError);
}

} // namespace

int runServeMix(const Args &A) {
  Result R(A.Trace);
  if (A.Served.empty()) {
    std::fprintf(stderr, "perfbench: serve-mix needs --served PATH\n");
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);
  pinToOneCpu();

  // Set-up, several times: build the inputs, start a daemon, warm its cache.
  std::vector<double> SetupS;
  Universe U;
  std::unique_ptr<Daemon> D;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    if (D)
      D->stop();
    double T0 = nowSec();
    U = makeUniverse(R);
    D = std::make_unique<Daemon>();
    std::string Sock = "perfbench-" + std::to_string(::getpid()) + "-" +
                       std::to_string(Rep) + ".sock";
    if (!D->start(A.Served, Sock)) {
      std::fprintf(stderr, "perfbench: cannot start %s\n", A.Served.c_str());
      return 1;
    }
    for (unsigned C = 0; C < NumCombos; ++C)
      if (sendAll(*D, U, C).size() != U.Items.size())
        R.broken("warming the cache failed");
    SetupS.push_back(nowSec() - T0);
  }

  std::vector<Slot> Seq = makeSequence(U, A.Seed);
  ClientStats Measured;
  Snapshot Before, After;
  double OverheadMs = 0, UntracedMs = 0;
  if (!A.Trace) {
    Measured = runClient(*D, Seq, U, A.Seconds, 0, "u");
  } else {
    // Untraced reference phase, then the same rounds again while the
    // client splits hits from misses and the daemon's telemetry is read.
    ClientStats Ref = runClient(*D, Seq, U, A.Seconds / 2, 0, "u");
    if (!snapshot(*D, Before))
      R.broken("metrics verb failed");
    Measured = runClient(*D, Seq, U, 0, std::max(1u, Ref.Rounds), "t");
    if (!snapshot(*D, After))
      R.broken("metrics verb failed");
    foldStats(Ref, R);
    OverheadMs = Measured.WallMs - Ref.WallMs;
    UntracedMs = Ref.WallMs;
  }
  foldStats(Measured, R);
  if (Measured.Unexpected)
    std::fprintf(stderr,
                 "perfbench: serve-mix: %llu functions hit/missed against "
                 "expectation (evicted hot entries)\n",
                 (unsigned long long)Measured.Unexpected);

  // Correctness after the clock stops: sampled replies byte for byte, and
  // the served distribution code of every hot function executed.
  // In the traced run the check compiles are traced: they are the only
  // pipeline runs the client sees, and they cover every option set, so
  // the dvnt and simple-gvn engines get their pass.* attribution here.
  PassTrace Checks;
  uint64_t Checked = checkSamples(Measured, A.Trace ? &Checks : nullptr, R);
  uint64_t ServedOps = 0;
  std::vector<FnReply> Final = sendAll(*D, U, CheckCombo);
  if (Final.size() != U.Items.size())
    R.fail("final replies missing");
  for (size_t I = 0; I < Final.size(); ++I) {
    const Item &It = U.Items[I];
    ParseResult Parsed = parseModule(Final[I].ILOC);
    R.attempt();
    if (!Parsed.ok() || Parsed.M->Functions.empty()) {
      R.fail(It.Name + ": served code does not parse");
      continue;
    }
    Outcome Got = execute(*Parsed.M->Functions[0], It.MemBytes, It.MakeArgs);
    std::string Diff =
        compareOutcome(It.Ref, Got, fpLoose(Combos[CheckCombo].L));
    if (!Diff.empty())
      R.fail(It.Name + " (served): " + Diff);
    if (It.Suite)
      ServedOps += Got.DynOps;
  }
  D->stop();

  // Latency of a slot is its median round; hit and miss split by slot.
  std::vector<double> SlotMs = Measured.Latency.medians(), Hit, Miss;
  for (size_t SI = 0; SI < Seq.size(); ++SI)
    (Seq[SI].Fresh ? Miss : Hit).push_back(SlotMs[SI]);
  double LatencySumMs = Measured.LatencySumMs;
  std::fprintf(stderr,
               "perfbench: serve-mix: %u rounds of %u requests (%zu slots "
               "miss), %llu replies checked byte for byte\n",
               Measured.Rounds, NumSlots, Miss.size(),
               (unsigned long long)Checked);

  if (!A.Trace) {
    R.set("setup_s", median(SetupS));
    R.set("latency_ms_p50", median(SlotMs));
    R.set("latency_ms_p99", harrellDavis(SlotMs, 0.99));
    // One connection in a closed loop: its rate is the inverse of its mean
    // round trip, here at each slot's median round.
    double SumMs = 0;
    for (double Ms : SlotMs)
      SumMs += Ms;
    R.set("throughput_per_s", NumSlots / (SumMs / 1e3));
    R.set("dyn_ops", double(ServedOps));
    R.set("peak_rss_mb", Measured.DaemonRssMb);
    R.print();
    return R.correct() ? 0 : 1;
  }

  Checks.publish(R);
  R.set("serve.admit_ms_p50", bucketMedianMs(Before, After, "admit_ns"));
  R.set("serve.cache_ms_p50", bucketMedianMs(Before, After, "cache_ns"));
  // Requests answered from cache spend (next to) nothing compiling: the
  // compile median is taken over the requests that missed.
  R.set("serve.compile_ms_p50",
        bucketMedianMs(Before, After, "compile_ns",
                       delta(Before, After, "serve.hit_requests")));
  R.set("serve.respond_ms_p50", bucketMedianMs(Before, After, "respond_ns"));
  double Hits = double(delta(Before, After, "cache.hits"));
  double Misses = double(delta(Before, After, "cache.misses"));
  R.set("cache.hit_ratio", Hits + Misses > 0 ? Hits / (Hits + Misses) : 0);
  R.set("cache.evictions", double(delta(Before, After, "cache.evictions")));
  R.set("serve.hit_ms_p50", median(Hit));
  R.set("serve.miss_ms_p50", median(Miss));
  // Reconciliation over the client-observed request time: the daemon's
  // phases (admit includes the cache lookups) against the rest (transport,
  // framing, request parsing, client-side JSON).
  double Layers = double(delta(Before, After, "admit_ns", true) +
                         delta(Before, After, "compile_ns", true) +
                         delta(Before, After, "respond_ns", true)) /
                  1e6;
  R.set("recon.wall_ms", LatencySumMs);
  R.set("recon.layers_ms", Layers);
  R.set("recon.residual_ms", LatencySumMs - Layers);
  R.set("recon.residual_share", (LatencySumMs - Layers) / LatencySumMs);
  R.set("trace.overhead_ms", OverheadMs);
  R.set("trace.overhead_share", OverheadMs / UntracedMs);
  R.set("fail_ratio", R.attempted() ? double(R.failed()) / R.attempted() : 0);
  R.print();
  return R.correct() ? 0 : 1;
}

} // namespace perfbench
