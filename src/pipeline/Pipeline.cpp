//===- pipeline/Pipeline.cpp ----------------------------------------------===//

#include "pipeline/Pipeline.h"

#include "analysis/AnalysisManager.h"
#include "analysis/CFG.h"
#include "instrument/Profile.h"
#include "ir/Verifier.h"
#include "opt/ConstantPropagation.h"
#include "opt/CopyCoalescing.h"
#include "opt/DeadCodeElim.h"
#include "opt/Peephole.h"
#include "opt/SimplifyCFG.h"
#include "opt/StrengthReduction.h"
#include "gvn/DVNT.h"
#include "gvn/SimpleGVN.h"
#include "gvn/ValueNumbering.h"
#include "pre/LocalizeNames.h"
#include "reassoc/ForwardProp.h"
#include "reassoc/Reassociate.h"
#include "ssa/SSA.h"
#include "support/SmallVector.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

using namespace epre;

const char *epre::optLevelName(OptLevel L) {
  switch (L) {
  case OptLevel::None:
    return "none";
  case OptLevel::Baseline:
    return "baseline";
  case OptLevel::Partial:
    return "partial";
  case OptLevel::Reassociation:
    return "reassociation";
  case OptLevel::Distribution:
    return "distribution";
  }
  return "?";
}

const char *epre::gvnEngineName(GVNEngine E) {
  // The two newer engines are spelled like the passes that run them.
  switch (E) {
  case GVNEngine::AWZ:
    return "awz";
  case GVNEngine::DVNT:
    return DVNTPass::name();
  case GVNEngine::SaleenaPaleri:
    return SimpleGVNPass::name();
  }
  return "?";
}

std::string epre::gvnEngineNames() {
  std::string Names;
  for (GVNEngine C : AllGVNEngines) {
    if (!Names.empty())
      Names += ", ";
    Names += gvnEngineName(C);
  }
  return Names;
}

const char *epre::preStrategyName(PREStrategy S) {
  switch (S) {
  case PREStrategy::LazyCodeMotion:
    return "lazy-code-motion";
  case PREStrategy::MorelRenvoise:
    return "morel-renvoise";
  case PREStrategy::GlobalCSE:
    return "gcse";
  case PREStrategy::Speculative:
    return "speculative";
  }
  return "?";
}

const char *epre::inputNamingName(InputNaming N) {
  switch (N) {
  case InputNaming::Hashed:
    return "hashed";
  case InputNaming::Naive:
    return "naive";
  }
  return "?";
}

bool epre::parseOptLevel(std::string_view Name, OptLevel &L) {
  for (OptLevel C : {OptLevel::None, OptLevel::Baseline, OptLevel::Partial,
                     OptLevel::Reassociation, OptLevel::Distribution})
    if (Name == optLevelName(C)) {
      L = C;
      return true;
    }
  return false;
}

bool epre::parsePREStrategy(std::string_view Name, PREStrategy &S) {
  if (Name == "lazy-code-motion" || Name == "lcm") {
    S = PREStrategy::LazyCodeMotion;
    return true;
  }
  if (Name == "morel-renvoise" || Name == "mr") {
    S = PREStrategy::MorelRenvoise;
    return true;
  }
  if (Name == "gcse" || Name == "cse") {
    S = PREStrategy::GlobalCSE;
    return true;
  }
  if (Name == "speculative" || Name == "lospre") {
    S = PREStrategy::Speculative;
    return true;
  }
  return false;
}

bool epre::parseGVNEngine(std::string_view Name, GVNEngine &E) {
  for (GVNEngine C : AllGVNEngines)
    if (Name == gvnEngineName(C)) {
      E = C;
      return true;
    }
  return false;
}

bool epre::parseInputNaming(std::string_view Name, InputNaming &N) {
  for (InputNaming C : {InputNaming::Hashed, InputNaming::Naive})
    if (Name == inputNamingName(C)) {
      N = C;
      return true;
    }
  return false;
}

std::string PipelineOptions::validate() const {
  if (Level == OptLevel::Partial && Naming == InputNaming::Naive)
    return "the 'partial' level requires the front end's hashed expression "
           "naming (paper §2.2): with naive naming PRE's lexical universe "
           "is empty and the level silently degenerates to baseline";
  if (Level == OptLevel::Distribution && !AllowFPReassoc)
    return "the 'distribution' level multiplies through floating-point "
           "sums and is meaningless with AllowFPReassoc=false; use "
           "'reassociation' or allow FP reassociation";
  if (Level == OptLevel::None && EnableStrengthReduction)
    return "EnableStrengthReduction does nothing at the 'none' level; "
           "pick at least 'baseline'";
  if (Strategy == PREStrategy::Speculative && !ProfileIn)
    return "the 'speculative' PRE strategy places computations by profiled "
           "edge weights and needs a dynamic profile attached "
           "(PipelineOptions::ProfileIn / -profile-in=); without one every "
           "expression would silently fall back to lazy code motion";
  return "";
}

std::optional<PipelineOptions>
PipelineOptions::create(const PipelineOptions &Proto, std::string *Err) {
  std::string Problem = Proto.validate();
  if (!Problem.empty()) {
    if (Err)
      *Err = std::move(Problem);
    return std::nullopt;
  }
  return Proto;
}

namespace {

/// Bounded by expression-tree depth in practice.
constexpr unsigned MaxFixpointRounds = 16;

ReassociateOptions reassociateOptions(const PipelineOptions &Opts) {
  ReassociateOptions RO;
  RO.AllowFPReassoc = Opts.AllowFPReassoc;
  RO.Distribute = Opts.Level == OptLevel::Distribution;
  return RO;
}

} // namespace

/// How the table runs one pass. The levels repeat a Fixpoint entry until a
/// round changes nothing, at most MaxFixpointRounds times (PRE handles one
/// nesting level of redundancy per run: deleting an inner subexpression
/// un-kills its parents); its counters accumulate across rounds. Every
/// other entry, and every entry of an explicit pass list, runs once per
/// mention.
struct PassRunner::Entry {
  const char *Name;
  /// What the verifier requires after the pass when Opts.Verify is set.
  SSAMode VerifyMode;
  /// Consumes (and extends) the RankMap that ssa.build creates.
  bool NeedsRanks;
  bool Fixpoint;
  void (*Run)(PassRunner &R);
};

const PassRunner::Entry PassRunner::Table[] = {
    {UnreachableBlockElimPass::name(), SSAMode::Relaxed, false, false,
     [](PassRunner &R) {
       UnreachableBlockElimPass().run(R.F, R.AM, R.Ctx);
     }},
    {LocalizeNamesPass::name(), SSAMode::NoSSA, false, false,
     [](PassRunner &R) { LocalizeNamesPass().run(R.F, R.AM, R.Ctx); }},
    {SSABuildPass::name(), SSAMode::SSA, false, false,
     [](PassRunner &R) {
       SSABuildPass().run(R.F, R.AM, R.Ctx);
       R.Ranks = RankMap::compute(R.F, R.AM.cfg());
     }},
    {SSADestroyPass::name(), SSAMode::NoSSA, false, false,
     [](PassRunner &R) { SSADestroyPass().run(R.F, R.AM, R.Ctx); }},
    {ForwardPropPass::name(), SSAMode::NoSSA, true, false,
     [](PassRunner &R) { ForwardPropPass(*R.Ranks).run(R.F, R.AM, R.Ctx); }},
    {NegNormPass::name(), SSAMode::NoSSA, true, false,
     [](PassRunner &R) {
       NegNormPass(*R.Ranks, reassociateOptions(R.Opts)).run(R.F, R.AM, R.Ctx);
     }},
    {ReassociatePass::name(), SSAMode::NoSSA, true, false,
     [](PassRunner &R) {
       ReassociatePass(*R.Ranks, reassociateOptions(R.Opts))
           .run(R.F, R.AM, R.Ctx);
     }},
    {GVNPass::name(), SSAMode::NoSSA, false, false,
     [](PassRunner &R) { GVNPass().run(R.F, R.AM, R.Ctx); }},
    {DVNTPass::name(), SSAMode::NoSSA, false, false,
     [](PassRunner &R) { DVNTPass().run(R.F, R.AM, R.Ctx); }},
    {SimpleGVNPass::name(), SSAMode::NoSSA, false, false,
     [](PassRunner &R) { SimpleGVNPass().run(R.F, R.AM, R.Ctx); }},
    {PREPass::name(), SSAMode::NoSSA, false, true,
     [](PassRunner &R) {
       PREPass P(R.Opts.Strategy);
       P.run(R.F, R.AM, R.Ctx);
       R.PREChanged = P.lastStats().Inserted || P.lastStats().Deleted;
     }},
    {StrengthReductionPass::name(), SSAMode::NoSSA, false, false,
     [](PassRunner &R) { StrengthReductionPass().run(R.F, R.AM, R.Ctx); }},
    {SCCPPass::name(), SSAMode::Relaxed, false, false,
     [](PassRunner &R) { SCCPPass().run(R.F, R.AM, R.Ctx); }},
    {SimplifyCFGPass::name(), SSAMode::Relaxed, false, false,
     [](PassRunner &R) { SimplifyCFGPass().run(R.F, R.AM, R.Ctx); }},
    {PeepholePass::name(), SSAMode::Relaxed, false, false,
     [](PassRunner &R) {
       PeepholeOptions PO;
       PO.StrengthReduceMul = R.Opts.StrengthReduceMul;
       PeepholePass(PO).run(R.F, R.AM, R.Ctx);
     }},
    {DCEPass::name(), SSAMode::Relaxed, false, false,
     [](PassRunner &R) { DCEPass().run(R.F, R.AM, R.Ctx); }},
    {CopyCoalescingPass::name(), SSAMode::Relaxed, false, false,
     [](PassRunner &R) { CopyCoalescingPass().run(R.F, R.AM, R.Ctx); }},
};

const PassRunner::Entry *PassRunner::find(std::string_view Name) {
  for (const Entry &E : Table)
    if (Name == E.Name)
      return &E;
  return nullptr;
}

std::string PassRunner::passNames() {
  std::string Names;
  for (const Entry &E : Table) {
    if (!Names.empty())
      Names += ", ";
    Names += E.Name;
  }
  return Names;
}

PassRunner::PassRunner(Function &F, const PipelineOptions &Opts,
                       PassContext &Ctx)
    : F(F), Opts(Opts), Ctx(Ctx), AM(F, Opts.DisableAnalysisCache) {
  if (Opts.ProfileIn)
    AM.setProfileSource(Opts.ProfileIn->find(F.name()));
}

void PassRunner::apply(const Entry &E) {
  E.Run(*this);
  if (Opts.Verify)
    verifyOrDie(F, E.VerifyMode, E.Name);
}

std::string PassRunner::run(std::string_view Name) {
  const Entry *E = find(Name);
  if (!E)
    return "unknown pass '" + std::string(Name) + "' (valid: " + passNames() +
           ")";
  if (E->NeedsRanks && !Ranks)
    return std::string(E->Name) + " needs ranks; run " + SSABuildPass::name() +
           " first";
  apply(*E);
  return "";
}

namespace {

/// The passes of one level, in order. Fits every level inline (the
/// longest is 19 names), so building it allocates nothing.
using LevelPasses = SmallVector<const char *, 24>;

/// The paper's baseline sequence; every level ends with it. Peephole can
/// expose more constants (and vice versa), so the first three passes run
/// twice, in the paper's "sequence of passes" spirit without iterating to
/// an unbounded fixpoint.
constexpr const char *BaselineTail[] = {
    SCCPPass::name(), SimplifyCFGPass::name(),    PeepholePass::name(),
    SCCPPass::name(), SimplifyCFGPass::name(),    PeepholePass::name(),
    DCEPass::name(),  CopyCoalescingPass::name(), DCEPass::name(),
    SimplifyCFGPass::name()};

const char *gvnPassName(GVNEngine E) {
  switch (E) {
  case GVNEngine::AWZ:
    return GVNPass::name();
  case GVNEngine::DVNT:
    return DVNTPass::name();
  case GVNEngine::SaleenaPaleri:
    return SimpleGVNPass::name();
  }
  return GVNPass::name();
}

LevelPasses levelPasses(const PipelineOptions &Opts) {
  LevelPasses L;
  if (Opts.Level == OptLevel::None)
    return L;
  L.push_back(UnreachableBlockElimPass::name());
  switch (Opts.Level) {
  case OptLevel::None:
  case OptLevel::Baseline:
    break;
  case OptLevel::Partial:
    // §5.1's "alternative approach": shadow-copy any expression name the
    // front end left live across a block boundary, so PRE's universe never
    // has to drop an expression.
    L.push_back(LocalizeNamesPass::name());
    L.push_back(PREPass::name());
    break;
  case OptLevel::Reassociation:
  case OptLevel::Distribution:
    // A prefix cut after ssa.build leaves the function in SSA form, which
    // the verifier (Relaxed) and the interpreter both accept.
    for (const char *Name :
         {SSABuildPass::name(), ForwardPropPass::name(), NegNormPass::name(),
          ReassociatePass::name(), gvnPassName(Opts.Engine), PREPass::name()})
      L.push_back(Name);
    break;
  }
  if (Opts.EnableStrengthReduction) {
    L.push_back(StrengthReductionPass::name());
    if (Opts.Level != OptLevel::Baseline)
      L.push_back(PREPass::name());
  }
  for (const char *Name : BaselineTail)
    L.push_back(Name);
  return L;
}

} // namespace

unsigned PassRunner::runLevel(unsigned Budget,
                              std::vector<std::string> *Trace) {
  unsigned Count = 0;
  for (const char *Name : levelPasses(Opts)) {
    const Entry &E = *find(Name);
    unsigned Rounds = E.Fixpoint ? MaxFixpointRounds : 1;
    for (unsigned Round = 0; Round < Rounds; ++Round) {
      if (Count == Budget)
        return Count;
      ++Count;
      if (Trace)
        Trace->emplace_back(E.Name);
      apply(E);
      if (E.Fixpoint && !PREChanged)
        break;
    }
  }
  return Count;
}

namespace {

/// Surfaces the analysis manager's cache counters as analysis.<name>.*
/// so the observability layer reports cache behaviour next to pass work.
void publishAnalysisStats(const FunctionAnalysisManager &AM,
                          StatsRegistry &R) {
  const FunctionAnalysisManager::Stats &S = AM.stats();
  for (unsigned I = 0; I < NumAnalysisIDs; ++I) {
    AnalysisID ID = AnalysisID(I);
    std::string Pass = std::string("analysis.") + analysisName(ID);
    if (uint64_t V = S.hits(ID))
      R.counter(Pass, "hits") += V;
    if (uint64_t V = S.computes(ID))
      R.counter(Pass, "computes") += V;
    if (uint64_t V = S.invalidations(ID))
      R.counter(Pass, "invalidations") += V;
  }
}

/// The shared body of optimizeFunction (no budget, no trace) and
/// optimizeFunctionPrefix.
PipelineStats runPipeline(Function &F, const PipelineOptions &Opts,
                          unsigned Budget, std::vector<std::string> *Trace,
                          unsigned *PassesRun) {
  PipelineStats Stats;
  {
    // Every counter of this run lands in the per-function registry first;
    // one merge into the module-level sink happens after the root scope
    // closes, so emitters pay a single map update.
    PassContext Ctx(&Stats.Registry, Opts.Instr);
    PassScope Root(Ctx, "pipeline", F);
    Ctx.addStat("ops_before", F.staticOperationCount());

    if (Opts.Level != OptLevel::None) {
      // One analysis manager per function: every pass reads its analyses
      // from the runner's manager and declares what it preserved, so
      // rounds that change nothing stop paying for full re-analysis.
      PassRunner Runner(F, Opts, Ctx);
      unsigned N = Runner.runLevel(Budget, Trace);
      if (PassesRun)
        *PassesRun = N;
      publishAnalysisStats(Runner.analyses(), Stats.Registry);
    }

    Ctx.addStat("ops_after", F.staticOperationCount());
  }

  if (Opts.Instr)
    Opts.Instr->stats().merge(Stats.Registry);
  return Stats;
}

} // namespace

PipelineStats epre::optimizeFunction(Function &F,
                                     const PipelineOptions &Opts) {
  return runPipeline(F, Opts, ~0u, nullptr, nullptr);
}

PassPrefixResult epre::optimizeFunctionPrefix(Function &F,
                                              const PipelineOptions &Opts,
                                              unsigned MaxPasses) {
  PassPrefixResult R;
  runPipeline(F, Opts, MaxPasses, &R.Trace, &R.PassesRun);
  return R;
}

std::vector<PipelineStats> epre::optimizeModule(Module &M,
                                                const PipelineOptions &Opts) {
  std::vector<PipelineStats> All;
  for (auto &F : M.Functions)
    All.push_back(optimizeFunction(*F, Opts));
  return All;
}

std::vector<PipelineStats>
epre::runPipelineParallel(Module &M, const PipelineOptions &Opts,
                          unsigned NumThreads) {
  size_t N = M.Functions.size();
  std::vector<PipelineStats> All(N);
  if (NumThreads == 0)
    NumThreads = std::max(1u, std::thread::hardware_concurrency());
  NumThreads = unsigned(std::min<size_t>(NumThreads, N));
  if (NumThreads <= 1) {
    for (size_t I = 0; I < N; ++I)
      All[I] = optimizeFunction(*M.Functions[I], Opts);
    return All;
  }

  // Functions share nothing, so a shared atomic cursor is the whole
  // scheduler: each worker claims the next unprocessed function until the
  // module is drained.
  //
  // Instrumentation: PassInstrumentation is single-threaded by contract,
  // so each function gets a private child sink, created by whichever
  // worker claims it and merged below in module order — counters, timer
  // report, and remark stream come out identical to the serial driver
  // regardless of scheduling (timer slices keep a per-worker trace lane).
  // Parent callbacks deliberately do not fire here: they would run
  // concurrently from the workers. Each All[I] / Children[I] slot is
  // written by exactly one worker and read only after the join, so the
  // only shared mutable state is the two atomics.
  std::vector<std::unique_ptr<PassInstrumentation>> Children(N);
  std::atomic<size_t> Next{0};
  std::atomic<uint32_t> Lanes{0};
  auto Worker = [&] {
    uint32_t Lane = 1 + Lanes.fetch_add(1, std::memory_order_relaxed);
    while (true) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        return;
      PipelineOptions Local = Opts;
      if (Opts.Instr) {
        Children[I] =
            std::make_unique<PassInstrumentation>(Opts.Instr->options());
        Children[I]->timers().setLane(Lane);
        Local.Instr = Children[I].get();
      }
      All[I] = optimizeFunction(*M.Functions[I], Local);
    }
  };
  std::vector<std::thread> Threads;
  Threads.reserve(NumThreads);
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back(Worker);
  for (std::thread &T : Threads)
    T.join();

  if (Opts.Instr)
    for (size_t I = 0; I < N; ++I)
      if (Children[I])
        Opts.Instr->merge(std::move(*Children[I]));
  return All;
}
