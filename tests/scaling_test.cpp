//===- tests/scaling_test.cpp - Host-independent pass-cost scaling --------===//
///
/// \file
/// Deterministic work counters of the baseline tail must grow linearly with
/// the function: on loop chains of 32, 64 and 128 loop nests (the
/// bench_pass_timing shape) through the distribution pipeline, each
/// doubling of the chain may grow sccp.lattice_slots (the summed size of
/// the per-block lattice rows) and coalesce.interference_edges by at most
/// 2.3x. A blocks x cross-block-registers layout grows about 4x per
/// doubling. The counters do not depend on the host, unlike timings.
///
/// Also checks that the liveness universe is exactly the set of
/// cross-block registers, counted by brute force.
///
//===----------------------------------------------------------------------===//

#include "PipelineGolden.h"
#include "TestUtil.h"

#include "analysis/Liveness.h"
#include "ssa/SSA.h"

#include <gtest/gtest.h>

#include <set>

using namespace epre;

namespace {

/// Per-doubling growth bound of a linear-cost counter.
constexpr double MaxGrowthPerDoubling = 2.3;

std::unique_ptr<Module> loopChain(unsigned Loops) {
  LowerResult LR = compileMiniFortran(
      pipeline_golden::loopChainSource(Loops), NamingMode::Naive);
  EXPECT_TRUE(LR.ok()) << LR.Error;
  return std::move(LR.M);
}

TEST(TailScaling, LatticeSlotsAndInterferenceEdgesGrowLinearly) {
  const unsigned Sizes[] = {32, 64, 128};
  std::vector<uint64_t> Slots, Edges;
  for (unsigned Loops : Sizes) {
    std::unique_ptr<Module> M = loopChain(Loops);
    ASSERT_TRUE(M);
    PipelineOptions PO;
    PO.Level = OptLevel::Distribution;
    PipelineStats S = optimizeFunction(*M->find("gen"), PO);
    Slots.push_back(S.get("sccp", "lattice_slots"));
    Edges.push_back(S.get("coalesce", "interference_edges"));
    ASSERT_GT(Slots.back(), 0u) << Loops << " loops";
    ASSERT_GT(Edges.back(), 0u) << Loops << " loops";
  }
  for (unsigned I = 1; I < Slots.size(); ++I) {
    EXPECT_LE(double(Slots[I]), MaxGrowthPerDoubling * double(Slots[I - 1]))
        << "sccp.lattice_slots " << Slots[I - 1] << " -> " << Slots[I]
        << " from " << Sizes[I - 1] << " to " << Sizes[I] << " loops";
    EXPECT_LE(double(Edges[I]), MaxGrowthPerDoubling * double(Edges[I - 1]))
        << "coalesce.interference_edges " << Edges[I - 1] << " -> "
        << Edges[I] << " from " << Sizes[I - 1] << " to " << Sizes[I]
        << " loops";
  }
}

/// Registers read in some block before any definition there, or used as a
/// phi operand, by a direct scan with a set of the block's definitions.
std::set<Reg> bruteForceCrossBlockRegisters(const Function &F) {
  std::set<Reg> Cross;
  F.forEachBlock([&](const BasicBlock &B) {
    std::set<Reg> Defined;
    for (const Instruction &I : B.Insts) {
      for (Reg R : I.Operands)
        if (I.isPhi() || !Defined.count(R))
          Cross.insert(R);
      if (I.hasDst())
        Defined.insert(I.Dst);
    }
  });
  return Cross;
}

void expectUniverseIsCrossBlockRegisters(const Function &F,
                                         const std::string &What) {
  CFG G = CFG::compute(F);
  Liveness L = Liveness::compute(F, G);
  std::set<Reg> Brute = bruteForceCrossBlockRegisters(F);
  EXPECT_EQ(L.numGlobals(), Brute.size()) << What;
  EXPECT_EQ(std::vector<Reg>(Brute.begin(), Brute.end()), L.globals())
      << What;
  EXPECT_LT(L.numGlobals(), F.numRegs()) << What;
}

TEST(TailScaling, LivenessUniverseIsTheCrossBlockRegisters) {
  for (unsigned Loops : {32u, 64u, 128u}) {
    std::string Size = std::to_string(Loops) + " loops";
    std::unique_ptr<Module> M = loopChain(Loops);
    ASSERT_TRUE(M);
    Function &F = *M->find("gen");
    expectUniverseIsCrossBlockRegisters(F, Size + ", lowered");
    test::runPass(F, SSABuildPass());
    expectUniverseIsCrossBlockRegisters(F, Size + ", SSA");
    std::unique_ptr<Module> Opt = loopChain(Loops);
    PipelineOptions PO;
    PO.Level = OptLevel::Distribution;
    optimizeFunction(*Opt->find("gen"), PO);
    expectUniverseIsCrossBlockRegisters(*Opt->find("gen"),
                                        Size + ", optimized");
  }
}

} // namespace
