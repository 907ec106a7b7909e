//===- tests/pipeline_golden_test.cpp - Optimized-IR golden records -------===//
///
/// \file
/// Holds optimizeFunction to golden records: for every (program, level,
/// GVN engine, PRE strategy) case of tests/PipelineGolden.h — the 50 suite
/// routines, the committed corpus, 200 fuzz programs and two loop chains —
/// the printed optimized function must hash to the value in
/// tests/golden/pipeline_ir.tsv. The file pins the optimizer's output, so
/// a performance change to any pass must leave every record unchanged.
/// Regenerate it only for a deliberate change of optimizer output:
///
///   ./build/tests/pipeline_golden_gen > tests/golden/pipeline_ir.tsv
///
//===----------------------------------------------------------------------===//

#include "PipelineGolden.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>

using namespace epre;
using namespace epre::pipeline_golden;

namespace {

/// The committed records, keyed by case id.
const std::map<std::string, std::string> &goldenFile() {
  static const std::map<std::string, std::string> File = [] {
    std::map<std::string, std::string> M;
    std::ifstream In(EPRE_GOLDEN_FILE);
    EXPECT_TRUE(In.good()) << EPRE_GOLDEN_FILE;
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.empty() || Line[0] == '#')
        continue;
      size_t Tab = Line.find('\t');
      EXPECT_NE(Tab, std::string::npos) << Line;
      if (Tab != std::string::npos)
        M[Line.substr(0, Tab)] = Line.substr(Tab + 1);
    }
    return M;
  }();
  return File;
}

/// Every case of \p Ps must be in the file, rendered identically.
void expectGolden(const std::vector<Program> &Ps) {
  ASSERT_FALSE(Ps.empty());
  const auto &File = goldenFile();
  unsigned Failures = 0;
  for (const auto &[Id, Line] : records(Ps)) {
    auto It = File.find(Id);
    if (It == File.end()) {
      ADD_FAILURE() << "no golden record for " << Id;
    } else if (It->second != Line) {
      ADD_FAILURE() << Id << "\n  golden: " << It->second
                    << "\n  actual: " << Line;
    } else {
      continue;
    }
    if (++Failures == 10) {
      ADD_FAILURE() << "stopping after 10 mismatches";
      return;
    }
  }
}

/// Programs [Begin, End) of \p Ps.
std::vector<Program> slice(std::vector<Program> Ps, size_t Begin, size_t End) {
  End = std::min(End, Ps.size());
  return std::vector<Program>(std::make_move_iterator(Ps.begin() + Begin),
                              std::make_move_iterator(Ps.begin() + End));
}

} // namespace

TEST(PipelineGolden, SuiteRoutines) { expectGolden(suitePrograms()); }

TEST(PipelineGolden, Corpus) { expectGolden(corpusPrograms(EPRE_CORPUS_DIR)); }

// The fuzz programs in eight slices of 25, so ctest -j spreads them.
class PipelineGoldenFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(PipelineGoldenFuzz, Slice) {
  expectGolden(slice(fuzzPrograms(), GetParam() * 25, GetParam() * 25 + 25));
}

INSTANTIATE_TEST_SUITE_P(Programs, PipelineGoldenFuzz,
                         ::testing::Range(0u, 8u));

TEST(PipelineGolden, LoopChains) { expectGolden(loopChainPrograms()); }

/// The file holds exactly the cases the suite generates: no record is
/// stale, none is missing, and no case failed to build or validate.
TEST(PipelineGolden, GoldenFileCoversExactlyTheCases) {
  std::vector<Program> All = allPrograms(EPRE_CORPUS_DIR);
  EXPECT_EQ(fuzzPrograms().size(), 200u);
  EXPECT_EQ(suitePrograms().size(), 50u);
  std::vector<std::string> Ids = caseIds(All);
  std::set<std::string> Unique(Ids.begin(), Ids.end());
  EXPECT_EQ(Unique.size(), Ids.size()) << "duplicate case ids";
  EXPECT_EQ(Unique.size(), goldenFile().size());
  for (const auto &[Id, Line] : goldenFile()) {
    EXPECT_TRUE(Unique.count(Id)) << "stale golden record " << Id;
    EXPECT_EQ(Line.rfind("error", 0), std::string::npos) << Id << ": " << Line;
  }
}
