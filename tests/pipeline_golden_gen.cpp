//===- tests/pipeline_golden_gen.cpp - Writes the optimized-IR golden file ===//
///
/// \file
/// Prints the optimized-IR golden records (tests/PipelineGolden.h) for
/// every case, one `id<TAB>hash` line each, to stdout:
///
///   ./build/tests/pipeline_golden_gen > tests/golden/pipeline_ir.tsv
///
/// An optional argument overrides the corpus directory.
/// pipeline_golden_test checks optimizeFunction against the committed
/// file; regenerate it only for a deliberate change of optimizer output,
/// and review the diff.
///
//===----------------------------------------------------------------------===//

#include "PipelineGolden.h"

#include <cstdio>

int main(int argc, char **argv) {
  std::string CorpusDir = argc > 1 ? argv[1] : EPRE_CORPUS_DIR;
  std::printf("# Optimized-IR golden records (tests/PipelineGolden.h): "
              "program/level/engine/strategy, FNV-1a hash of the printed "
              "function.\n");
  for (const auto &[Id, Line] :
       epre::pipeline_golden::records(
           epre::pipeline_golden::allPrograms(CorpusDir)))
    std::printf("%s\t%s\n", Id.c_str(), Line.c_str());
  return 0;
}
