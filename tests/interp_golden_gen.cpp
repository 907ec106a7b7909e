//===- tests/interp_golden_gen.cpp - Writes the interpreter golden records ===//
///
/// \file
/// Prints the golden interpreter records (tests/InterpGolden.h) for every
/// case, one `id<TAB>record` line each, to stdout:
///
///   ./build/tests/interp_golden_gen > tests/golden/interp.tsv
///
/// An optional argument overrides the corpus directory. predecode_test
/// checks interpret() against the committed file; regenerate it only for a
/// deliberate change of interpreter semantics, and review the diff.
///
//===----------------------------------------------------------------------===//

#include "InterpGolden.h"

#include <cstdio>

int main(int argc, char **argv) {
  std::string CorpusDir = argc > 1 ? argv[1] : EPRE_CORPUS_DIR;
  std::printf("# Interpreter golden records (tests/InterpGolden.h): id, trap "
              "kind, function, block, inst, return bits, memory hash, "
              "DynOps, WeightedCost, OpCounts, profile hash, trap message.\n");
  for (const auto &[Id, Line] : epre::golden::allRecords(CorpusDir))
    std::printf("%s\t%s\n", Id.c_str(), Line.c_str());
  return 0;
}
