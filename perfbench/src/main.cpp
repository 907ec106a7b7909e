//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
///
/// \file
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///                    [--served PATH-TO-epre-served]
///
/// Runs one workload (suite50, bigfunc, exec, serve-mix) and prints one
/// JSON result line. Exits 0 only when every output was correct.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

int main(int argc, char **argv) {
  Args A;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string K = argv[I], V = argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--served")
      A.Served = V;
    else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", K.c_str());
      return 2;
    }
  }
  if (A.Workload == "suite50")
    return runSuite50(A);
  if (A.Workload == "bigfunc")
    return runBigFunc(A);
  if (A.Workload == "exec")
    return runExec(A);
  if (A.Workload == "serve-mix")
    return runServeMix(A);
  std::fprintf(stderr,
               "perfbench: unknown workload '%s' (suite50, bigfunc, exec, "
               "serve-mix)\n",
               A.Workload.c_str());
  return 2;
}
