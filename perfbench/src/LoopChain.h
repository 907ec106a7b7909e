//===- perfbench/src/LoopChain.h - Seeded loop-chain generator --*- C++ -*-===//

#ifndef PERFBENCH_LOOPCHAIN_H
#define PERFBENCH_LOOPCHAIN_H

#include <cstdint>
#include <string>

namespace perfbench {

/// Mini-FORTRAN source of `function NAME(a, b, n)` with \p NumLoops
/// sequential loops (n <= 40 keeps every subscript in bounds).
std::string generateLoopChain(const std::string &Name, unsigned NumLoops,
                              uint64_t Seed);

} // namespace perfbench

#endif // PERFBENCH_LOOPCHAIN_H
