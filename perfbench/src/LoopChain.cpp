//===- perfbench/src/LoopChain.cpp - Seeded loop-chain generator ----------===//
///
/// \file
/// A seeded version of bench/bench_pass_timing's loop-chain generator: one
/// Mini-FORTRAN function made of \p NumLoops sequential counted loops. Each
/// loop has one of 4 invariant expression shapes, one of 4 subscript shapes
/// and one of 4 conditional choices (straight-line twice, a diamond, a
/// one-armed branch). The 64 combinations are used equally often and the
/// seed permutes them over the loops, so every seed gives a different
/// function with the same mix of shapes: its compile cost and dynamic
/// operation count barely move with the seed.
///
//===----------------------------------------------------------------------===//

#include "LoopChain.h"

#include "Common.h"

#include "support/StringUtil.h"

using namespace epre;

namespace perfbench {

std::string generateLoopChain(const std::string &Name, unsigned NumLoops,
                              uint64_t Seed) {
  std::vector<unsigned> Shapes(NumLoops);
  for (unsigned L = 0; L < NumLoops; ++L)
    Shapes[L] = L % 64;
  Rng(Seed).shuffle(Shapes);
  std::string S = strprintf("function %s(a, b, n)\n", Name.c_str());
  S += "  integer n\n  real w(48), m(40, 8)\n";
  S += "  s = 0.0\n";
  for (unsigned L = 0; L < NumLoops; ++L) {
    std::string I = strprintf("i%u", L);
    const char *Iv = I.c_str();
    unsigned K = L % 97 + 1;
    unsigned InvShape = Shapes[L] % 4, SubShape = Shapes[L] / 4 % 4,
             CondShape = Shapes[L] / 16;

    // Invariant shapes: PRE hoists the invariant part, reassociation and
    // distribution regroup it around the loop index.
    std::string Inv;
    switch (InvShape) {
    case 0:
      Inv = strprintf("(a + b) * %s + a * %u.0", Iv, K);
      break;
    case 1:
      Inv = strprintf("a * b + (a - b) * %s", Iv);
      break;
    case 2:
      Inv = strprintf("(a + %u.0) * (b + %u.0) + %s", K, K, Iv);
      break;
    default:
      Inv = strprintf("a * (b + %s) + b * %u.0", Iv, K);
      break;
    }

    // Subscript shapes: the addressing arithmetic the paper targets.
    std::string Elem;
    switch (SubShape) {
    case 0:
      Elem = strprintf("w(%s)", Iv);
      break;
    case 1:
      Elem = strprintf("w(%s + %u)", Iv, 1 + L % 3);
      break;
    case 2:
      Elem = strprintf("m(%s, %u)", Iv, 1 + L % 8);
      break;
    default:
      Elem = strprintf("w(n + 1 - %s)", Iv);
      break;
    }

    S += strprintf("  do %s = 1, n\n", Iv);
    S += strprintf("    %s = %s\n", Elem.c_str(), Inv.c_str());
    // Conditional shapes: straight-line, data-dependent diamond, or a
    // one-armed region on the index parity (a critical edge).
    switch (CondShape) {
    case 0:
    case 1:
      S += strprintf("    s = s + %s + (a + b + %u.0)\n", Elem.c_str(), K);
      break;
    case 2:
      S += strprintf("    if (%s > s) then\n", Elem.c_str());
      S += strprintf("      s = s + %s\n", Elem.c_str());
      S += "    else\n";
      S += strprintf("      s = s - %s * b\n", Elem.c_str());
      S += "    end if\n";
      break;
    default:
      S += strprintf("    s = s + %s\n", Elem.c_str());
      S += strprintf("    if (mod(%s, 2) == 0) then\n", Iv);
      S += strprintf("      s = s + (a + b) * %s\n", Iv);
      S += "    end if\n";
      break;
    }
    S += "  end do\n";
  }
  S += "  return s\nend\n";
  return S;
}

} // namespace perfbench
