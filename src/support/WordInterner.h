//===- support/WordInterner.h - Interning of word sequences -----*- C++ -*-===//
///
/// \file
/// Interns variable-length sequences of 32-bit words, numbering distinct
/// sequences densely from 0 in first-insertion order. The sequences sit
/// back to back in one flat buffer and are found through an open-addressed
/// table of ids (linear probing, power-of-two capacity, load at most 1/2).
///
/// This is the integer replacement for string-built signature maps: a
/// signature is written as words (an interned base-key id followed by
/// operand class ids, say), and two signatures are equal exactly when
/// their word sequences are, length included.
///
//===----------------------------------------------------------------------===//

#ifndef EPRE_SUPPORT_WORDINTERNER_H
#define EPRE_SUPPORT_WORDINTERNER_H

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace epre {

class WordInterner {
public:
  static constexpr unsigned None = ~0u;

  /// Number of distinct sequences interned so far.
  unsigned size() const { return unsigned(Hashes.size()); }

  /// Forgets every sequence but keeps the allocated storage.
  void clear() {
    Words.clear();
    Starts.assign(1, 0);
    Hashes.clear();
    std::fill(Slots.begin(), Slots.end(), None);
  }

  /// Returns the id of the sequence \p W[0..N), and whether it was new.
  std::pair<unsigned, bool> intern(const uint32_t *W, unsigned N) {
    if (2 * (size() + 1) > Slots.size())
      grow();
    uint64_t H = hashOf(W, N);
    size_t Mask = Slots.size() - 1;
    for (size_t S = H & Mask;; S = (S + 1) & Mask) {
      unsigned Id = Slots[S];
      if (Id == None) {
        Id = size();
        Slots[S] = Id;
        Hashes.push_back(H);
        Words.insert(Words.end(), W, W + N);
        Starts.push_back(unsigned(Words.size()));
        return {Id, true};
      }
      if (Hashes[Id] == H && equals(Id, W, N))
        return {Id, false};
    }
  }
  std::pair<unsigned, bool> intern(const std::vector<uint32_t> &W) {
    return intern(W.data(), unsigned(W.size()));
  }

  /// Returns the id of the sequence \p W[0..N), or None if it was never
  /// interned.
  unsigned find(const uint32_t *W, unsigned N) const {
    if (Slots.empty())
      return None;
    uint64_t H = hashOf(W, N);
    size_t Mask = Slots.size() - 1;
    for (size_t S = H & Mask;; S = (S + 1) & Mask) {
      unsigned Id = Slots[S];
      if (Id == None)
        return None;
      if (Hashes[Id] == H && equals(Id, W, N))
        return Id;
    }
  }
  unsigned find(const std::vector<uint32_t> &W) const {
    return find(W.data(), unsigned(W.size()));
  }

private:
  static uint64_t hashOf(const uint32_t *W, unsigned N) {
    uint64_t H = 0x9e3779b97f4a7c15ULL ^ N;
    for (unsigned I = 0; I < N; ++I)
      H = (H ^ W[I]) * 0xff51afd7ed558ccdULL;
    // Fold the high bits down: probing starts from the low bits.
    H ^= H >> 33;
    H *= 0xc4ceb9fe1a85ec53ULL;
    return H ^ (H >> 29);
  }

  bool equals(unsigned Id, const uint32_t *W, unsigned N) const {
    unsigned B = Starts[Id], E = Starts[Id + 1];
    if (E - B != N)
      return false;
    for (unsigned I = 0; I < N; ++I)
      if (Words[B + I] != W[I])
        return false;
    return true;
  }

  /// Doubles the table (at least 16 slots) and re-seats every id.
  void grow() {
    size_t Cap = Slots.empty() ? 16 : 2 * Slots.size();
    Slots.assign(Cap, None);
    size_t Mask = Cap - 1;
    for (unsigned Id = 0; Id < size(); ++Id) {
      size_t S = Hashes[Id] & Mask;
      while (Slots[S] != None)
        S = (S + 1) & Mask;
      Slots[S] = Id;
    }
  }

  /// Sequence Id is Words[Starts[Id] .. Starts[Id + 1]).
  std::vector<uint32_t> Words;
  std::vector<unsigned> Starts{0};
  /// The full hash of each id, for probing and for growth.
  std::vector<uint64_t> Hashes;
  /// The open-addressed id table; None marks an empty slot.
  std::vector<unsigned> Slots;
};

} // namespace epre

#endif // EPRE_SUPPORT_WORDINTERNER_H
