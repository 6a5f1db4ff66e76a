/// \file bitops.hpp
/// \brief Small bit-manipulation helpers shared across the mineq libraries.
///
/// Everything in this header is constexpr and branch-light; these helpers sit
/// in the innermost loops of the connection and permutation code, where node
/// labels are raw unsigned integers interpreted as vectors over GF(2).

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace mineq::util {

/// Maximum label width (in bits) supported by the raw-integer label routines.
/// Networks are limited to N = 2^26 terminals, far beyond what fits in RAM
/// for the digraph representations anyway.
inline constexpr int kMaxBits = 26;

/// \returns a mask with the low \p width bits set.
/// \throws std::invalid_argument if \p width is outside [0, kMaxBits].
[[nodiscard]] constexpr std::uint64_t low_mask(int width) {
  if (width < 0 || width > kMaxBits) {
    throw std::invalid_argument("low_mask: width out of range");
  }
  return (std::uint64_t{1} << width) - 1;
}

/// \returns bit \p pos of \p value (0 or 1).
[[nodiscard]] constexpr unsigned get_bit(std::uint64_t value, int pos) {
  return static_cast<unsigned>((value >> pos) & 1U);
}

/// \returns \p value with bit \p pos forced to \p bit (which must be 0 or 1).
[[nodiscard]] constexpr std::uint64_t set_bit(std::uint64_t value, int pos,
                                              unsigned bit) {
  const std::uint64_t mask = std::uint64_t{1} << pos;
  return bit != 0 ? (value | mask) : (value & ~mask);
}

/// \returns \p value with bit \p pos flipped.
[[nodiscard]] constexpr std::uint64_t flip_bit(std::uint64_t value, int pos) {
  return value ^ (std::uint64_t{1} << pos);
}

/// \returns the number of set bits.
[[nodiscard]] constexpr int popcount(std::uint64_t value) {
  return std::popcount(value);
}

/// \returns the parity (popcount mod 2) of \p value.
[[nodiscard]] constexpr unsigned parity(std::uint64_t value) {
  return static_cast<unsigned>(std::popcount(value) & 1);
}

/// \returns the index of the lowest set bit; \p value must be non-zero.
[[nodiscard]] constexpr int lowest_set_bit(std::uint64_t value) {
  return std::countr_zero(value);
}

/// \returns the index of the highest set bit; \p value must be non-zero.
[[nodiscard]] constexpr int highest_set_bit(std::uint64_t value) {
  return 63 - std::countl_zero(value);
}

/// \returns true iff \p value is a power of two (and non-zero).
[[nodiscard]] constexpr bool is_pow2(std::uint64_t value) {
  return std::has_single_bit(value);
}

/// \returns floor(log2(value)); \p value must be non-zero.
[[nodiscard]] constexpr int ilog2(std::uint64_t value) {
  return highest_set_bit(value);
}

/// Rotate the low \p width bits of \p value left by one position
/// (a.k.a. the perfect shuffle of an index with \p width digits).
[[nodiscard]] constexpr std::uint64_t rotl1(std::uint64_t value, int width) {
  const std::uint64_t mask = low_mask(width);
  value &= mask;
  return ((value << 1) | (value >> (width - 1))) & mask;
}

/// Rotate the low \p width bits of \p value right by one position
/// (the inverse perfect shuffle).
[[nodiscard]] constexpr std::uint64_t rotr1(std::uint64_t value, int width) {
  const std::uint64_t mask = low_mask(width);
  value &= mask;
  return ((value >> 1) | ((value & 1) << (width - 1))) & mask;
}

/// Reverse the low \p width bits of \p value (bit-reversal permutation rho).
[[nodiscard]] constexpr std::uint64_t reverse_bits(std::uint64_t value,
                                                   int width) {
  std::uint64_t out = 0;
  for (int i = 0; i < width; ++i) {
    out = (out << 1) | ((value >> i) & 1U);
  }
  return out;
}

/// The first set bit of the \p words-word mask \p mask (bit i of word w
/// is index 64 * w + i) at or after index \p from, wrapping around to the
/// lowest set bit: the first index a cyclic scan from \p from meets. The
/// mask must have a bit set, and \p from must be below 64 * \p words.
[[nodiscard]] constexpr unsigned first_set_from(const std::uint64_t* mask,
                                                std::size_t words,
                                                unsigned from) noexcept {
  std::size_t w = from / 64;
  std::uint64_t bits = mask[w] & (~std::uint64_t{0} << (from % 64));
  while (bits == 0) {
    w = w + 1 == words ? 0 : w + 1;
    bits = mask[w];
  }
  return static_cast<unsigned>(w * 64 +
                               static_cast<unsigned>(std::countr_zero(bits)));
}

/// Call \p f(i) for every set bit index i of the \p words-word mask
/// \p mask, in ascending order. Each word is read once, before its bits
/// are visited, so \p f may clear bits of the mask.
template <class F>
constexpr void for_each_set_bit(const std::uint64_t* mask, std::size_t words,
                                F&& f) {
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
      f(static_cast<unsigned>(w * 64 +
                              static_cast<unsigned>(std::countr_zero(bits))));
    }
  }
}

}  // namespace mineq::util
