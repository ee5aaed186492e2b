// The partitioner's random draws, written out on std::mt19937. The standard
// fixes the engine's output sequence but leaves uniform_int_distribution
// and std::shuffle to the implementation, so a bisection built on them
// would cut non-regular arrangements differently under libc++ or MSVC.
// These reproduce libstdc++'s algorithms draw for draw (test_partition
// pins their first outputs and, under libstdc++, compares them with std::),
// so results do not depend on the toolchain. Not part of the public API.
#pragma once

#include <cassert>
#include <cstdint>
#include <random>
#include <span>
#include <utility>

namespace hm::partition::detail {

/// Uniform integer in [0, bound), 1 <= bound < 2^32: Lemire's
/// nearly-divisionless bounded draw (ACM TOMACS 29(1), 2019), as libstdc++'s
/// uniform_int_distribution runs it on a 32-bit engine. Rejects the low
/// product words below 2^32 mod bound, so it may take more than one draw.
[[nodiscard]] inline std::uint32_t uniform_below(std::mt19937& rng,
                                                 std::uint32_t bound) {
  assert(bound >= 1);
  std::uint64_t product = std::uint64_t{rng()} * bound;
  auto low = static_cast<std::uint32_t>(product);
  if (low < bound) {
    const std::uint32_t threshold = (0u - bound) % bound;
    while (low < threshold) {
      product = std::uint64_t{rng()} * bound;
      low = static_cast<std::uint32_t>(product);
    }
  }
  return static_cast<std::uint32_t>(product >> 32);
}

/// Fisher–Yates shuffle in libstdc++'s std::shuffle order. While n^2 fits
/// the engine's 32-bit range, one draw over [0, b(b+1)) yields the swap
/// positions of two successive elements (b and b+1 choices); an even n
/// first swaps element 1 alone. Longer sequences take one draw per
/// element.
inline void shuffle(std::span<std::uint32_t> v, std::mt19937& rng) {
  const std::uint64_t n = v.size();
  if (n == 0) return;
  assert(n < (std::uint64_t{1} << 32));
  std::size_t i = 1;
  if (0xFFFFFFFFu / n >= n) {
    if (n % 2 == 0) {
      std::swap(v[i], v[uniform_below(rng, 2)]);
      ++i;
    }
    while (i != n) {
      const auto b0 = static_cast<std::uint32_t>(i + 1);
      const std::uint32_t x = uniform_below(rng, b0 * (b0 + 1));
      std::swap(v[i], v[x / (b0 + 1)]);
      std::swap(v[i + 1], v[x % (b0 + 1)]);
      i += 2;
    }
    return;
  }
  for (; i != n; ++i) {
    std::swap(v[i], v[uniform_below(rng, static_cast<std::uint32_t>(i + 1))]);
  }
}

}  // namespace hm::partition::detail
