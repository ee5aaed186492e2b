// hm_lint fixture: seeded R1 violations. Every construct below is a
// nondeterminism source the real tree must never contain outside
// src/noc/rng.hpp — wall-clock seeds, libc rand, hashing `this`, and the
// standard library's implementation-defined distributions and shuffles.
// EXPECT: nondeterminism
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <iterator>
#include <random>
#include <vector>

namespace fixture {

std::uint64_t bad_seed_from_clock() {
  // time-based seeding: varies run to run.
  std::uint64_t seed = static_cast<std::uint64_t>(time(nullptr));
  return seed;
}

int bad_libc_rand() {
  srand(7);
  return std::rand();
}

std::uint64_t bad_random_device() {
  std::random_device rd;
  return rd();
}

std::uint64_t bad_distribution(std::mt19937& rng) {
  // libstdc++, libc++ and MSVC map the same engine output differently.
  std::uniform_int_distribution<std::uint64_t> pick(0, 99);
  const double noise = std::normal_distribution<double>(0.0, 1.0)(rng);
  return pick(rng) + static_cast<std::uint64_t>(noise > 0.0);
}

void bad_shuffle(std::vector<int>& v, std::mt19937& rng) {
  std::shuffle(v.begin(), v.end(), rng);
  std::ranges::shuffle(v, rng);
}

std::vector<int> bad_sample(const std::vector<int>& v, std::mt19937& rng) {
  std::vector<int> out;
  std::sample(v.begin(), v.end(), std::back_inserter(out), 3, rng);
  return out;
}

struct Widget {
  std::uint64_t bad_identity_hash() const {
    // this-pointer hashing: ASLR makes the digest differ per process.
    return reinterpret_cast<std::uintptr_t>(this) * 0x9e3779b97f4a7c15ULL;
  }
};

}  // namespace fixture
