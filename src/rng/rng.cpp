#include "rng/rng.hpp"

#include "util/check.hpp"

namespace appfl::rng {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t base,
                          std::initializer_list<std::uint64_t> ids) {
  // Sponge-style: absorb each id, run the full SplitMix64 permutation after
  // every absorption so nearby id tuples land in unrelated states.
  std::uint64_t state = base;
  std::uint64_t out = splitmix64(state);
  for (std::uint64_t id : ids) {
    std::uint64_t id_state = id;
    state = out ^ splitmix64(id_state);
    out = splitmix64(state);
  }
  return out;
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t state = seed;
  for (auto& s : s_) s = splitmix64(state);
}

double Rng::uniform01() {
  // Top 53 bits → double in [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform01_open() {
  // (next() >> 11) is in [0, 2^53); adding 0.5 keeps the result in (0,1).
  return (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
}

std::array<std::uint64_t, 4> Rng::state() const {
  return {s_[0], s_[1], s_[2], s_[3]};
}

void Rng::set_state(const std::array<std::uint64_t, 4>& s) {
  APPFL_CHECK_MSG(s[0] != 0 || s[1] != 0 || s[2] != 0 || s[3] != 0,
                  "all-zero xoshiro256** state is invalid");
  for (std::size_t i = 0; i < 4; ++i) s_[i] = s[i];
}

std::uint64_t Rng::uniform_below(std::uint64_t n) {
  APPFL_CHECK(n > 0);
  // Rejection sampling over the largest multiple of n that fits in 64 bits.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t x;
  do {
    x = next();
  } while (x >= limit);
  return x % n;
}

}  // namespace appfl::rng
