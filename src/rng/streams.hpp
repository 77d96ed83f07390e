// Multi-stream PRG accumulation: adds many signed xoshiro256** streams into
// one 64-bit word buffer in a single call.
//
// Secure aggregation (dp/secure_agg.cpp) masks and unmasks with exactly this
// shape: a buffer plus a self-mask stream and one ± pairwise stream per peer,
// all summed mod 2^64. Because that addition is associative and commutative,
// any grouping of the streams gives the same words as adding them one
// Rng::next() loop at a time, so the kernel is free to advance four streams
// per AVX2 register (CPU support is detected at run time, as in
// tensor/gemm.cpp); the portable per-stream loop is its fallback and its
// reference.
#pragma once

#include <cstdint>
#include <span>

namespace appfl::rng {

/// One stream of a sum: the words of Rng(seed), subtracted when `negate`.
struct StreamTerm {
  std::uint64_t seed = 0;
  bool negate = false;
};

/// out[i] += Σ_k ±Rng(terms[k].seed)'s i-th word, mod 2^64 (minus for the
/// terms with `negate`). Bit-identical to per-term Rng::next() loops, in any
/// term order.
void add_streams(std::span<std::uint64_t> out,
                 std::span<const StreamTerm> terms);

/// True when add_streams runs the AVX2 kernel on this CPU.
bool streams_use_avx2();

namespace detail {
/// The portable kernel: one Rng::next() loop per term.
void add_streams_portable(std::span<std::uint64_t> out,
                          std::span<const StreamTerm> terms);
/// The four-lane AVX2 kernel. Requires streams_use_avx2().
void add_streams_avx2(std::span<std::uint64_t> out,
                      std::span<const StreamTerm> terms);
}  // namespace detail

}  // namespace appfl::rng
