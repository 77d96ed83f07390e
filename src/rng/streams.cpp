#include "rng/streams.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "rng/rng.hpp"
#include "util/check.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define APPFL_STREAMS_X86 1
#include <immintrin.h>
#else
#define APPFL_STREAMS_X86 0
#endif

namespace appfl::rng {

namespace detail {

void add_streams_portable(std::span<std::uint64_t> out,
                          std::span<const StreamTerm> terms) {
  for (const StreamTerm& term : terms) {
    Rng prg(term.seed);
    if (term.negate) {
      for (auto& w : out) w -= prg.next();
    } else {
      for (auto& w : out) w += prg.next();
    }
  }
}

#if APPFL_STREAMS_X86
namespace {

#define APPFL_AVX2 __attribute__((target("avx2")))

// Words of `out` per block: every group of four streams passes over one
// L1-resident block before the next block starts.
constexpr std::size_t kBlock = 512;

// Four xoshiro256** states, one stream per 64-bit lane, plus each lane's
// sign mask: a lane's word x enters the sum as (x ^ neg) - neg, that is x
// or -x. The padding lanes of a short last group keep the all-zero state,
// which xoshiro256** maps to zero words forever.
struct Lanes {
  __m256i s0, s1, s2, s3, neg;
};

// A group's Lanes between blocks, as words: vector v, lane j at [4v + j].
// Plain words, because heap storage is not guaranteed 32-byte alignment.
using SavedLanes = std::array<std::uint64_t, 20>;

template <int K>
APPFL_AVX2 inline __m256i rotl(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, K),
                         _mm256_srli_epi64(x, 64 - K));
}

// One xoshiro256** step in every lane, signed. AVX2 has no 64-bit
// multiply, so the scrambler's *5 and *9 are shift-adds.
APPFL_AVX2 inline __m256i step(Lanes& l) {
  __m256i r = _mm256_add_epi64(l.s1, _mm256_slli_epi64(l.s1, 2));
  r = rotl<7>(r);
  r = _mm256_add_epi64(r, _mm256_slli_epi64(r, 3));
  const __m256i t = _mm256_slli_epi64(l.s1, 17);
  l.s2 = _mm256_xor_si256(l.s2, l.s0);
  l.s3 = _mm256_xor_si256(l.s3, l.s1);
  l.s1 = _mm256_xor_si256(l.s1, l.s2);
  l.s0 = _mm256_xor_si256(l.s0, l.s3);
  l.s2 = _mm256_xor_si256(l.s2, t);
  l.s3 = rotl<45>(l.s3);
  return _mm256_sub_epi64(_mm256_xor_si256(r, l.neg), l.neg);
}

// {Σ lanes of v0, Σ v1, Σ v2, Σ v3}: the 4×4 transpose with the additions
// folded in. v_j holds word j of four streams; the result holds words 0..3
// of their sum.
APPFL_AVX2 inline __m256i reduce4(__m256i v0, __m256i v1, __m256i v2,
                                  __m256i v3) {
  const __m256i a = _mm256_add_epi64(_mm256_unpacklo_epi64(v0, v1),
                                     _mm256_unpackhi_epi64(v0, v1));
  const __m256i b = _mm256_add_epi64(_mm256_unpacklo_epi64(v2, v3),
                                     _mm256_unpackhi_epi64(v2, v3));
  return _mm256_add_epi64(_mm256_permute2x128_si256(a, b, 0x20),
                          _mm256_permute2x128_si256(a, b, 0x31));
}

// The group's sum over its next four words.
APPFL_AVX2 inline __m256i next4(Lanes& l) {
  const __m256i v0 = step(l);
  const __m256i v1 = step(l);
  const __m256i v2 = step(l);
  const __m256i v3 = step(l);
  return reduce4(v0, v1, v2, v3);
}

APPFL_AVX2 inline __m256i load4(const std::uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

APPFL_AVX2 inline void store4(std::uint64_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

APPFL_AVX2 void run_group(SavedLanes& saved, std::uint64_t* out,
                          std::size_t n) {
  std::uint64_t* w = saved.data();
  Lanes l{load4(w), load4(w + 4), load4(w + 8), load4(w + 12), load4(w + 16)};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store4(out + i, _mm256_add_epi64(load4(out + i), next4(l)));
  }
  if (i < n) {
    std::array<std::uint64_t, 4> tail;
    store4(tail.data(), next4(l));
    for (std::size_t j = 0; i + j < n; ++j) out[i + j] += tail[j];
  }
  store4(w, l.s0);
  store4(w + 4, l.s1);
  store4(w + 8, l.s2);
  store4(w + 12, l.s3);
}

}  // namespace

// The target attribute stays on internal functions: on a function declared
// in a header without it, GCC would read it as a multiversioned overload.
void add_streams_avx2(std::span<std::uint64_t> out,
                      std::span<const StreamTerm> terms) {
  APPFL_CHECK(streams_use_avx2());
  std::vector<SavedLanes> groups((terms.size() + 3) / 4, SavedLanes{});
  for (std::size_t k = 0; k < terms.size(); ++k) {
    SavedLanes& g = groups[k / 4];
    const std::size_t lane = k % 4;
    const std::array<std::uint64_t, 4> st = Rng(terms[k].seed).state();
    for (std::size_t v = 0; v < 4; ++v) g[4 * v + lane] = st[v];
    g[16 + lane] = terms[k].negate ? ~std::uint64_t{0} : 0;
  }
  for (std::size_t b = 0; b < out.size(); b += kBlock) {
    const std::size_t n = std::min(kBlock, out.size() - b);
    for (SavedLanes& g : groups) run_group(g, out.data() + b, n);
  }
}
#else
void add_streams_avx2(std::span<std::uint64_t>, std::span<const StreamTerm>) {
  APPFL_CHECK_MSG(false, "add_streams_avx2 needs an x86 build with AVX2");
}
#endif

}  // namespace detail

bool streams_use_avx2() {
#if APPFL_STREAMS_X86
  static const bool avx2 = __builtin_cpu_supports("avx2");
  return avx2;
#else
  return false;
#endif
}

void add_streams(std::span<std::uint64_t> out,
                 std::span<const StreamTerm> terms) {
  if (out.empty() || terms.empty()) return;
  if (streams_use_avx2()) {
    detail::add_streams_avx2(out, terms);
  } else {
    detail::add_streams_portable(out, terms);
  }
}

}  // namespace appfl::rng
