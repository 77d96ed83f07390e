// Unit + statistical tests for the RNG substrate. Statistical assertions use
// wide tolerances (5+ sigma) so they are deterministic in practice.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/rng.hpp"
#include "rng/streams.hpp"

namespace {

using appfl::rng::Rng;
using appfl::rng::StreamTerm;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, Uniform01InRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01OpenNeverZero) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(r.uniform01_open(), 0.0);
}

TEST(Rng, UniformBelowRespectsBound) {
  Rng r(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.uniform_below(7);
    EXPECT_LT(v, 7U);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7U);  // all residues hit
}

TEST(Rng, UniformBelowOneAlwaysZero) {
  Rng r(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_below(1), 0U);
}

TEST(Rng, UniformBelowZeroThrows) {
  Rng r(3);
  EXPECT_THROW(r.uniform_below(0), appfl::Error);
}

TEST(DeriveSeed, DistinctIdTuplesGiveDistinctSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t a = 0; a < 10; ++a) {
    for (std::uint64_t b = 0; b < 10; ++b) {
      seeds.insert(appfl::rng::derive_seed(1, {a, b}));
    }
  }
  EXPECT_EQ(seeds.size(), 100U);
}

TEST(DeriveSeed, DeterministicAcrossCalls) {
  EXPECT_EQ(appfl::rng::derive_seed(5, {1, 2, 3}),
            appfl::rng::derive_seed(5, {1, 2, 3}));
  EXPECT_NE(appfl::rng::derive_seed(5, {1, 2, 3}),
            appfl::rng::derive_seed(6, {1, 2, 3}));
}

// -- Distribution moments -----------------------------------------------------

struct MomentCase {
  const char* name;
  double expected_mean;
  double expected_var;
  double (*draw)(Rng&);
};

class MomentTest : public testing::TestWithParam<MomentCase> {};

TEST_P(MomentTest, MatchesTheoreticalMoments) {
  const auto& c = GetParam();
  Rng r(11);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = c.draw(r);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  // Standard error of the mean ~ sqrt(var/n); allow ~6 SE.
  const double se = std::sqrt(c.expected_var / n);
  EXPECT_NEAR(mean, c.expected_mean, 6.0 * se) << c.name;
  EXPECT_NEAR(var, c.expected_var, 0.08 * c.expected_var + 6.0 * se) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, MomentTest,
    testing::Values(
        MomentCase{"normal(0,1)", 0.0, 1.0,
                   [](Rng& r) { return appfl::rng::normal(r, 0.0, 1.0); }},
        MomentCase{"normal(3,2)", 3.0, 4.0,
                   [](Rng& r) { return appfl::rng::normal(r, 3.0, 2.0); }},
        MomentCase{"laplace(0,1)", 0.0, 2.0,
                   [](Rng& r) { return appfl::rng::laplace(r, 0.0, 1.0); }},
        MomentCase{"laplace(1,0.5)", 1.0, 0.5,
                   [](Rng& r) { return appfl::rng::laplace(r, 1.0, 0.5); }},
        MomentCase{"uniform(2,4)", 3.0, 1.0 / 3.0,
                   [](Rng& r) { return appfl::rng::uniform(r, 2.0, 4.0); }},
        MomentCase{"exponential(2)", 0.5, 0.25,
                   [](Rng& r) { return appfl::rng::exponential(r, 2.0); }}),
    [](const testing::TestParamInfo<MomentCase>& info) {
      std::string n = info.param.name;
      for (auto& ch : n) {
        if (!isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return n;
    });

TEST(Laplace, EmpiricalDensityIsHeavierTailedThanNormal) {
  // P(|X| > 3b) = exp(−3) ≈ 4.98% for Laplace(0, b).
  Rng r(13);
  int outliers = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (std::abs(appfl::rng::laplace(r, 0.0, 1.0)) > 3.0) ++outliers;
  }
  EXPECT_NEAR(static_cast<double>(outliers) / n, std::exp(-3.0), 0.01);
}

TEST(Lognormal, MedianIsExpMu) {
  Rng r(17);
  std::vector<double> v(20001);
  for (auto& x : v) x = appfl::rng::lognormal(r, 1.0, 0.5);
  std::nth_element(v.begin(), v.begin() + 10000, v.end());
  EXPECT_NEAR(v[10000], std::exp(1.0), 0.1);
}

TEST(Dirichlet, SumsToOneAndIsSkewedForSmallAlpha) {
  Rng r(19);
  const auto p = appfl::rng::dirichlet_symmetric(r, 10, 0.1);
  double sum = 0.0, mx = 0.0;
  for (double x : p) {
    EXPECT_GE(x, 0.0);
    sum += x;
    mx = std::max(mx, x);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(mx, 0.3);  // alpha=0.1 concentrates mass
}

TEST(Dirichlet, LargeAlphaIsNearlyUniform) {
  Rng r(23);
  const auto p = appfl::rng::dirichlet_symmetric(r, 10, 1000.0);
  for (double x : p) EXPECT_NEAR(x, 0.1, 0.03);
}

TEST(Gamma, MeanEqualsAlpha) {
  Rng r(29);
  for (double alpha : {0.5, 1.0, 3.0, 10.0}) {
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) sum += appfl::rng::gamma(r, alpha);
    EXPECT_NEAR(sum / n, alpha, 0.1 * alpha + 0.05) << "alpha=" << alpha;
  }
}

TEST(Shuffle, ProducesAPermutation) {
  Rng r(31);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  appfl::rng::shuffle(r, std::span<int>(v));
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Shuffle, IsNotIdentityOnAverage) {
  Rng r(37);
  int moved = 0;
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
    appfl::rng::shuffle(r, std::span<int>(v));
    for (int i = 0; i < 8; ++i) {
      if (v[i] != i) ++moved;
    }
  }
  EXPECT_GT(moved, 80);  // E[moved] = 20·8·(7/8) = 140
}

TEST(FillHelpers, FillLaplaceAndNormalHaveRightScale) {
  Rng r(41);
  std::vector<float> buf(100000);
  appfl::rng::fill_laplace(r, buf, 2.0);
  double sum2 = 0.0;
  for (float x : buf) sum2 += static_cast<double>(x) * x;
  EXPECT_NEAR(sum2 / buf.size(), 2.0 * 2.0 * 2.0, 0.5);  // var = 2b²

  appfl::rng::fill_normal(r, buf, 3.0);
  sum2 = 0.0;
  for (float x : buf) sum2 += static_cast<double>(x) * x;
  EXPECT_NEAR(sum2 / buf.size(), 9.0, 0.5);
}

TEST(Bernoulli, FrequencyMatchesP) {
  Rng r(43);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (appfl::rng::bernoulli(r, 0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// --- Multi-stream kernel ----------------------------------------------------

// What add_streams must equal: one Rng::next() loop per term.
std::vector<std::uint64_t> reference_sum(std::vector<std::uint64_t> out,
                                         const std::vector<StreamTerm>& terms) {
  for (const StreamTerm& term : terms) {
    Rng prg(term.seed);
    for (auto& w : out) w = term.negate ? w - prg.next() : w + prg.next();
  }
  return out;
}

// Sign patterns: mixed, all negated, alternating. The kernel groups terms
// by sign, so each pattern splits the terms differently.
std::vector<StreamTerm> mixed_terms(std::size_t count, int pattern = 0) {
  std::vector<StreamTerm> terms;
  for (std::size_t k = 0; k < count; ++k) {
    const bool negate = pattern == 0 ? k % 3 == 1 : pattern == 1 || k % 2;
    terms.push_back({appfl::rng::derive_seed(77, {k}), negate});
  }
  return terms;
}

std::vector<std::uint64_t> random_words(std::size_t len) {
  Rng r(len + 1);
  std::vector<std::uint64_t> out(len);
  for (auto& w : out) w = r.next();
  return out;
}

using StreamKernel = void (*)(std::span<std::uint64_t>,
                              std::span<const StreamTerm>);

void expect_matches_reference(StreamKernel kernel) {
  for (int pattern = 0; pattern < 3; ++pattern) {
    for (std::size_t count = 0; count <= 9; ++count) {
      const std::vector<StreamTerm> terms = mixed_terms(count, pattern);
      for (std::size_t len : {0UL, 1UL, 3UL, 4UL, 5UL, 1023UL}) {
        const std::vector<std::uint64_t> base = random_words(len);
        std::vector<std::uint64_t> out = base;
        kernel(out, terms);
        EXPECT_EQ(out, reference_sum(base, terms))
            << "pattern " << pattern << ", " << count << " terms, " << len
            << " words";
      }
    }
  }
}

TEST(AddStreams, PortableMatchesRngNext) {
  expect_matches_reference(appfl::rng::detail::add_streams_portable);
}

TEST(AddStreams, Avx2MatchesRngNext) {
  if (!appfl::rng::streams_use_avx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  expect_matches_reference(appfl::rng::detail::add_streams_avx2);
}

TEST(AddStreams, DispatchMatchesRngNext) {
  expect_matches_reference(appfl::rng::add_streams);
}

TEST(AddStreams, TermOrderDoesNotChangeTheSum) {
  std::vector<StreamTerm> terms = mixed_terms(13);
  std::vector<std::uint64_t> forward(2051, 5), reversed(2051, 5);
  appfl::rng::add_streams(forward, terms);
  std::reverse(terms.begin(), terms.end());
  appfl::rng::add_streams(reversed, terms);
  EXPECT_EQ(forward, reversed);
}

TEST(AddStreams, NegatedTermCancelsItsTwin) {
  const std::vector<StreamTerm> terms{{99, false}, {99, true}, {7, false},
                                      {7, true},   {1, true},  {1, false}};
  const std::vector<std::uint64_t> base = random_words(1023);
  std::vector<std::uint64_t> out = base;
  appfl::rng::add_streams(out, terms);
  EXPECT_EQ(out, base);
}

}  // namespace
