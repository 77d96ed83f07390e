// Dropout, AvgPool2d, and the train/eval mode plumbing.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <cmath>

#include "nn/avgpool2d.hpp"
#include "nn/dropout.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"

namespace {

using appfl::nn::AvgPool2d;
using appfl::nn::Dropout;
using appfl::nn::Tensor;
using appfl::tensor::Shape;

TEST(Dropout, EvalModeIsIdentity) {
  Dropout d(0.5F);
  d.set_training(false);
  const Tensor x = Tensor::from({1, 2, 3, 4});
  EXPECT_TRUE(d.forward(x).equals(x));
  const Tensor g = Tensor::from({5, 6, 7, 8});
  EXPECT_TRUE(d.backward(g).equals(g));
}

TEST(Dropout, ZeroProbabilityIsIdentityInTraining) {
  Dropout d(0.0F);
  const Tensor x = Tensor::from({1, 2, 3});
  EXPECT_TRUE(d.forward(x).equals(x));
}

TEST(Dropout, TrainingDropsApproximatelyPFraction) {
  Dropout d(0.3F, 7);
  Tensor x({10000});
  x.fill(1.0F);
  const Tensor y = d.forward(x);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (float v : y.data()) {
    if (v == 0.0F) ++zeros;
    sum += v;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.3, 0.03);
  // Inverted scaling keeps the expectation: E[y] = 1.
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.05);
}

TEST(Dropout, BackwardUsesTheSameMask) {
  Dropout d(0.5F, 9);
  Tensor x({64});
  x.fill(2.0F);
  const Tensor y = d.forward(x);
  Tensor g({64});
  g.fill(1.0F);
  const Tensor gx = d.backward(g);
  for (std::size_t i = 0; i < 64; ++i) {
    // Gradient flows exactly where the activation survived.
    EXPECT_EQ(gx[i] == 0.0F, y[i] == 0.0F) << i;
    if (y[i] != 0.0F) {
      EXPECT_NEAR(gx[i], 2.0F, 1e-6F);  // 1/(1−p) = 2
    }
  }
}

TEST(Dropout, RejectsInvalidP) {
  EXPECT_THROW(Dropout(1.0F), appfl::Error);
  EXPECT_THROW(Dropout(-0.1F), appfl::Error);
}

TEST(Dropout, SequentialPropagatesTrainingMode) {
  appfl::rng::Rng r(3);
  appfl::nn::Sequential model;
  model.add(std::make_unique<appfl::nn::Linear>(4, 4, r));
  model.add(std::make_unique<Dropout>(0.9F, 5));
  model.set_training(false);
  const Tensor x({2, 4}, std::vector<float>(8, 1.0F));
  // Deterministic in eval mode: two forwards agree despite p = 0.9.
  EXPECT_TRUE(model.forward(x).equals(model.forward(x)));
}

TEST(AvgPool, ForwardComputesWindowMeans) {
  AvgPool2d pool(2, 2);
  Tensor x({1, 1, 2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  const Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 2}));
  EXPECT_NEAR(y[0], (1 + 2 + 5 + 6) / 4.0F, 1e-6F);
  EXPECT_NEAR(y[1], (3 + 4 + 7 + 8) / 4.0F, 1e-6F);
}

TEST(AvgPool, BackwardSpreadsUniformly) {
  AvgPool2d pool(2, 2);
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  pool.forward(x);
  Tensor g({1, 1, 1, 1}, {8.0F});
  const Tensor gx = pool.backward(g);
  for (float v : gx.data()) EXPECT_NEAR(v, 2.0F, 1e-6F);
}

TEST(AvgPool, GradientMatchesFiniteDifferences) {
  AvgPool2d pool(2, 2);
  appfl::rng::Rng r(11);
  Tensor x = Tensor::randn({2, 2, 4, 6}, r);
  auto loss_of = [&](const Tensor& t) {
    double acc = 0.0;
    for (float v : t.data()) acc += 0.5 * static_cast<double>(v) * v;
    return acc;
  };
  const Tensor y = pool.forward(x);
  const Tensor gx = pool.backward(y);  // dL/dy = y for L = ½‖y‖²
  const float eps = 1e-3F;
  for (std::size_t i = 0; i < x.size(); i += 7) {
    const float orig = x[i];
    x[i] = orig + eps;
    const double lp = loss_of(pool.forward(x));
    x[i] = orig - eps;
    const double lm = loss_of(pool.forward(x));
    x[i] = orig;
    EXPECT_NEAR(gx[i], (lp - lm) / (2.0 * eps), 1e-2) << i;
  }
}

TEST(AvgPool, CloneIsIndependent) {
  AvgPool2d pool(3, 1);
  auto copy = pool.clone();
  EXPECT_EQ(copy->name(), "AvgPool2d(k=3, s=1)");
}

TEST(Dropout, CloneReproducesConfiguration) {
  Dropout d(0.25F, 42);
  d.set_training(false);
  auto copy_ptr = d.clone();
  auto* copy = dynamic_cast<Dropout*>(copy_ptr.get());
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->p(), 0.25F);
  EXPECT_FALSE(copy->training());
}

}  // namespace
