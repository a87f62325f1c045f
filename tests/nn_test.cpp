#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "eedn/trinary.hpp"
#include "nn/loss.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"

namespace pcnn::nn {
namespace {

TEST(Sequential, ComposesAndValidatesSizes) {
  pcnn::Rng rng(5);
  Sequential net;
  net.add(std::make_unique<eedn::TrinaryDense>(4, 8, rng));
  net.add(std::make_unique<eedn::SpikingThreshold>(8, 1.0f));
  net.add(std::make_unique<eedn::TrinaryDense>(8, 2, rng));
  EXPECT_EQ(net.inputSize(), 4);
  EXPECT_EQ(net.outputSize(), 2);
  EXPECT_EQ(net.layerCount(), 3u);
  EXPECT_EQ(net.parameterCount(), 4 * 8 + 8 + 8 * 2 + 2);
  EXPECT_THROW(net.add(std::make_unique<eedn::TrinaryDense>(3, 2, rng)),
               std::invalid_argument);
  const auto out = net.forward({1, 2, 3, 4}, false);
  EXPECT_EQ(out.size(), 2u);
}

TEST(Loss, MseZeroAtTarget) {
  const auto loss = mseLoss({1.0f, 2.0f}, {1.0f, 2.0f});
  EXPECT_FLOAT_EQ(loss.value, 0.0f);
  EXPECT_FLOAT_EQ(loss.grad[0], 0.0f);
}

TEST(Loss, MseGradientDirection) {
  const auto loss = mseLoss({2.0f}, {1.0f});
  EXPECT_FLOAT_EQ(loss.value, 1.0f);
  EXPECT_GT(loss.grad[0], 0.0f);  // decrease prediction
}

TEST(Loss, SoftmaxSumsToOne) {
  const auto probs = softmax({1.0f, 2.0f, 3.0f});
  float sum = 0;
  for (float p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0f, 1e-6f);
  EXPECT_GT(probs[2], probs[0]);
}

TEST(Loss, SoftmaxCrossEntropyGradient) {
  const auto loss = softmaxCrossEntropy({0.0f, 0.0f}, 1);
  EXPECT_NEAR(loss.value, std::log(2.0f), 1e-5f);
  EXPECT_NEAR(loss.grad[0], 0.5f, 1e-5f);
  EXPECT_NEAR(loss.grad[1], -0.5f, 1e-5f);
  EXPECT_THROW(softmaxCrossEntropy({0.0f}, 5), std::invalid_argument);
}

TEST(AvgPool2d, AveragesBlocks) {
  AvgPool2d pool(1, 4, 4, 2);
  std::vector<float> x(16);
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  const auto out = pool.forward(x, false);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_FLOAT_EQ(out[0], (0 + 1 + 4 + 5) / 4.0f);
  EXPECT_FLOAT_EQ(out[3], (10 + 11 + 14 + 15) / 4.0f);
}

TEST(AvgPool2d, BackwardDistributesEvenly) {
  AvgPool2d pool(1, 2, 2, 2);
  pool.forward({1, 2, 3, 4}, true);
  const auto grad = pool.backward({4.0f});
  for (float g : grad) EXPECT_FLOAT_EQ(g, 1.0f);
}

TEST(AvgPool2d, RejectsNonDividingDims) {
  EXPECT_THROW(AvgPool2d(1, 5, 4, 2), std::invalid_argument);
}

TEST(Rng, DeterministicAndUniform) {
  pcnn::Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.nextU64(), b.nextU64());
  pcnn::Rng c(42);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) sum += c.uniform();
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  pcnn::Rng rng(11);
  double sum = 0, sumSq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sumSq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sumSq / n, 1.0, 0.05);
}

TEST(Rng, UniformIntCoversRange) {
  pcnn::Rng rng(12);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    sawLo |= (v == 3);
    sawHi |= (v == 7);
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

}  // namespace
}  // namespace pcnn::nn
