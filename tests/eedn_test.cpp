#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <utility>

#include "common/rng.hpp"

#include "common/parallel.hpp"
#include "eedn/classifier.hpp"
#include "eedn/compiled.hpp"
#include "eedn/mapper.hpp"
#include "eedn/partitioned.hpp"
#include "eedn/serialize.hpp"
#include "eedn/trinary.hpp"
#include "eedn/trinary_conv.hpp"
#include "nn/loss.hpp"
#include "parrot/parrot.hpp"

namespace pcnn::eedn {
namespace {

/// A layer type the Eedn serializer and the TN mapper do not know: both
/// must reject a net that contains one.
class UnknownLayer : public nn::Layer {
 public:
  std::vector<float> forward(const std::vector<float>& input,
                             bool) override {
    return input;
  }
  std::vector<float> backward(const std::vector<float>& grad) override {
    return grad;
  }
  int inputSize() const override { return 4; }
  int outputSize() const override { return 4; }
};

TEST(Trinarize, DeadZoneAndSigns) {
  EXPECT_EQ(trinarize(0.9f, 0.5f), 1);
  EXPECT_EQ(trinarize(-0.9f, 0.5f), -1);
  EXPECT_EQ(trinarize(0.2f, 0.5f), 0);
  EXPECT_EQ(trinarize(-0.2f, 0.5f), 0);
  EXPECT_EQ(trinarize(0.5f, 0.5f), 0);  // boundary is inside the dead zone
}

TEST(TrinaryDense, ForwardUsesTrinaryWeights) {
  pcnn::Rng rng(1);
  TrinaryDense layer(3, 1, rng, 0.5f);
  layer.hiddenWeights() = {0.9f, -0.9f, 0.1f};  // effective: +1, -1, 0
  const auto out = layer.forward({1.0f, 2.0f, 100.0f}, false);
  EXPECT_FLOAT_EQ(out[0], 1.0f - 2.0f);  // bias 0
}

TEST(TrinaryDense, EffectiveWeightAccessor) {
  pcnn::Rng rng(2);
  TrinaryDense layer(2, 2, rng, 0.5f);
  layer.hiddenWeights() = {0.8f, -0.8f, 0.0f, 0.6f};
  EXPECT_EQ(layer.effectiveWeight(0, 0), 1);
  EXPECT_EQ(layer.effectiveWeight(0, 1), -1);
  EXPECT_EQ(layer.effectiveWeight(1, 0), 0);
  EXPECT_EQ(layer.effectiveWeight(1, 1), 1);
}

TEST(TrinaryDense, HiddenWeightsStayClipped) {
  pcnn::Rng rng(3);
  TrinaryDense layer(2, 1, rng, 0.5f);
  for (int step = 0; step < 50; ++step) {
    layer.forward({1.0f, 1.0f}, true);
    layer.backward({-10.0f});  // push weights up hard
    layer.applyGradients(1.0f, 0.0f, 1);
  }
  for (float w : layer.hiddenWeights()) {
    EXPECT_GE(w, -1.0f);
    EXPECT_LE(w, 1.0f);
  }
}

TEST(TrinaryDense, InvalidParamsThrow) {
  pcnn::Rng rng(4);
  EXPECT_THROW(TrinaryDense(0, 1, rng), std::invalid_argument);
  EXPECT_THROW(TrinaryDense(1, 1, rng, 0.0f), std::invalid_argument);
  EXPECT_THROW(TrinaryDense(1, 1, rng, 1.0f), std::invalid_argument);
}

TEST(TrinaryDense, LearnsSignPattern) {
  // Target: y = x0 - x1; a trinary layer can represent it exactly.
  pcnn::Rng rng(5);
  TrinaryDense layer(2, 1, rng, 0.5f);
  pcnn::Rng dataRng(6);
  for (int step = 0; step < 3000; ++step) {
    const float x0 = static_cast<float>(dataRng.uniform());
    const float x1 = static_cast<float>(dataRng.uniform());
    const auto out = layer.forward({x0, x1}, true);
    const float diff = out[0] - (x0 - x1);
    layer.backward({2.0f * diff});
    layer.applyGradients(0.02f, 0.9f, 1);
  }
  EXPECT_EQ(layer.effectiveWeight(0, 0), 1);
  EXPECT_EQ(layer.effectiveWeight(0, 1), -1);
  EXPECT_NEAR(layer.bias(0), 0.0f, 0.25f);
}

TEST(SpikingThreshold, HeavisideForward) {
  SpikingThreshold spike(3, 1.0f);
  const auto out = spike.forward({-0.5f, 0.0f, 3.0f}, false);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 1.0f);  // fires at threshold
  EXPECT_FLOAT_EQ(out[2], 1.0f);
}

TEST(SpikingThreshold, BoxcarSurrogateGradient) {
  SpikingThreshold spike(3, 1.0f);
  spike.forward({-0.5f, -5.0f, 0.5f}, true);
  const auto grad = spike.backward({1.0f, 1.0f, 1.0f});
  EXPECT_FLOAT_EQ(grad[0], 1.0f);   // inside the window
  EXPECT_FLOAT_EQ(grad[1], 0.0f);   // outside
  EXPECT_FLOAT_EQ(grad[2], 1.0f);
}

TEST(PartitionedDense, GroupGeometry) {
  pcnn::Rng rng(7);
  PartitionedDense layer(300, 128, 16, rng);
  EXPECT_EQ(layer.groupCount(), 3);  // 128 + 128 + 44
  EXPECT_EQ(layer.outputSize(), 48);
  EXPECT_EQ(layer.group(0).inputOffset, 0);
  EXPECT_EQ(layer.group(2).inputOffset, 256);
  EXPECT_EQ(layer.group(2).inputSize, 44);
}

TEST(PartitionedDense, ForwardMatchesPerGroupDense) {
  pcnn::Rng rng(8);
  PartitionedDense layer(10, 5, 3, rng);
  std::vector<float> x(10);
  pcnn::Rng dataRng(9);
  for (auto& v : x) v = static_cast<float>(dataRng.uniform());
  const auto out = layer.forward(x, false);
  ASSERT_EQ(out.size(), 6u);
  // Group 1's outputs must ignore group 0's inputs.
  std::vector<float> x2 = x;
  for (int i = 0; i < 5; ++i) x2[i] += 1.0f;
  const auto out2 = layer.forward(x2, false);
  for (int j = 3; j < 6; ++j) EXPECT_FLOAT_EQ(out[j], out2[j]);
}

TEST(PartitionedDense, BackwardRoutesGradientsToGroups) {
  pcnn::Rng rng(10);
  PartitionedDense layer(8, 4, 2, rng);
  layer.forward(std::vector<float>(8, 1.0f), true);
  // Gradient only on group 1 outputs: input grads on group 0 must be zero.
  const auto gradIn = layer.backward({0, 0, 1.0f, -1.0f});
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(gradIn[i], 0.0f);
}

TEST(EednClassifier, ConfigValidation) {
  EednClassifierConfig config;
  config.inputSize = 0;
  EXPECT_THROW(EednClassifier{config}, std::invalid_argument);
}

TEST(EednClassifier, LearnsLinearlySeparableData) {
  EednClassifierConfig config;
  config.inputSize = 16;
  config.groupInputSize = 16;
  config.outputsPerGroup = 16;
  config.hiddenWidths = {};
  config.outputPopulation = 4;
  EednClassifier classifier(config);

  // Positive: energy in the first half; negative: in the second half.
  BinaryDataset data;
  pcnn::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    std::vector<float> x(16, 0.0f);
    const bool positive = (i % 2 == 0);
    for (int d = 0; d < 8; ++d) {
      x[positive ? d : 8 + d] = 0.5f + 0.5f * static_cast<float>(rng.uniform());
    }
    data.features.push_back(std::move(x));
    data.labels.push_back(positive ? 1 : -1);
  }
  for (int epoch = 0; epoch < 40; ++epoch) {
    classifier.trainEpoch(data, 0.05f);
  }
  EXPECT_GT(classifier.evalAccuracy(data), 0.9);
}

TEST(EednClassifier, CoreEstimateCountsGroups) {
  EednClassifierConfig config;
  config.inputSize = 2304;
  config.groupInputSize = 126;
  config.outputsPerGroup = 16;
  config.hiddenWidths = {120};
  EednClassifier classifier(config);
  // ceil(2304/126) = 19 front cores + 1 hidden (fan-in 304 -> 3 splits)
  // + 1 output core.
  const long cores = classifier.coreCountEstimate();
  EXPECT_GE(cores, 19 + 1 + 1);
  EXPECT_LT(cores, 40);
}

/// Parameterized config sweep: every crossbar-compatible shape must learn
/// the same trivially separable task.
struct ClassifierShape {
  int groupInputSize;
  int outputsPerGroup;
  int hiddenCount;
};
class ClassifierConfigSweep
    : public ::testing::TestWithParam<ClassifierShape> {};

TEST_P(ClassifierConfigSweep, LearnsSeparableTask) {
  const ClassifierShape shape = GetParam();
  EednClassifierConfig config;
  config.inputSize = 64;
  config.groupInputSize = shape.groupInputSize;
  config.outputsPerGroup = shape.outputsPerGroup;
  config.hiddenWidths.assign(static_cast<std::size_t>(shape.hiddenCount),
                             64);
  config.outputPopulation = 4;
  config.seed = 5;
  EednClassifier classifier(config);

  BinaryDataset data;
  pcnn::Rng rng(11);
  for (int i = 0; i < 160; ++i) {
    std::vector<float> x(64, 0.0f);
    const bool positive = (i % 2 == 0);
    for (int d = 0; d < 32; ++d) {
      x[positive ? d : 32 + d] =
          0.5f + 0.5f * static_cast<float>(rng.uniform());
    }
    data.features.push_back(std::move(x));
    data.labels.push_back(positive ? 1 : -1);
  }
  for (int epoch = 0; epoch < 40; ++epoch) {
    classifier.trainEpoch(data, 0.05f);
  }
  EXPECT_GT(classifier.evalAccuracy(data), 0.85)
      << "groups of " << shape.groupInputSize << ", " << shape.hiddenCount
      << " hidden layers";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ClassifierConfigSweep,
    ::testing::Values(ClassifierShape{16, 8, 0}, ClassifierShape{16, 8, 1},
                      ClassifierShape{32, 16, 1}, ClassifierShape{64, 32, 2},
                      ClassifierShape{8, 4, 0}));

TEST(EednClassifier, BlindDecisionRateDetectsCollapse) {
  EednClassifierConfig config;
  config.inputSize = 4;
  config.groupInputSize = 4;
  config.outputsPerGroup = 4;
  config.hiddenWidths = {};
  EednClassifier classifier(config);
  BinaryDataset data;
  for (int i = 0; i < 10; ++i) {
    data.features.push_back({0.1f, 0.2f, 0.3f, 0.4f});
    data.labels.push_back(i % 2 == 0 ? 1 : -1);
  }
  // Identical inputs: predictions are necessarily constant => rate 1.
  EXPECT_DOUBLE_EQ(classifier.blindDecisionRate(data), 1.0);
}

TEST(TrinaryConv2d, GeometryAndValidation) {
  pcnn::Rng rng(31);
  TrinaryConv2d conv(2, 8, 10, 4, 3, 1, rng);
  EXPECT_EQ(conv.outHeight(), 8);
  EXPECT_EQ(conv.outWidth(), 10);
  EXPECT_EQ(conv.fanIn(), 2 * 9);
  EXPECT_EQ(conv.parameterCount(), 4 * 2 * 9 + 4);
  EXPECT_THROW(TrinaryConv2d(1, 2, 2, 1, 5, 0, rng), std::invalid_argument);
  EXPECT_THROW(TrinaryConv2d(1, 4, 4, 1, 3, 0, rng, 0.0f),
               std::invalid_argument);
}

TEST(TrinaryConv2d, ForwardUsesTrinaryWeights) {
  pcnn::Rng rng(32);
  TrinaryConv2d conv(1, 3, 3, 1, 1, 0, rng);  // 1x1 kernel = scalar gate
  conv.hiddenWeights() = {0.9f};              // effective +1
  const std::vector<float> x = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(conv.forward(x, false), x);
  conv.hiddenWeights() = {0.1f};  // effective 0
  for (float v : conv.forward(x, false)) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(TrinaryConv2d, LearnsSignedEdgeMask) {
  // The [-1,0,1] horizontal mask is exactly representable with trinary
  // weights; SGD with the straight-through estimator must find it.
  pcnn::Rng rng(33);
  TrinaryConv2d conv(1, 5, 5, 1, 3, 1, rng);
  pcnn::Rng dataRng(34);
  for (int step = 0; step < 4000; ++step) {
    std::vector<float> x(25);
    for (auto& v : x) v = static_cast<float>(dataRng.uniform());
    std::vector<float> target(25, 0.0f);
    for (int y = 0; y < 5; ++y) {
      for (int xx = 0; xx < 5; ++xx) {
        const float right = xx + 1 < 5 ? x[y * 5 + xx + 1] : 0.0f;
        const float left = xx - 1 >= 0 ? x[y * 5 + xx - 1] : 0.0f;
        target[y * 5 + xx] = right - left;
      }
    }
    const auto out = conv.forward(x, true);
    conv.backward(nn::mseLoss(out, target).grad);
    conv.applyGradients(0.02f, 0.9f, 1);
  }
  // Centre row of the learned kernel: -1 0 +1.
  EXPECT_EQ(conv.effectiveWeight(0, 0, 1, 0), -1);
  EXPECT_EQ(conv.effectiveWeight(0, 0, 1, 1), 0);
  EXPECT_EQ(conv.effectiveWeight(0, 0, 1, 2), 1);
}

TEST(TrinaryConv2d, HiddenWeightsStayClipped) {
  pcnn::Rng rng(35);
  TrinaryConv2d conv(1, 3, 3, 1, 3, 1, rng);
  for (int step = 0; step < 30; ++step) {
    conv.forward(std::vector<float>(9, 1.0f), true);
    conv.backward(std::vector<float>(9, -5.0f));
    conv.applyGradients(1.0f, 0.0f, 1);
  }
  for (float w : conv.hiddenWeights()) {
    EXPECT_GE(w, -1.0f);
    EXPECT_LE(w, 1.0f);
  }
}

nn::Sequential makeSerializableNet(std::uint64_t seed) {
  pcnn::Rng rng(seed);
  nn::Sequential net;
  net.add(std::make_unique<PartitionedDense>(20, 10, 6, rng));
  net.add(std::make_unique<SpikingThreshold>(12, 3.0f));
  net.add(std::make_unique<TrinaryDense>(12, 5, rng));
  return net;
}

TEST(Serialize, RoundTripPreservesOutputs) {
  nn::Sequential original = makeSerializableNet(101);
  // Nudge some parameters so the round trip carries non-initial state.
  pcnn::Rng dataRng(7);
  for (int step = 0; step < 50; ++step) {
    std::vector<float> x(20);
    for (auto& v : x) v = static_cast<float>(dataRng.uniform());
    original.forward(x, true);
    original.backward(std::vector<float>(5, 0.3f));
    original.applyGradients(0.05f, 0.9f, 1);
  }

  std::stringstream buffer;
  ASSERT_TRUE(trySaveNetwork(original, buffer).ok());

  nn::Sequential restored = makeSerializableNet(999);  // different init
  const pcnn::Status status = tryLoadNetwork(restored, buffer);
  ASSERT_TRUE(status.ok()) << status.toString();

  // Parameters restored bit-exactly (9 significant digits round-trips
  // float exactly) ...
  const auto& originalOut = dynamic_cast<TrinaryDense&>(original.layer(2));
  const auto& restoredOut = dynamic_cast<TrinaryDense&>(restored.layer(2));
  EXPECT_EQ(originalOut.hiddenWeights(), restoredOut.hiddenWeights());
  EXPECT_EQ(originalOut.biases(), restoredOut.biases());

  // ... and therefore identical outputs.
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> x(20);
    for (auto& v : x) v = static_cast<float>(dataRng.uniform());
    EXPECT_EQ(original.forward(x, false), restored.forward(x, false));
  }
}

TEST(Serialize, ShapeMismatchRejected) {
  nn::Sequential original = makeSerializableNet(1);
  std::stringstream buffer;
  ASSERT_TRUE(trySaveNetwork(original, buffer).ok());

  pcnn::Rng rng(2);
  nn::Sequential different;
  different.add(std::make_unique<TrinaryDense>(20, 5, rng));
  EXPECT_EQ(tryLoadNetwork(different, buffer).code(),
            pcnn::StatusCode::kDataLoss);
}

TEST(Serialize, TruncatedStreamRejected) {
  nn::Sequential original = makeSerializableNet(3);
  std::stringstream buffer;
  ASSERT_TRUE(trySaveNetwork(original, buffer).ok());
  const std::string text = buffer.str();
  std::stringstream truncated(text.substr(0, text.size() / 2));
  nn::Sequential target = makeSerializableNet(4);
  EXPECT_EQ(tryLoadNetwork(target, truncated).code(),
            pcnn::StatusCode::kDataLoss);
}

TEST(Serialize, UnsupportedLayerRejected) {
  nn::Sequential net;
  net.add(std::make_unique<UnknownLayer>());
  std::stringstream buffer;
  EXPECT_EQ(trySaveNetwork(net, buffer).code(),
            pcnn::StatusCode::kInvalidArgument);
}

// Output rows of the last layer that get no nonzero weights, and their
// biases: with no terms a row must output exactly its bias, -0 included.
constexpr std::pair<int, float> kDeadRows[] = {{3, 2.5f}, {5, -0.0f}};

// Gives every dense row of `net` a bias drawn from {+-0, +-0.5, +-1.5}
// (zero biases keep threshold ties at 0 and signed-zero sums reachable)
// and clears the weights of the kDeadRows rows of the last layer.
void shapeForCompiledParity(nn::Sequential& net, pcnn::Rng& rng) {
  constexpr float kBiases[] = {0.0f, -0.0f, 0.5f, -0.5f, 1.5f, -1.5f};
  auto shape = [&](TrinaryDense& layer) {
    for (float& b : layer.biases()) b = kBiases[rng.uniformInt(0, 5)];
  };
  for (std::size_t l = 0; l < net.layerCount(); ++l) {
    if (auto* dense = dynamic_cast<TrinaryDense*>(&net.layer(l))) {
      shape(*dense);
    } else if (auto* part = dynamic_cast<PartitionedDense*>(&net.layer(l))) {
      for (int g = 0; g < part->groupCount(); ++g) {
        shape(part->mutableGroupLayer(g));
      }
    }
  }
  auto& last = dynamic_cast<TrinaryDense&>(net.layer(net.layerCount() - 1));
  for (const auto& [row, bias] : kDeadRows) {
    std::fill_n(last.hiddenWeights().begin() +
                    static_cast<std::ptrdiff_t>(row) * last.inputSize(),
                last.inputSize(), 0.0f);
    last.biases()[static_cast<std::size_t>(row)] = bias;
  }
}

std::uint32_t floatBits(float v) { return std::bit_cast<std::uint32_t>(v); }

// forwardBatch splits every stage over (64-column tile x output row) items
// and pads its planes to whole 8-float vectors. On both sides of every tile
// edge, and at any thread count, each output must equal the layer-wise
// forward of its sample bit for bit (signed zeros included).
void checkCompiledParity(nn::Sequential& net, float inputLow,
                         std::uint64_t seed) {
  pcnn::Rng rng(seed);
  shapeForCompiledParity(net, rng);
  const CompiledTrinaryNet compiled(net);
  const int in = compiled.inputSize();
  const int out = compiled.outputSize();
  const int before = pcnn::threadCount();
  for (int count : {1, 63, 64, 65, 160, 255, 256, 1200}) {
    // Every fifth column is all zeros and a fifth of the other inputs are
    // exact zeros, so stages hit exact-zero sums and threshold ties.
    std::vector<float> plane(static_cast<std::size_t>(in) * count);
    for (int i = 0; i < in; ++i) {
      for (int s = 0; s < count; ++s) {
        const bool zero = s % 5 == 4 || rng.uniformInt(0, 4) == 0;
        plane[static_cast<std::size_t>(i) * count + s] =
            zero ? 0.0f
                 : inputLow + static_cast<float>(rng.uniform());
      }
    }
    std::vector<std::vector<float>> expected(static_cast<std::size_t>(count));
    for (int s = 0; s < count; ++s) {
      std::vector<float> sample(static_cast<std::size_t>(in));
      for (int i = 0; i < in; ++i) {
        sample[static_cast<std::size_t>(i)] =
            plane[static_cast<std::size_t>(i) * count + s];
      }
      expected[static_cast<std::size_t>(s)] = net.forward(sample, false);
      for (const auto& [row, bias] : kDeadRows) {
        EXPECT_EQ(floatBits(expected[static_cast<std::size_t>(s)]
                                    [static_cast<std::size_t>(row)]),
                  floatBits(bias));
      }
    }
    for (int threads : {1, 2, 4}) {
      pcnn::setThreadCount(threads);
      const std::vector<float> got = compiled.forwardBatch(plane, count);
      ASSERT_EQ(got.size(), static_cast<std::size_t>(out) * count);
      for (int s = 0; s < count; ++s) {
        for (int j = 0; j < out; ++j) {
          EXPECT_EQ(floatBits(got[static_cast<std::size_t>(j) * count + s]),
                    floatBits(expected[static_cast<std::size_t>(s)]
                                      [static_cast<std::size_t>(j)]))
              << "count " << count << " threads " << threads << " sample "
              << s << " output " << j;
        }
      }
    }
  }
  pcnn::setThreadCount(before);
}

TEST(CompiledTrinaryNet, ForwardBatchMatchesForwardAcrossTileEdges) {
  // The deployed parrot shape: 100 -> 504 -> 4 groups x 26 -> 18.
  parrot::ParrotHog parrotHog;
  checkCompiledParity(parrotHog.net(), 0.0f, 22);

  // A small net whose first stage is a PartitionedDense, on signed inputs.
  pcnn::Rng rng(21);
  nn::Sequential net;
  net.add(std::make_unique<PartitionedDense>(100, 50, 16, rng));
  net.add(std::make_unique<SpikingThreshold>(32, 3.0f));
  net.add(std::make_unique<TrinaryDense>(32, 9, rng));
  checkCompiledParity(net, -0.5f, 23);
}

TEST(TnMapper, MappedNetworkMatchesReferenceExactly) {
  // Small trainable net, random weights: simulator must agree with the
  // integer reference on every random binary input.
  pcnn::Rng rng(13);
  nn::Sequential net;
  net.add(std::make_unique<PartitionedDense>(20, 10, 6, rng));
  net.add(std::make_unique<SpikingThreshold>(12, 3.0f));
  net.add(std::make_unique<TrinaryDense>(12, 5, rng));

  auto mapped = TnMapper::map(net);
  EXPECT_EQ(mapped->inputSize(), 20);
  EXPECT_EQ(mapped->outputSize(), 5);
  EXPECT_EQ(mapped->depth(), 2);
  EXPECT_EQ(mapped->coreCount(), 3);

  pcnn::Rng dataRng(14);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<int> input(20);
    for (auto& v : input) v = dataRng.bernoulli(0.4) ? 1 : 0;
    EXPECT_EQ(mapped->forwardSpikes(input), mapped->referenceForward(input))
        << "trial " << trial;
  }
}

TEST(TnMapper, ReferenceMatchesFloatNetOnBinaryInputs) {
  // With integer-rounded biases the reference forward equals the float
  // network thresholded at 0 (biases trained here stay at 0).
  pcnn::Rng rng(15);
  nn::Sequential net;
  net.add(std::make_unique<TrinaryDense>(8, 6, rng));
  net.add(std::make_unique<SpikingThreshold>(6, 2.0f));
  net.add(std::make_unique<TrinaryDense>(6, 3, rng));
  auto mapped = TnMapper::map(net);

  pcnn::Rng dataRng(16);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> input(8);
    std::vector<float> fin(8);
    for (int i = 0; i < 8; ++i) {
      input[i] = dataRng.bernoulli(0.5) ? 1 : 0;
      fin[i] = static_cast<float>(input[i]);
    }
    const auto scores = net.forward(fin, false);
    const auto spikes = mapped->referenceForward(input);
    for (std::size_t j = 0; j < spikes.size(); ++j) {
      EXPECT_EQ(spikes[j], scores[j] >= 0.0f ? 1 : 0);
    }
  }
}

TEST(TnMapper, RejectsOversizedFanIn) {
  pcnn::Rng rng(17);
  nn::Sequential net;
  net.add(std::make_unique<TrinaryDense>(200, 4, rng));
  EXPECT_THROW(TnMapper::map(net), std::invalid_argument);
}

TEST(TnMapper, ChunksWideBanksAcrossCores) {
  // A 300-neuron bank exceeds one core: it must split into 128-neuron
  // chunks, the downstream merge stage reading across chunk boundaries,
  // with simulation still exactly matching the reference.
  pcnn::Rng rng(18);
  nn::Sequential net;
  net.add(std::make_unique<TrinaryDense>(20, 300, rng));
  net.add(std::make_unique<SpikingThreshold>(300, 4.0f));
  net.add(std::make_unique<PartitionedDense>(300, 100, 10, rng));
  net.add(std::make_unique<SpikingThreshold>(30, 10.0f));
  net.add(std::make_unique<TrinaryDense>(30, 4, rng));
  auto mapped = TnMapper::map(net);
  // 3 chunk cores + 3 merge groups + 1 output core.
  EXPECT_EQ(mapped->coreCount(), 7);
  pcnn::Rng dataRng(19);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int> input(20);
    for (auto& v : input) v = dataRng.bernoulli(0.5) ? 1 : 0;
    EXPECT_EQ(mapped->forwardSpikes(input), mapped->referenceForward(input));
  }
}

TEST(TnMapper, MultiConsumerFanOut) {
  // A producer whose outputs feed a *chunked* wide bank downstream needs
  // one copy pair per chunk core; verify exactness in that topology.
  pcnn::Rng rng(20);
  nn::Sequential net;
  net.add(std::make_unique<TrinaryDense>(16, 40, rng));
  net.add(std::make_unique<SpikingThreshold>(40, 4.0f));
  net.add(std::make_unique<TrinaryDense>(40, 200, rng));  // 2 chunks
  net.add(std::make_unique<SpikingThreshold>(200, 6.0f));
  net.add(std::make_unique<PartitionedDense>(200, 100, 4, rng));
  auto mapped = TnMapper::map(net);
  EXPECT_EQ(mapped->coreCount(), 1 + 2 + 2);
  pcnn::Rng dataRng(21);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int> input(16);
    for (auto& v : input) v = dataRng.bernoulli(0.5) ? 1 : 0;
    EXPECT_EQ(mapped->forwardSpikes(input), mapped->referenceForward(input));
  }
}

TEST(TnMapper, RejectsOverflowingDuplication) {
  // 128 logical producers x 2 consumers x 2 signs = 512 copies > 256.
  pcnn::Rng rng(22);
  nn::Sequential net;
  net.add(std::make_unique<TrinaryDense>(16, 128, rng));
  net.add(std::make_unique<SpikingThreshold>(128, 4.0f));
  net.add(std::make_unique<TrinaryDense>(128, 200, rng));  // 2 chunks
  EXPECT_THROW(TnMapper::map(net), std::invalid_argument);
}

TEST(TnMapper, RejectsUnsupportedLayers) {
  nn::Sequential net;
  net.add(std::make_unique<UnknownLayer>());
  EXPECT_THROW(TnMapper::map(net), std::invalid_argument);
}

}  // namespace
}  // namespace pcnn::eedn
