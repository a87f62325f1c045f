#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"
#include "eedn/mapper.hpp"
#include "eval/stats.hpp"
#include "parrot/generator.hpp"
#include "parrot/parrot.hpp"
#include "vision/synth.hpp"

namespace pcnn::parrot {
namespace {

TEST(Generator, SampleShapes) {
  OrientedSampleGenerator generator;
  pcnn::Rng rng(1);
  const ParrotSample sample = generator.sample(rng);
  EXPECT_EQ(sample.pixels.size(), 100u);
  EXPECT_EQ(sample.target.size(), 18u);
  for (float v : sample.pixels) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
  for (float v : sample.target) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 64.0f);  // vote counts of an 8x8 cell
  }
}

TEST(Generator, TargetsAreReferenceHistograms) {
  // The label is by construction the NApprox(fp) histogram / 64.
  OrientedSampleGenerator generator;
  napprox::NApproxHog reference;
  pcnn::Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    const ParrotSample sample = generator.sample(rng);
    vision::Image img(10, 10);
    img.data() = sample.pixels;
    const auto hist = reference.cellHistogram(img, 1, 1);
    for (std::size_t k = 0; k < hist.size(); ++k) {
      EXPECT_NEAR(sample.target[k], hist[k], 1e-6f);
    }
  }
}

TEST(Generator, DominantBinConsistent) {
  OrientedSampleGenerator generator;
  pcnn::Rng rng(3);
  for (int i = 0; i < 30; ++i) {
    const ParrotSample sample = generator.sample(rng);
    if (sample.dominantBin < 0) continue;
    const float best = sample.target[sample.dominantBin];
    for (float v : sample.target) EXPECT_LE(v, best + 1e-6f);
    EXPECT_GT(best, 0.0f);
  }
}

TEST(Generator, FillRatioVariesAcrossSamples) {
  // "different ratio of 1's and 0's": the foreground fraction must spread.
  OrientedSampleGenerator generator;
  pcnn::Rng rng(4);
  float minFill = 1.0f, maxFill = 0.0f;
  for (int i = 0; i < 60; ++i) {
    const vision::Image patch = generator.patch(rng);
    const float fill = vision::meanValue(patch);
    minFill = std::min(minFill, fill);
    maxFill = std::max(maxFill, fill);
  }
  EXPECT_LT(minFill, 0.35f);
  EXPECT_GT(maxFill, 0.65f);
}

TEST(Generator, BatchSize) {
  OrientedSampleGenerator generator;
  pcnn::Rng rng(5);
  EXPECT_EQ(generator.batch(17, rng).size(), 17u);
  EXPECT_TRUE(generator.batch(0, rng).empty());
}

TEST(ParrotHog, ConfigValidation) {
  ParrotConfig config;
  config.hiddenWidth = 0;
  EXPECT_THROW(ParrotHog{config}, std::invalid_argument);
  config = ParrotConfig{};
  config.hiddenWidth = 505;  // 5 merge groups -> 130 > 127 output fan-in
  EXPECT_THROW(ParrotHog{config}, std::invalid_argument);
  config = ParrotConfig{};
  config.mergeGroupInput = 128;  // exceeds crossbar fan-in
  EXPECT_THROW(ParrotHog{config}, std::invalid_argument);
}

TEST(ParrotHog, InferShapeChecks) {
  ParrotHog hog;
  EXPECT_THROW(hog.infer(std::vector<float>(50)), std::invalid_argument);
  const auto out = hog.infer(std::vector<float>(100, 0.5f));
  EXPECT_EQ(out.size(), 18u);
}

TEST(ParrotHog, TrainingReducesLoss) {
  ParrotConfig config;
  config.seed = 7;
  ParrotHog hog(config);
  OrientedSampleGenerator generator;
  const float before = hog.validate(generator, 150);
  hog.train(generator, 1200, 8, 0.01f);
  const float after = hog.validate(generator, 150);
  EXPECT_LT(after, before * 0.8f);
}

TEST(ParrotHog, LearnsDominantOrientation) {
  // The headline parrot property: after training, the network's argmax bin
  // matches the reference HoG's dominant bin on most validation samples.
  ParrotConfig config;
  config.seed = 11;
  ParrotHog hog(config);
  OrientedSampleGenerator generator;  // full training distribution
  hog.train(generator, 4000, 16, 0.005f);
  // Evaluate mimicry on the clean binary patterns of the paper's Figure 3,
  // where the dominant orientation is unambiguous. 18-way task, chance is
  // 0.056.
  GeneratorParams cleanParams;
  cleanParams.grayLevels = false;
  cleanParams.gratingProbability = 0.0f;
  cleanParams.randomProbability = 0.0f;
  cleanParams.textureProbability = 0.0f;
  const OrientedSampleGenerator cleanGenerator(cleanParams);
  EXPECT_GT(hog.dominantBinAccuracy(cleanGenerator, 300), 0.5);
}

TEST(ParrotHog, CellGridLayout) {
  ParrotHog hog;
  vision::Image img(64, 128, 0.5f);
  const auto grid = hog.computeCells(img);
  EXPECT_EQ(grid.cellsX, 8);
  EXPECT_EQ(grid.cellsY, 16);
  EXPECT_EQ(grid.bins, 18);
}

TEST(ParrotHog, StochasticCodingAddsBoundedNoise) {
  ParrotConfig config;
  config.seed = 13;
  ParrotHog exact(config);
  OrientedSampleGenerator generator;
  exact.train(generator, 800, 6, 0.01f);

  pcnn::Rng rng(17);
  const ParrotSample sample = generator.sample(rng);
  const auto cleanOut = exact.infer(sample.pixels);

  exact.setInputSpikes(32);
  const auto codedOut = exact.infer(sample.pixels);
  exact.setInputSpikes(0);

  // 32-spike coding perturbs outputs but keeps them close on average.
  double diff = 0;
  for (std::size_t k = 0; k < cleanOut.size(); ++k) {
    diff += std::abs(cleanOut[k] - codedOut[k]);
  }
  EXPECT_LT(diff / static_cast<double>(cleanOut.size()), 0.5);
}

TEST(ParrotHog, OneSpikeCodingIsCoarsest) {
  // With binary (0/1) patch inputs, 1-spike Bernoulli coding still conveys
  // the pattern; with graded inputs it quantizes hard. Check it runs and
  // produces finite outputs.
  ParrotHog hog;
  hog.setInputSpikes(1);
  const auto out = hog.infer(std::vector<float>(100, 0.5f));
  for (float v : out) EXPECT_TRUE(std::isfinite(v));
}

TEST(ParrotHog, MapsOntoTrueNorthCores) {
  // The trained parrot must deploy onto the simulator through the Eedn
  // mapper -- the paper's whole point is extractor and classifier sharing
  // the platform.
  ParrotConfig config;
  config.seed = 19;
  ParrotHog hog(config);
  auto mapped = eedn::TnMapper::map(hog.net());
  EXPECT_EQ(mapped->inputSize(), 100);
  EXPECT_EQ(mapped->outputSize(), 18);
  EXPECT_EQ(mapped->coreCount(), hog.mappedCoresPerCell());

  pcnn::Rng rng(23);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<int> input(100);
    for (auto& v : input) v = rng.bernoulli(0.5) ? 1 : 0;
    EXPECT_EQ(mapped->forwardSpikes(input), mapped->referenceForward(input));
  }
}

}  // namespace
}  // namespace pcnn::parrot
