#include <gtest/gtest.h>

#include <cmath>

#include <sstream>

#include "common/rng.hpp"
#include "extract/registry.hpp"
#include "svm/linear_svm.hpp"
#include "svm/mining.hpp"
#include "svm/serialize.hpp"
#include "vision/synth.hpp"

namespace pcnn::svm {
namespace {

TEST(LinearSvm, RejectsBadInput) {
  LinearSvm svm;
  EXPECT_THROW(svm.train({}, {}), std::invalid_argument);
  EXPECT_THROW(svm.train({{1.0f}}, {2}), std::invalid_argument);
  EXPECT_THROW(svm.train({{1.0f}, {1.0f, 2.0f}}, {1, -1}),
               std::invalid_argument);
  SvmParams params;
  params.C = 0.0;
  EXPECT_THROW(LinearSvm{params}, std::invalid_argument);
}

TEST(LinearSvm, SeparatesTrivialData) {
  LinearSvm svm;
  std::vector<std::vector<float>> x = {{2.0f}, {1.5f}, {-1.0f}, {-2.5f}};
  std::vector<int> y = {1, 1, -1, -1};
  svm.train(x, y);
  EXPECT_TRUE(svm.trained());
  EXPECT_DOUBLE_EQ(svm.accuracy(x, y), 1.0);
  EXPECT_GT(svm.decision({3.0f}), 0.0);
  EXPECT_LT(svm.decision({-3.0f}), 0.0);
}

TEST(LinearSvm, LearnsBiasedHyperplane) {
  // Separable at x > 5, so a bias is required.
  LinearSvm svm;
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 40; ++i) {
    const float v = static_cast<float>(i) * 0.25f;
    x.push_back({v});
    y.push_back(v > 5.0f ? 1 : -1);
  }
  svm.train(x, y);
  // The boundary sample at v = 5.0 may fall on the margin; everything
  // else must classify correctly.
  EXPECT_GE(svm.accuracy(x, y), 0.95);
}

TEST(LinearSvm, MarginMaximisation2D) {
  // Canonical 2-point problem: w = (1,0), margin at x=0.
  LinearSvm svm;
  SvmParams params;
  params.C = 100.0;
  params.maxIterations = 2000;
  LinearSvm strict(params);
  strict.train({{1.0f, 0.0f}, {-1.0f, 0.0f}}, {1, -1});
  EXPECT_NEAR(strict.weights()[0], 1.0, 0.05);
  EXPECT_NEAR(strict.weights()[1], 0.0, 0.05);
  EXPECT_NEAR(strict.bias(), 0.0, 0.05);
}

TEST(LinearSvm, NoisyDataStillMostlyCorrect) {
  pcnn::Rng rng(3);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 300; ++i) {
    const bool positive = i % 2 == 0;
    std::vector<float> f(10);
    for (auto& v : f) {
      v = static_cast<float>(rng.normal()) +
          (positive ? 0.8f : -0.8f);
    }
    x.push_back(std::move(f));
    y.push_back(positive ? 1 : -1);
  }
  LinearSvm svm;
  svm.train(x, y);
  EXPECT_GT(svm.accuracy(x, y), 0.9);
}

TEST(LinearSvm, DecisionDimensionCheck) {
  LinearSvm svm;
  svm.train({{1.0f, 0.0f}, {-1.0f, 0.0f}}, {1, -1});
  EXPECT_THROW(svm.decision({1.0f}), std::invalid_argument);
}

TEST(Serialize, RoundTripPreservesDecisions) {
  LinearSvm model;
  model.train({{1.0f, 0.2f}, {0.5f, -1.0f}, {-1.0f, 0.1f}, {-0.4f, 1.0f}},
              {1, 1, -1, -1});
  std::stringstream buffer;
  ASSERT_TRUE(trySaveModel(model, buffer).ok());
  StatusOr<LinearSvm> loaded = tryLoadModel(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
  const LinearSvm restored = std::move(loaded).value();
  for (float a : {-1.0f, 0.0f, 0.7f}) {
    for (float b : {-0.5f, 0.3f}) {
      EXPECT_DOUBLE_EQ(model.decision({a, b}), restored.decision({a, b}));
    }
  }
  EXPECT_DOUBLE_EQ(restored.params().C, model.params().C);
}

TEST(Serialize, UntrainedModelRejected) {
  LinearSvm model;
  std::stringstream buffer;
  EXPECT_EQ(trySaveModel(model, buffer).code(),
            pcnn::StatusCode::kFailedPrecondition);
  EXPECT_TRUE(buffer.str().empty());
}

TEST(Serialize, BadHeaderIsDataLoss) {
  std::stringstream buffer("not-a-model 3");
  EXPECT_EQ(tryLoadModel(buffer).status().code(),
            pcnn::StatusCode::kDataLoss);
}

TEST(Mining, RequiresBothClasses) {
  LinearSvm svm;
  const auto extractor = extract::makeExtractor("hog");
  EXPECT_THROW(trainWithHardNegatives(svm, *extractor, {},
                                      {vision::Image(64, 128)}, {}),
               std::invalid_argument);
}

TEST(Mining, MinesFalsePositivesAndImproves) {
  // Tiny synthetic setup: 16x32 windows (2x4 HoG cells, flat-cell
  // features); positives carry a bright upright bar, negatives a faint one.
  pcnn::Rng rng(5);
  auto makeWindow = [&](bool positive) {
    vision::Image img(16, 32, 0.2f);
    for (int y = 8; y < 24; ++y) {
      for (int x = 4; x < 12; ++x) {
        img.at(x, y) = positive ? 0.9f : 0.25f;
      }
    }
    for (float& v : img.data()) {
      v += 0.05f * static_cast<float>(rng.normal());
    }
    return img;
  };
  std::vector<vision::Image> pos, neg, scenes;
  for (int i = 0; i < 30; ++i) pos.push_back(makeWindow(true));
  for (int i = 0; i < 30; ++i) neg.push_back(makeWindow(false));
  // Negative scenes containing decoys that replicate the positive pattern:
  // by construction the initial SVM scores them high, so mining must find
  // and absorb them.
  for (int i = 0; i < 2; ++i) {
    vision::Image scene(64, 96, 0.2f);
    const vision::Image decoy = makeWindow(true);
    // On a cell-aligned scan position so the initial model fires on it.
    for (int y = 0; y < 32; ++y) {
      for (int x = 0; x < 16; ++x) {
        scene.at(16 + x, 32 + y) = decoy.at(x, y);
      }
    }
    scenes.push_back(scene);
  }

  MiningParams params;
  params.mineThreshold = -0.5f;  // mine near-boundary windows too
  params.scan.windowWidth = 16;
  params.scan.windowHeight = 32;
  params.scan.strideX = 8;
  params.scan.strideY = 8;
  params.scan.pyramid.maxLevels = 1;
  extract::ExtractorOptions options;
  options.windowCellsX = 2;
  options.windowCellsY = 4;
  const auto extractor = extract::makeExtractor("hog", options);

  // Baseline without mining for comparison.
  LinearSvm baseline;
  MiningParams noMining = params;
  noMining.rounds = 0;
  trainWithHardNegatives(baseline, *extractor, pos, neg, scenes, noMining);

  LinearSvm svm;
  const MiningResult result =
      trainWithHardNegatives(svm, *extractor, pos, neg, scenes, params);
  EXPECT_GT(result.minedNegatives, 0);
  EXPECT_GT(result.finalTrainAccuracy, 0.8);

  // Mining must lower the scene windows' decision values overall.
  auto maxSceneScore = [&](const LinearSvm& model) {
    double best = -1e9;
    vision::forEachWindowOnGrid(
        scenes[0], params.scan, extractor->cellSize(),
        [&](const vision::Image& level) { return extractor->cellGrid(level); },
        [&](const vision::Image&, const hog::CellGrid& grid, int cx0, int cy0,
            const vision::Rect&, const vision::Rect&) {
          best = std::max(best, model.decision(
                                    extractor->windowFromGrid(grid, cx0, cy0)));
        });
    return best;
  };
  EXPECT_LT(maxSceneScore(svm), maxSceneScore(baseline));
}

}  // namespace
}  // namespace pcnn::svm
