#include <gtest/gtest.h>

#include <cmath>

#include "eval/detection_eval.hpp"
#include "eval/stats.hpp"

namespace pcnn::eval {
namespace {

using vision::Detection;
using vision::Rect;

ImageResult makeImage(std::vector<Detection> dets, std::vector<Rect> gts) {
  ImageResult result;
  result.detections = std::move(dets);
  result.groundTruth = std::move(gts);
  return result;
}

TEST(DetectionEval, PerfectDetection) {
  std::vector<ImageResult> results = {
      makeImage({{{0, 0, 64, 128}, 2.0f}}, {{0, 0, 64, 128}})};
  const Counts counts = evaluateAtThreshold(results, 0.0f);
  EXPECT_EQ(counts.truePositives, 1);
  EXPECT_EQ(counts.falsePositives, 0);
  EXPECT_EQ(counts.misses, 0);
}

TEST(DetectionEval, LowOverlapIsFalsePositiveAndMiss) {
  std::vector<ImageResult> results = {
      makeImage({{{100, 100, 64, 128}, 2.0f}}, {{0, 0, 64, 128}})};
  const Counts counts = evaluateAtThreshold(results, 0.0f);
  EXPECT_EQ(counts.truePositives, 0);
  EXPECT_EQ(counts.falsePositives, 1);
  EXPECT_EQ(counts.misses, 1);
}

TEST(DetectionEval, HalfOverlapCriterion) {
  // Shifted by 25% of width: IoU = 48*128 / (2*64*128 - 48*128) = 0.6 > 0.5.
  std::vector<ImageResult> results = {
      makeImage({{{16, 0, 64, 128}, 2.0f}}, {{0, 0, 64, 128}})};
  EXPECT_EQ(evaluateAtThreshold(results, 0.0f).truePositives, 1);

  // Shifted by 60% of width: IoU well below 0.5.
  results = {makeImage({{{40, 0, 64, 128}, 2.0f}}, {{0, 0, 64, 128}})};
  EXPECT_EQ(evaluateAtThreshold(results, 0.0f).truePositives, 0);
}

TEST(DetectionEval, OnlyOneDetectionMatchesEachGroundTruth) {
  std::vector<ImageResult> results = {makeImage(
      {{{0, 0, 64, 128}, 2.0f}, {{2, 2, 64, 128}, 1.5f}}, {{0, 0, 64, 128}})};
  const Counts counts = evaluateAtThreshold(results, 0.0f);
  EXPECT_EQ(counts.truePositives, 1);
  EXPECT_EQ(counts.falsePositives, 1);
}

TEST(DetectionEval, ThresholdFiltersDetections) {
  std::vector<ImageResult> results = {
      makeImage({{{0, 0, 64, 128}, 0.4f}}, {{0, 0, 64, 128}})};
  EXPECT_EQ(evaluateAtThreshold(results, 0.5f).truePositives, 0);
  EXPECT_EQ(evaluateAtThreshold(results, 0.5f).misses, 1);
}

TEST(DetectionEval, CurveMonotonicallyTradesOff) {
  // Two images: one with a good detection and a spurious one.
  std::vector<ImageResult> results = {
      makeImage({{{0, 0, 64, 128}, 0.9f}, {{300, 0, 64, 128}, 0.2f}},
                {{0, 0, 64, 128}}),
      makeImage({{{10, 10, 64, 128}, 0.5f}}, {{8, 8, 64, 128}})};
  const auto curve = missRateCurve(results);
  ASSERT_FALSE(curve.empty());
  // FPPI non-decreasing, miss rate non-increasing with threshold descending.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].fppi, curve[i].fppi + 1e-6f);
    EXPECT_GE(curve[i - 1].missRate, curve[i].missRate - 1e-6f);
  }
  // At the most permissive threshold everything is found.
  EXPECT_FLOAT_EQ(curve.back().missRate, 0.0f);
}

TEST(DetectionEval, EmptyResultsGiveEmptyCurve) {
  EXPECT_TRUE(missRateCurve({}).empty());
}

TEST(DetectionEval, LogAverageMissRateBounds) {
  std::vector<CurvePoint> perfect = {{1.0f, 0.0f, 0.0f}, {0.0f, 10.0f, 0.0f}};
  EXPECT_NEAR(logAverageMissRate(perfect), 1e-4f, 1e-5f);
  std::vector<CurvePoint> hopeless = {{1.0f, 0.0f, 1.0f}, {0.0f, 10.0f, 1.0f}};
  EXPECT_NEAR(logAverageMissRate(hopeless), 1.0f, 1e-5f);
  EXPECT_FLOAT_EQ(logAverageMissRate({}), 1.0f);
}

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<double> a = {1, 2, 3, 4, 5};
  std::vector<double> b = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearsonCorrelation(a, b), 1.0, 1e-12);
}

TEST(Stats, PearsonAntiCorrelation) {
  std::vector<double> a = {1, 2, 3};
  std::vector<double> b = {3, 2, 1};
  EXPECT_NEAR(pearsonCorrelation(a, b), -1.0, 1e-12);
}

TEST(Stats, PearsonZeroVariance) {
  std::vector<double> a = {1, 1, 1};
  std::vector<double> b = {1, 2, 3};
  EXPECT_EQ(pearsonCorrelation(a, b), 0.0);
}

TEST(Stats, PearsonLengthMismatchThrows) {
  EXPECT_THROW(
      pearsonCorrelation(std::vector<double>{1.0}, std::vector<double>{}),
      std::invalid_argument);
}

TEST(Stats, FloatOverload) {
  std::vector<float> a = {0.f, 1.f, 2.f};
  std::vector<float> b = {0.f, 2.f, 4.f};
  EXPECT_NEAR(pearsonCorrelation(a, b), 1.0, 1e-9);
}

TEST(Stats, Accuracy) {
  EXPECT_NEAR(accuracy({1, -1, 1, 1}, {1, -1, -1, 1}), 0.75, 1e-12);
  EXPECT_EQ(accuracy({}, {}), 0.0);
}

TEST(Stats, MeanAndStddev) {
  std::vector<double> values = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_NEAR(mean(values), 5.0, 1e-12);
  EXPECT_NEAR(stddev(values), std::sqrt(32.0 / 7.0), 1e-9);
  EXPECT_EQ(stddev({1.0}), 0.0);
}

}  // namespace
}  // namespace pcnn::eval
