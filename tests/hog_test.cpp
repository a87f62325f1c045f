#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"
#include "extract/backends.hpp"
#include "hog/fixed_point.hpp"
#include "hog/gradient.hpp"
#include "hog/hog.hpp"
#include "hog/visualize.hpp"
#include "vision/synth.hpp"

namespace pcnn::hog {
namespace {

vision::Image horizontalRamp(int w, int h, float slope) {
  vision::Image img(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) img.at(x, y) = slope * static_cast<float>(x);
  }
  return img;
}

vision::Image verticalRamp(int w, int h, float slope) {
  vision::Image img(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) img.at(x, y) = slope * static_cast<float>(y);
  }
  return img;
}

TEST(Gradient, CentredDifferenceOnRamp) {
  const auto field = computeGradients(horizontalRamp(8, 8, 0.1f));
  // Interior pixels: Ix = v(x+1) - v(x-1) = 0.2, Iy = 0.
  EXPECT_NEAR(field.gx(4, 4), 0.2f, 1e-5f);
  EXPECT_NEAR(field.gy(4, 4), 0.0f, 1e-5f);
}

TEST(Gradient, SignConventionMatchesPaperDiagram) {
  // Iy = P1 - P7 = pixel above minus pixel below (rows top-down).
  const auto field = computeGradients(verticalRamp(8, 8, 0.1f));
  EXPECT_NEAR(field.gy(4, 4), -0.2f, 1e-5f);
  EXPECT_NEAR(field.gx(4, 4), 0.0f, 1e-5f);
}

TEST(Gradient, BorderUsesClamping) {
  const auto field = computeGradients(horizontalRamp(8, 8, 0.1f));
  // At x=0, Ix = v(1) - v(0) = 0.1 (replicated border).
  EXPECT_NEAR(field.gx(0, 4), 0.1f, 1e-5f);
}

TEST(HogExtractor, VerticalEdgeVotesHorizontalGradientBin) {
  // Vertical edge => gradient points along +x => angle 0 => bin 0 (0-20deg).
  vision::Image img(16, 16, 0.0f);
  for (int y = 0; y < 16; ++y) {
    for (int x = 8; x < 16; ++x) img.at(x, y) = 1.0f;
  }
  HogParams params;
  params.bilinearBinning = false;
  const HogExtractor hog(params);
  const auto hist = hog.cellHistogram(img, 4, 4);
  const int best = static_cast<int>(
      std::max_element(hist.begin(), hist.end()) - hist.begin());
  EXPECT_EQ(best, 0);
}

TEST(HogExtractor, HorizontalEdgeVotesVerticalGradientBin) {
  vision::Image img(16, 16, 0.0f);
  for (int y = 8; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) img.at(x, y) = 1.0f;
  }
  HogParams params;
  params.bilinearBinning = false;
  const HogExtractor hog(params);
  const auto hist = hog.cellHistogram(img, 4, 4);
  const int best = static_cast<int>(
      std::max_element(hist.begin(), hist.end()) - hist.begin());
  // 90 degrees falls in bin 4 of 9 unsigned 20-degree bins.
  EXPECT_EQ(best, 4);
}

TEST(HogExtractor, FlatCellHasEmptyHistogram) {
  vision::Image img(16, 16, 0.7f);
  const HogExtractor hog;
  const auto hist = hog.cellHistogram(img, 4, 4);
  for (float v : hist) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(HogExtractor, WeightedVoteSumsMagnitudes) {
  const auto img = horizontalRamp(16, 16, 0.05f);
  HogParams params;
  params.bilinearBinning = false;
  const HogExtractor hog(params);
  const auto hist = hog.cellHistogram(img, 4, 4);
  const float total = std::accumulate(hist.begin(), hist.end(), 0.0f);
  // 64 pixels, each with |grad| = 0.1.
  EXPECT_NEAR(total, 64 * 0.1f, 1e-4f);
}

TEST(HogExtractor, CountVoteCountsPixels) {
  const auto img = horizontalRamp(16, 16, 0.05f);
  HogParams params;
  params.weightedVote = false;
  params.bilinearBinning = false;
  const HogExtractor hog(params);
  const auto hist = hog.cellHistogram(img, 4, 4);
  EXPECT_NEAR(std::accumulate(hist.begin(), hist.end(), 0.0f), 64.0f, 1e-4f);
}

TEST(HogExtractor, BilinearSplitsVoteBetweenBins) {
  HogParams params;
  params.bilinearBinning = true;
  const HogExtractor hog(params);
  // 30-degree gradient: between bin centres 10deg (bin 0) and 30deg (bin 1).
  vision::Image img(16, 16);
  const float angle = 30.0f * 3.14159265f / 180.0f;
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      img.at(x, y) = 0.05f * (std::cos(angle) * x - std::sin(angle) * y);
    }
  }
  const auto hist = hog.cellHistogram(img, 4, 4);
  // Gradient angle is exactly the bin-1 centre: the whole vote lands there.
  const int best = static_cast<int>(
      std::max_element(hist.begin(), hist.end()) - hist.begin());
  EXPECT_EQ(best, 1);
}

TEST(HogExtractor, DescriptorSizeMatchesDalal) {
  const extract::HogBackend hog("hog", extract::FeatureLayout::kBlockNorm);
  EXPECT_EQ(hog.featureDim(), 3780);  // 7*15*4*9

  HogParams params18;
  params18.numBins = 18;
  params18.signedOrientation = true;
  const extract::HogBackend hog18("hog", extract::FeatureLayout::kBlockNorm,
                                  params18);
  // The paper's 7,560 = 7*15*18*4 feature elements per window.
  EXPECT_EQ(hog18.featureDim(), 7560);
}

TEST(HogExtractor, WindowDescriptorLengthMatches) {
  extract::HogBackend hog("hog", extract::FeatureLayout::kBlockNorm);
  vision::Image window(64, 128, 0.5f);
  EXPECT_EQ(static_cast<int>(hog.windowFeatures(window).size()),
            hog.featureDim());
}

TEST(HogExtractor, L2NormalizedBlocksHaveUnitOrZeroNorm) {
  pcnn::Rng rng(17);
  vision::SyntheticPersonDataset dataset;
  const vision::Image window = dataset.positiveWindow(rng);
  extract::HogBackend hog("hog", extract::FeatureLayout::kBlockNorm);
  const auto desc = hog.windowFeatures(window);
  const int blockLen = 4 * hog.bins();
  ASSERT_EQ(desc.size() % blockLen, 0u);
  for (std::size_t b = 0; b < desc.size(); b += blockLen) {
    double norm = 0.0;
    for (int i = 0; i < blockLen; ++i) norm += desc[b + i] * desc[b + i];
    norm = std::sqrt(norm);
    EXPECT_TRUE(norm < 1e-3 || std::abs(norm - 1.0) < 1e-2)
        << "block norm " << norm;
  }
}

TEST(HogExtractor, CellDescriptorIsFlatGrid) {
  HogParams params;
  params.numBins = 18;
  params.signedOrientation = true;
  extract::HogBackend hog("hog", extract::FeatureLayout::kFlatCell, params);
  vision::Image window(64, 128, 0.5f);
  const auto features = hog.windowFeatures(window);
  EXPECT_EQ(features.size(), static_cast<std::size_t>(8 * 16 * 18));
  EXPECT_EQ(features, HogExtractor(params).computeCells(window).data);
}

TEST(HogExtractor, InvalidParamsThrow) {
  HogParams params;
  params.cellSize = 0;
  EXPECT_THROW(HogExtractor{params}, std::invalid_argument);
}

TEST(FixedPointHog, MagnitudeApproximationWithinBounds) {
  // alpha-max-beta-min with beta=3/8: error < 8% of the true magnitude
  // once the (3*min)>>3 term has enough bits; tiny components only see
  // integer truncation, bounded separately below.
  for (int ix = -48; ix <= 48; ix += 8) {
    for (int iy = -48; iy <= 48; iy += 8) {
      if (ix == 0 && iy == 0) continue;
      const double exact = std::sqrt(static_cast<double>(ix) * ix +
                                     static_cast<double>(iy) * iy);
      const double approx = FixedPointHog::approxMagnitude(ix, iy);
      const int mn = std::min(std::abs(ix), std::abs(iy));
      if (mn == 0 || mn >= 8) {
        EXPECT_NEAR(approx / exact, 1.0, 0.08)
            << "ix=" << ix << " iy=" << iy;
      }
      // Truncation never over-estimates and never drops below max(|x|,|y|).
      EXPECT_LE(approx, exact * 1.08);
      EXPECT_GE(approx, std::max(std::abs(ix), std::abs(iy)));
    }
  }
}

TEST(FixedPointHog, OrientationBinMatchesFloatAtan) {
  const FixedPointHog hog;
  pcnn::Rng rng(23);
  int disagreements = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    const int ix = rng.uniformInt(-255, 255);
    const int iy = rng.uniformInt(-255, 255);
    if (ix == 0 && iy == 0) continue;
    double angle = std::atan2(static_cast<double>(iy),
                              static_cast<double>(ix)) * 180.0 / M_PI;
    if (angle < 0) angle += 360.0;
    if (angle >= 180.0) angle -= 180.0;
    int expected = static_cast<int>(angle / 20.0);
    if (expected > 8) expected = 8;
    if (hog.orientationBin(ix, iy) != expected) ++disagreements;
  }
  // Boundary rounding may flip a handful of near-boundary angles.
  EXPECT_LT(disagreements, trials / 100);
}

TEST(FixedPointHog, EvenBinCountRejected) {
  FixedPointHogParams params;
  params.numBins = 8;
  EXPECT_THROW(FixedPointHog{params}, std::invalid_argument);
}

TEST(FixedPointHog, DescriptorMatchesFloatHogQualitatively) {
  // The fixed-point pipeline must produce features highly correlated with
  // the float reference on the same window.
  pcnn::Rng rng(31);
  vision::SyntheticPersonDataset dataset;
  const vision::Image window = dataset.positiveWindow(rng);

  extract::FixedPointBackend fixedHog("fixedpoint",
                                     extract::FeatureLayout::kBlockNorm);
  HogParams floatParams;
  floatParams.bilinearBinning = false;  // fixed-point bins to nearest
  extract::HogBackend floatHog("hog", extract::FeatureLayout::kBlockNorm,
                               floatParams);

  const auto fixedDesc = fixedHog.windowFeatures(window);
  const auto floatDesc = floatHog.windowFeatures(window);
  ASSERT_EQ(fixedDesc.size(), floatDesc.size());

  double dot = 0, na = 0, nb = 0;
  for (std::size_t i = 0; i < fixedDesc.size(); ++i) {
    dot += fixedDesc[i] * floatDesc[i];
    na += fixedDesc[i] * fixedDesc[i];
    nb += floatDesc[i] * floatDesc[i];
  }
  const double cosine = dot / std::sqrt(na * nb);
  EXPECT_GT(cosine, 0.95);
}

TEST(Visualize, GlyphImageGeometryAndContent) {
  pcnn::Rng rng(41);
  vision::SyntheticPersonDataset dataset;
  const vision::Image window = dataset.positiveWindow(rng);
  const HogExtractor hog;
  const CellGrid grid = hog.computeCells(window);
  const vision::RgbImage glyphs = renderHogGlyphs(grid, false, 12);
  EXPECT_EQ(glyphs.width(), grid.cellsX * 12);
  EXPECT_EQ(glyphs.height(), grid.cellsY * 12);
  // A textured window must render visible (above-background) strokes.
  int bright = 0;
  for (std::size_t i = 0; i < glyphs.data().size(); i += 3) {
    if (glyphs.data()[i] > 0.3f) ++bright;
  }
  EXPECT_GT(bright, 100);
}

TEST(Visualize, EmptyGridRendersBackgroundOnly) {
  CellGrid grid;
  grid.cellsX = 2;
  grid.cellsY = 2;
  grid.bins = 9;
  grid.data.assign(2 * 2 * 9, 0.0f);
  const vision::RgbImage glyphs = renderHogGlyphs(grid, false);
  for (std::size_t i = 0; i < glyphs.data().size(); i += 3) {
    EXPECT_LT(glyphs.data()[i], 0.2f);
  }
}

TEST(FixedPointHog, CellGridGeometry) {
  const FixedPointHog hog;
  vision::Image img(64, 128, 0.5f);
  const auto grid = hog.computeCells(img);
  EXPECT_EQ(grid.cellsX, 8);
  EXPECT_EQ(grid.cellsY, 16);
  EXPECT_EQ(grid.bins, 9);
}

// --- Cached-grid descriptor parity ---------------------------------------

TEST(HogExtractor, GridDescriptorMatchesWindowDescriptorBitwise) {
  // A window sliced out of the level-wide block grid equals extracting the
  // window standalone.
  vision::SyntheticPersonDataset synth;
  Rng rng(3);
  const vision::Image window = synth.positiveWindow(rng);
  extract::HogBackend hog("hog", extract::FeatureLayout::kBlockNorm);
  const BlockGrid blocks = hog.prepareBlocks(hog.cellGrid(window));
  EXPECT_EQ(hog.windowFromBlocks(blocks, 0, 0), hog.windowFeatures(window));
}

}  // namespace
}  // namespace pcnn::hog
