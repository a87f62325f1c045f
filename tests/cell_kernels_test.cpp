// Scalar-vs-batched parity suite for the cell-kernel layer
// (src/hog/cell_kernels.*). The scalar kernels are the oracles; this pins
// the numerics contract down:
//  - the fixed-point row kernel is bitwise-identical to the scalar
//    reference at any image size;
//  - the float row kernel tracks the scalar atan2/sqrt reference within
//    the polynomial's documented tolerance, across bin counts, signed /
//    unsigned orientations, vote modes, and the bilinear wraparound bins;
//  - a pixel with a non-finite gradient votes nowhere in either float
//    kernel, so NaN or infinite pixels cannot reach a bin index;
//  - the registry extractors' grids match the scalar oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/detector.hpp"
#include "extract/backends.hpp"
#include "extract/registry.hpp"
#include "hog/cell_kernels.hpp"
#include "hog/fixed_point.hpp"
#include "hog/gradient.hpp"
#include "hog/hog.hpp"
#include "vision/image.hpp"

namespace pcnn::hog {
namespace {

vision::Image randomImage(int width, int height, std::uint64_t seed) {
  vision::Image img(width, height);
  Rng rng(seed);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      img.at(x, y) = static_cast<float>(rng.uniform());
    }
  }
  return img;
}

/// A zeroed grid of `bins`-bin cells over a width x height image.
template <typename Grid>
Grid zeroGrid(int width, int height, int cellSize, int bins) {
  Grid grid;
  grid.cellsX = width / cellSize;
  grid.cellsY = height / cellSize;
  grid.bins = bins;
  grid.data.assign(
      static_cast<std::size_t>(grid.cellsX) * grid.cellsY * grid.bins, 0);
  return grid;
}

/// Runs both float kernels over the same gradient field.
struct FloatPair {
  CellGrid scalar;
  CellGrid batched;
};

FloatPair runFloatKernels(const GradientField& field,
                          const HogParams& params) {
  FloatPair out;
  for (CellGrid* grid : {&out.scalar, &out.batched}) {
    *grid = zeroGrid<CellGrid>(field.width, field.height, params.cellSize,
                               params.numBins);
  }
  kernels::hogCellRowsScalar(field, params, out.scalar, 0, out.scalar.cellsY);
  kernels::hogCellRowsBatched(field, params, out.batched, 0,
                              out.batched.cellsY);
  return out;
}

FloatPair runFloatKernels(const vision::Image& img, const HogParams& params) {
  return runFloatKernels(computeGradients(img), params);
}

/// The four configurations the extractors actually use: classic 9-bin
/// unsigned weighted bilinear HoG, the 18-bin signed NApprox layout, and
/// the hard-binning / count-vote variants.
std::vector<HogParams> extractorConfigs() {
  std::vector<HogParams> configs(4);
  configs[1].numBins = 18;
  configs[1].signedOrientation = true;
  configs[2].weightedVote = false;
  configs[3].bilinearBinning = false;
  return configs;
}

void expectGridsClose(const FloatPair& grids, float tolerance) {
  ASSERT_EQ(grids.scalar.data.size(), grids.batched.data.size());
  ASSERT_FALSE(grids.scalar.data.empty());
  for (std::size_t i = 0; i < grids.scalar.data.size(); ++i) {
    ASSERT_NEAR(grids.scalar.data[i], grids.batched.data[i], tolerance)
        << "bin " << i;
  }
}

TEST(CellKernelParity, FixedPointBitwiseOnRandomImages) {
  const FixedPointHog model;
  ASSERT_TRUE(kernels::fixedBatchedFits(model));
  // Non-multiple-of-8 sizes exercise the ragged row tails and the
  // replicate-clamped borders of the batched gradient pass.
  const int sizes[][2] = {{64, 128}, {67, 45}, {8, 8}, {33, 9}, {320, 240}};
  for (const auto& size : sizes) {
    const vision::Image img = randomImage(size[0], size[1], 17u + size[0]);
    const std::vector<std::int32_t> pix =
        kernels::quantizePixels(img, model.params().pixelBits);
    auto scalar = zeroGrid<FixedPointHog::IntCellGrid>(
        img.width(), img.height(), model.params().cellSize,
        model.params().numBins);
    auto batched = scalar;
    kernels::fixedCellRowsScalar(model, pix.data(), img.width(), img.height(),
                                 scalar, 0, scalar.cellsY);
    kernels::fixedCellRowsBatched(model, pix.data(), img.width(),
                                  img.height(), batched, 0, batched.cellsY);
    ASSERT_EQ(scalar.data.size(), batched.data.size());
    for (std::size_t i = 0; i < scalar.data.size(); ++i) {
      ASSERT_EQ(scalar.data[i], batched.data[i])
          << size[0] << "x" << size[1] << " bin " << i;
    }
  }
}

TEST(CellKernelParity, FloatToleranceAcrossConfigs) {
  for (const HogParams& params : extractorConfigs()) {
    const vision::Image img = randomImage(72, 56, 99);
    // A cell accumulates 64 votes; each vote's angle is off by at most
    // ~1e-5 rad, so a per-bin slack of a few 1e-3 on O(1) magnitudes
    // covers the worst case (hard binning can flip a borderline pixel's
    // bin entirely -- see the wraparound test -- but not on this smooth
    // random image at these bin widths).
    expectGridsClose(runFloatKernels(img, params), 5e-3f);
  }
}

TEST(CellKernelParity, BilinearWraparoundNearBinBoundaries) {
  // Gradients aimed at the wraparound seam: angles just below/above 0 and
  // just below 180/360 deg, where bilinear voting splits between bin 0 and
  // bin numBins-1. A hand-built field isolates the interpolation from the
  // gradient pass.
  for (const bool signedOrientation : {false, true}) {
    HogParams params;
    params.cellSize = 4;
    params.signedOrientation = signedOrientation;
    const float full = signedOrientation ? 6.28318530718f : 3.14159265359f;
    GradientField field;
    field.width = 4;
    field.height = 4;
    field.ix.resize(16);
    field.iy.resize(16);
    const float angles[16] = {
        -1e-4f,        1e-4f,        full - 1e-4f, full + 1e-4f,
        -1e-3f,        1e-3f,        full - 1e-3f, full / 2,
        full / 9.0f,   full / 4.5f,  full * 0.999f, full * 0.001f,
        full * 0.499f, full * 0.501f, 0.0f,         full / 3.0f};
    for (int i = 0; i < 16; ++i) {
      field.ix[i] = std::cos(angles[i]);
      field.iy[i] = std::sin(angles[i]);
    }
    // All magnitudes are 1; every vote splits across the seam exactly as
    // the scalar path does, up to the angle approximation scaled by the
    // 1/binWidth interpolation slope.
    expectGridsClose(runFloatKernels(field, params), 1e-3f);
  }
}

TEST(CellKernelParity, ZeroGradientPixelsVoteNowhere) {
  HogParams params;
  params.cellSize = 4;
  GradientField field;
  field.width = 4;
  field.height = 4;
  field.ix.assign(16, 0.0f);
  field.iy.assign(16, 0.0f);
  const FloatPair out = runFloatKernels(field, params);
  for (int b = 0; b < params.numBins; ++b) {
    EXPECT_EQ(out.scalar.data[b], 0.0f);
    EXPECT_EQ(out.batched.data[b], 0.0f);
  }
}

TEST(CellKernelParity, NonFiniteGradientsVoteNowhere) {
  // NaN, +Inf and -Inf pixels at interior, edge and corner positions, plus
  // a 2x2 block of +Inf whose inner differences are NaN. Every pixel whose
  // gradient is not finite must vote nowhere, in the kernel and the oracle
  // alike: the grids equal those of the same field with those gradients
  // zeroed, and stay finite.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  vision::Image img = randomImage(64, 48, 5);
  img.at(0, 0) = nan;
  img.at(20, 10) = nan;
  img.at(33, 0) = -inf;
  img.at(0, 30) = inf;
  img.at(40, 25) = -inf;
  img.at(63, 47) = inf;
  for (int y = 36; y < 38; ++y) {
    for (int x = 12; x < 14; ++x) img.at(x, y) = inf;
  }
  const GradientField field = computeGradients(img);
  GradientField zeroed = field;
  int nonFinite = 0;
  for (std::size_t i = 0; i < field.ix.size(); ++i) {
    if (std::isfinite(field.ix[i]) && std::isfinite(field.iy[i])) continue;
    zeroed.ix[i] = zeroed.iy[i] = 0.0f;
    ++nonFinite;
  }
  ASSERT_GT(nonFinite, 20);
  for (const HogParams& params : extractorConfigs()) {
    const FloatPair got = runFloatKernels(field, params);
    const FloatPair want = runFloatKernels(zeroed, params);
    EXPECT_EQ(got.scalar.data, want.scalar.data);
    EXPECT_EQ(got.batched.data, want.batched.data);
    expectGridsClose(got, 5e-3f);
  }

  // The same pixels in a 320x240 frame through hog detect(): every level
  // of the pyramid scans, and each detection carries a finite score.
  vision::Image frame = randomImage(320, 240, 6);
  frame.at(0, 0) = nan;
  frame.at(160, 120) = nan;
  frame.at(319, 100) = -inf;
  frame.at(100, 239) = inf;
  for (int y = 60; y < 62; ++y) {
    for (int x = 200; x < 202; ++x) frame.at(x, y) = inf;
  }
  const auto extractor =
      extract::makeExtractor("hog", extract::FeatureLayout::kBlockNorm);
  core::GridDetector detector(
      core::GridDetectorParams{}, extractor,
      [](const std::vector<float>& features) {
        float sum = 0.0f;
        for (const float f : features) sum += f;
        return sum / static_cast<float>(features.size());
      });
  const std::vector<vision::Detection> detections = detector.detect(frame);
  EXPECT_FALSE(detections.empty());
  for (const vision::Detection& det : detections) {
    EXPECT_TRUE(std::isfinite(det.score));
  }
}

/// The scalar kernel run directly with the extractor's own parameters: the
/// oracle its cellGrid must match.
CellGrid scalarOracleGrid(const extract::FeatureExtractor& extractor,
                          const vision::Image& img) {
  if (const auto* backend =
          dynamic_cast<const extract::HogBackend*>(&extractor)) {
    const HogParams& params = backend->model().params();
    auto grid = zeroGrid<CellGrid>(img.width(), img.height(),
                                   params.cellSize, params.numBins);
    kernels::hogCellRowsScalar(computeGradients(img), params, grid, 0,
                               grid.cellsY);
    return grid;
  }
  const FixedPointHog& model =
      dynamic_cast<const extract::FixedPointBackend&>(extractor).model();
  auto ints = zeroGrid<FixedPointHog::IntCellGrid>(
      img.width(), img.height(), model.params().cellSize,
      model.params().numBins);
  const std::vector<std::int32_t> pix =
      kernels::quantizePixels(img, model.params().pixelBits);
  kernels::fixedCellRowsScalar(model, pix.data(), img.width(), img.height(),
                               ints, 0, ints.cellsY);
  auto grid = zeroGrid<CellGrid>(img.width(), img.height(),
                                 model.params().cellSize,
                                 model.params().numBins);
  grid.data.assign(ints.data.begin(), ints.data.end());
  return grid;
}

TEST(CellKernelDispatch, ExtractorGridsAgreeAcrossDispatch) {
  // End-to-end: the registry extractors' cell grids must match the scalar
  // oracle -- bitwise for fixed point, within the polynomial's tolerance
  // for float HoG.
  const vision::Image img = randomImage(96, 80, 4242);
  for (const char* spec : {"hog", "fixedpoint"}) {
    const auto extractor =
        extract::makeExtractor(spec, extract::FeatureLayout::kBlockNorm);
    const CellGrid batched = extractor->cellGrid(img);
    const CellGrid scalar = scalarOracleGrid(*extractor, img);
    ASSERT_EQ(batched.data.size(), scalar.data.size());
    ASSERT_FALSE(batched.data.empty());
    const bool exact = std::string(spec) == "fixedpoint";
    for (std::size_t i = 0; i < batched.data.size(); ++i) {
      if (exact) {
        ASSERT_EQ(batched.data[i], scalar.data[i]) << spec << " bin " << i;
      } else {
        ASSERT_NEAR(batched.data[i], scalar.data[i], 5e-3f)
            << spec << " bin " << i;
      }
    }
  }
}

}  // namespace
}  // namespace pcnn::hog
