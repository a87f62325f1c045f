#include "hog/fixed_point.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/parallel.hpp"
#include "hog/cell_kernels.hpp"

namespace pcnn::hog {
namespace {
constexpr double kPi = 3.14159265358979323846;
}

FixedPointHog::FixedPointHog(const FixedPointHogParams& params)
    : params_(params) {
  if (params.numBins <= 0 || params.numBins % 2 == 0) {
    // The fold-to-[0,90] binning below relies on the 90-degree boundary
    // falling in the middle of a bin, which requires an odd bin count
    // (9 bins of 20 degrees in the baseline).
    throw std::invalid_argument(
        "FixedPointHog: numBins must be odd (e.g. 9)");
  }
  const double binWidth = 180.0 / params.numBins;
  const int boundariesBelow90 = params.numBins / 2;  // e.g. 20,40,60,80
  const std::int64_t one = std::int64_t{1} << params.tanFractionBits;
  tanLut_.clear();
  for (int k = 1; k <= boundariesBelow90; ++k) {
    const double boundary = binWidth * k * kPi / 180.0;
    tanLut_.push_back(
        static_cast<std::int64_t>(std::llround(std::tan(boundary) * one)));
  }
}

std::int32_t FixedPointHog::approxMagnitude(int ix, int iy) {
  const std::int32_t ax = ix < 0 ? -ix : ix;
  const std::int32_t ay = iy < 0 ? -iy : iy;
  const std::int32_t mx = ax > ay ? ax : ay;
  const std::int32_t mn = ax > ay ? ay : ax;
  return mx + ((3 * mn) >> 3);
}

std::uint32_t FixedPointHog::isqrt(std::uint64_t value) {
  std::uint64_t result = 0;
  std::uint64_t bit = std::uint64_t{1} << 62;
  while (bit > value) bit >>= 2;
  while (bit != 0) {
    if (value >= result + bit) {
      value -= result + bit;
      result = (result >> 1) + bit;
    } else {
      result >>= 1;
    }
    bit >>= 2;
  }
  return static_cast<std::uint32_t>(result);
}

int FixedPointHog::orientationBin(int ix, int iy) const {
  // Fold to unsigned orientation [0, 180): a gradient and its negation map
  // to the same bin.
  if (iy < 0 || (iy == 0 && ix < 0)) {
    ix = -ix;
    iy = -iy;
  }
  const std::int64_t ax = ix < 0 ? -ix : ix;
  const std::int64_t ay = iy;
  // Sub-angle s of atan2(ay, ax) in [0, 90], found with LUT comparisons:
  // ay * 2^f >= tan(boundary_k) * ax  <=>  angle >= boundary_k.
  int s = 0;
  for (const std::int64_t tanQ : tanLut_) {
    if ((ay << params_.tanFractionBits) >= tanQ * ax) {
      ++s;
    } else {
      break;
    }
  }
  // Mirror for the second quadrant: angle = 180 - a.
  return ix >= 0 ? s : (params_.numBins - 1) - s;
}

FixedPointHog::IntCellGrid FixedPointHog::computeCells(
    const vision::Image& img) const {
  IntCellGrid grid;
  grid.cellsX = img.width() / params_.cellSize;
  grid.cellsY = img.height() / params_.cellSize;
  grid.bins = params_.numBins;
  grid.data.assign(static_cast<std::size_t>(grid.cellsX) * grid.cellsY *
                       grid.bins,
                   0);
  if (grid.cellsX <= 0 || grid.cellsY <= 0) return grid;

  // Quantize pixels once (hardware receives 8-bit camera data).
  const int w = img.width();
  const int h = img.height();
  const std::vector<std::int32_t> pix =
      kernels::quantizePixels(img, params_.pixelBits);

  // The batched kernel works in int32 rows; exotic pixelBits/
  // tanFractionBits combinations that could overflow it run the scalar
  // int64 kernel instead. Cell rows write disjoint histogram slices, and
  // both kernels are integer-exact, so chunking never changes results.
  const bool batched = kernels::fixedBatchedFits(*this);
  parallelForChunked(
      0, grid.cellsY, suggestedGrain(grid.cellsY), [&](long lo, long hi) {
        if (batched) {
          kernels::fixedCellRowsBatched(*this, pix.data(), w, h, grid,
                                        static_cast<int>(lo),
                                        static_cast<int>(hi));
        } else {
          kernels::fixedCellRowsScalar(*this, pix.data(), w, h, grid,
                                       static_cast<int>(lo),
                                       static_cast<int>(hi));
        }
      });
  return grid;
}

std::vector<float> FixedPointHog::windowDescriptor(
    const vision::Image& window) const {
  return blocksFromGrid(computeCells(window));
}

std::vector<float> FixedPointHog::blocksFromGrid(
    const IntCellGrid& grid) const {
  return windowDescriptorFromGrid(grid, 0, 0, grid.cellsX, grid.cellsY);
}

std::vector<float> FixedPointHog::windowDescriptorFromGrid(
    const IntCellGrid& grid, int cx0, int cy0, int windowCellsX,
    int windowCellsY) const {
  const int bc = params_.blockCells;
  const int stride = params_.blockStrideCells;
  const int blocksX = (windowCellsX - bc) / stride + 1;
  const int blocksY = (windowCellsY - bc) / stride + 1;
  std::vector<float> out;
  if (blocksX <= 0 || blocksY <= 0) return out;
  if (cx0 < 0 || cy0 < 0 || cx0 + windowCellsX > grid.cellsX ||
      cy0 + windowCellsY > grid.cellsY) {
    throw std::invalid_argument(
        "windowDescriptorFromGrid: window exceeds grid");
  }

  const int blockLen = bc * bc * grid.bins;
  std::vector<std::int64_t> block(static_cast<std::size_t>(blockLen));
  const float dequant =
      1.0f / static_cast<float>(1 << params_.normFractionBits);
  out.resize(static_cast<std::size_t>(blocksX) * blocksY * blockLen);
  float* dst = out.data();

  // The histogram values are bounded by cellSize^2 pixels of
  // alpha-max-beta-min magnitude; when shifting them into
  // Q(normFractionBits) still fits an int32 (true for the 8-bit/Q8
  // defaults), the normalization quotient can use 32-bit unsigned division
  // -- several times cheaper than the general 64-bit form and exactly
  // equal on non-negative operands.
  const std::int64_t maxLevel = (std::int64_t{1} << params_.pixelBits) - 1;
  const std::int64_t maxMag = maxLevel + ((3 * maxLevel) >> 3);
  const std::int64_t maxCell = static_cast<std::int64_t>(params_.cellSize) *
                               params_.cellSize * maxMag;
  const bool narrowDivide =
      params_.normFractionBits >= 0 && params_.normFractionBits < 31 &&
      (maxCell << params_.normFractionBits) <=
          std::numeric_limits<std::int32_t>::max();

  for (int by = 0; by < blocksY; ++by) {
    for (int bx = 0; bx < blocksX; ++bx) {
      int k = 0;
      for (int cy = 0; cy < bc; ++cy) {
        for (int cx = 0; cx < bc; ++cx) {
          const std::int32_t* hist =
              grid.cell(cx0 + bx * stride + cx, cy0 + by * stride + cy);
          for (int b = 0; b < grid.bins; ++b) block[k++] = hist[b];
        }
      }
      if (params_.l2Normalize) {
        std::uint64_t sumSq = 1;  // +1 plays the epsilon role, avoids /0
        for (int i = 0; i < blockLen; ++i) {
          sumSq += static_cast<std::uint64_t>(block[i] * block[i]);
        }
        const std::uint32_t norm = isqrt(sumSq);
        if (narrowDivide) {
          for (int i = 0; i < blockLen; ++i) {
            const std::uint32_t q =
                (static_cast<std::uint32_t>(block[i])
                 << params_.normFractionBits) /
                norm;
            dst[i] = static_cast<float>(q) * dequant;
          }
        } else {
          for (int i = 0; i < blockLen; ++i) {
            // v / ||v|| in Q(normFractionBits), dequantized for the SVM.
            const std::int64_t q =
                (block[i] << params_.normFractionBits) / norm;
            dst[i] = static_cast<float>(q) * dequant;
          }
        }
      } else {
        for (int i = 0; i < blockLen; ++i) {
          dst[i] = static_cast<float>(block[i]);
        }
      }
      dst += blockLen;
    }
  }
  return out;
}

}  // namespace pcnn::hog
