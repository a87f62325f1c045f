#include "hog/fixed_point.hpp"

#include <cmath>
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

}  // namespace pcnn::hog
