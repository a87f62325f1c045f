#include "hog/hog.hpp"

#include <stdexcept>

#include "common/parallel.hpp"
#include "hog/cell_kernels.hpp"

namespace pcnn::hog {

HogExtractor::HogExtractor(const HogParams& params) : params_(params) {
  if (params.cellSize <= 0 || params.numBins <= 0) {
    throw std::invalid_argument("HogExtractor: invalid params");
  }
}

std::vector<float> HogExtractor::cellHistogram(const vision::Image& img,
                                               int x0, int y0) const {
  std::vector<float> histogram(static_cast<std::size_t>(params_.numBins),
                               0.0f);
  for (int dy = 0; dy < params_.cellSize; ++dy) {
    for (int dx = 0; dx < params_.cellSize; ++dx) {
      const int x = x0 + dx;
      const int y = y0 + dy;
      const float gx = img.atClamped(x + 1, y) - img.atClamped(x - 1, y);
      const float gy = img.atClamped(x, y - 1) - img.atClamped(x, y + 1);
      kernels::voteForPixel(params_, gx, gy, histogram.data());
    }
  }
  return histogram;
}

CellGrid HogExtractor::computeCells(const vision::Image& img) const {
  CellGrid grid;
  grid.cellsX = img.width() / params_.cellSize;
  grid.cellsY = img.height() / params_.cellSize;
  grid.bins = params_.numBins;
  grid.data.assign(static_cast<std::size_t>(grid.cellsX) * grid.cellsY *
                       grid.bins,
                   0.0f);
  if (grid.cellsX <= 0 || grid.cellsY <= 0) return grid;
  const GradientField field = computeGradients(img);
  // Each cell row writes a disjoint slice of grid.data, so row blocks can
  // run on any thread without changing the result; the grain amortizes
  // pool dispatch and the batched kernel's row-buffer allocation.
  parallelForChunked(
      0, grid.cellsY, suggestedGrain(grid.cellsY), [&](long lo, long hi) {
        kernels::hogCellRowsBatched(field, params_, grid,
                                    static_cast<int>(lo),
                                    static_cast<int>(hi));
      });
  return grid;
}

}  // namespace pcnn::hog
