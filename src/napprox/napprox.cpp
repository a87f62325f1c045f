#include "napprox/napprox.hpp"

#include <cmath>
#include <stdexcept>

#include "common/parallel.hpp"
#include "hog/gradient.hpp"

namespace pcnn::napprox {
namespace {
constexpr float kTwoPi = 6.28318530717958647692f;
}

NApproxHog::NApproxHog(const NApproxParams& params) : params_(params) {
  if (params.bins <= 0 || params.bins > Votes::kMaxBins ||
      params.cellSize <= 0) {
    throw std::invalid_argument("NApproxHog: invalid params");
  }
  cosTable_.resize(static_cast<std::size_t>(params.bins));
  sinTable_.resize(static_cast<std::size_t>(params.bins));
  for (int k = 0; k < params.bins; ++k) {
    const float theta = kTwoPi * static_cast<float>(k) /
                        static_cast<float>(params.bins);
    cosTable_[k] = std::cos(theta);
    sinTable_[k] = std::sin(theta);
  }
}

float NApproxHog::projection(float ix, float iy, int k) const {
  return ix * cosTable_[k] + iy * sinTable_[k];
}

int NApproxHog::bestDirection(float ix, float iy) const {
  int best = -1;
  float bestValue = params_.minMagnitude;
  for (int k = 0; k < params_.bins; ++k) {
    const float value = projection(ix, iy, k);
    if (value > bestValue) {
      bestValue = value;
      best = k;
    }
  }
  return best;
}

NApproxHog::Votes NApproxHog::voteDirections(float ix, float iy) const {
  Votes votes;
  const int best = bestDirection(ix, iy);
  if (best < 0) return votes;
  const float bestValue = projection(ix, iy, best);
  // Relative tolerance absorbs float table rounding so that geometric ties
  // (e.g. sin 80 deg vs sin 100 deg) are treated as equal.
  const float cutoff = bestValue - 1e-5f * std::abs(bestValue);
  for (int k = 0; k < params_.bins; ++k) {
    if (projection(ix, iy, k) >= cutoff) {
      votes.directions[static_cast<std::size_t>(votes.count++)] =
          static_cast<std::uint8_t>(k);
    }
  }
  return votes;
}

std::vector<float> NApproxHog::cellHistogram(const vision::Image& img, int x0,
                                             int y0) const {
  std::vector<float> histogram(static_cast<std::size_t>(params_.bins), 0.0f);
  for (int dy = 0; dy < params_.cellSize; ++dy) {
    for (int dx = 0; dx < params_.cellSize; ++dx) {
      const int x = x0 + dx;
      const int y = y0 + dy;
      const float ix = img.atClamped(x + 1, y) - img.atClamped(x - 1, y);
      const float iy = img.atClamped(x, y - 1) - img.atClamped(x, y + 1);
      for (int k : voteDirections(ix, iy)) {
        histogram[k] += 1.0f;  // binned by count
      }
    }
  }
  return histogram;
}

hog::CellGrid NApproxHog::computeCells(const vision::Image& img) const {
  hog::CellGrid grid;
  grid.cellsX = img.width() / params_.cellSize;
  grid.cellsY = img.height() / params_.cellSize;
  grid.bins = params_.bins;
  grid.data.assign(static_cast<std::size_t>(grid.cellsX) * grid.cellsY *
                       grid.bins,
                   0.0f);
  const hog::GradientField field = hog::computeGradients(img);
  // Rows of cells are independent: each writes its own grid slice.
  parallelFor(0, grid.cellsY, [&](long cyL) {
    const int cy = static_cast<int>(cyL);
    for (int cx = 0; cx < grid.cellsX; ++cx) {
      float* hist = grid.cell(cx, cy);
      for (int dy = 0; dy < params_.cellSize; ++dy) {
        for (int dx = 0; dx < params_.cellSize; ++dx) {
          const int x = cx * params_.cellSize + dx;
          const int y = cy * params_.cellSize + dy;
          for (int k : voteDirections(field.gx(x, y), field.gy(x, y))) {
            hist[k] += 1.0f;
          }
        }
      }
    }
  });
  return grid;
}

}  // namespace pcnn::napprox
