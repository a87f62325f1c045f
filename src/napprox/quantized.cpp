#include "napprox/quantized.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/parallel.hpp"
#include "tn/spike_coding.hpp"

namespace pcnn::napprox {
namespace {
constexpr float kTwoPi = 6.28318530717958647692f;
}

QuantizedNApproxHog::QuantizedNApproxHog(const NApproxParams& params,
                                         const QuantizedParams& quant,
                                         QuantizedMode mode)
    : params_(params), quant_(quant), mode_(mode) {
  if (quant.spikeWindow <= 0 || quant.spikeWindow > 64) {
    throw std::invalid_argument(
        "QuantizedNApproxHog: spikeWindow must be 1..64");
  }
  if (quant.weightScale <= 0 || quant.weightScale > 255) {
    throw std::invalid_argument("QuantizedNApproxHog: bad weightScale");
  }
  if (quant.rampLeak <= 0) {
    throw std::invalid_argument("QuantizedNApproxHog: bad rampLeak");
  }
  threshold_ = quant.threshold > 0
                   ? quant.threshold
                   : std::max(1, static_cast<int>(std::lround(
                                     params.minMagnitude * quant.weightScale *
                                     quant.spikeWindow)));
  // No neuron may fire while inputs accumulate: per-tick input is bounded
  // by 2*weightScale and the leak adds rampLeak, so over spikeWindow ticks
  // the membrane stays strictly below this threshold.
  rampThreshold_ =
      (2 * quant.weightScale + quant.rampLeak) * quant.spikeWindow + 1;
  cutoffBucket_ =
      (rampThreshold_ - threshold_ + quant.rampLeak - 1) / quant.rampLeak;
  cosQ_.resize(static_cast<std::size_t>(params.bins));
  sinQ_.resize(static_cast<std::size_t>(params.bins));
  for (int k = 0; k < params.bins; ++k) {
    const float theta =
        kTwoPi * static_cast<float>(k) / static_cast<float>(params.bins);
    cosQ_[k] = static_cast<int>(
        std::lround(std::cos(theta) * static_cast<float>(quant.weightScale)));
    sinQ_[k] = static_cast<int>(
        std::lround(std::sin(theta) * static_cast<float>(quant.weightScale)));
  }
}

int QuantizedNApproxHog::quantizePixel(float value) const {
  return tn::rateCodeCount(value, quant_.spikeWindow);
}

std::vector<float> QuantizedNApproxHog::cellHistogram(const vision::Image& img,
                                                      int x0, int y0) const {
  return mode_ == QuantizedMode::kTickAccurate
             ? cellHistogramTick(img, x0, y0)
             : cellHistogramAnalytic(img, x0, y0);
}

std::vector<float> QuantizedNApproxHog::cellHistogramAnalytic(
    const vision::Image& img, int x0, int y0) const {
  std::vector<float> histogram(static_cast<std::size_t>(params_.bins), 0.0f);
  for (int dy = 0; dy < params_.cellSize; ++dy) {
    for (int dx = 0; dx < params_.cellSize; ++dx) {
      const int x = x0 + dx;
      const int y = y0 + dy;
      // Whole-window spike totals stand in for the pixel values.
      const int e = quantizePixel(img.atClamped(x + 1, y));
      const int w = quantizePixel(img.atClamped(x - 1, y));
      const int n = quantizePixel(img.atClamped(x, y - 1));
      const int s = quantizePixel(img.atClamped(x, y + 1));
      const int ix = e - w;
      const int iy = n - s;
      int bestValue = threshold_;
      for (int k = 0; k < params_.bins; ++k) {
        const int u = cosQ_[k] * ix + sinQ_[k] * iy;
        if (u > bestValue) bestValue = u;
      }
      if (bestValue == threshold_) continue;
      // Exact integer ties all vote (matching the tie semantics of the
      // float model and the hardware's winner-take-all latch).
      for (int k = 0; k < params_.bins; ++k) {
        if (cosQ_[k] * ix + sinQ_[k] * iy == bestValue) {
          histogram[k] += 1.0f;
        }
      }
    }
  }
  return histogram;
}

std::vector<float> QuantizedNApproxHog::cellHistogramTick(
    const vision::Image& img, int x0, int y0) const {
  // Ramp-race semantics (see QuantizedMode::kTickAccurate): during the
  // input window nothing can fire, so the accumulated projection totals
  // fully determine the race. A direction with total U fires at race tick
  // ceil((rampThreshold - U) / rampLeak); the winner-take-all admits every
  // direction on the earliest tick, and the blanking cutoff rejects pixels
  // whose best projection is below the vote threshold. This closed form is
  // bit-exact against simulating the corelet tick by tick (asserted in
  // tests and the V1 bench).
  const int cell = params_.cellSize;
  const int bins = params_.bins;
  const int leak = quant_.rampLeak;
  std::vector<float> histogram(static_cast<std::size_t>(bins), 0.0f);
  std::vector<int> bucket(static_cast<std::size_t>(bins));
  for (int dy = 0; dy < cell; ++dy) {
    for (int dx = 0; dx < cell; ++dx) {
      const int x = x0 + dx;
      const int y = y0 + dy;
      const int e = quantizePixel(img.atClamped(x + 1, y));
      const int w = quantizePixel(img.atClamped(x - 1, y));
      const int n = quantizePixel(img.atClamped(x, y - 1));
      const int s = quantizePixel(img.atClamped(x, y + 1));
      const int ix = e - w;
      const int iy = n - s;
      int minBucket = cutoffBucket_ + 1;
      for (int k = 0; k < bins; ++k) {
        const int u = cosQ_[k] * ix + sinQ_[k] * iy;
        bucket[k] = (rampThreshold_ - u + leak - 1) / leak;
        if (bucket[k] < minBucket) minBucket = bucket[k];
      }
      if (minBucket > cutoffBucket_) continue;  // below the vote threshold
      for (int k = 0; k < bins; ++k) {
        if (bucket[k] == minBucket) histogram[k] += 1.0f;
      }
    }
  }
  return histogram;
}

hog::CellGrid QuantizedNApproxHog::computeCells(
    const vision::Image& img) const {
  hog::CellGrid grid;
  grid.cellsX = img.width() / params_.cellSize;
  grid.cellsY = img.height() / params_.cellSize;
  grid.bins = params_.bins;
  grid.data.assign(static_cast<std::size_t>(grid.cellsX) * grid.cellsY *
                       grid.bins,
                   0.0f);
  // The simulated cells are independent of one another: scan rows on the
  // pool (the tick-accurate race model in particular is expensive).
  parallelFor(0, grid.cellsY, [&](long cyL) {
    const int cy = static_cast<int>(cyL);
    for (int cx = 0; cx < grid.cellsX; ++cx) {
      const std::vector<float> hist = cellHistogram(
          img, cx * params_.cellSize, cy * params_.cellSize);
      std::copy(hist.begin(), hist.end(),
                grid.data.begin() +
                    (static_cast<std::size_t>(cy) * grid.cellsX + cx) *
                        grid.bins);
    }
  });
  return grid;
}

}  // namespace pcnn::napprox
