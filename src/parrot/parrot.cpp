#include "parrot/parrot.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/parallel.hpp"
#include "eedn/partitioned.hpp"
#include "eedn/trinary.hpp"
#include "nn/loss.hpp"

namespace pcnn::parrot {
namespace {
constexpr int kPatchSize = 100;  // 10x10 input field

/// Reads the 10x10 input field of the cell whose top-left pixel is
/// (x0, y0) in row-major pixel order, through `code`, into
/// out[0], out[step], ..., out[99 * step].
template <typename Code>
void gatherPatch(const vision::Image& img, int x0, int y0, float* out,
                 std::size_t step, Code code) {
  for (int y = 0; y < 10; ++y) {
    for (int x = 0; x < 10; ++x, out += step) {
      *out = code(img.atClamped(x0 - 1 + x, y0 - 1 + y));
    }
  }
}

}  // namespace

ParrotHog::ParrotHog(const ParrotConfig& config)
    : config_(config), rng_(config.seed), codingRng_(config.seed ^ 0xABCDu) {
  if (config.hiddenWidth <= 0 || config.mergeGroupInput <= 0 ||
      config.mergeGroupInput > 127 || config.mergeOutputsPerGroup <= 0) {
    throw std::invalid_argument("ParrotHog: invalid layer sizes");
  }
  const int mergeGroups =
      (config.hiddenWidth + config.mergeGroupInput - 1) /
      config.mergeGroupInput;
  const int mergeWidth = mergeGroups * config.mergeOutputsPerGroup;
  if (mergeWidth > 127) {
    throw std::invalid_argument(
        "ParrotHog: merged width exceeds the 127-input TrueNorth mapping "
        "limit of the output stage (reduce hiddenWidth or "
        "mergeOutputsPerGroup)");
  }
  net_.add(std::make_unique<eedn::TrinaryDense>(kPatchSize,
                                                config.hiddenWidth, rng_,
                                                config.tau));
  net_.add(std::make_unique<eedn::SpikingThreshold>(
      config.hiddenWidth, std::sqrt(static_cast<float>(kPatchSize))));
  net_.add(std::make_unique<eedn::PartitionedDense>(
      config.hiddenWidth, config.mergeGroupInput,
      config.mergeOutputsPerGroup, rng_, config.tau));
  net_.add(std::make_unique<eedn::SpikingThreshold>(
      mergeWidth, std::sqrt(static_cast<float>(config.mergeGroupInput))));
  net_.add(std::make_unique<eedn::TrinaryDense>(mergeWidth, config.bins,
                                                rng_, config.tau));
}

int ParrotHog::mappedCoresPerCell() const {
  const int hiddenCores = (config_.hiddenWidth + 127) / 128;
  const int mergeCores =
      (config_.hiddenWidth + config_.mergeGroupInput - 1) /
      config_.mergeGroupInput;
  return hiddenCores + mergeCores + 1;
}

std::vector<float> ParrotHog::encodeInput(const std::vector<float>& patch) {
  return encodeInputWith(patch, codingRng_);
}

float ParrotHog::encodePixel(float pixel, pcnn::Rng& rng) const {
  const int k = config_.inputSpikes;
  if (k <= 0) return pixel;
  const float v = std::clamp(pixel, 0.0f, 1.0f);
  int spikes = 0;
  for (int s = 0; s < k; ++s) {
    if (rng.bernoulli(v)) ++spikes;
  }
  return static_cast<float>(spikes) / static_cast<float>(k);
}

std::vector<float> ParrotHog::encodeInputWith(const std::vector<float>& patch,
                                              pcnn::Rng& rng) const {
  std::vector<float> coded(patch.size());
  for (std::size_t i = 0; i < patch.size(); ++i) {
    coded[i] = encodePixel(patch[i], rng);
  }
  return coded;
}

std::vector<float> ParrotHog::infer(const std::vector<float>& patch) {
  return inferWith(patch, codingRng_);
}

std::vector<float> ParrotHog::inferWith(const std::vector<float>& patch,
                                        pcnn::Rng& rng) {
  if (static_cast<int>(patch.size()) != kPatchSize) {
    throw std::invalid_argument("ParrotHog::infer: patch must be 10x10");
  }
  return net_.forward(encodeInputWith(patch, rng), false);
}

const eedn::CompiledTrinaryNet& ParrotHog::compiledNet() {
  if (compiledStale_ || !compiled_) {
    compiled_ = std::make_unique<eedn::CompiledTrinaryNet>(net_);
    compiledStale_ = false;
  }
  return *compiled_;
}

float ParrotHog::train(const OrientedSampleGenerator& generator,
                       int numSamples, int epochs, float learningRate,
                       float momentum) {
  const std::vector<ParrotSample> samples = generator.batch(numSamples, rng_);
  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), 0);

  float lastEpochLoss = 0.0f;
  constexpr int kBatch = 16;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(
                    rng_.uniformInt(0, static_cast<int>(i) - 1))]);
    }
    double lossSum = 0.0;
    int inBatch = 0;
    for (std::size_t idx : order) {
      const ParrotSample& sample = samples[idx];
      // Training uses exact inputs; spike coding is a deployment-time
      // representation choice (the Fig. 6 sweep).
      const std::vector<float> out = net_.forward(sample.pixels, true);
      const nn::LossResult loss = nn::mseLoss(out, sample.target);
      lossSum += loss.value;
      net_.backward(loss.grad);
      if (++inBatch == kBatch) {
        net_.applyGradients(learningRate, momentum, inBatch);
        inBatch = 0;
      }
    }
    if (inBatch > 0) net_.applyGradients(learningRate, momentum, inBatch);
    lastEpochLoss =
        static_cast<float>(lossSum / static_cast<double>(samples.size()));
  }
  compiledStale_ = true;  // weights moved; the inference plan is a snapshot
  return lastEpochLoss;
}

float ParrotHog::validate(const OrientedSampleGenerator& generator,
                          int numSamples) {
  const std::vector<ParrotSample> samples = generator.batch(numSamples, rng_);
  double lossSum = 0.0;
  for (const ParrotSample& sample : samples) {
    const std::vector<float> out = infer(sample.pixels);
    lossSum += nn::mseLoss(out, sample.target).value;
  }
  return samples.empty() ? 0.0f
                         : static_cast<float>(
                               lossSum / static_cast<double>(samples.size()));
}

double ParrotHog::dominantBinAccuracy(const OrientedSampleGenerator& generator,
                                      int numSamples) {
  const std::vector<ParrotSample> samples = generator.batch(numSamples, rng_);
  int evaluated = 0;
  int correct = 0;
  for (const ParrotSample& sample : samples) {
    if (sample.dominantBin < 0) continue;
    const std::vector<float> out = infer(sample.pixels);
    const int predicted = static_cast<int>(
        std::max_element(out.begin(), out.end()) - out.begin());
    ++evaluated;
    if (predicted == sample.dominantBin) ++correct;
  }
  return evaluated > 0
             ? static_cast<double>(correct) / static_cast<double>(evaluated)
             : 0.0;
}

std::vector<float> ParrotHog::cellHistogram(const vision::Image& img, int x0,
                                            int y0) {
  return cellHistogramWith(img, x0, y0, codingRng_);
}

std::vector<float> ParrotHog::cellHistogramWith(const vision::Image& img,
                                                int x0, int y0,
                                                pcnn::Rng& rng) {
  std::vector<float> patch(static_cast<std::size_t>(kPatchSize));
  gatherPatch(img, x0, y0, patch.data(), 1, [](float pixel) { return pixel; });
  std::vector<float> out = inferWith(patch, rng);
  // The parrot regresses vote counts directly; clamp to the physical range
  // (a cell casts at most 64 votes) so features match NApprox's scale.
  for (float& v : out) v = std::clamp(v, 0.0f, 64.0f);
  return out;
}

hog::CellGrid ParrotHog::computeCells(const vision::Image& img) {
  return computeCellsWith(img, codingRng_);
}

hog::CellGrid ParrotHog::computeCellsWith(const vision::Image& img,
                                          pcnn::Rng& rng) {
  hog::CellGrid grid;
  grid.cellsX = img.width() / 8;
  grid.cellsY = img.height() / 8;
  grid.bins = config_.bins;
  const int count = grid.cellsX * grid.cellsY;
  grid.data.assign(static_cast<std::size_t>(count) * grid.bins, 0.0f);
  if (count == 0) return grid;
  const eedn::CompiledTrinaryNet& net = compiledNet();

  // Gather and spike-encode every cell's patch straight into its column
  // of a feature-major activation plane, in row-major cell and pixel
  // order -- the exact coding-stream draw order of the per-cell path --
  // then run the whole grid through the compiled net in one batch.
  std::vector<float> plane(static_cast<std::size_t>(kPatchSize) * count);
  const auto code = [&](float pixel) { return encodePixel(pixel, rng); };
  int cell = 0;
  for (int cy = 0; cy < grid.cellsY; ++cy) {
    for (int cx = 0; cx < grid.cellsX; ++cx, ++cell) {
      gatherPatch(img, cx * 8, cy * 8, plane.data() + cell,
                  static_cast<std::size_t>(count), code);
    }
  }
  const std::vector<float> out = net.forwardBatch(plane, count);
  // The parrot regresses vote counts directly; clamp to the physical range
  // (a cell casts at most 64 votes) so features match NApprox's scale.
  for (int c = 0; c < count; ++c) {
    for (int b = 0; b < grid.bins; ++b) {
      grid.data[static_cast<std::size_t>(c) * grid.bins + b] = std::clamp(
          out[static_cast<std::size_t>(b) * count + c], 0.0f, 64.0f);
    }
  }
  return grid;
}

std::vector<float> ParrotHog::cellDescriptor(const vision::Image& window) {
  hog::CellGrid grid = computeCells(window);
  return std::move(grid.data);
}

std::vector<std::vector<float>> ParrotHog::cellDescriptorBatch(
    const std::vector<vision::Image>& windows) {
  // Draw the per-window coding seeds sequentially so the realization each
  // window receives depends only on the extractor's stream position, not
  // on how the pool schedules the batch.
  std::vector<std::uint64_t> seeds(windows.size());
  for (auto& seed : seeds) seed = codingRng_.nextU64();
  // Build the compiled plan before fanning out: the pool workers below
  // only read it.
  (void)compiledNet();
  std::vector<std::vector<float>> out(windows.size());
  parallelFor(0, static_cast<long>(windows.size()), [&](long i) {
    const auto idx = static_cast<std::size_t>(i);
    pcnn::Rng rng(seeds[idx]);
    // One window-major batch through the compiled net; the grid's data
    // layout (row-major cells, bins per cell) is exactly the flat feature
    // vector the per-cell path assembled.
    out[idx] = std::move(computeCellsWith(windows[idx], rng).data);
  });
  return out;
}

std::vector<float> ParrotHog::windowDescriptor(const vision::Image& window,
                                               bool l2Normalize) {
  hog::HogParams hp;
  hp.cellSize = 8;
  hp.numBins = config_.bins;
  hp.signedOrientation = true;
  hp.blockCells = 2;
  hp.blockStrideCells = 1;
  hp.l2Normalize = l2Normalize;
  const hog::HogExtractor assembler(hp);
  return assembler.blocksFromGrid(computeCells(window));
}

}  // namespace pcnn::parrot
