#include "parrot/parrot.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/parallel.hpp"
#include "eedn/partitioned.hpp"
#include "eedn/serialize.hpp"
#include "eedn/trinary.hpp"
#include "nn/loss.hpp"

namespace pcnn::parrot {
namespace {
constexpr int kPatchSize = 100;  // 10x10 input field

/// Least spike draws one pool chunk of the coding pass carries, so small
/// images (a 10x10 patch, a narrow crop) code inline.
constexpr long kMinCodingDraws = 1L << 16;

/// Reads the 10x10 input field of the cell whose top-left pixel is
/// (x0, y0) in row-major pixel order into out[0], out[step], ...,
/// out[99 * step].
void gatherPatch(const vision::Image& img, int x0, int y0, float* out,
                 std::size_t step) {
  for (int y = 0; y < 10; ++y) {
    for (int x = 0; x < 10; ++x, out += step) {
      *out = img.atClamped(x0 - 1 + x, y0 - 1 + y);
    }
  }
}

}  // namespace

ParrotHog::ParrotHog(const ParrotConfig& config)
    : config_(config), rng_(config.seed) {
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
  compiled_ = std::make_unique<const eedn::CompiledTrinaryNet>(net_);
}

int ParrotHog::mappedCoresPerCell() const {
  const int hiddenCores = (config_.hiddenWidth + 127) / 128;
  const int mergeCores =
      (config_.hiddenWidth + config_.mergeGroupInput - 1) /
      config_.mergeGroupInput;
  return hiddenCores + mergeCores + 1;
}

vision::Image codeSpikes(const vision::Image& image, int spikes,
                         std::uint64_t seed) {
  vision::Image coded = image;  // same geometry and origin
  if (spikes <= 0 || image.empty()) return coded;
  const long width = image.width();
  const long height = image.height();
  const long grain = std::max(suggestedGrain(height),
                              kMinCodingDraws / (width * spikes) + 1);
  parallelForChunked(0, height, grain, [&](long y0, long y1) {
    for (long y = y0; y < y1; ++y) {
      const auto ly = static_cast<std::uint32_t>(image.originY() + y);
      for (long x = 0; x < width; ++x) {
        const auto lx = static_cast<std::uint32_t>(image.originX() + x);
        const double v = std::clamp(image.at(static_cast<int>(x),
                                             static_cast<int>(y)),
                                    0.0f, 1.0f);
        // The pixel's spike stream: splitmix64 steps from a hash of
        // (seed, level-absolute x, y); step s draws spike s.
        std::uint64_t state = pcnn::Rng::mix64(
            seed ^ pcnn::Rng::mix64((std::uint64_t{lx} << 32) | ly));
        int fired = 0;
        for (int s = 0; s < spikes; ++s) {
          fired += pcnn::Rng::unitFromBits(pcnn::Rng::splitmix64(state)) < v;
        }
        coded.at(static_cast<int>(x), static_cast<int>(y)) =
            static_cast<float>(fired) / static_cast<float>(spikes);
      }
    }
  });
  return coded;
}

std::vector<float> ParrotHog::infer(const std::vector<float>& patch) {
  if (static_cast<int>(patch.size()) != kPatchSize) {
    throw std::invalid_argument("ParrotHog::infer: patch must be 10x10");
  }
  vision::Image field(10, 10);
  field.data() = patch;
  return net_.forward(
      codeSpikes(field, config_.inputSpikes, codingSeed()).data(), false);
}

Status ParrotHog::tryLoadNet(std::istream& in) {
  Status status = eedn::tryLoadNetwork(net_, in);
  compiled_ = std::make_unique<const eedn::CompiledTrinaryNet>(net_);
  return status;
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
  // Weights moved; the inference plan is a snapshot.
  compiled_ = std::make_unique<const eedn::CompiledTrinaryNet>(net_);
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

hog::CellGrid ParrotHog::computeCells(const vision::Image& img) const {
  hog::CellGrid grid;
  grid.cellsX = img.width() / 8;
  grid.cellsY = img.height() / 8;
  grid.bins = config_.bins;
  const int count = grid.cellsX * grid.cellsY;
  grid.data.assign(static_cast<std::size_t>(count) * grid.bins, 0.0f);
  if (count == 0) return grid;

  // k-spike coding codes every stored pixel once; the cells then gather
  // from the coded image exactly as exact inputs gather from the image.
  vision::Image coded;
  if (config_.inputSpikes > 0) {
    coded = codeSpikes(img, config_.inputSpikes, codingSeed());
  }
  const vision::Image& input = config_.inputSpikes > 0 ? coded : img;

  // Gather every cell's patch straight into its column of a feature-major
  // activation plane, then run the whole grid through the compiled net in
  // one batch.
  std::vector<float> plane(static_cast<std::size_t>(kPatchSize) * count);
  int cell = 0;
  for (int cy = 0; cy < grid.cellsY; ++cy) {
    for (int cx = 0; cx < grid.cellsX; ++cx, ++cell) {
      gatherPatch(input, cx * 8, cy * 8, plane.data() + cell,
                  static_cast<std::size_t>(count));
    }
  }
  const std::vector<float> out = compiled_->forwardBatch(plane, count);
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

}  // namespace pcnn::parrot
