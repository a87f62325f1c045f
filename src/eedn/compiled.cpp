#include "eedn/compiled.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/parallel.hpp"
#include "common/target_clones.hpp"
#include "eedn/partitioned.hpp"
#include "eedn/trinary.hpp"

namespace pcnn::eedn {
namespace {

/// Contiguous column-slice kernels; +=/-= per lane, so both clones
/// auto-vectorize. Adding in ascending input order per output row keeps
/// the float sequence identical to the scalar layer.
PCNN_TARGET_CLONES
void addRow(float* out, const float* in, int n) {
  for (int s = 0; s < n; ++s) out[s] += in[s];
}

PCNN_TARGET_CLONES
void subRow(float* out, const float* in, int n) {
  for (int s = 0; s < n; ++s) out[s] -= in[s];
}

PCNN_TARGET_CLONES
void thresholdRow(float* row, int n) {
  for (int s = 0; s < n; ++s) row[s] = row[s] >= 0.0f ? 1.0f : 0.0f;
}

}  // namespace

CompiledTrinaryNet::CompiledTrinaryNet(const nn::Sequential& net) {
  auto compileBank = [](const TrinaryDense& layer, int inputOffset,
                        int outputOffset) {
    DenseGroup group;
    group.inputOffset = inputOffset;
    group.inputSize = layer.inputSize();
    group.outputOffset = outputOffset;
    group.outputSize = layer.outputSize();
    group.weights.resize(static_cast<std::size_t>(group.outputSize) *
                         group.inputSize);
    group.biases.resize(static_cast<std::size_t>(group.outputSize));
    for (int j = 0; j < group.outputSize; ++j) {
      for (int i = 0; i < group.inputSize; ++i) {
        group.weights[static_cast<std::size_t>(j) * group.inputSize + i] =
            static_cast<std::int8_t>(layer.effectiveWeight(j, i));
      }
      group.biases[static_cast<std::size_t>(j)] = layer.bias(j);
    }
    return group;
  };

  for (std::size_t l = 0; l < net.layerCount(); ++l) {
    const nn::Layer& layer = net.layer(l);
    if (const auto* dense = dynamic_cast<const TrinaryDense*>(&layer)) {
      Stage stage;
      stage.inputSize = dense->inputSize();
      stage.outputSize = dense->outputSize();
      stage.groups.push_back(compileBank(*dense, 0, 0));
      stages_.push_back(std::move(stage));
    } else if (const auto* part =
                   dynamic_cast<const PartitionedDense*>(&layer)) {
      Stage stage;
      stage.inputSize = part->inputSize();
      stage.outputSize = part->outputSize();
      for (int g = 0; g < part->groupCount(); ++g) {
        const PartitionedDense::GroupView view = part->group(g);
        stage.groups.push_back(compileBank(*view.layer, view.inputOffset,
                                           g * part->outputsPerGroup()));
      }
      stages_.push_back(std::move(stage));
    } else if (dynamic_cast<const SpikingThreshold*>(&layer) != nullptr) {
      if (stages_.empty() || stages_.back().thresholdAfter) {
        throw std::invalid_argument(
            "CompiledTrinaryNet: SpikingThreshold must follow a dense stage");
      }
      stages_.back().thresholdAfter = true;
    } else {
      throw std::invalid_argument(
          "CompiledTrinaryNet: unsupported layer type");
    }
  }
  if (stages_.empty()) {
    throw std::invalid_argument("CompiledTrinaryNet: empty network");
  }
  inputSize_ = stages_.front().inputSize;
  outputSize_ = stages_.back().outputSize;
  for (const Stage& stage : stages_) {
    maxWidth_ = std::max(maxWidth_, std::max(stage.inputSize,
                                             stage.outputSize));
  }
}

std::vector<float> CompiledTrinaryNet::forwardBatch(
    const std::vector<float>& input, int count) const {
  if (count < 0 ||
      input.size() != static_cast<std::size_t>(inputSize_) * count) {
    throw std::invalid_argument(
        "CompiledTrinaryNet::forwardBatch: input plane size mismatch");
  }
  std::vector<float> output(static_cast<std::size_t>(outputSize_) * count);
  if (count == 0) return output;

  // Ping-pong scratch planes shared by all chunks: every chunk reads and
  // writes only its own column range [lo, hi), so the split is race-free
  // and the per-column results do not depend on the chunking.
  std::vector<float> bufferA(static_cast<std::size_t>(maxWidth_) * count);
  std::vector<float> bufferB(static_cast<std::size_t>(maxWidth_) * count);

  // Every chunk walks the whole weight matrix once, and the row kernels
  // vectorize over the chunk's columns: a chunk narrower than
  // kMinChunkColumns costs more in weight walks than it saves, so small
  // batches run as one inline chunk. Chunks are equal in width, so a
  // batch a few floors wide splits evenly over the threads.
  const long chunks = std::max(
      1L, std::min(count / kMinChunkColumns, count / suggestedGrain(count)));
  const long grain = (count + chunks - 1) / chunks;
  parallelForChunked(
      0, count, grain, [&](long lo64, long hi64) {
        const int lo = static_cast<int>(lo64);
        const int width = static_cast<int>(hi64 - lo64);
        const float* src = input.data();
        for (std::size_t s = 0; s < stages_.size(); ++s) {
          const Stage& stage = stages_[s];
          float* dst = s + 1 == stages_.size() ? output.data()
                       : s % 2 == 0           ? bufferA.data()
                                              : bufferB.data();
          for (const DenseGroup& group : stage.groups) {
            for (int j = 0; j < group.outputSize; ++j) {
              float* row =
                  dst +
                  static_cast<std::size_t>(group.outputOffset + j) * count +
                  lo;
              std::fill(row, row + width,
                        group.biases[static_cast<std::size_t>(j)]);
              const std::int8_t* weights =
                  group.weights.data() +
                  static_cast<std::size_t>(j) * group.inputSize;
              for (int i = 0; i < group.inputSize; ++i) {
                const int w = weights[i];
                if (w == 0) continue;
                const float* inRow =
                    src +
                    static_cast<std::size_t>(group.inputOffset + i) * count +
                    lo;
                if (w > 0) {
                  addRow(row, inRow, width);
                } else {
                  subRow(row, inRow, width);
                }
              }
            }
          }
          if (stage.thresholdAfter) {
            for (int r = 0; r < stage.outputSize; ++r) {
              thresholdRow(dst + static_cast<std::size_t>(r) * count + lo,
                           width);
            }
          }
          src = dst;
        }
      });
  return output;
}

}  // namespace pcnn::eedn
