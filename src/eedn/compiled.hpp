#pragma once

#include <cstdint>
#include <vector>

#include "nn/sequential.hpp"

namespace pcnn::eedn {

/// Deployment-weight inference plan compiled from a Sequential of
/// TrinaryDense / PartitionedDense / SpikingThreshold layers.
///
/// The training path re-trinarizes every hidden float weight on every
/// forward() call (so training always sees the deployment function); at
/// inference that work is pure waste -- the parrot extractor alone was
/// re-projecting ~54k weights per cell. Compiling snapshots the trinary
/// weights once (int8) and evaluates many samples at a time over
/// feature-major activation planes, so the inner loops are contiguous
/// float adds that vectorize.
///
/// Bitwise contract: for each (sample, output) pair the accumulation
/// starts from the layer bias and adds/subtracts inputs in ascending
/// input order -- the exact float operation sequence of
/// TrinaryDense::forward -- so results are bit-identical to
/// net.forward(sample, false) per sample. Gated by the parrot parity
/// tests.
///
/// The plan is a snapshot: callers must rebuild after any weight change
/// (ParrotHog invalidates on train() and mutable net() access).
class CompiledTrinaryNet {
 public:
  explicit CompiledTrinaryNet(const nn::Sequential& net);

  int inputSize() const { return inputSize_; }
  int outputSize() const { return outputSize_; }

  /// Evaluates `count` samples. `input` is a feature-major plane of
  /// inputSize() rows by `count` columns (input[i * count + s] = feature i
  /// of sample s); the returned plane has outputSize() rows in the same
  /// layout. Samples are split over the global thread pool in slices of
  /// at least kMinChunkColumns columns; every sample's column is computed
  /// independently, so results do not depend on the split or the thread
  /// count.
  std::vector<float> forwardBatch(const std::vector<float>& input,
                                  int count) const;

  /// Narrowest column slice forwardBatch hands to one pool chunk.
  static constexpr long kMinChunkColumns = 256;

 private:
  /// One trinary bank: `weights` is outputSize x inputSize row-major int8
  /// in {-1, 0, +1}, reading rows [inputOffset, inputOffset + inputSize)
  /// of the stage input plane and writing rows starting at outputOffset.
  struct DenseGroup {
    int inputOffset = 0;
    int inputSize = 0;
    int outputOffset = 0;
    int outputSize = 0;
    std::vector<std::int8_t> weights;
    std::vector<float> biases;
  };
  /// One dense stage (a TrinaryDense, or every group of a
  /// PartitionedDense) plus an optional fused SpikingThreshold.
  struct Stage {
    int inputSize = 0;
    int outputSize = 0;
    bool thresholdAfter = false;
    std::vector<DenseGroup> groups;
  };

  std::vector<Stage> stages_;
  int inputSize_ = 0;
  int outputSize_ = 0;
  int maxWidth_ = 0;  ///< widest stage activation, sizes the scratch planes
};

}  // namespace pcnn::eedn
