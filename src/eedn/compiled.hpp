#pragma once

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
/// weights once: each output row of each dense stage becomes a bias plus
/// a list of its nonzero terms (input row, sign), in ascending input
/// order, and the groups of a PartitionedDense fold into one row table.
/// Inference then runs many samples at a time over feature-major
/// activation planes: one output row over a 64-column tile accumulates
/// in registers while it walks the row's terms, and is stored once, with
/// a following SpikingThreshold fused into that store.
///
/// Bitwise contract: for each (sample, output) pair the accumulation
/// starts from the layer bias and adds/subtracts inputs in ascending
/// input order -- the exact float operation sequence of
/// TrinaryDense::forward (a term adds sign * x, and since multiplying by
/// +-1 is exact and a + (-b) == a - b in IEEE arithmetic, that equals the
/// layer's += / -=, fused multiply-add or not) -- so results are
/// bit-identical to net.forward(sample, false) per sample. Gated by the
/// eedn and parrot parity tests.
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
  /// layout. A narrow batch (an incremental crop) runs each stage as one
  /// pool job over (column tile x output row) items, tile-major, in chunks
  /// that each carry a minimum of terms x columns work -- so a crop of a
  /// hundred cells still spreads its wide stages over every thread. A
  /// batch of at least two 256-column blocks per thread splits over those
  /// blocks instead, each run through every stage inline so its planes
  /// stay in cache. Every item writes its own slice of one output row, so
  /// results do not depend on the split or the thread count. The
  /// activation planes are per-thread scratch that is reused and only
  /// grows, so each thread that runs a batch keeps the planes of the
  /// widest one it ran.
  std::vector<float> forwardBatch(const std::vector<float>& input,
                                  int count) const;

 private:
  /// One dense stage (a TrinaryDense, or every group of a
  /// PartitionedDense) in CSR form, plus an optional fused
  /// SpikingThreshold. Row j's nonzero terms are the indices
  /// [rowStart[j], rowStart[j + 1]) of termInput (the stage-input row) and
  /// termSign (+-1), in ascending input order.
  struct Stage {
    int inputSize = 0;
    int outputSize = 0;
    bool thresholdAfter = false;
    std::vector<float> biases;
    std::vector<int> rowStart;
    std::vector<int> termInput;
    std::vector<float> termSign;
  };

  void runStage(const Stage& stage, const float* in, float* out,
                long stride) const;

  std::vector<Stage> stages_;
  int inputSize_ = 0;
  int outputSize_ = 0;
  int maxWidth_ = 0;  ///< widest stage activation, sizes the scratch planes
};

}  // namespace pcnn::eedn
