#pragma once

#include "nn/layer.hpp"

namespace pcnn::nn {

/// Non-overlapping average pooling over CHW input. Average (rather than
/// max) pooling matches spiking-rate semantics: the pooled rate of a
/// neuron population is the mean rate, which TrueNorth realises with a
/// single integrate-and-fire neuron summing the pool's spikes.
class AvgPool2d : public Layer {
 public:
  AvgPool2d(int channels, int inHeight, int inWidth, int pool);

  std::vector<float> forward(const std::vector<float>& input,
                             bool train) override;
  std::vector<float> backward(const std::vector<float>& gradOutput) override;

  int inputSize() const override { return channels_ * inH_ * inW_; }
  int outputSize() const override { return channels_ * outH_ * outW_; }
  int outHeight() const { return outH_; }
  int outWidth() const { return outW_; }

 private:
  int channels_, inH_, inW_, pool_, outH_, outW_;
};

}  // namespace pcnn::nn
