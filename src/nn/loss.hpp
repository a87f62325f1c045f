#pragma once

#include <vector>

namespace pcnn::nn {

/// Loss value plus gradient with respect to the prediction.
struct LossResult {
  float value = 0.0f;
  std::vector<float> grad;
};

/// Mean squared error: used to train the Parrot HoG to mimic reference
/// histograms (a regression onto feature values).
LossResult mseLoss(const std::vector<float>& predicted,
                   const std::vector<float>& target);

/// Softmax cross-entropy over class scores; `target` is the class index.
LossResult softmaxCrossEntropy(const std::vector<float>& scores, int target);

/// Softmax probabilities (numerically stable), exposed for tests.
std::vector<float> softmax(const std::vector<float>& scores);

}  // namespace pcnn::nn
