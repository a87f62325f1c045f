#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pcnn::nn {

LossResult mseLoss(const std::vector<float>& predicted,
                   const std::vector<float>& target) {
  if (predicted.size() != target.size()) {
    throw std::invalid_argument("mseLoss: size mismatch");
  }
  LossResult result;
  result.grad.resize(predicted.size());
  const float n = static_cast<float>(predicted.size());
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    const float diff = predicted[i] - target[i];
    result.value += diff * diff / n;
    result.grad[i] = 2.0f * diff / n;
  }
  return result;
}

std::vector<float> softmax(const std::vector<float>& scores) {
  std::vector<float> probs(scores.size());
  const float maxScore = *std::max_element(scores.begin(), scores.end());
  float sum = 0.0f;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    probs[i] = std::exp(scores[i] - maxScore);
    sum += probs[i];
  }
  for (float& p : probs) p /= sum;
  return probs;
}

LossResult softmaxCrossEntropy(const std::vector<float>& scores, int target) {
  if (target < 0 || target >= static_cast<int>(scores.size())) {
    throw std::invalid_argument("softmaxCrossEntropy: bad target index");
  }
  LossResult result;
  result.grad = softmax(scores);
  result.value = -std::log(std::max(1e-12f, result.grad[target]));
  result.grad[target] -= 1.0f;
  return result;
}

}  // namespace pcnn::nn
