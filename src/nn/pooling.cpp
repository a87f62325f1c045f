#include "nn/pooling.hpp"

#include <stdexcept>

namespace pcnn::nn {

AvgPool2d::AvgPool2d(int channels, int inHeight, int inWidth, int pool)
    : channels_(channels),
      inH_(inHeight),
      inW_(inWidth),
      pool_(pool),
      outH_(inHeight / pool),
      outW_(inWidth / pool) {
  if (channels <= 0 || pool <= 0 || inHeight % pool != 0 ||
      inWidth % pool != 0) {
    throw std::invalid_argument(
        "AvgPool2d: dimensions must divide evenly by the pool size");
  }
}

std::vector<float> AvgPool2d::forward(const std::vector<float>& input,
                                      bool train) {
  (void)train;
  if (static_cast<int>(input.size()) != inputSize()) {
    throw std::invalid_argument("AvgPool2d::forward: size mismatch");
  }
  std::vector<float> out(static_cast<std::size_t>(outputSize()), 0.0f);
  const float inv = 1.0f / static_cast<float>(pool_ * pool_);
  for (int c = 0; c < channels_; ++c) {
    for (int oy = 0; oy < outH_; ++oy) {
      for (int ox = 0; ox < outW_; ++ox) {
        float sum = 0.0f;
        for (int py = 0; py < pool_; ++py) {
          for (int px = 0; px < pool_; ++px) {
            sum += input[(static_cast<std::size_t>(c) * inH_ +
                          oy * pool_ + py) *
                             inW_ +
                         ox * pool_ + px];
          }
        }
        out[(static_cast<std::size_t>(c) * outH_ + oy) * outW_ + ox] =
            sum * inv;
      }
    }
  }
  return out;
}

std::vector<float> AvgPool2d::backward(const std::vector<float>& gradOutput) {
  if (static_cast<int>(gradOutput.size()) != outputSize()) {
    throw std::invalid_argument("AvgPool2d::backward: size mismatch");
  }
  std::vector<float> gradIn(static_cast<std::size_t>(inputSize()), 0.0f);
  const float inv = 1.0f / static_cast<float>(pool_ * pool_);
  for (int c = 0; c < channels_; ++c) {
    for (int oy = 0; oy < outH_; ++oy) {
      for (int ox = 0; ox < outW_; ++ox) {
        const float g =
            gradOutput[(static_cast<std::size_t>(c) * outH_ + oy) * outW_ +
                       ox] *
            inv;
        for (int py = 0; py < pool_; ++py) {
          for (int px = 0; px < pool_; ++px) {
            gradIn[(static_cast<std::size_t>(c) * inH_ + oy * pool_ + py) *
                       inW_ +
                   ox * pool_ + px] += g;
          }
        }
      }
    }
  }
  return gradIn;
}

}  // namespace pcnn::nn
