#include "tn/spike_coding.hpp"

#include <algorithm>
#include <cmath>

namespace pcnn::tn {

int rateCodeCount(float value, int window) {
  const float v = std::clamp(value, 0.0f, 1.0f);
  return static_cast<int>(std::lround(v * static_cast<float>(window)));
}

std::vector<long> rateCodeTicks(float value, int window) {
  std::vector<long> ticks;
  const int count = rateCodeCount(value, window);
  if (count <= 0) return ticks;
  ticks.reserve(static_cast<std::size_t>(count));
  // Even spread: tick t carries a spike when the cumulative count
  // floor((t+1)*count/window) increments.
  int emitted = 0;
  for (int t = 0; t < window; ++t) {
    const int target = static_cast<int>(
        (static_cast<long long>(t + 1) * count) / window);
    if (target > emitted) {
      ticks.push_back(t);
      ++emitted;
    }
  }
  return ticks;
}

}  // namespace pcnn::tn
