#pragma once

#include <vector>

namespace pcnn::tn {

/// Rate coding used by the NApprox corelet: a value v in [0, 1] becomes
/// round(v * window) spikes spread evenly (Bresenham-style) over `window`
/// ticks. With window = 64 this is the paper's "64-spike representation
/// (6-bit fixed-point resolution)".
std::vector<long> rateCodeTicks(float value, int window);

/// Number of spikes rate coding emits for `value` over `window` ticks.
int rateCodeCount(float value, int window);

}  // namespace pcnn::tn
