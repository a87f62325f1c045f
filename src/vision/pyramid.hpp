#pragma once

#include <vector>

#include "vision/image.hpp"

namespace pcnn::vision {

/// One level of a scale pyramid. `scale` maps level coordinates back to the
/// original image: original = level * scale.
struct PyramidLevel {
  Image image;
  float scale = 1.0f;
};

/// Parameters for pyramid construction. The paper uses a per-level scale
/// factor of 1.1x; the SVM evaluation uses 15 levels, while the full-HD
/// power analysis uses 6 levels.
struct PyramidParams {
  float scaleFactor = 1.1f;
  int maxLevels = 64;       ///< hard cap; also stops when window no longer fits
  int minWidth = 64;        ///< stop when level is smaller than the window
  int minHeight = 128;
};

/// Builds a downscaling pyramid: level 0 is the original image, each
/// subsequent level shrinks by `scaleFactor`. Every level below the first
/// is resizeBilinear(src, w, h) bit for bit; all of them are resized in
/// one pool job (resizeBilinearEach). Throws std::invalid_argument unless
/// scaleFactor > 1 (NaN included).
std::vector<PyramidLevel> buildPyramid(const Image& src,
                                       const PyramidParams& params);

}  // namespace pcnn::vision
