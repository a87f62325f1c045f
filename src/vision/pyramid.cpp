#include "vision/pyramid.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace pcnn::vision {

std::vector<PyramidLevel> buildPyramid(const Image& src,
                                       const PyramidParams& params) {
  // Written so that a NaN factor is rejected too.
  if (!(params.scaleFactor > 1.0f)) {
    throw std::invalid_argument("buildPyramid: scaleFactor must be > 1");
  }
  std::vector<PyramidLevel> levels;
  float scale = 1.0f;
  for (int level = 0; level < params.maxLevels; ++level) {
    const int w = static_cast<int>(std::lround(src.width() / scale));
    const int h = static_cast<int>(std::lround(src.height() / scale));
    if (w < params.minWidth || h < params.minHeight) break;
    PyramidLevel pl;
    pl.scale = scale;
    if (level == 0) {
      pl.image = src;
    } else if (w <= 0 || h <= 0) {
      throw std::invalid_argument("buildPyramid: level of non-positive size");
    } else {
      pl.image = Image(w, h);
    }
    levels.push_back(std::move(pl));
    scale *= params.scaleFactor;
  }
  // Every level below the first is resized from the source in one pool job.
  std::vector<Image*> resized;
  for (std::size_t i = 1; i < levels.size(); ++i) {
    resized.push_back(&levels[i].image);
  }
  resizeBilinearEach(src, resized);
  return levels;
}

}  // namespace pcnn::vision
