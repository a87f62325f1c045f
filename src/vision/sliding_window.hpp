#pragma once

#include <stdexcept>

#include "vision/geometry.hpp"
#include "vision/image.hpp"
#include "vision/pyramid.hpp"

namespace pcnn::vision {

/// Parameters for dense multi-scale window scanning.
struct SlidingWindowParams {
  int windowWidth = 64;
  int windowHeight = 128;
  int strideX = 8;  ///< the paper strides by one HoG cell (8 px)
  int strideY = 8;
  PyramidParams pyramid;
};

/// Dense multi-scale window scan over cached feature grids: the per-level
/// feature grid is computed ONCE by `gridFn` and every window over that
/// level reuses it -- the redundancy-elimination the paper's hardware
/// pipeline is built around (an 8-px stride over 64-px windows would
/// recompute each cell up to 64x if every window re-extracted its crop).
///
/// Requirements: strideX/strideY and the window dimensions must be
/// positive multiples of `cellSize`, so that every window lands on a whole
/// cell and the scan advances; anything else throws std::invalid_argument.
///
/// `gridFn(levelImage)` returns any grid type (e.g. hog::CellGrid or
/// FixedPointHog::IntCellGrid -- templated so vision stays independent of
/// hog). `fn(levelImage, grid, cx0, cy0, inLevel, inOriginal)` is called
/// per window with the window's top-left cell in the level grid.
template <typename GridFn, typename WindowFn>
void forEachWindowOnGrid(const Image& src, const SlidingWindowParams& params,
                         int cellSize, GridFn&& gridFn, WindowFn&& fn) {
  const auto aligned = [cellSize](int px) {
    return px > 0 && px % cellSize == 0;
  };
  if (cellSize <= 0 || !aligned(params.strideX) || !aligned(params.strideY) ||
      !aligned(params.windowWidth) || !aligned(params.windowHeight)) {
    throw std::invalid_argument(
        "forEachWindowOnGrid: strides and window must be positive and "
        "cell-aligned");
  }
  PyramidParams pp = params.pyramid;
  pp.minWidth = params.windowWidth;
  pp.minHeight = params.windowHeight;
  const auto levels = buildPyramid(src, pp);
  const int strideCellsX = params.strideX / cellSize;
  const int strideCellsY = params.strideY / cellSize;
  const int windowCellsX = params.windowWidth / cellSize;
  const int windowCellsY = params.windowHeight / cellSize;
  for (const PyramidLevel& level : levels) {
    const Image& img = level.image;
    const auto grid = gridFn(img);
    const int cellsX = img.width() / cellSize;
    const int cellsY = img.height() / cellSize;
    for (int cy0 = 0; cy0 + windowCellsY <= cellsY; cy0 += strideCellsY) {
      for (int cx0 = 0; cx0 + windowCellsX <= cellsX; cx0 += strideCellsX) {
        Rect inLevel{static_cast<float>(cx0 * cellSize),
                     static_cast<float>(cy0 * cellSize),
                     static_cast<float>(params.windowWidth),
                     static_cast<float>(params.windowHeight)};
        Rect inOriginal{inLevel.x * level.scale, inLevel.y * level.scale,
                        inLevel.w * level.scale, inLevel.h * level.scale};
        fn(img, grid, cx0, cy0, inLevel, inOriginal);
      }
    }
  }
}

}  // namespace pcnn::vision
