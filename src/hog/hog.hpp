#pragma once

#include <vector>

#include "hog/gradient.hpp"
#include "vision/image.hpp"

namespace pcnn::hog {

/// Configuration of a Histogram-of-Oriented-Gradients cell extractor.
///
/// The two reference configurations used in the paper's Figure 4 are:
///  - FPGA-HoG: 9 unsigned bins (0-180), weighted voting by magnitude,
///    fixed-point arithmetic (see FixedPointHog);
///  - NApprox(fp): 18 signed bins (0-360), voting by count, float math
///    (see napprox::NApproxHog, which shares this histogram layout).
/// Both exploit contrast normalization over 2x2-cell blocks with a stride
/// of one cell, using the L2 norm v / ||v||_2. That block stage is shared
/// by every backend and lives in the extractor layer
/// (extract::FeatureExtractor); these params describe the cells only.
struct HogParams {
  int cellSize = 8;          ///< pixels per cell edge (paper: 8)
  int numBins = 9;           ///< orientation bins
  bool signedOrientation = false;  ///< false: 0-180 deg, true: 0-360 deg
  bool weightedVote = true;  ///< vote by gradient magnitude (vs. by count)
  bool bilinearBinning = true;     ///< bilinear interpolation between bins
};

/// A dense grid of per-cell orientation histograms.
struct CellGrid {
  int cellsX = 0;
  int cellsY = 0;
  int bins = 0;
  std::vector<float> data;  ///< cellsY * cellsX * bins, row-major

  float* cell(int cx, int cy) {
    return data.data() + (static_cast<std::size_t>(cy) * cellsX + cx) * bins;
  }
  const float* cell(int cx, int cy) const {
    return data.data() + (static_cast<std::size_t>(cy) * cellsX + cx) * bins;
  }
};

/// A dense grid of assembled, L2-normalized blocks over a whole cell
/// grid (built by extract::FeatureExtractor::prepareBlocks). Each block's
/// values depend only on its own cells, never on the window asking for
/// it -- so one normalization pass per pyramid level is shared by every
/// overlapping detection window.
struct BlockGrid {
  int blocksX = 0;
  int blocksY = 0;
  int blockLen = 0;  ///< 2 * 2 * bins floats per block
  std::vector<float> data;  ///< blocksY * blocksX * blockLen, row-major

  float* block(int bx, int by) {
    return data.data() +
           (static_cast<std::size_t>(by) * blocksX + bx) * blockLen;
  }
  const float* block(int bx, int by) const {
    return data.data() +
           (static_cast<std::size_t>(by) * blocksX + bx) * blockLen;
  }
};

/// Reference floating-point HoG cell extractor (Dalal & Triggs).
class HogExtractor {
 public:
  explicit HogExtractor(const HogParams& params = {});

  const HogParams& params() const { return params_; }

  /// Computes per-cell histograms for the whole image. Cells are
  /// non-overlapping cellSize x cellSize tiles; partial border cells are
  /// dropped.
  CellGrid computeCells(const vision::Image& img) const;

  /// Histogram of a single cell whose top-left pixel is (x0, y0). The
  /// gradients at the cell border use pixels outside the cell (the paper's
  /// "10x10 pixels are fed to HoG" for an 8x8 cell).
  std::vector<float> cellHistogram(const vision::Image& img, int x0,
                                   int y0) const;

 private:
  HogParams params_;
};

}  // namespace pcnn::hog
