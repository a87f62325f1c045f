#pragma once

#include <cstdint>
#include <vector>

#include "vision/image.hpp"

namespace pcnn::hog {

/// Parameters of the fixed-point HoG pipeline modelled on the FPGA design
/// of Advani et al. [1, 2] that the paper uses as its baseline ("FPGA-HoG:
/// an HoG of 9 orientation bins, weighted voting in magnitude, fixed-point
/// computation").
struct FixedPointHogParams {
  int pixelBits = 8;        ///< input quantization (8-bit grayscale)
  int numBins = 9;          ///< unsigned orientation bins over 0-180 deg
  int tanFractionBits = 12; ///< Q-format of the tan() boundary LUT
  int cellSize = 8;
};

/// Integer-only HoG cell extractor.
///
/// Hardware-style choices, all standard in FPGA HoG implementations:
///  - gradients from 8-bit pixels ([-1,0,1] masks, integer subtraction);
///  - magnitude via the alpha-max-plus-beta-min approximation
///    (max + 3*min/8) instead of a square root;
///  - orientation binning by comparing |Iy| against tan(boundary)*|Ix|
///    using a 4-entry fixed-point tan lookup table -- no arctangent.
/// The integer cell histograms feed the extractor layer's shared float
/// block stage (extract::FixedPointBackend), like every other backend's.
class FixedPointHog {
 public:
  explicit FixedPointHog(const FixedPointHogParams& params = {});

  const FixedPointHogParams& params() const { return params_; }

  /// Per-cell integer histograms (cellsY x cellsX x numBins, row-major).
  struct IntCellGrid {
    int cellsX = 0;
    int cellsY = 0;
    int bins = 0;
    std::vector<std::int32_t> data;
    const std::int32_t* cell(int cx, int cy) const {
      return data.data() +
             (static_cast<std::size_t>(cy) * cellsX + cx) * bins;
    }
  };

  IntCellGrid computeCells(const vision::Image& img) const;

  /// Orientation bin of an integer gradient, exposed for unit tests.
  int orientationBin(int ix, int iy) const;

  /// Alpha-max-beta-min magnitude approximation, exposed for unit tests.
  static std::int32_t approxMagnitude(int ix, int iy);

  /// tan(boundary) LUT in Q(tanFractionBits), exposed for the batched
  /// cell kernels (hog/cell_kernels.hpp), which re-run the same boundary
  /// comparisons over whole pixel rows.
  const std::vector<std::int64_t>& tanLut() const { return tanLut_; }

 private:
  FixedPointHogParams params_;
  std::vector<std::int64_t> tanLut_;  ///< tan(boundary) in Q(tanFractionBits)
};

}  // namespace pcnn::hog
