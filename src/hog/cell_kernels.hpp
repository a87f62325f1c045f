#pragma once

#include <cstdint>
#include <vector>

#include "hog/fixed_point.hpp"
#include "hog/gradient.hpp"
#include "hog/hog.hpp"
#include "vision/image.hpp"

namespace pcnn::hog::kernels {

/// Cell-histogram kernel layer.
///
/// Both HoG voting loops (float HogExtractor and integer FixedPointHog)
/// exist in two implementations:
///
///  - *scalar*: the reference per-pixel loop, bit-for-bit the code the
///    extractors shipped with (atan2/sqrt per pixel for float, LUT
///    comparisons per pixel for fixed-point);
///  - *batched*: a structure-of-arrays row kernel. One pass walks a whole
///    pixel row and fills bin-index / vote-weight arrays with branch-free
///    selects (the float path replaces atan2 with a quadrant-reduced odd
///    polynomial, the fixed-point path hoists the tan-LUT loop so each
///    boundary is one vectorized compare over the row), then a scatter
///    pass accumulates into the cell histograms. The hot row passes are
///    compiled with gcc target_clones, so an AVX2/FMA (x86-64-v3) clone is
///    picked by the dynamic linker on capable CPUs and the baseline build
///    stays runnable anywhere.
///
/// Numerics contract: the batched fixed-point kernel is bitwise-identical
/// to the scalar one (integer math, same per-cell accumulation, monotone
/// LUT counting == early-exit counting). The batched float kernel tracks
/// the scalar one within the polynomial's ~1e-5 rad angle error (worst
/// case a few 1e-3 absolute per histogram bin). A pixel whose gradient
/// magnitude is not finite (a NaN or infinite pixel nearby) votes nowhere
/// in either float kernel. tests/cell_kernels_test.cpp pins all three
/// contracts down.
///
/// The extractors always run the batched kernels; FixedPointHog drops to
/// the scalar one only for a model whose Q-format could overflow the
/// batched int32 math (fixedBatchedFits). Otherwise the scalar kernels are
/// the oracles the tests compare against.

/// Best instruction set the *CPU* reports for the cloned row passes:
/// "avx512", "avx2", "sse4.2", "sse2" or "generic" (non-x86 builds). The
/// batched kernels run everywhere; this is what the ifunc resolver has to
/// work with, recorded into bench output for provenance.
const char* simdLevel();

/// Reference single-pixel vote (HogExtractor's original private
/// voteForPixel). Shared by the scalar kernel and cellHistogram.
void voteForPixel(const HogParams& params, float gx, float gy,
                  float* histogram);

/// Accumulates cell rows [cyBegin, cyEnd) of `grid` from a precomputed
/// gradient field. The grid must be pre-sized and zeroed; each call writes
/// only its own rows, so disjoint ranges can run on different threads.
void hogCellRowsScalar(const GradientField& field, const HogParams& params,
                       CellGrid& grid, int cyBegin, int cyEnd);
void hogCellRowsBatched(const GradientField& field, const HogParams& params,
                        CellGrid& grid, int cyBegin, int cyEnd);

/// Clamps img to [0,1] and quantizes to pixelBits integer levels -- the
/// shared front half of FixedPointHog::computeCells, exposed so benches
/// and tests can drive the integer row kernels directly.
std::vector<std::int32_t> quantizePixels(const vision::Image& img,
                                         int pixelBits);

/// True when the batched fixed-point kernel's int32 row math cannot
/// overflow for this model's pixelBits/tanFractionBits (holds for the
/// defaults: 8-bit pixels, Q12 LUT). When false FixedPointHog runs the
/// scalar int64 kernel instead.
bool fixedBatchedFits(const FixedPointHog& model);

/// Integer analogues of the float row kernels, over quantized pixels
/// (width x height, row-major; gradients are recomputed per row with
/// replicate-clamped borders, matching the scalar extractor).
void fixedCellRowsScalar(const FixedPointHog& model, const std::int32_t* pix,
                         int width, int height,
                         FixedPointHog::IntCellGrid& grid, int cyBegin,
                         int cyEnd);
void fixedCellRowsBatched(const FixedPointHog& model, const std::int32_t* pix,
                          int width, int height,
                          FixedPointHog::IntCellGrid& grid, int cyBegin,
                          int cyEnd);

}  // namespace pcnn::hog::kernels
