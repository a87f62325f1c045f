#include "hog/cell_kernels.hpp"

#include <cmath>
#include <limits>

#include "common/target_clones.hpp"

// Compiled with -fno-math-errno (see src/hog/CMakeLists.txt) so sqrtf
// lowers to the sqrt instruction instead of a libm call, which is what
// lets the float row pass vectorize.

namespace pcnn::hog::kernels {
namespace {

constexpr float kPi = 3.14159265358979323846f;
constexpr float kHalfPi = 1.57079632679489661923f;
constexpr float kTwoPi = 6.28318530717958647692f;
constexpr float kMaxFloat = std::numeric_limits<float>::max();

/// Per-pixel angle + vote weight, written entirely as selects so the row
/// passes below vectorize (any genuine branch kills the vectorizer).
/// foldLimit/foldSub encode the unsigned-orientation fold (pi/pi, or
/// never-taken for signed); wSel is 1 for magnitude-weighted votes, 0 for
/// voting by count.
struct AngleWeight {
  float t;       ///< orientation in [0, range]
  float weight;  ///< vote weight (0 for zero or non-finite magnitudes)
};

inline AngleWeight angleWeight(float x, float y, float foldLimit,
                               float foldSub, float wSel) {
  // Odd minimax polynomial for atan on [0,1]; max error ~1e-5 rad.
  constexpr float c1 = 0.99997726f;
  constexpr float c3 = -0.33262347f;
  constexpr float c5 = 0.19354346f;
  constexpr float c7 = -0.11643287f;
  constexpr float c9 = 0.05265332f;
  constexpr float c11 = -0.01172120f;
  const float ax = x < 0.0f ? -x : x;
  const float ay = y < 0.0f ? -y : y;
  const float mx = ax > ay ? ax : ay;
  const float mn = ax > ay ? ay : ax;
  const float mag = std::sqrt(x * x + y * y);
  // Quadrant-reduced argument a = min/max in [0,1]; the select keeps the
  // zero-gradient lane finite (its vote weight is zeroed below anyway).
  const float den = mx > 0.0f ? mx : 1.0f;
  const float a = mn / den;
  const float z = a * a;
  float t = a * (c1 + z * (c3 + z * (c5 + z * (c7 + z * (c9 + z * c11)))));
  // Reconstruct atan2(y, x) mapped to [0, 2pi), mirroring the scalar
  // path's "atan2 then +2pi if negative", then fold for unsigned bins.
  t = ay > ax ? kHalfPi - t : t;
  t = x < 0.0f ? kPi - t : t;
  t = y < 0.0f ? kTwoPi - t : t;
  t = t >= foldLimit ? t - foldSub : t;
  // Only a magnitude in [1e-9, FLT_MAX] votes: the compares are false for
  // NaN, so a zero or non-finite gradient gets weight 0 and angle 0 (a NaN
  // angle would turn into an out-of-range bin index).
  const bool votes = mag >= 1e-9f && mag <= kMaxFloat;
  const float weight = mag * wSel + (1.0f - wSel);
  return {votes ? t : 0.0f, votes ? weight : 0.0f};
}

/// Bilinear voting: fills bin-index pairs and split weights per pixel.
PCNN_TARGET_CLONES
void hogRowPassBilinear(const float* __restrict gx,
                        const float* __restrict gy, int n, float foldLimit,
                        float foldSub, float wSel, int numBins,
                        float binWidth, std::int32_t* __restrict b0,
                        std::int32_t* __restrict b1, float* __restrict w0,
                        float* __restrict w1) {
  for (int i = 0; i < n; ++i) {
    const AngleWeight aw = angleWeight(gx[i], gy[i], foldLimit, foldSub,
                                       wSel);
    const float pos = aw.t / binWidth - 0.5f;
    // floor(pos) for pos >= -0.5 without an SSE4.1 rounding instruction.
    const int f = static_cast<int>(pos + 1.0f) - 1;
    const float frac = pos - static_cast<float>(f);
    int i0 = f;
    int i1 = f + 1;
    i0 = i0 < 0 ? i0 + numBins : i0;
    i1 = i1 >= numBins ? i1 - numBins : i1;
    b0[i] = i0;
    b1[i] = i1;
    w0[i] = aw.weight * (1.0f - frac);
    w1[i] = aw.weight * frac;
  }
}

/// Hard voting: the whole vote goes to the nearest-bin index.
PCNN_TARGET_CLONES
void hogRowPassHard(const float* __restrict gx, const float* __restrict gy,
                    int n, float foldLimit, float foldSub, float wSel,
                    int numBins, float binWidth,
                    std::int32_t* __restrict b0, float* __restrict w0) {
  for (int i = 0; i < n; ++i) {
    const AngleWeight aw = angleWeight(gx[i], gy[i], foldLimit, foldSub,
                                       wSel);
    int bin = static_cast<int>(aw.t / binWidth);
    bin = bin >= numBins ? numBins - 1 : bin;
    b0[i] = bin;
    w0[i] = aw.weight;
  }
}

/// Folds integer gradients to unsigned orientation and precomputes the
/// LUT-comparison operands: fy12 = folded_iy << tanFractionBits (always
/// from a non-negative folded iy), axv = |folded_ix|, mag = alpha-max-
/// beta-min of the *unfolded* gradient (sign-invariant anyway).
PCNN_TARGET_CLONES
void fixedRowFold(const std::int32_t* __restrict ix,
                  const std::int32_t* __restrict iy, int n,
                  int tanFractionBits, std::int32_t* __restrict fx,
                  std::int32_t* __restrict fy12,
                  std::int32_t* __restrict axv,
                  std::int32_t* __restrict mag) {
  for (int i = 0; i < n; ++i) {
    const std::int32_t x = ix[i];
    const std::int32_t y = iy[i];
    const bool flip = y < 0 || (y == 0 && x < 0);
    const std::int32_t fxi = flip ? -x : x;
    const std::int32_t fyi = flip ? -y : y;
    fx[i] = fxi;
    fy12[i] = fyi << tanFractionBits;
    axv[i] = fxi < 0 ? -fxi : fxi;
    const std::int32_t ax = x < 0 ? -x : x;
    const std::int32_t ay = y < 0 ? -y : y;
    const std::int32_t hi = ax > ay ? ax : ay;
    const std::int32_t lo = ax > ay ? ay : ax;
    mag[i] = hi + ((3 * lo) >> 3);
  }
}

/// Counts LUT boundaries passed per pixel. Because tan is increasing on
/// (0, 90deg) the LUT is monotone, so counting every passed boundary
/// equals the scalar kernel's count-until-first-failure.
PCNN_TARGET_CLONES
void fixedRowCount(const std::int32_t* __restrict fy12,
                   const std::int32_t* __restrict axv, int n,
                   const std::int32_t* __restrict tanQ, int lutLen,
                   std::int32_t* __restrict s) {
  for (int i = 0; i < n; ++i) s[i] = 0;
  for (int k = 0; k < lutLen; ++k) {
    const std::int32_t tq = tanQ[k];
    for (int i = 0; i < n; ++i) {
      s[i] += fy12[i] >= tq * axv[i] ? 1 : 0;
    }
  }
}

PCNN_TARGET_CLONES
void fixedRowBin(const std::int32_t* __restrict fx,
                 const std::int32_t* __restrict s, int n, int numBins,
                 std::int32_t* __restrict bin) {
  for (int i = 0; i < n; ++i) {
    bin[i] = fx[i] >= 0 ? s[i] : (numBins - 1) - s[i];
  }
}

/// Centered [-1,0,1] gradients of one row of quantized pixels with
/// replicate-clamped borders, written for the first `n` columns (n <=
/// width; border cells past the last whole cell are dropped upstream).
void fixedGradientRow(const std::int32_t* pix, int width, int height, int y,
                      int n, std::int32_t* __restrict ix,
                      std::int32_t* __restrict iy) {
  const std::int32_t* row = pix + static_cast<std::size_t>(y) * width;
  const std::int32_t* up =
      pix + static_cast<std::size_t>(y > 0 ? y - 1 : 0) * width;
  const std::int32_t* dn =
      pix + static_cast<std::size_t>(y < height - 1 ? y + 1 : height - 1) *
                width;
  if (n <= 0) return;
  ix[0] = row[width > 1 ? 1 : 0] - row[0];
  const int mid = n < width - 1 ? n : width - 1;
  for (int x = 1; x < mid; ++x) ix[x] = row[x + 1] - row[x - 1];
  for (int x = mid; x < n; ++x) {
    if (x >= 1) ix[x] = row[width - 1] - row[x - 1];
  }
  for (int x = 0; x < n; ++x) iy[x] = up[x] - dn[x];
}

}  // namespace

const char* simdLevel() {
#if defined(__x86_64__) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx512f")) return "avx512";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  if (__builtin_cpu_supports("sse4.2")) return "sse4.2";
  return "sse2";
#else
  return "generic";
#endif
}

void voteForPixel(const HogParams& params, float gx, float gy,
                  float* histogram) {
  const float mag = std::sqrt(gx * gx + gy * gy);
  // No orientation, or none that is finite: contributes nothing.
  if (!(mag >= 1e-9f && mag <= kMaxFloat)) return;
  float angle = std::atan2(gy, gx);  // [-pi, pi]
  const float range = params.signedOrientation ? 2.0f * kPi : kPi;
  if (angle < 0.0f) angle += 2.0f * kPi;                        // [0, 2pi)
  if (!params.signedOrientation && angle >= kPi) angle -= kPi;  // [0, pi)

  const float weight = params.weightedVote ? mag : 1.0f;
  const float binWidth = range / static_cast<float>(params.numBins);
  if (params.bilinearBinning) {
    // Vote split between the two nearest bin centres (aliasing mitigation,
    // Dalal & Triggs; the paper's NApprox intentionally omits this).
    const float pos = angle / binWidth - 0.5f;
    int b0 = static_cast<int>(std::floor(pos));
    const float frac = pos - static_cast<float>(b0);
    int b1 = b0 + 1;
    if (b0 < 0) b0 += params.numBins;
    if (b1 >= params.numBins) b1 -= params.numBins;
    histogram[b0] += weight * (1.0f - frac);
    histogram[b1] += weight * frac;
  } else {
    int bin = static_cast<int>(angle / binWidth);
    if (bin >= params.numBins) bin = params.numBins - 1;
    histogram[bin] += weight;
  }
}

void hogCellRowsScalar(const GradientField& field, const HogParams& params,
                       CellGrid& grid, int cyBegin, int cyEnd) {
  for (int cy = cyBegin; cy < cyEnd; ++cy) {
    for (int cx = 0; cx < grid.cellsX; ++cx) {
      float* hist = grid.cell(cx, cy);
      for (int dy = 0; dy < params.cellSize; ++dy) {
        for (int dx = 0; dx < params.cellSize; ++dx) {
          const int x = cx * params.cellSize + dx;
          const int y = cy * params.cellSize + dy;
          voteForPixel(params, field.gx(x, y), field.gy(x, y), hist);
        }
      }
    }
  }
}

void hogCellRowsBatched(const GradientField& field, const HogParams& params,
                        CellGrid& grid, int cyBegin, int cyEnd) {
  const int cs = params.cellSize;
  const int width = grid.cellsX * cs;
  if (width <= 0) return;
  const float range = params.signedOrientation ? 2.0f * kPi : kPi;
  const float binWidth = range / static_cast<float>(params.numBins);
  // Signed orientations never fold; an unreachable limit keeps the select.
  const float foldLimit =
      params.signedOrientation ? std::numeric_limits<float>::max() : kPi;
  const float foldSub = params.signedOrientation ? 0.0f : kPi;
  const float wSel = params.weightedVote ? 1.0f : 0.0f;
  std::vector<std::int32_t> b0(width), b1(width);
  std::vector<float> w0(width), w1(width);
  for (int cy = cyBegin; cy < cyEnd; ++cy) {
    float* rowHist = grid.cell(0, cy);
    for (int dy = 0; dy < cs; ++dy) {
      const int y = cy * cs + dy;
      const float* gx =
          field.ix.data() + static_cast<std::size_t>(y) * field.width;
      const float* gy =
          field.iy.data() + static_cast<std::size_t>(y) * field.width;
      if (params.bilinearBinning) {
        hogRowPassBilinear(gx, gy, width, foldLimit, foldSub, wSel,
                           params.numBins, binWidth, b0.data(), b1.data(),
                           w0.data(), w1.data());
        for (int cx = 0; cx < grid.cellsX; ++cx) {
          float* hist = rowHist + static_cast<std::size_t>(cx) * grid.bins;
          const int base = cx * cs;
          for (int dx = 0; dx < cs; ++dx) {
            hist[b0[base + dx]] += w0[base + dx];
            hist[b1[base + dx]] += w1[base + dx];
          }
        }
      } else {
        hogRowPassHard(gx, gy, width, foldLimit, foldSub, wSel,
                       params.numBins, binWidth, b0.data(), w0.data());
        for (int cx = 0; cx < grid.cellsX; ++cx) {
          float* hist = rowHist + static_cast<std::size_t>(cx) * grid.bins;
          const int base = cx * cs;
          for (int dx = 0; dx < cs; ++dx) {
            hist[b0[base + dx]] += w0[base + dx];
          }
        }
      }
    }
  }
}

std::vector<std::int32_t> quantizePixels(const vision::Image& img,
                                         int pixelBits) {
  const int maxLevel = (1 << pixelBits) - 1;
  const int w = img.width();
  const int h = img.height();
  std::vector<std::int32_t> pix(static_cast<std::size_t>(w) * h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      float v = img.at(x, y);
      v = v < 0.0f ? 0.0f : (v > 1.0f ? 1.0f : v);
      pix[static_cast<std::size_t>(y) * w + x] =
          static_cast<std::int32_t>(std::lround(v * maxLevel));
    }
  }
  return pix;
}

bool fixedBatchedFits(const FixedPointHog& model) {
  const FixedPointHogParams& p = model.params();
  if (p.pixelBits < 1 || p.pixelBits > 30) return false;
  const std::int64_t maxGrad = (std::int64_t{1} << p.pixelBits) - 1;
  const std::int64_t int32Max = std::numeric_limits<std::int32_t>::max();
  // fy << tanFractionBits must fit int32...
  if ((maxGrad << p.tanFractionBits) > int32Max) return false;
  // ...and so must every tanQ * |fx| product (and the LUT entries
  // themselves, which get narrowed to an int32 working copy).
  for (const std::int64_t tq : model.tanLut()) {
    if (tq < 0 || tq > int32Max || tq * maxGrad > int32Max) return false;
  }
  return true;
}

void fixedCellRowsScalar(const FixedPointHog& model, const std::int32_t* pix,
                         int width, int height,
                         FixedPointHog::IntCellGrid& grid, int cyBegin,
                         int cyEnd) {
  const FixedPointHogParams& p = model.params();
  auto at = [&](int x, int y) {
    x = x < 0 ? 0 : (x >= width ? width - 1 : x);
    y = y < 0 ? 0 : (y >= height ? height - 1 : y);
    return pix[static_cast<std::size_t>(y) * width + x];
  };
  for (int cy = cyBegin; cy < cyEnd; ++cy) {
    for (int cx = 0; cx < grid.cellsX; ++cx) {
      std::int32_t* hist =
          grid.data.data() +
          (static_cast<std::size_t>(cy) * grid.cellsX + cx) * grid.bins;
      for (int dy = 0; dy < p.cellSize; ++dy) {
        for (int dx = 0; dx < p.cellSize; ++dx) {
          const int x = cx * p.cellSize + dx;
          const int y = cy * p.cellSize + dy;
          const int ix = at(x + 1, y) - at(x - 1, y);
          const int iy = at(x, y - 1) - at(x, y + 1);
          if (ix == 0 && iy == 0) continue;
          hist[model.orientationBin(ix, iy)] +=
              FixedPointHog::approxMagnitude(ix, iy);
        }
      }
    }
  }
}

void fixedCellRowsBatched(const FixedPointHog& model, const std::int32_t* pix,
                          int width, int height,
                          FixedPointHog::IntCellGrid& grid, int cyBegin,
                          int cyEnd) {
  const FixedPointHogParams& p = model.params();
  const int cs = p.cellSize;
  const int n = grid.cellsX * cs;
  if (n <= 0) return;
  const std::vector<std::int32_t> tanQ(model.tanLut().begin(),
                                       model.tanLut().end());
  const int lutLen = static_cast<int>(tanQ.size());
  std::vector<std::int32_t> ix(n), iy(n), fx(n), fy12(n), axv(n), s(n),
      bin(n), mag(n);
  for (int cy = cyBegin; cy < cyEnd; ++cy) {
    std::int32_t* rowHist =
        grid.data.data() +
        static_cast<std::size_t>(cy) * grid.cellsX * grid.bins;
    for (int dy = 0; dy < cs; ++dy) {
      const int y = cy * cs + dy;
      fixedGradientRow(pix, width, height, y, n, ix.data(), iy.data());
      fixedRowFold(ix.data(), iy.data(), n, p.tanFractionBits, fx.data(),
                   fy12.data(), axv.data(), mag.data());
      fixedRowCount(fy12.data(), axv.data(), n, tanQ.data(), lutLen,
                    s.data());
      fixedRowBin(fx.data(), s.data(), n, p.numBins, bin.data());
      // Zero-gradient pixels land in the middle bin with magnitude 0; the
      // integer += 0 keeps this bitwise-identical to the scalar "skip".
      for (int cx = 0; cx < grid.cellsX; ++cx) {
        std::int32_t* hist =
            rowHist + static_cast<std::size_t>(cx) * grid.bins;
        const int base = cx * cs;
        for (int dx = 0; dx < cs; ++dx) {
          hist[bin[base + dx]] += mag[base + dx];
        }
      }
    }
  }
}

}  // namespace pcnn::hog::kernels
