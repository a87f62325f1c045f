#include "vision/image.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/parallel.hpp"

namespace pcnn::vision {

float Image::sampleBilinear(float x, float y) const {
  const int x0 = static_cast<int>(std::floor(x));
  const int y0 = static_cast<int>(std::floor(y));
  const float fx = x - static_cast<float>(x0);
  const float fy = y - static_cast<float>(y0);
  const float v00 = atClamped(x0, y0);
  const float v10 = atClamped(x0 + 1, y0);
  const float v01 = atClamped(x0, y0 + 1);
  const float v11 = atClamped(x0 + 1, y0 + 1);
  const float top = v00 + fx * (v10 - v00);
  const float bot = v01 + fx * (v11 - v01);
  return top + fy * (bot - top);
}

Image Image::crop(int x, int y, int w, int h) const {
  Image out(w, h);
  out.originX_ = originX_ + x;
  out.originY_ = originY_ + y;
  // Columns [in0, in1) of the crop lie inside the image and are copied
  // row by row; only the columns outside it take clamped reads.
  const int in0 = std::clamp(-x, 0, w);
  const int in1 = std::clamp(width_ - x, in0, w);
  for (int j = 0; j < h; ++j) {
    for (int i = 0; i < in0; ++i) out.at(i, j) = atClamped(x + i, y + j);
    if (in0 < in1) {
      const int row = std::clamp(y + j, 0, height_ - 1);
      std::memcpy(&out.at(in0, j), &data_[idx(x + in0, row)],
                  sizeof(float) * static_cast<std::size_t>(in1 - in0));
    }
    for (int i = in1; i < w; ++i) out.at(i, j) = atClamped(x + i, y + j);
  }
  return out;
}

void Image::clampValues(float lo, float hi) {
  for (float& v : data_) v = std::clamp(v, lo, hi);
}

namespace {

/// Destination rows per band, the unit of resize work the pool splits.
/// Fixed, so band boundaries never depend on the thread count.
constexpr int kBandRows = 16;

/// Destination pixels a pool chunk carries at least (~100 us of resize on
/// a 4-core x86-64 host), so a dispatch (tens of us) never dominates and
/// the small dirty-rect splices of the temporal scan run inline.
constexpr long kMinChunkPixels = 1L << 15;

/// The horizontal taps of one destination column: its two clamped source
/// columns and the weight of the right one.
struct ColumnTap {
  int c0 = 0;
  int c1 = 0;
  float fx = 0.0f;
};

/// A resize of `src` into the rect [x0, x1) x [y0, y1) of `dst`, with the
/// rect's column table. Each destination pixel gets exactly
/// src.sampleBilinear((x + 0.5f) * sx - 0.5f, (y + 0.5f) * sy - 0.5f),
/// split into its two passes: the horizontal pass computes sampleBilinear's
/// `top` and `bot` once per source row, and the vertical pass blends them
/// with the same float operations in the same order.
class ResizePlan {
 public:
  ResizePlan(const Image& src, Image& dst, int x0, int y0, int x1, int y1)
      : src_(&src), dst_(&dst), x0_(x0), y0_(y0), x1_(x1), y1_(y1),
        sy_(static_cast<float>(src.height()) / dst.height()) {
    const float sx = static_cast<float>(src.width()) / dst.width();
    const int last = src.width() - 1;
    taps_.resize(static_cast<std::size_t>(x1 - x0));
    for (int x = x0; x < x1; ++x) {
      // Sample at the centre of the destination pixel mapped into source
      // coordinates; -0.5 keeps the mapping symmetric.
      const float srcX = (static_cast<float>(x) + 0.5f) * sx - 0.5f;
      const int left = static_cast<int>(std::floor(srcX));
      ColumnTap& tap = taps_[static_cast<std::size_t>(x - x0)];
      tap.c0 = std::clamp(left, 0, last);
      tap.c1 = std::clamp(left + 1, 0, last);
      tap.fx = srcX - static_cast<float>(left);
    }
  }

  int width() const { return x1_ - x0_; }
  long bands() const { return (y1_ - y0_ + kBandRows - 1) / kBandRows; }
  long pixels() const { return static_cast<long>(width()) * (y1_ - y0_); }

  /// Resizes band `band`'s rows. `scratch` holds two horizontal-pass rows
  /// (2 * width() floats); a row stays cached while consecutive
  /// destination rows still read it.
  void runBand(long band, float* scratch) const {
    const int w = width();
    float* rows[2] = {scratch, scratch + w};
    int cached[2] = {-1, -1};
    // The slot holding source row r's horizontal pass, filled on a miss
    // into the slot that does not hold row `keep`.
    auto horizontal = [&](int r, int keep) -> const float* {
      for (int s = 0; s < 2; ++s) {
        if (cached[s] == r) return rows[s];
      }
      const int s = cached[0] == keep ? 1 : 0;
      const float* row =
          &src_->data()[static_cast<std::size_t>(r) * src_->width()];
      float* out = rows[s];
      for (int i = 0; i < w; ++i) {
        const ColumnTap tap = taps_[static_cast<std::size_t>(i)];
        const float v0 = row[tap.c0];
        out[i] = v0 + tap.fx * (row[tap.c1] - v0);
      }
      cached[s] = r;
      return out;
    };
    const int last = src_->height() - 1;
    const int yBegin = y0_ + static_cast<int>(band) * kBandRows;
    const int yEnd = std::min(y1_, yBegin + kBandRows);
    for (int y = yBegin; y < yEnd; ++y) {
      const float srcY = (static_cast<float>(y) + 0.5f) * sy_ - 0.5f;
      const int up = static_cast<int>(std::floor(srcY));
      const float fy = srcY - static_cast<float>(up);
      const int r0 = std::clamp(up, 0, last);
      const int r1 = std::clamp(up + 1, 0, last);
      const float* top = horizontal(r0, r1);
      const float* bot = horizontal(r1, r0);
      // A plain loop on purpose: it vectorizes at the baseline ISA, where
      // there is no FMA to contract top + fy * (bot - top) into (a
      // contraction would change the bits sampleBilinear produces).
      float* out = &dst_->at(x0_, y);
      for (int i = 0; i < w; ++i) out[i] = top[i] + fy * (bot[i] - top[i]);
    }
  }

 private:
  const Image* src_;
  Image* dst_;
  int x0_, y0_, x1_, y1_;
  float sy_;
  std::vector<ColumnTap> taps_;
};

/// Runs every plan's row bands as one pool job over a flat (plan, band)
/// item list: about four chunks per pool thread, but none under
/// kMinChunkPixels (a single chunk runs inline on the calling thread).
void runPlans(const std::vector<ResizePlan>& plans) {
  std::vector<std::pair<std::size_t, long>> items;
  long pixels = 0;
  int maxWidth = 0;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    for (long band = 0; band < plans[p].bands(); ++band) {
      items.emplace_back(p, band);
    }
    pixels += plans[p].pixels();
    maxWidth = std::max(maxWidth, plans[p].width());
  }
  const auto count = static_cast<long>(items.size());
  const long chunks = std::max(
      1L, std::min(pixels / kMinChunkPixels, count / suggestedGrain(count)));
  parallelForChunked(
      0, count, (count + chunks - 1) / chunks, [&](long lo, long hi) {
        std::vector<float> scratch(2 * static_cast<std::size_t>(maxWidth));
        for (long i = lo; i < hi; ++i) {
          const auto [p, band] = items[static_cast<std::size_t>(i)];
          plans[p].runBand(band, scratch.data());
        }
      });
}

}  // namespace

Image resizeBilinear(const Image& src, int newWidth, int newHeight) {
  if (newWidth <= 0 || newHeight <= 0) {
    throw std::invalid_argument("resizeBilinear: non-positive target size");
  }
  Image out(newWidth, newHeight);
  if (src.empty()) return out;
  resizeBilinearInto(src, out, 0, 0, newWidth, newHeight);
  return out;
}

void resizeBilinearInto(const Image& src, Image& dst, int x0, int y0, int x1,
                        int y1) {
  if (src.empty() || dst.empty()) return;
  x0 = std::max(0, x0);
  y0 = std::max(0, y0);
  x1 = std::min(dst.width(), x1);
  y1 = std::min(dst.height(), y1);
  if (x0 >= x1 || y0 >= y1) return;
  std::vector<ResizePlan> plans;
  plans.emplace_back(src, dst, x0, y0, x1, y1);
  runPlans(plans);
}

void resizeBilinearEach(const Image& src, std::span<Image* const> dsts) {
  if (src.empty()) return;
  std::vector<ResizePlan> plans;
  for (Image* dst : dsts) {
    if (!dst->empty()) {
      plans.emplace_back(src, *dst, 0, 0, dst->width(), dst->height());
    }
  }
  runPlans(plans);
}

Image rgbToGray(const unsigned char* rgb, int width, int height) {
  Image out(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const std::size_t base =
          (static_cast<std::size_t>(y) * width + x) * 3;
      const float r = rgb[base] / 255.0f;
      const float g = rgb[base + 1] / 255.0f;
      const float b = rgb[base + 2] / 255.0f;
      out.at(x, y) = 0.299f * r + 0.587f * g + 0.114f * b;
    }
  }
  return out;
}

float meanValue(const Image& img) {
  if (img.empty()) return 0.0f;
  double sum = 0.0;
  for (float v : img.data()) sum += v;
  return static_cast<float>(sum / img.data().size());
}

}  // namespace pcnn::vision
