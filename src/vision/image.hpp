#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace pcnn::vision {

/// Single-channel (grayscale) floating-point image with values nominally in
/// [0, 1]. Row-major storage. All pipeline stages in this library operate on
/// grayscale images, matching the paper's reduction from RGB to grayscale to
/// fit TrueNorth resource constraints (Section 4).
class Image {
 public:
  Image() = default;

  /// Creates a width x height image filled with `fill`.
  Image(int width, int height, float fill = 0.0f)
      : width_(width), height_(height) {
    if (width < 0 || height < 0) {
      throw std::invalid_argument("Image: negative dimensions");
    }
    data_.assign(static_cast<std::size_t>(width) * height, fill);
  }

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return data_.empty(); }

  /// Unchecked pixel access (debug builds may still catch via vector).
  float& at(int x, int y) { return data_[idx(x, y)]; }
  float at(int x, int y) const { return data_[idx(x, y)]; }

  /// Pixel access with coordinates clamped to the image border. This is the
  /// border policy used by the gradient operators (replicate-edge).
  float atClamped(int x, int y) const {
    x = x < 0 ? 0 : (x >= width_ ? width_ - 1 : x);
    y = y < 0 ? 0 : (y >= height_ ? height_ - 1 : y);
    return data_[idx(x, y)];
  }

  /// Bilinearly interpolated sample at a real-valued coordinate, clamped.
  float sampleBilinear(float x, float y) const;

  /// Raw pixel buffer (row-major).
  std::vector<float>& data() { return data_; }
  const std::vector<float>& data() const { return data_; }

  /// Returns the sub-image [x, x+w) x [y, y+h); clamps reads at borders.
  /// In-bounds columns are copied row by row; only the columns that fall
  /// outside the image take clamped reads. The crop's origin is this
  /// image's origin plus (x, y).
  Image crop(int x, int y, int w, int h) const;

  /// Position of pixel (0, 0) in the image this one was cropped from
  /// (summed over nested crops); (0, 0) for constructed or resized images.
  /// Lets per-pixel keyed computations (the Parrot's spike coding) treat a
  /// crop exactly like the same pixels of its source.
  int originX() const { return originX_; }
  int originY() const { return originY_; }

  /// Clamp every pixel into [lo, hi].
  void clampValues(float lo, float hi);

 private:
  std::size_t idx(int x, int y) const {
    return static_cast<std::size_t>(y) * width_ + x;
  }
  int width_ = 0;
  int height_ = 0;
  int originX_ = 0;
  int originY_ = 0;
  std::vector<float> data_;
};

/// Resizes `src` to the exact target size with bilinear interpolation:
/// destination pixel (x, y) is src.sampleBilinear((x + 0.5) * sx - 0.5,
/// (y + 0.5) * sy - 0.5) with sx = src.width() / newWidth (likewise sy),
/// bit for bit. The kernel is separable -- a column table, one horizontal
/// pass per source row, a vertical blend per destination row -- and runs
/// on the pool in fixed bands of rows once the rect holds enough pixels.
Image resizeBilinear(const Image& src, int newWidth, int newHeight);

/// Recomputes only the destination rectangle [x0, x1) x [y0, y1) of `dst`
/// from `src`, using the same per-pixel sampling as resizeBilinear at
/// dst's dimensions. Because every destination pixel is an independent
/// function of the source, the refreshed region is bitwise-identical to
/// the corresponding region of a full resizeBilinear(src, dst.width(),
/// dst.height()) -- the property the temporal detection path relies on to
/// propagate dirty scene rectangles into pyramid levels without paying a
/// full per-level resize. The rect is clamped to dst's bounds; a rect of
/// fewer than ~32k pixels runs inline on the calling thread.
void resizeBilinearInto(const Image& src, Image& dst, int x0, int y0, int x1,
                        int y1);

/// Resizes `src` into every image of `dsts`, each at its own (already
/// allocated) size, with resizeBilinear's sampling -- in one pool job over
/// all their row bands, so small images do not each pay a dispatch.
void resizeBilinearEach(const Image& src, std::span<Image* const> dsts);

/// Converts interleaved 8-bit RGB data to a grayscale Image using the
/// Rec.601 luma weights. `rgb` must hold width*height*3 bytes.
Image rgbToGray(const unsigned char* rgb, int width, int height);

/// Mean pixel value of the image (0 for an empty image).
float meanValue(const Image& img);

}  // namespace pcnn::vision
