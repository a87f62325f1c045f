#include "vision/image.hpp"

#include <algorithm>
#include <cmath>

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
  for (int j = 0; j < h; ++j) {
    for (int i = 0; i < w; ++i) {
      out.at(i, j) = atClamped(x + i, y + j);
    }
  }
  return out;
}

void Image::clampValues(float lo, float hi) {
  for (float& v : data_) v = std::clamp(v, lo, hi);
}

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
  const float sx = static_cast<float>(src.width()) / dst.width();
  const float sy = static_cast<float>(src.height()) / dst.height();
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) {
      // Sample at the centre of the destination pixel mapped into source
      // coordinates; -0.5 keeps the mapping symmetric.
      const float srcX = (static_cast<float>(x) + 0.5f) * sx - 0.5f;
      const float srcY = (static_cast<float>(y) + 0.5f) * sy - 0.5f;
      dst.at(x, y) = src.sampleBilinear(srcX, srcY);
    }
  }
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
