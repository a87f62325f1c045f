#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <tuple>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "vision/draw.hpp"
#include "vision/geometry.hpp"
#include "vision/image.hpp"
#include "vision/nms.hpp"
#include "vision/pgm.hpp"
#include "vision/pyramid.hpp"
#include "vision/sliding_window.hpp"
#include "vision/synth.hpp"

namespace pcnn::vision {
namespace {

TEST(Image, ConstructionAndFill) {
  Image img(4, 3, 0.5f);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_FALSE(img.empty());
  EXPECT_FLOAT_EQ(img.at(0, 0), 0.5f);
  EXPECT_FLOAT_EQ(img.at(3, 2), 0.5f);
}

TEST(Image, DefaultIsEmpty) {
  Image img;
  EXPECT_TRUE(img.empty());
  EXPECT_EQ(img.width(), 0);
}

TEST(Image, NegativeDimensionsThrow) {
  EXPECT_THROW(Image(-1, 4), std::invalid_argument);
  EXPECT_THROW(Image(4, -1), std::invalid_argument);
}

TEST(Image, ClampedAccessReplicatesBorder) {
  Image img(2, 2);
  img.at(0, 0) = 1.0f;
  img.at(1, 0) = 2.0f;
  img.at(0, 1) = 3.0f;
  img.at(1, 1) = 4.0f;
  EXPECT_FLOAT_EQ(img.atClamped(-5, -5), 1.0f);
  EXPECT_FLOAT_EQ(img.atClamped(10, 0), 2.0f);
  EXPECT_FLOAT_EQ(img.atClamped(0, 10), 3.0f);
  EXPECT_FLOAT_EQ(img.atClamped(10, 10), 4.0f);
}

TEST(Image, BilinearSamplingInterpolates) {
  Image img(2, 1);
  img.at(0, 0) = 0.0f;
  img.at(1, 0) = 1.0f;
  EXPECT_NEAR(img.sampleBilinear(0.5f, 0.0f), 0.5f, 1e-6f);
  EXPECT_NEAR(img.sampleBilinear(0.25f, 0.0f), 0.25f, 1e-6f);
}

TEST(Image, CropTakesSubImage) {
  Image img(4, 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) img.at(x, y) = static_cast<float>(y * 4 + x);
  }
  Image sub = img.crop(1, 1, 2, 2);
  EXPECT_EQ(sub.width(), 2);
  EXPECT_FLOAT_EQ(sub.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(sub.at(1, 1), 10.0f);
}

// Crops hanging off each side of the image (and past two sides, or
// wholly outside it) read exactly the replicate-edge pixels atClamped does.
TEST(Image, PartlyOutOfBoundsCropMatchesClampedReads) {
  Rng rng(11);
  const Image img = valueNoise(9, 7, 3, 0.5f, 0.4f, rng);
  const int rects[][4] = {{-3, 2, 6, 3}, {5, -2, 3, 5},  {6, 4, 6, 5},
                          {2, 5, 4, 6},  {-2, -3, 14, 12}, {12, 9, 3, 2},
                          {-8, 1, 4, 3}, {0, 0, 9, 7}};
  for (const auto& r : rects) {
    SCOPED_TRACE(testing::Message() << r[0] << "," << r[1] << " " << r[2]
                                    << "x" << r[3]);
    const Image c = img.crop(r[0], r[1], r[2], r[3]);
    ASSERT_EQ(c.width(), r[2]);
    ASSERT_EQ(c.height(), r[3]);
    EXPECT_EQ(c.originX(), r[0]);
    EXPECT_EQ(c.originY(), r[1]);
    for (int y = 0; y < r[3]; ++y) {
      for (int x = 0; x < r[2]; ++x) {
        const float want = img.atClamped(r[0] + x, r[1] + y);
        ASSERT_EQ(std::bit_cast<std::uint32_t>(c.at(x, y)),
                  std::bit_cast<std::uint32_t>(want))
            << "at " << x << "," << y;
      }
    }
  }
}

TEST(Image, ClampValuesBoundsRange) {
  Image img(2, 1);
  img.at(0, 0) = -3.0f;
  img.at(1, 0) = 7.0f;
  img.clampValues(0.0f, 1.0f);
  EXPECT_FLOAT_EQ(img.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(img.at(1, 0), 1.0f);
}

TEST(Image, ResizePreservesConstantImage) {
  Image img(10, 20, 0.3f);
  Image out = resizeBilinear(img, 7, 13);
  EXPECT_EQ(out.width(), 7);
  EXPECT_EQ(out.height(), 13);
  for (float v : out.data()) EXPECT_NEAR(v, 0.3f, 1e-6f);
}

TEST(Image, ResizeRejectsBadTarget) {
  Image img(10, 10);
  EXPECT_THROW(resizeBilinear(img, 0, 5), std::invalid_argument);
}

// The resize oracle: every pixel of a resize, by bit pattern, against
// per-pixel sampleBilinear at resizeBilinear's documented mapping. Run at 1
// and 4 pool threads; the larger cases are above the kernel's inline floor,
// so at 4 threads their row bands are split over the pool.
class ResizeOracle : public testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    saved_ = threadCount();
    setThreadCount(GetParam());
  }
  void TearDown() override { setThreadCount(saved_); }

  static Image noise(int w, int h, std::uint64_t seed) {
    Rng rng(seed);
    Image img(w, h);
    for (float& v : img.data()) v = static_cast<float>(rng.uniform());
    return img;
  }

  /// Pixels of dst's [x0, x1) x [y0, y1) that differ from the sampling
  /// oracle (dst's size sets the mapping).
  static long mismatches(const Image& src, const Image& dst, int x0, int y0,
                         int x1, int y1) {
    const float sx = static_cast<float>(src.width()) / dst.width();
    const float sy = static_cast<float>(src.height()) / dst.height();
    long bad = 0;
    for (int y = y0; y < y1; ++y) {
      for (int x = x0; x < x1; ++x) {
        const float want = src.sampleBilinear(
            (static_cast<float>(x) + 0.5f) * sx - 0.5f,
            (static_cast<float>(y) + 0.5f) * sy - 0.5f);
        bad += std::bit_cast<std::uint32_t>(dst.at(x, y)) !=
               std::bit_cast<std::uint32_t>(want);
      }
    }
    return bad;
  }

 private:
  int saved_ = 1;
};

TEST_P(ResizeOracle, RandomSizesMatchPerPixelSampling) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    // Mostly small sizes (down- and upscales, 1 px wide or tall images
    // included), plus every tenth trial large enough to reach the pool.
    const int maxSide = trial % 10 == 0 ? 700 : 40;
    int sw = rng.uniformInt(1, maxSide), sh = rng.uniformInt(1, maxSide);
    int dw = rng.uniformInt(1, maxSide), dh = rng.uniformInt(1, maxSide);
    if (trial % 7 == 1) sw = 1;
    if (trial % 7 == 2) sh = 1;
    if (trial % 7 == 3) dw = 1;
    if (trial % 7 == 4) dh = 1;
    const Image src = noise(sw, sh, 100 + trial);
    const Image dst = resizeBilinear(src, dw, dh);
    EXPECT_EQ(mismatches(src, dst, 0, 0, dw, dh), 0)
        << sw << "x" << sh << " -> " << dw << "x" << dh;
  }
}

TEST_P(ResizeOracle, SubRectsTouchingEachBorderMatchAndLeaveTheRestAlone) {
  const float sentinel = -7.0f;
  for (const auto& [sw, sh, dw, dh] :
       {std::array{640, 480, 582, 436}, std::array{37, 23, 90, 61}}) {
    const Image src = noise(sw, sh, 9);
    // Rects flush with the left, top, right and bottom borders, the whole
    // image, and one hanging past two borders (clamped to dst).
    const int rects[][4] = {{0, 30, 200, 300},      {50, 0, 500, 180},
                            {dw - 90, 40, dw, 400}, {10, dh - 70, 300, dh},
                            {0, 0, dw, dh},         {-20, -5, 60, 50},
                            {dw - 30, dh - 20, dw + 40, dh + 9}};
    for (const auto& r : rects) {
      SCOPED_TRACE(testing::Message() << sw << "x" << sh << " -> " << dw
                                      << "x" << dh << " rect " << r[0]
                                      << "," << r[1] << "," << r[2] << ","
                                      << r[3]);
      Image dst(dw, dh, sentinel);
      resizeBilinearInto(src, dst, r[0], r[1], r[2], r[3]);
      const int x0 = std::max(0, r[0]), y0 = std::max(0, r[1]);
      const int x1 = std::min(dw, r[2]), y1 = std::min(dh, r[3]);
      EXPECT_EQ(mismatches(src, dst, x0, y0, x1, y1), 0);
      long touched = 0;
      for (int y = 0; y < dh; ++y) {
        for (int x = 0; x < dw; ++x) {
          const bool inside = x >= x0 && x < x1 && y >= y0 && y < y1;
          touched += !inside && dst.at(x, y) != sentinel;
        }
      }
      EXPECT_EQ(touched, 0);
    }
  }
}

TEST_P(ResizeOracle, PyramidLevelsMatchPerPixelSampling) {
  PyramidParams full;  // 640x480: every level down to the 64x128 window
  PyramidParams hd;
  hd.maxLevels = 6;  // the paper's full-HD analysis
  for (const auto& [w, h, params] :
       {std::tuple{640, 480, full}, std::tuple{1920, 1080, hd}}) {
    const Image src = noise(w, h, 31);
    const std::vector<PyramidLevel> levels = buildPyramid(src, params);
    ASSERT_GE(levels.size(), w == 640 ? 14u : 6u);
    EXPECT_EQ(levels[0].image.data(), src.data());
    for (std::size_t i = 1; i < levels.size(); ++i) {
      const Image& level = levels[i].image;
      EXPECT_EQ(mismatches(src, level, 0, 0, level.width(), level.height()),
                0)
          << w << "x" << h << " level " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ResizeOracle, testing::Values(1, 4));

TEST(Image, RgbToGrayUsesLumaWeights) {
  const unsigned char rgb[3] = {255, 0, 0};
  Image img = rgbToGray(rgb, 1, 1);
  EXPECT_NEAR(img.at(0, 0), 0.299f, 1e-3f);
}

TEST(Image, MeanValue) {
  Image img(2, 1);
  img.at(0, 0) = 0.0f;
  img.at(1, 0) = 1.0f;
  EXPECT_NEAR(meanValue(img), 0.5f, 1e-6f);
  EXPECT_FLOAT_EQ(meanValue(Image{}), 0.0f);
}

TEST(Geometry, IouIdentityAndDisjoint) {
  Rect a{0, 0, 10, 10};
  EXPECT_NEAR(iou(a, a), 1.0f, 1e-6f);
  Rect b{20, 20, 10, 10};
  EXPECT_FLOAT_EQ(iou(a, b), 0.0f);
}

TEST(Geometry, IouHalfOverlap) {
  Rect a{0, 0, 10, 10};
  Rect b{5, 0, 10, 10};
  // intersection 50, union 150.
  EXPECT_NEAR(iou(a, b), 50.0f / 150.0f, 1e-5f);
}

TEST(Geometry, OverlapOverMin) {
  Rect big{0, 0, 100, 100};
  Rect small{10, 10, 10, 10};
  EXPECT_NEAR(overlapOverMin(big, small), 1.0f, 1e-6f);
}

TEST(Nms, SuppressesNestedWeakerBoxes) {
  std::vector<Detection> dets = {
      {{0, 0, 100, 100}, 0.9f},
      {{5, 5, 90, 90}, 0.5f},   // inside the first
      {{300, 300, 50, 50}, 0.7f},
  };
  auto kept = nonMaximumSuppression(dets, 0.2f);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_FLOAT_EQ(kept[0].score, 0.9f);
  EXPECT_FLOAT_EQ(kept[1].score, 0.7f);
}

TEST(Nms, KeepsPartiallyOverlappingBoxes) {
  std::vector<Detection> dets = {
      {{0, 0, 100, 100}, 0.9f},
      {{70, 0, 100, 100}, 0.8f},  // 30% of the smaller box overlaps
  };
  auto kept = nonMaximumSuppression(dets, 0.2f);
  EXPECT_EQ(kept.size(), 2u);
}

TEST(Nms, Idempotent) {
  Rng rng(99);
  std::vector<Detection> dets;
  for (int i = 0; i < 40; ++i) {
    dets.push_back({{static_cast<float>(rng.uniformInt(0, 200)),
                     static_cast<float>(rng.uniformInt(0, 200)),
                     static_cast<float>(rng.uniformInt(20, 80)),
                     static_cast<float>(rng.uniformInt(40, 160))},
                    static_cast<float>(rng.uniform())});
  }
  const auto once = nonMaximumSuppression(dets, 0.2f);
  const auto twice = nonMaximumSuppression(once, 0.2f);
  ASSERT_EQ(once.size(), twice.size());
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_FLOAT_EQ(once[i].score, twice[i].score);
  }
}

TEST(Nms, KeptSetRespectsOverlapBound) {
  Rng rng(101);
  std::vector<Detection> dets;
  for (int i = 0; i < 60; ++i) {
    dets.push_back({{static_cast<float>(rng.uniformInt(0, 100)),
                     static_cast<float>(rng.uniformInt(0, 100)),
                     64.0f, 128.0f},
                    static_cast<float>(rng.uniform())});
  }
  const float epsilon = 0.2f;
  const auto kept = nonMaximumSuppression(dets, epsilon);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    for (std::size_t j = i + 1; j < kept.size(); ++j) {
      EXPECT_LE(overlapOverMin(kept[i].box, kept[j].box),
                1.0f - epsilon + 1e-6f);
    }
  }
}

TEST(Nms, EmptyInput) {
  EXPECT_TRUE(nonMaximumSuppression({}, 0.2f).empty());
}

TEST(Pyramid, ScalesByFactor) {
  Image img(220, 440, 0.5f);
  PyramidParams pp;
  pp.scaleFactor = 1.1f;
  pp.minWidth = 64;
  pp.minHeight = 128;
  auto levels = buildPyramid(img, pp);
  ASSERT_GE(levels.size(), 3u);
  EXPECT_EQ(levels[0].image.width(), 220);
  EXPECT_FLOAT_EQ(levels[0].scale, 1.0f);
  EXPECT_NEAR(levels[1].image.width(), 200, 1);
  EXPECT_NEAR(levels[1].scale, 1.1f, 1e-5f);
  // Smallest level still fits the window.
  EXPECT_GE(levels.back().image.width(), 64);
  EXPECT_GE(levels.back().image.height(), 128);
}

TEST(Pyramid, RejectsNonShrinkingFactor) {
  Image img(100, 100);
  PyramidParams pp;
  pp.scaleFactor = 1.0f;
  EXPECT_THROW(buildPyramid(img, pp), std::invalid_argument);
  pp.scaleFactor = std::nanf("");
  EXPECT_THROW(buildPyramid(img, pp), std::invalid_argument);
}

// forEachWindowOnGrid over a stand-in grid: these tests pin the scan
// geometry, so the per-level grid is never read.
int noGrid(const Image&) { return 0; }

TEST(SlidingWindow, CountMatchesClosedForm) {
  Image img(128, 256, 0.0f);
  SlidingWindowParams params;
  params.pyramid.maxLevels = 1;  // single level
  long count = 0;
  forEachWindowOnGrid(img, params, 8, noGrid,
                      [&](const Image&, int, int, int, const Rect&,
                          const Rect&) { ++count; });
  const long expected = ((128 - 64) / 8 + 1) * ((256 - 128) / 8 + 1);
  EXPECT_EQ(count, expected);
}

TEST(SlidingWindow, OriginalCoordinatesScaled) {
  Image img(141, 282, 0.0f);  // second level ~128x256
  SlidingWindowParams params;
  bool sawScaled = false;
  forEachWindowOnGrid(
      img, params, 8, noGrid,
      [&](const Image&, int, int cx0, int cy0, const Rect& inLevel,
          const Rect& inOrig) {
        EXPECT_FLOAT_EQ(inLevel.x, cx0 * 8.0f);
        EXPECT_FLOAT_EQ(inLevel.y, cy0 * 8.0f);
        // Restrict to level 1 (level 2 windows scale by 1.21).
        if (inOrig.w > 64.5f && inOrig.w < 75.0f) {
          sawScaled = true;
          EXPECT_NEAR(inOrig.w / inLevel.w, 1.1f, 0.02f);
        }
      });
  EXPECT_TRUE(sawScaled);
}

TEST(SlidingWindow, RejectsNonCellAlignedScan) {
  Image img(128, 256, 0.0f);
  const auto scanWith = [&](const SlidingWindowParams& params) {
    forEachWindowOnGrid(img, params, 8, noGrid,
                        [](const Image&, int, int, int, const Rect&,
                           const Rect&) {});
  };
  SlidingWindowParams params;
  params.strideX = 4;
  EXPECT_THROW(scanWith(params), std::invalid_argument);
  params = SlidingWindowParams{};
  params.windowHeight = 100;
  EXPECT_THROW(scanWith(params), std::invalid_argument);
}

TEST(SlidingWindow, RejectsNonPositiveStrideOrWindow) {
  // A zero or negative stride never advances the scan; the window visitor
  // bails out after a bound so that a missing check fails instead of
  // scanning without end.
  Image img(128, 256, 0.0f);
  const auto scanWith = [&](const SlidingWindowParams& params) {
    long visited = 0;
    forEachWindowOnGrid(
        img, params, 8, noGrid,
        [&](const Image&, int, int, int, const Rect&, const Rect&) {
          if (++visited > 100000) {
            throw std::runtime_error("window scan does not advance");
          }
        });
  };
  for (int bad : {0, -8}) {
    SlidingWindowParams params;
    params.pyramid.maxLevels = 1;
    params.strideX = bad;
    EXPECT_THROW(scanWith(params), std::invalid_argument) << bad;
    params.strideX = 8;
    params.strideY = bad;
    EXPECT_THROW(scanWith(params), std::invalid_argument) << bad;
    params.strideY = 8;
    params.windowWidth = bad;
    EXPECT_THROW(scanWith(params), std::invalid_argument) << bad;
    params.windowWidth = 64;
    params.windowHeight = bad;
    EXPECT_THROW(scanWith(params), std::invalid_argument) << bad;
  }
}

TEST(Pgm, RoundTrip) {
  Image img(16, 8);
  Rng rng(11);
  for (float& v : img.data()) v = static_cast<float>(rng.uniform());
  const std::string path = "/tmp/pcnn_test_roundtrip.pgm";
  writePgm(img, path);
  Image back = readPgm(path);
  ASSERT_EQ(back.width(), 16);
  ASSERT_EQ(back.height(), 8);
  for (std::size_t i = 0; i < img.data().size(); ++i) {
    EXPECT_NEAR(back.data()[i], img.data()[i], 1.0f / 255.0f);
  }
  std::remove(path.c_str());
}

TEST(Pgm, MissingFileThrows) {
  EXPECT_THROW(readPgm("/tmp/definitely_missing_pcnn.pgm"),
               std::runtime_error);
}

TEST(Synth, ValueNoiseStaysInRange) {
  Rng rng(5);
  Image img = valueNoise(64, 64, 8, 0.5f, 0.3f, rng);
  for (float v : img.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(Synth, PositiveWindowHasPersonContrast) {
  SyntheticPersonDataset dataset;
  Rng rng(7);
  // A positive window must contain more gradient energy in its centre
  // column band than a flat background would.
  const Image img = dataset.positiveWindow(rng);
  EXPECT_EQ(img.width(), 64);
  EXPECT_EQ(img.height(), 128);
  double centerVar = 0.0;
  const float mean = meanValue(img);
  for (int y = 20; y < 110; ++y) {
    for (int x = 24; x < 40; ++x) {
      centerVar += (img.at(x, y) - mean) * (img.at(x, y) - mean);
    }
  }
  EXPECT_GT(centerVar, 1.0);
}

TEST(Synth, WindowsAreDeterministicGivenSeed) {
  SyntheticPersonDataset dataset;
  Rng rngA(42), rngB(42);
  const Image a = dataset.positiveWindow(rngA);
  const Image b = dataset.positiveWindow(rngB);
  EXPECT_EQ(a.data(), b.data());
}

TEST(Synth, SceneGroundTruthInsideImage) {
  SyntheticPersonDataset dataset;
  Rng rng(3);
  const Scene scene = dataset.scene(rng, 320, 240, 3, 96, 160);
  EXPECT_EQ(scene.groundTruth.size(), 3u);
  for (const Rect& gt : scene.groundTruth) {
    EXPECT_GT(gt.w, 0.0f);
    EXPECT_GT(gt.h, 0.0f);
    // Window-aligned boxes keep the 1:2 aspect.
    EXPECT_NEAR(gt.h / gt.w, 2.0f, 0.01f);
  }
}

TEST(Draw, RgbFromGrayReplicatesChannels) {
  Image gray(2, 1);
  gray.at(0, 0) = 0.25f;
  gray.at(1, 0) = 0.75f;
  RgbImage rgb(gray);
  for (int c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(rgb.at(0, 0, c), 0.25f);
    EXPECT_FLOAT_EQ(rgb.at(1, 0, c), 0.75f);
  }
}

TEST(Draw, RectOutlineAndClipping) {
  RgbImage img(10, 10);
  drawRect(img, Rect{2, 3, 4, 5}, Color{1, 0, 0});
  EXPECT_FLOAT_EQ(img.at(2, 3, 0), 1.0f);   // top-left corner
  EXPECT_FLOAT_EQ(img.at(5, 7, 0), 1.0f);   // bottom-right corner
  EXPECT_FLOAT_EQ(img.at(3, 5, 0), 0.0f);   // interior untouched
  // Clipping: a rect hanging off the image must not crash or wrap.
  drawRect(img, Rect{-5, -5, 8, 8}, Color{0, 1, 0});
  EXPECT_FLOAT_EQ(img.at(2, 0, 1), 1.0f);
}

TEST(Draw, LineEndpoints) {
  RgbImage img(10, 10);
  drawLine(img, 0, 0, 9, 9, Color{0, 0, 1});
  EXPECT_FLOAT_EQ(img.at(0, 0, 2), 1.0f);
  EXPECT_FLOAT_EQ(img.at(9, 9, 2), 1.0f);
  EXPECT_FLOAT_EQ(img.at(5, 5, 2), 1.0f);  // on the diagonal
}

TEST(Draw, PpmWriteProducesCorrectSize) {
  RgbImage img(7, 3, 0.5f, 0.5f, 0.5f);
  const std::string path = "/tmp/pcnn_test_draw.ppm";
  writePpm(img, path);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  ASSERT_TRUE(in.good());
  // header "P6\n7 3\n255\n" = 11 bytes + 7*3*3 payload.
  EXPECT_EQ(static_cast<long>(in.tellg()), 11 + 7 * 3 * 3);
  std::remove(path.c_str());
}

TEST(Draw, NegativeDimensionsThrow) {
  EXPECT_THROW(RgbImage(-1, 3), std::invalid_argument);
}

TEST(Synth, NegativeWindowsVary) {
  SyntheticPersonDataset dataset;
  Rng rng(9);
  const Image a = dataset.negativeWindow(rng);
  const Image b = dataset.negativeWindow(rng);
  EXPECT_NE(a.data(), b.data());
}

}  // namespace
}  // namespace pcnn::vision
