// Tests for the full-HD video detection path: the deterministic synthetic
// video source (vision::SyntheticVideo), the incremental cell/block
// refresh primitives it drives, the pyramid geometry at 1920x1080, and
// GridDetector::detectBatch -- in particular the bitwise-parity contracts
// (temporal.enabled = false == per-frame detect() at any thread count; the
// temporal path == the off path for deterministic backends).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/detector.hpp"
#include "core/temporal.hpp"
#include "extract/registry.hpp"
#include "vision/geometry.hpp"
#include "vision/pyramid.hpp"
#include "vision/video.hpp"

namespace pcnn {
namespace {

using core::BatchDetectResult;
using core::GridDetector;
using core::GridDetectorParams;
using vision::Image;
using vision::SyntheticVideo;
using vision::VideoParams;

VideoParams smallVideo(int persons = 1, std::uint64_t seed = 1) {
  VideoParams vp;
  vp.width = 320;
  vp.height = 240;
  vp.numPersons = persons;
  vp.seed = seed;
  return vp;
}

/// A fixed deterministic linear scorer (the tests exercise the scan
/// machinery, not classifier quality).
core::WindowScorer fixedScorer(int dim) {
  std::vector<float> weights(static_cast<std::size_t>(dim));
  Rng wrng(7);
  for (auto& w : weights) w = static_cast<float>(wrng.uniform()) - 0.5f;
  return [weights = std::move(weights)](const std::vector<float>& f) {
    float acc = 0.0f;
    const std::size_t n = f.size() < weights.size() ? f.size() : weights.size();
    for (std::size_t i = 0; i < n; ++i) acc += weights[i] * f[i];
    return acc;
  };
}

GridDetector makeDetector(const std::string& backend, bool temporal,
                          bool smooth = false, int maxLevels = 3) {
  auto extractor =
      extract::makeExtractor(backend, extract::FeatureLayout::kBlockNorm);
  GridDetectorParams params;
  params.scoreThreshold = 2.0f;  // keep a real but bounded detection set
  params.pyramid.maxLevels = maxLevels;
  params.temporal.enabled = temporal;
  params.temporal.smooth = smooth;
  return GridDetector(params, extractor, fixedScorer(extractor->featureDim()));
}

void expectSameDetections(const std::vector<vision::Detection>& a,
                          const std::vector<vision::Detection>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].score, b[i].score) << what << " det " << i;
    EXPECT_EQ(a[i].box.x, b[i].box.x) << what << " det " << i;
    EXPECT_EQ(a[i].box.y, b[i].box.y) << what << " det " << i;
    EXPECT_EQ(a[i].box.w, b[i].box.w) << what << " det " << i;
    EXPECT_EQ(a[i].box.h, b[i].box.h) << what << " det " << i;
  }
}

// ---------------------------------------------------------------- synth

TEST(SyntheticVideo, SameSeedIsBitwiseDeterministic) {
  SyntheticVideo a(smallVideo(2, 9));
  SyntheticVideo b(smallVideo(2, 9));
  for (int f : {0, 3, 17}) {
    const vision::Scene sa = a.frame(f);
    const vision::Scene sb = b.frame(f);
    ASSERT_EQ(sa.image.data().size(), sb.image.data().size());
    EXPECT_EQ(sa.image.data(), sb.image.data()) << "frame " << f;
    ASSERT_EQ(sa.groundTruth.size(), sb.groundTruth.size());
  }
}

TEST(SyntheticVideo, FrameIsPureFunctionOfIndex) {
  SyntheticVideo v(smallVideo());
  const Image later = v.frame(5).image;   // out-of-order access
  const Image first = v.frame(2).image;
  const Image again = v.frame(2).image;
  EXPECT_EQ(first.data(), again.data());
  EXPECT_NE(later.data(), first.data());  // motion actually happens
}

TEST(SyntheticVideo, DifferentSeedsDiffer) {
  SyntheticVideo a(smallVideo(1, 1));
  SyntheticVideo b(smallVideo(1, 2));
  EXPECT_NE(a.frame(0).image.data(), b.frame(0).image.data());
}

TEST(SyntheticVideo, FirstActorVisibleAndMoving) {
  SyntheticVideo v(smallVideo(1, 4));
  ASSERT_EQ(v.numActors(), 1);
  EXPECT_TRUE(v.actorVisible(0, 0));  // actor 0 starts on-screen
  const vision::Rect b0 = v.actorBox(0, 0);
  const vision::Rect b5 = v.actorBox(0, 5);
  EXPECT_NE(b0.x, b5.x);
}

TEST(SyntheticVideo, MotionIsContinuous) {
  VideoParams vp = smallVideo(3, 11);
  SyntheticVideo v(vp);
  for (int a = 0; a < v.numActors(); ++a) {
    for (int f = 0; f < 30; ++f) {
      const vision::Rect cur = v.actorBox(a, f);
      const vision::Rect next = v.actorBox(a, f + 1);
      const float dx = std::abs(next.x - cur.x);
      // Per-frame translation is bounded by the speed cap (unless the
      // actor wrapped around the off-screen track).
      if (dx < vp.width / 2.0f) {
        EXPECT_LE(dx, vp.maxSpeedPx + 1.0f)
            << "actor " << a << " frame " << f;
        if (v.actorVisible(a, f) && v.actorVisible(a, f + 1)) {
          EXPECT_GT(vision::iou(cur, next), 0.5f)
              << "actor " << a << " frame " << f;
        }
      }
      // Scale oscillation is smooth: box height changes slowly.
      EXPECT_LE(std::abs(next.h - cur.h), cur.h * 0.1f);
    }
  }
}

TEST(SyntheticVideo, GroundTruthOnlyForVisibleActors) {
  SyntheticVideo v(smallVideo(3, 21));
  for (int f = 0; f < 10; ++f) {
    std::size_t visible = 0;
    for (int a = 0; a < v.numActors(); ++a) {
      if (v.actorVisible(a, f)) ++visible;
    }
    EXPECT_EQ(v.frame(f).groundTruth.size(), visible);
  }
}

TEST(SyntheticVideo, RejectsInvalidParams) {
  VideoParams vp;
  vp.width = 0;
  EXPECT_THROW(SyntheticVideo v(vp), std::invalid_argument);
  SyntheticVideo ok(smallVideo());
  EXPECT_THROW(ok.frame(-1), std::invalid_argument);
}

// ------------------------------------------------------------- pyramid

TEST(VideoPyramid, FullHdGeometryInvariants) {
  // The paper's full-HD analysis: 1920x1080, 6 levels at 1.1x.
  Image frame(1920, 1080, 0.5f);
  vision::PyramidParams pp;
  pp.maxLevels = 6;
  const auto levels = vision::buildPyramid(frame, pp);
  ASSERT_EQ(levels.size(), 6u);
  EXPECT_EQ(levels[0].image.width(), 1920);
  EXPECT_EQ(levels[0].image.height(), 1080);
  float scale = 1.0f;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    EXPECT_NEAR(levels[i].scale, scale, 1e-4f) << "level " << i;
    EXPECT_EQ(levels[i].image.width(),
              static_cast<int>(std::lround(1920.0 / levels[i].scale)));
    EXPECT_EQ(levels[i].image.height(),
              static_cast<int>(std::lround(1080.0 / levels[i].scale)));
    // Every level still fits the 64x128 window.
    EXPECT_GE(levels[i].image.width(), 64);
    EXPECT_GE(levels[i].image.height(), 128);
    scale *= pp.scaleFactor;
  }
}

// ------------------------------------------- incremental grid refresh

/// The cells whose histograms differ bitwise between two same-geometry
/// grids -- the mask tryUpdateCellGrid must report.
std::vector<std::uint8_t> cellwiseDiff(const hog::CellGrid& a,
                                       const hog::CellGrid& b) {
  EXPECT_EQ(a.data.size(), b.data.size());
  std::vector<std::uint8_t> diff(
      static_cast<std::size_t>(a.cellsX) * a.cellsY, 0);
  for (int cy = 0; cy < a.cellsY; ++cy) {
    for (int cx = 0; cx < a.cellsX; ++cx) {
      diff[static_cast<std::size_t>(cy) * a.cellsX + cx] =
          std::memcmp(a.cell(cx, cy), b.cell(cx, cy),
                      sizeof(float) * static_cast<std::size_t>(a.bins)) != 0;
    }
  }
  return diff;
}

/// What tryUpdateCellGrid reported for one patch.
struct PatchResult {
  long recomputed = 0;  ///< target cells recomputed
  long changed = 0;     ///< cells flagged in the changed-cell mask
};

/// Patches the cold grid and blocks of `before` to `after` through
/// tryUpdateCellGrid + updateBlocks over `rects`, and checks them bitwise
/// against cold ones: the grid against cellGrid(after), the changed-cell
/// mask against a cellwise memcmp of the two cold grids, and the blocks
/// against prepareBlocks.
PatchResult checkPatch(extract::FeatureExtractor& extractor,
                       const Image& before, const Image& after,
                       const std::vector<extract::CellRect>& rects,
                       const std::string& what) {
  const hog::CellGrid cold = extractor.cellGrid(before);
  hog::CellGrid grid = cold;
  hog::BlockGrid blocks = extractor.prepareBlocks(grid);
  std::vector<std::uint8_t> changed = {1, 1, 1};  // reset by the call
  StatusOr<long> updated =
      extractor.tryUpdateCellGrid(after, rects, grid, changed);
  EXPECT_TRUE(updated.ok()) << updated.status().toString();
  if (!updated.ok()) return {};
  const hog::CellGrid full = extractor.cellGrid(after);
  EXPECT_EQ(grid.data, full.data) << what;
  EXPECT_EQ(changed, cellwiseDiff(cold, full)) << what;
  const long blocksRefreshed = extractor.updateBlocks(grid, changed, blocks);
  EXPECT_EQ(blocks.data, extractor.prepareBlocks(full).data) << what;
  const long changedCells = std::count(changed.begin(), changed.end(), 1);
  if (changedCells > 0) {
    EXPECT_GT(blocksRefreshed, 0) << what;
  }
  return {updated.value(), changedCells};
}

/// Mutates pixel regions, then checks tryUpdateCellGrid patches the old
/// grid into bitwise equality with a fresh full-image grid and reports
/// exactly the cells whose bits changed: one scribbled region under an
/// oversized rect (one per-rect crop; its ring of recomputed cells is
/// mostly unchanged), then stacked tile rows (their union crop costs fewer
/// cells than one crop each, so they share it) and two far-apart patches
/// (cheaper apart).
void checkIncrementalParity(const std::string& backend) {
  auto extractor =
      extract::makeExtractor(backend, extract::FeatureLayout::kBlockNorm);
  SyntheticVideo video(smallVideo(1, 13));
  Image before = video.frame(0).image;
  Image after = before;
  // Scribble over a region that is interior on the left and touches cell
  // boundaries on the right (exercises the border-extension path).
  Rng rng(3);
  for (int y = 100; y < 150; ++y) {
    for (int x = 64; x < 140; ++x) {
      after.at(x, y) = static_cast<float>(rng.uniform());
    }
  }
  // Cells whose 1-px gradient stencil can see a changed pixel, plus a
  // two-cell ring that recomputes to the cached bits.
  const int cell = extractor->cellSize();
  extract::CellRect dirty;
  dirty.cx0 = (64 - 1) / cell - 2;
  dirty.cy0 = (100 - 1) / cell - 2;
  dirty.cx1 = (140 + 1 + cell - 1) / cell + 2;
  dirty.cy1 = (150 + 1 + cell - 1) / cell + 2;
  const PatchResult scribble =
      checkPatch(*extractor, before, after, {dirty}, backend + " scribble");
  EXPECT_EQ(scribble.recomputed,
            static_cast<long>(dirty.cx1 - dirty.cx0) * (dirty.cy1 - dirty.cy0))
      << backend;
  EXPECT_GT(scribble.changed, 0) << backend;
  EXPECT_LT(scribble.changed, scribble.recomputed) << backend;

  const Image other = SyntheticVideo(smallVideo(2, 18)).frame(0).image;
  const int cellsX = before.width() / cell;
  const std::vector<std::vector<extract::CellRect>> cases = {
      {{0, 4, cellsX, 8}, {0, 8, cellsX, 12}, {0, 12, cellsX / 2, 16}},
      {{1, 1, 4, 3}, {30, 20, 34, 24}}};
  for (const auto& rects : cases) {
    // Copy the other scene into each rect, 1 px inside its border, so
    // only the rect's own cells see a changed pixel.
    Image mixed = before;
    for (const extract::CellRect& rect : rects) {
      for (int y = rect.cy0 * cell + 1; y < rect.cy1 * cell - 1; ++y) {
        for (int x = rect.cx0 * cell + 1; x < rect.cx1 * cell - 1; ++x) {
          mixed.at(x, y) = other.at(x, y);
        }
      }
    }
    long targetCells = 0;
    for (const extract::CellRect& rect : rects) {
      targetCells += static_cast<long>(rect.cx1 - rect.cx0) *
                     (rect.cy1 - rect.cy0);
    }
    EXPECT_EQ(checkPatch(*extractor, before, mixed, rects, backend).recomputed,
              targetCells)
        << backend;
  }
}

TEST(IncrementalGrid, HogParity) { checkIncrementalParity("hog"); }
TEST(IncrementalGrid, FixedpointParity) {
  checkIncrementalParity("fixedpoint");
}
TEST(IncrementalGrid, NapproxParity) { checkIncrementalParity("napprox"); }
TEST(IncrementalGrid, ParrotExactParity) {
  checkIncrementalParity("parrot:exact");
}
TEST(IncrementalGrid, ParrotSpikeCodedParity) {
  checkIncrementalParity("parrot:4spike");
}

TEST(IncrementalGrid, UpdateBlocksMatchesPrepareBlocks) {
  auto extractor =
      extract::makeExtractor("hog", extract::FeatureLayout::kBlockNorm);
  SyntheticVideo video(smallVideo(1, 13));
  Image before = video.frame(0).image;
  Image after = before;
  for (int y = 40; y < 80; ++y) {
    for (int x = 40; x < 96; ++x) after.at(x, y) = 0.9f;
  }
  hog::CellGrid grid = extractor->cellGrid(before);
  hog::BlockGrid blocks = extractor->prepareBlocks(grid);
  const int cell = extractor->cellSize();
  extract::CellRect dirty;
  dirty.cx0 = (40 - 1) / cell;
  dirty.cy0 = (40 - 1) / cell;
  dirty.cx1 = (96 + cell) / cell;
  dirty.cy1 = (80 + cell) / cell;
  std::vector<std::uint8_t> changed;
  ASSERT_TRUE(
      extractor->tryUpdateCellGrid(after, {dirty}, grid, changed).ok());
  const long refreshed = extractor->updateBlocks(grid, changed, blocks);
  EXPECT_GT(refreshed, 0);
  const hog::BlockGrid full = extractor->prepareBlocks(grid);
  ASSERT_EQ(blocks.data.size(), full.data.size());
  EXPECT_EQ(blocks.data, full.data);
  // A mask of the wrong size is rejected, not read out of bounds.
  EXPECT_THROW(extractor->updateBlocks(grid, {1, 0}, blocks),
               std::invalid_argument);
}

TEST(IncrementalGrid, RejectsGeometryMismatch) {
  auto extractor =
      extract::makeExtractor("hog", extract::FeatureLayout::kBlockNorm);
  Image img(160, 160, 0.5f);
  hog::CellGrid wrong = extractor->cellGrid(Image(80, 80, 0.5f));
  extract::CellRect rect;
  rect.cx1 = 2;
  rect.cy1 = 2;
  std::vector<std::uint8_t> changed;
  EXPECT_FALSE(
      extractor->tryUpdateCellGrid(img, {rect}, wrong, changed).ok());
}

// ----------------------------------------------------------- detectBatch

// With reuse off every frame runs cold, so the burst equals per-frame
// detect() bitwise for every backend -- spike-coded parrot included -- at
// any thread count. Smoothing is requested but must not apply.
TEST(DetectBatch, OffModeMatchesPerFrameDetectAtAnyThreadCount) {
  SyntheticVideo video(smallVideo(2, 31));
  std::vector<Image> frames;
  for (int f = 0; f < 3; ++f) frames.push_back(video.frame(f).image);
  const int restoreThreads = threadCount();
  for (const char* backend :
       {"hog", "fixedpoint", "napprox", "parrot:exact", "parrot:4spike"}) {
    for (int threads : {1, 4}) {
      setThreadCount(threads);
      GridDetector batchDetector = makeDetector(backend, false, true);
      GridDetector refDetector = makeDetector(backend, false, true);
      const BatchDetectResult batch = batchDetector.detectBatch(frames);
      ASSERT_EQ(batch.frames.size(), frames.size());
      for (std::size_t f = 0; f < frames.size(); ++f) {
        EXPECT_TRUE(batch.frames[f].stats.fullRecompute) << backend;
        const auto ref = refDetector.detect(frames[f]);
        expectSameDetections(batch.frames[f].detections, ref, backend);
      }
    }
  }
  setThreadCount(restoreThreads);
}

void checkTemporalParity(const std::string& backend) {
  SyntheticVideo video(smallVideo(2, 31));
  std::vector<Image> frames;
  for (int f = 0; f < 4; ++f) frames.push_back(video.frame(f).image);
  // Smoothing off: parity is a statement about the raw per-frame
  // detections, and the smoother intentionally modifies boxes.
  GridDetector temporalDetector = makeDetector(backend, true, false);
  GridDetector offDetector = makeDetector(backend, false, false);
  const BatchDetectResult temporal = temporalDetector.detectBatch(frames);
  const BatchDetectResult off = offDetector.detectBatch(frames);
  ASSERT_EQ(temporal.frames.size(), off.frames.size());
  long reused = 0;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    expectSameDetections(temporal.frames[f].detections,
                         off.frames[f].detections, backend.c_str());
    reused += temporal.frames[f].stats.tilesReused;
  }
  // The burst is mostly static, so the temporal path must actually reuse.
  EXPECT_GT(reused, 0) << backend;
}

TEST(DetectBatch, TemporalMatchesFullRecomputeHog) {
  checkTemporalParity("hog");
}
TEST(DetectBatch, TemporalMatchesFullRecomputeFixedpoint) {
  checkTemporalParity("fixedpoint");
}
TEST(DetectBatch, TemporalMatchesFullRecomputeNapprox) {
  checkTemporalParity("napprox");
}
// Moving persons dirty a few tiles per level, so every frame after the
// first refreshes through many small crops: the compiled net's row-split
// path for batches far narrower than a cold level.
TEST(DetectBatch, TemporalMatchesFullRecomputeParrotExact) {
  checkTemporalParity("parrot:exact");
}
// The spike code is keyed on level pixel position, so crops code alike.
TEST(DetectBatch, TemporalMatchesFullRecomputeParrotSpikeCoded) {
  checkTemporalParity("parrot:4spike");
}

// Consecutive frames from different scenes dirty every tile, so each
// level refreshes through one crop around all of its dirty tile rows.
// Temporal-on detections must still equal detect() at any thread count.
TEST(DetectBatch, AllTilesDirtyMatchesDetectAtAnyThreadCount) {
  std::vector<Image> frames;
  for (std::uint64_t seed : {41, 42, 43, 44}) {
    frames.push_back(SyntheticVideo(smallVideo(2, seed)).frame(0).image);
  }
  const int restoreThreads = threadCount();
  for (const char* backend :
       {"hog", "fixedpoint", "napprox", "parrot:exact", "parrot:4spike"}) {
    for (int threads : {1, 4}) {
      setThreadCount(threads);
      GridDetector temporalDetector = makeDetector(backend, true, false);
      GridDetector refDetector = makeDetector(backend, true, false);
      const BatchDetectResult batch = temporalDetector.detectBatch(frames);
      ASSERT_EQ(batch.frames.size(), frames.size());
      for (std::size_t f = 0; f < frames.size(); ++f) {
        if (f > 0) {
          EXPECT_FALSE(batch.frames[f].stats.fullRecompute) << backend;
          EXPECT_EQ(batch.frames[f].stats.tilesReused, 0) << backend;
        }
        expectSameDetections(batch.frames[f].detections,
                             refDetector.detect(frames[f]), backend);
      }
    }
  }
  setThreadCount(restoreThreads);
}

// Edits away from the frame's top-left corner make every refresh crop sit
// at a nonzero level offset: one interior patch (one per-rect crop), two
// far-apart patches (two per-rect crops), then stacked bands (one merged
// crop). The spike-coded parrot keys its code on level position, so each
// temporal frame must still equal detect() bitwise at any thread count.
TEST(DetectBatch, SpikeCodedCropsAwayFromOriginMatchDetect) {
  const Image base = SyntheticVideo(smallVideo(0, 5)).frame(0).image;
  const Image other = SyntheticVideo(smallVideo(2, 9)).frame(0).image;
  auto paste = [&other](Image img, int x0, int y0, int x1, int y1) {
    for (int y = y0; y < y1; ++y) {
      for (int x = x0; x < x1; ++x) img.at(x, y) = other.at(x, y);
    }
    return img;
  };
  std::vector<Image> frames = {base};
  frames.push_back(paste(frames.back(), 150, 90, 180, 130));
  frames.push_back(
      paste(paste(frames.back(), 60, 40, 84, 70), 250, 170, 290, 200));
  frames.push_back(paste(paste(frames.back(), 100, 60, 240, 90), 100, 92,
                         240, 120));
  const int restoreThreads = threadCount();
  for (int threads : {1, 4}) {
    setThreadCount(threads);
    GridDetector temporalDetector = makeDetector("parrot:4spike", true);
    GridDetector refDetector = makeDetector("parrot:4spike", false);
    const BatchDetectResult batch = temporalDetector.detectBatch(frames);
    ASSERT_EQ(batch.frames.size(), frames.size());
    for (std::size_t f = 0; f < frames.size(); ++f) {
      if (f > 0) {
        EXPECT_FALSE(batch.frames[f].stats.fullRecompute);
        EXPECT_GT(batch.frames[f].stats.tilesReused, 0);
      }
      expectSameDetections(batch.frames[f].detections,
                           refDetector.detect(frames[f]), "parrot:4spike");
    }
  }
  setThreadCount(restoreThreads);
}

/// Brute-force count of the windows a warm frame must rescore: per level
/// of the detector's pyramid, the windows whose cell footprint holds a cell
/// that differs bitwise between the cold grids of `prev` and `next`.
long windowsOverChangedCells(extract::FeatureExtractor& extractor,
                             const Image& prev, const Image& next,
                             int maxLevels) {
  vision::PyramidParams pp;
  pp.maxLevels = maxLevels;
  pp.minWidth = extractor.windowCellsX() * extractor.cellSize();
  pp.minHeight = extractor.windowCellsY() * extractor.cellSize();
  const auto before = vision::buildPyramid(prev, pp);
  const auto after = vision::buildPyramid(next, pp);
  EXPECT_EQ(before.size(), after.size());
  long count = 0;
  for (std::size_t li = 0; li < before.size(); ++li) {
    const hog::CellGrid a = extractor.cellGrid(before[li].image);
    const std::vector<std::uint8_t> diff =
        cellwiseDiff(a, extractor.cellGrid(after[li].image));
    for (int wy = 0; wy + extractor.windowCellsY() <= a.cellsY; ++wy) {
      for (int wx = 0; wx + extractor.windowCellsX() <= a.cellsX; ++wx) {
        bool stale = false;
        for (int cy = wy; !stale && cy < wy + extractor.windowCellsY();
             ++cy) {
          for (int cx = wx; !stale && cx < wx + extractor.windowCellsX();
               ++cx) {
            stale = diff[static_cast<std::size_t>(cy) * a.cellsX + cx] != 0;
          }
        }
        count += stale ? 1 : 0;
      }
    }
  }
  return count;
}

// A warm frame rescores exactly the windows over cells whose histogram
// bits changed -- not every window over a dirty tile -- and still equals
// detect(). The 324-px pair changes only pixels right of the last whole
// cell's support: its scene tile is dirty, but no cell is recomputed and
// no window is rescored.
TEST(DetectBatch, RescoresOnlyWindowsOverChangedCells) {
  constexpr int kLevels = 3;
  SyntheticVideo video(smallVideo(2, 31));
  std::vector<Image> frames;
  for (int f = 0; f < 4; ++f) frames.push_back(video.frame(f).image);
  VideoParams wide = smallVideo(0, 5);
  wide.width = 324;
  const Image edge = SyntheticVideo(wide).frame(0).image;
  Image edgeMoved = edge;
  for (int y = 0; y < edge.height(); ++y) {
    edgeMoved.at(322, y) = 1.0f - edge.at(322, y);
  }
  const int restoreThreads = threadCount();
  for (const char* backend : {"hog", "parrot:exact"}) {
    auto oracle =
        extract::makeExtractor(backend, extract::FeatureLayout::kBlockNorm);
    for (int threads : {1, 4}) {
      setThreadCount(threads);
      GridDetector detector = makeDetector(backend, true, false, kLevels);
      const BatchDetectResult batch = detector.detectBatch(frames);
      ASSERT_EQ(batch.frames.size(), frames.size());
      long rescored = 0;
      for (std::size_t f = 1; f < frames.size(); ++f) {
        const core::FrameStats& stats = batch.frames[f].stats;
        EXPECT_FALSE(stats.fullRecompute) << backend;
        EXPECT_EQ(stats.windowsRescored,
                  windowsOverChangedCells(*oracle, frames[f - 1], frames[f],
                                          kLevels))
            << backend << " frame " << f << " threads " << threads;
        rescored += stats.windowsRescored;
        expectSameDetections(batch.frames[f].detections,
                             detector.detect(frames[f]), backend);
      }
      EXPECT_GT(rescored, 0) << backend;

      GridDetector edgeDetector = makeDetector(backend, true, false, 1);
      const BatchDetectResult edgeBatch =
          edgeDetector.detectBatch({edge, edgeMoved});
      ASSERT_EQ(edgeBatch.frames.size(), 2u);
      const core::FrameStats& stats = edgeBatch.frames[1].stats;
      EXPECT_FALSE(stats.fullRecompute) << backend;
      EXPECT_EQ(stats.tilesRecomputed, 0) << backend;
      EXPECT_EQ(stats.windowsRescored, 0) << backend;
      EXPECT_GT(stats.windowsReused, 0) << backend;
      expectSameDetections(edgeBatch.frames[1].detections,
                           edgeDetector.detect(edgeMoved), backend);
    }
  }
  setThreadCount(restoreThreads);
}

/// Brute-force count of the cells a warm frame must recompute: per level
/// of the detector's pyramid, the cells whose support -- their pixels plus
/// a 1-px border -- holds a pixel that differs bitwise between the cold
/// levels of `prev` and `next`.
long cellsWithChangedSupport(const extract::FeatureExtractor& extractor,
                             const Image& prev, const Image& next,
                             int maxLevels) {
  vision::PyramidParams pp;
  pp.maxLevels = maxLevels;
  pp.minWidth = extractor.windowCellsX() * extractor.cellSize();
  pp.minHeight = extractor.windowCellsY() * extractor.cellSize();
  const auto before = vision::buildPyramid(prev, pp);
  const auto after = vision::buildPyramid(next, pp);
  EXPECT_EQ(before.size(), after.size());
  const int cell = extractor.cellSize();
  long count = 0;
  for (std::size_t li = 0; li < before.size(); ++li) {
    const Image& a = before[li].image;
    const Image& b = after[li].image;
    auto differs = [&](int x, int y) {
      const float va = a.at(x, y);
      const float vb = b.at(x, y);
      return std::memcmp(&va, &vb, sizeof(float)) != 0;
    };
    for (int cy = 0; cy < a.height() / cell; ++cy) {
      for (int cx = 0; cx < a.width() / cell; ++cx) {
        bool changed = false;
        for (int y = std::max(0, cy * cell - 1);
             !changed && y <= std::min(a.height() - 1, cy * cell + cell);
             ++y) {
          for (int x = std::max(0, cx * cell - 1);
               !changed && x <= std::min(a.width() - 1, cx * cell + cell);
               ++x) {
            changed = differs(x, y);
          }
        }
        count += changed ? 1 : 0;
      }
    }
  }
  return count;
}

// A warm frame recomputes exactly the cells whose support holds a level
// pixel that changed bitwise -- not every cell under a dirty tile -- and
// still equals detect(). The 324-px pair changes only column 322, right
// of every cell's support at every level: no cell is recomputed.
TEST(DetectBatch, WarmFrameRecomputesExactlyTheSupportChangedCells) {
  constexpr int kLevels = 3;
  SyntheticVideo video(smallVideo(2, 31));
  std::vector<Image> frames;
  for (int f = 0; f < 4; ++f) frames.push_back(video.frame(f).image);
  VideoParams wide = smallVideo(0, 5);
  wide.width = 324;
  const Image edge = SyntheticVideo(wide).frame(0).image;
  Image edgeMoved = edge;
  for (int y = 0; y < edge.height(); ++y) {
    edgeMoved.at(322, y) = 1.0f - edge.at(322, y);
  }
  const int restoreThreads = threadCount();
  for (const char* backend : {"hog", "parrot:exact"}) {
    auto oracle =
        extract::makeExtractor(backend, extract::FeatureLayout::kBlockNorm);
    EXPECT_EQ(cellsWithChangedSupport(*oracle, edge, edgeMoved, kLevels), 0);
    for (int threads : {1, 4}) {
      setThreadCount(threads);
      GridDetector detector = makeDetector(backend, true, false, kLevels);
      const BatchDetectResult batch = detector.detectBatch(frames);
      ASSERT_EQ(batch.frames.size(), frames.size());
      long cells = 0;
      for (std::size_t f = 1; f < frames.size(); ++f) {
        const core::FrameStats& stats = batch.frames[f].stats;
        EXPECT_FALSE(stats.fullRecompute) << backend;
        EXPECT_EQ(stats.cellsRecomputed,
                  cellsWithChangedSupport(*oracle, frames[f - 1], frames[f],
                                          kLevels))
            << backend << " frame " << f << " threads " << threads;
        cells += stats.cellsRecomputed;
        expectSameDetections(batch.frames[f].detections,
                             detector.detect(frames[f]), backend);
      }
      EXPECT_GT(cells, 0) << backend;

      GridDetector edgeDetector = makeDetector(backend, true, false, kLevels);
      const BatchDetectResult edgeBatch =
          edgeDetector.detectBatch({edge, edgeMoved});
      ASSERT_EQ(edgeBatch.frames.size(), 2u);
      const core::FrameStats& stats = edgeBatch.frames[1].stats;
      EXPECT_FALSE(stats.fullRecompute) << backend;
      EXPECT_EQ(stats.cellsRecomputed, 0) << backend;
      EXPECT_EQ(stats.tilesRecomputed, 0) << backend;
      expectSameDetections(edgeBatch.frames[1].detections,
                           edgeDetector.detect(edgeMoved), backend);
    }
  }
  setThreadCount(restoreThreads);
}

/// Forwards to a wrapped extractor and records the size of every image
/// cellGrid is called on.
class CountingExtractor final : public extract::FeatureExtractor {
 public:
  explicit CountingExtractor(std::shared_ptr<extract::FeatureExtractor> inner)
      : FeatureExtractor(inner->name(), inner->layout(), inner->bins(),
                         inner->windowCellsX(), inner->windowCellsY(),
                         inner->cellSize()),
        inner_(std::move(inner)) {}

  hog::CellGrid cellGrid(const Image& image) override {
    calls.emplace_back(image.width(), image.height());
    return inner_->cellGrid(image);
  }
  extract::ExtractorInfo info() const override { return inner_->info(); }

  std::vector<std::pair<int, int>> calls;  ///< (width, height) per call

 private:
  std::shared_ptr<extract::FeatureExtractor> inner_;
};

// A warm frame whose every pixel changed dirties every cell, and each
// level's refresh stays one whole-level crop: exactly one cellGrid call
// per level, over the whole level, as on the cold frame.
TEST(DetectBatch, EveryPixelChangedMakesOneWholeLevelCellGridCall) {
  constexpr int kLevels = 3;
  const Image before = SyntheticVideo(smallVideo(2, 31)).frame(0).image;
  Image after = before;
  for (int y = 0; y < after.height(); ++y) {
    for (int x = 0; x < after.width(); ++x) after.at(x, y) += 0.5f;
  }
  auto counting = std::make_shared<CountingExtractor>(
      extract::makeExtractor("hog", extract::FeatureLayout::kBlockNorm));
  GridDetectorParams params;
  params.scoreThreshold = 2.0f;
  params.pyramid.maxLevels = kLevels;
  params.temporal.smooth = false;
  GridDetector detector(params, counting,
                        fixedScorer(counting->featureDim()));
  const BatchDetectResult cold = detector.detectBatch({before});
  const std::vector<std::pair<int, int>> levels = counting->calls;
  ASSERT_EQ(levels.size(), static_cast<std::size_t>(kLevels));
  counting->calls.clear();
  const BatchDetectResult warm = detector.detectBatch({after});
  ASSERT_EQ(warm.frames.size(), 1u);
  EXPECT_EQ(counting->calls, levels);
  const core::FrameStats& stats = warm.frames[0].stats;
  EXPECT_FALSE(stats.fullRecompute);
  EXPECT_EQ(stats.cellsRecomputed, cold.frames[0].stats.cellsRecomputed);
  EXPECT_EQ(stats.tilesReused, 0);
  expectSameDetections(warm.frames[0].detections, detector.detect(after),
                       "hog");
}

// A window whose scoring threw, or scored NaN, keeps the lost sentinel as
// its cached score. The next frame retries it whatever its cells: it
// recovers, or is counted lost again in that frame's report.
TEST(DetectBatch, LostWindowsAreRetriedOnTheNextFrame) {
  const Image scene = SyntheticVideo(smallVideo(2, 31)).frame(0).image;
  auto extractor =
      extract::makeExtractor("hog", extract::FeatureLayout::kBlockNorm);
  GridDetectorParams params;
  params.scoreThreshold = 2.0f;
  params.pyramid.maxLevels = 3;
  params.temporal.smooth = false;
  const core::WindowScorer linear = fixedScorer(extractor->featureDim());
  GridDetector healthy(params, extractor, linear);
  const float nan = std::numeric_limits<float>::quiet_NaN();

  for (const bool scoresNan : {false, true}) {
    const char* mode = scoresNan ? "NaN" : "throw";
    // Fails on its first 50 calls, then scores normally.
    auto calls = std::make_shared<std::atomic<int>>(0);
    GridDetector flaky(params, extractor,
                       [linear, calls, scoresNan,
                        nan](const std::vector<float>& f) {
                         if (calls->fetch_add(1) < 50) {
                           if (scoresNan) return nan;
                           throw std::runtime_error("scorer hiccup");
                         }
                         return linear(f);
                       });
    std::vector<core::DegradationReport> reports;
    const BatchDetectResult batch =
        flaky.detectBatch({scene, scene}, {}, &reports);
    ASSERT_EQ(batch.frames.size(), 2u);
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_EQ(reports[0].windowsLost, 50) << mode;
    EXPECT_EQ(reports[1].windowsLost, 0) << mode;
    EXPECT_FALSE(reports[1].degraded()) << mode;
    EXPECT_EQ(batch.frames[1].stats.windowsRescored, 50) << mode;
    expectSameDetections(batch.frames[1].detections, healthy.detect(scene),
                         mode);

    // A scorer that always fails loses every window on every frame.
    GridDetector broken(params, extractor,
                        [scoresNan, nan](const std::vector<float>&) -> float {
                          if (scoresNan) return nan;
                          throw std::runtime_error("scorer down");
                        });
    const BatchDetectResult down =
        broken.detectBatch({scene, scene}, {}, &reports);
    ASSERT_EQ(reports.size(), 2u);
    const long windows = down.frames[0].stats.windowsRescored;
    EXPECT_GT(windows, 0) << mode;
    EXPECT_EQ(reports[0].windowsLost, windows) << mode;
    EXPECT_EQ(reports[1].windowsLost, windows) << mode;
    EXPECT_EQ(down.frames[1].stats.windowsRescored, windows) << mode;
    EXPECT_TRUE(down.frames[0].detections.empty()) << mode;
    EXPECT_TRUE(down.frames[1].detections.empty()) << mode;
  }

  // A scorer's own -inf is a score, not a loss: nothing is retried.
  GridDetector sink(params, extractor, [](const std::vector<float>&) {
    return -std::numeric_limits<float>::infinity();
  });
  std::vector<core::DegradationReport> reports;
  const BatchDetectResult low = sink.detectBatch({scene, scene}, {}, &reports);
  EXPECT_EQ(reports[0].windowsLost + reports[1].windowsLost, 0);
  EXPECT_EQ(low.frames[1].stats.windowsRescored, 0);
}

TEST(DetectBatch, StaticSceneReusesEverythingAfterFirstFrame) {
  SyntheticVideo video(smallVideo(0, 7));  // no actors: perfectly static
  std::vector<Image> frames(4, video.frame(0).image);
  GridDetector detector = makeDetector("hog", true, false);
  const BatchDetectResult batch = detector.detectBatch(frames);
  ASSERT_EQ(batch.frames.size(), 4u);
  EXPECT_TRUE(batch.frames[0].stats.fullRecompute);
  EXPECT_GT(batch.frames[0].stats.tilesRecomputed, 0);
  for (std::size_t f = 1; f < 4; ++f) {
    EXPECT_EQ(batch.frames[f].stats.tilesRecomputed, 0) << "frame " << f;
    EXPECT_EQ(batch.frames[f].stats.windowsRescored, 0) << "frame " << f;
    EXPECT_GT(batch.frames[f].stats.tilesReused, 0) << "frame " << f;
    expectSameDetections(batch.frames[f].detections,
                         batch.frames[0].detections, "static");
  }
}

TEST(DetectBatch, CachePersistsAcrossCallsAndResets) {
  SyntheticVideo video(smallVideo(1, 17));
  GridDetector detector = makeDetector("hog", true, false);
  const Image frame = video.frame(0).image;
  (void)detector.detectBatch({frame});
  // Second call, same frame: the cache carried over, everything reused.
  BatchDetectResult warm = detector.detectBatch({frame});
  ASSERT_EQ(warm.frames.size(), 1u);
  EXPECT_EQ(warm.frames[0].stats.tilesRecomputed, 0);
  detector.resetTemporalCache();
  BatchDetectResult cold = detector.detectBatch({frame});
  EXPECT_TRUE(cold.frames[0].stats.fullRecompute);
  EXPECT_GT(cold.frames[0].stats.tilesRecomputed, 0);
}

TEST(DetectBatch, DimensionChangeFallsBackToFullRecompute) {
  GridDetector detector = makeDetector("hog", true, false);
  SyntheticVideo small(smallVideo(1, 5));
  VideoParams bigParams = smallVideo(1, 5);
  bigParams.width = 400;
  bigParams.height = 304;
  SyntheticVideo big(bigParams);
  (void)detector.detectBatch({small.frame(0).image});
  const BatchDetectResult next = detector.detectBatch({big.frame(0).image});
  EXPECT_TRUE(next.frames[0].stats.fullRecompute);
}

TEST(DetectBatch, SmoothingDampsBoxJitterWithoutInventingBoxes) {
  core::TemporalSmoother smoother;
  vision::Detection det;
  det.score = 1.0f;
  det.box = {100.0f, 50.0f, 64.0f, 128.0f};
  auto out = smoother.apply({det});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].box.x, 100.0f);  // first sighting passes through
  vision::Detection moved = det;
  moved.box.x = 110.0f;
  out = smoother.apply({moved});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_GT(out[0].box.x, 100.0f);  // follows the motion...
  EXPECT_LT(out[0].box.x, 110.0f);  // ...but lags it (EMA)
  // A frame with no detections emits nothing (no invented boxes).
  EXPECT_TRUE(smoother.apply({}).empty());
  EXPECT_GT(smoother.activeTracks(), 0u);  // track coasts for a while
  smoother.reset();
  EXPECT_EQ(smoother.activeTracks(), 0u);
}

TEST(DetectBatch, FrameProviderOverloadIsLazy) {
  SyntheticVideo video(smallVideo(1, 23));
  GridDetector detector = makeDetector("hog", true, false);
  int rendered = 0;
  const BatchDetectResult batch =
      detector.detectBatch(3, [&](int f) {
        ++rendered;
        return video.frame(f).image;
      });
  EXPECT_EQ(rendered, 3);
  ASSERT_EQ(batch.frames.size(), 3u);
}

}  // namespace
}  // namespace pcnn
