// GridDetector's one scan. scanFrame brings a per-level cache -- resized
// level images, cell grids, normalized block grids, window scores -- up to
// date with a frame and emits its pre-NMS detections. detectRaw() (and so
// detect()) runs one cold frame on a throwaway cache, computing every level
// in full. detectBatch() runs a burst on the detector-owned cache: each
// warm frame diffs against the previous one at tile granularity, and the
// dirty tiles choose the level pixels to refresh. The refresh compares the
// new pixels with the cached ones bitwise, and only the cells whose
// support holds a changed pixel recompute their histograms. What changed
// then propagates at cell granularity: only the blocks reading a cell
// whose histogram bits changed are re-normalized, and only the windows
// whose cell footprint holds such a cell are rescored. With temporal reuse
// off, every batch frame runs cold exactly like detect().
//
// The scan runs in whole-frame stages, each stage one pool job across all
// pyramid levels: (a) the scene tile diff, in bands of tile rows (warm
// frames); (b) the pixel refresh of every live level (warm frames):
// invalidated levels whole in one resize job, then valid levels' dirty
// rects one level per task; (c) each level's cells and blocks, level by
// level on the calling thread (extractors may be stateful), where the
// deadline is checked; (d) one scoring job over every (level, window row)
// pair that holds a window to score, which skips the rows of every level
// but the first once the deadline has passed; then detections are emitted
// in level order.
//
// Why the reused scan matches a cold scan bitwise (deterministic
// backends; see DESIGN.md Section 5g for the full argument):
//  - resizeBilinearInto refreshes level pixels with the exact per-pixel
//    arithmetic of resizeBilinear (and of buildPyramid's levels), and
//    pixels outside every refreshed rect were computed from unchanged
//    source pixels; the refresh runs under detect.resize;
//  - a cell's histogram depends only on its support: its pixels plus the
//    1-px border the gradient reads. The refresh flags every cell whose
//    support holds a pixel that differs bitwise from the cached level, so
//    every other cell sees exactly the pixels it was computed from;
//  - tryUpdateCellGrid recomputes the flagged cells from crops with one
//    cell of context (extended to the image border at grid edges, where
//    clamping then behaves identically), so the grid equals a cold one; it
//    flags the cells whose bits differ from the cached ones;
//  - each 2x2 block is a pure function of its four cells; updateBlocks
//    re-normalizes every block reading a changed cell, so the others
//    already hold the cold bits;
//  - a window's features depend only on the cells in its footprint, so a
//    window over no changed cell has bit-identical features and keeps the
//    cached score a rescore would return; every other window is rescored,
//    and so is every window whose cached score is the lost sentinel;
//  - detections are emitted from the score grid in the same row-major
//    level order on every frame, so NMS sees an identical input.

#include "core/detector.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/parallel.hpp"
#include "core/temporal.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"

namespace pcnn::core {

namespace {

/// Scan instruments shared by every detector instance.
struct ScanMetrics {
  obs::Counter& scenes = obs::counter("detect.scenes");  ///< detectRaw calls
  obs::Counter& frames = obs::counter("detect.frames");  ///< batch frames
  obs::Counter& pyramidLevels = obs::counter("pyramid_levels");
  /// Windows scored from a level's cell/block grid. Every one slices the
  /// level's single grid instead of recomputing its cells, so each is also
  /// one grid-cache hit.
  obs::Counter& windowsScanned = obs::counter("windows_scanned");
  obs::Counter& gridCacheHits = obs::counter("grid_cache_hits");
  obs::Counter& tilesReused = obs::counter("detect.tiles_reused");
  obs::Counter& tilesRecomputed = obs::counter("detect.tiles_recomputed");
  obs::Counter& cellsRecomputed = obs::counter("detect.cells_recomputed");
  obs::Counter& windowsRescored = obs::counter("detect.windows_rescored");
  obs::Counter& windowsReused = obs::counter("detect.windows_reused");
  obs::Counter& levelsDegraded = obs::counter("detect.level.degraded");
  obs::Counter& windowsLost = obs::counter("detect.windows_lost");
  /// Levels deliberately shed (DetectOptions::skipFinestLevels) and levels
  /// abandoned past a frame deadline -- deliberate quality loss, kept
  /// separate from the failure-driven detect.level.degraded counter.
  obs::Counter& levelsShed = obs::counter("detect.level.shed");
  obs::Counter& levelsExpired = obs::counter("detect.level.deadline");
  /// Level pixels refreshed from the live frame on warm frames (dirty-rect
  /// splices plus whole-level refreshes of invalidated levels), under the
  /// detect.resize span. Overlapping mapped rects count once per rect.
  obs::Counter& resizePx = obs::counter("detect.resize_px");
  /// Fraction of tiles served from the temporal cache on the most recent
  /// batch frame, and that frame's instantaneous rate; both are
  /// live-telemetry signals for the streaming exporter.
  obs::Gauge& tileHitRate = obs::gauge("detect.tile_hit_rate");
  obs::Gauge& frameFps = obs::gauge("detect.frame_fps");
  obs::LatencyHistogram& frameUs = obs::histogram("detect.frame_us");
  static ScanMetrics& instance() {
    static ScanMetrics m;
    return m;
  }
};

/// Dirty-tracking tile edge in cells (kTileCells * cellSize pixels).
constexpr int kTileCells = 4;

constexpr float kLostScore = -std::numeric_limits<float>::infinity();

inline int ceilDiv(int a, int b) { return (a + b - 1) / b; }

/// A half-open pixel rectangle (dirty-region bookkeeping).
struct PxRect {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
};

}  // namespace

/// The scan's per-level state, sized by the first frame's pyramid.
/// detectBatch keeps the detector's cache alive between frames; detect()
/// and reuse-off batch frames scan a throwaway one.
struct GridDetector::TemporalCache {
  struct Level {
    vision::Image image;     ///< the level's (resized) pixels
    float scale = 1.0f;      ///< level-to-scene coordinate scale
    hog::CellGrid grid;      ///< persistent cell histograms
    hog::BlockGrid blocks;   ///< persistent normalized blocks (kBlockNorm)
    std::vector<float> scores;  ///< spanY * spanX cached window scores
    int spanX = 0;
    int spanY = 0;
    bool valid = false;      ///< false -> full recompute next frame
  };

  /// The previous frame, for tile diffing. A warm scan splices the dirty
  /// tiles of its frame in; after any other scan, detectBatch copies the
  /// whole frame in.
  vision::Image scene;
  bool sceneCurrent = false;  ///< the last scan left `scene` equal to its frame
  std::vector<Level> levels;
  bool valid = false;        ///< pyramid geometry initialized and current
  TemporalSmoother smoother;
};

void GridDetector::TemporalCacheDeleter::operator()(
    TemporalCache* cache) const {
  delete cache;
}

GridDetector::~GridDetector() = default;

void GridDetector::resetTemporalCache() { temporal_.reset(); }

namespace {

/// Appends the level's windows scoring at least `threshold` in row-major
/// order -- the same order on cold and warm frames, which is what keeps the
/// NMS input identical between the cached and full paths.
void emitLevelDetections(const auto& lc,
                         const GridDetectorParams& params, float threshold,
                         std::vector<vision::Detection>& out) {
  const float cellPx = static_cast<float>(params.cellSize) * lc.scale;
  const float winW =
      static_cast<float>(params.windowCellsX * params.cellSize) * lc.scale;
  const float winH =
      static_cast<float>(params.windowCellsY * params.cellSize) * lc.scale;
  for (int wy = 0; wy < lc.spanY; ++wy) {
    const float* row =
        lc.scores.data() + static_cast<std::size_t>(wy) * lc.spanX;
    for (int wx = 0; wx < lc.spanX; ++wx) {
      if (row[wx] < threshold) continue;
      vision::Detection det;
      det.score = row[wx];
      det.box.x = static_cast<float>(wx) * cellPx;
      det.box.y = static_cast<float>(wy) * cellPx;
      det.box.w = winW;
      det.box.h = winH;
      out.push_back(det);
    }
  }
}

/// Diffs two same-sized frames at tile granularity, one pool chunk per row
/// of tiles: each chunk reads its own band of pixel rows and writes only
/// its own row of the dirty bitmap. Whole rows are compared first (one
/// memcmp per row -- almost every row of a mostly-static scene is
/// untouched); only rows that differ get per-tile segment checks. Returns
/// the dirty bitmap (tilesY x tilesX, row-major).
std::vector<std::uint8_t> diffSceneTiles(const vision::Image& prev,
                                         const vision::Image& next,
                                         int tilePx, int tilesX, int tilesY) {
  std::vector<std::uint8_t> dirty(
      static_cast<std::size_t>(tilesX) * tilesY, 0);
  const int w = prev.width();
  const int h = prev.height();
  const float* a = prev.data().data();
  const float* b = next.data().data();
  parallelFor(0, tilesY, [&](long ty) {
    std::uint8_t* tileRow =
        dirty.data() + static_cast<std::size_t>(ty) * tilesX;
    const int yEnd = std::min(h, static_cast<int>(ty + 1) * tilePx);
    for (int y = static_cast<int>(ty) * tilePx; y < yEnd; ++y) {
      const float* ra = a + static_cast<std::size_t>(y) * w;
      const float* rb = b + static_cast<std::size_t>(y) * w;
      if (std::memcmp(ra, rb, sizeof(float) * static_cast<std::size_t>(w)) ==
          0) {
        continue;
      }
      for (int tx = 0; tx < tilesX; ++tx) {
        if (tileRow[tx]) continue;
        const int x0 = tx * tilePx;
        const int x1 = x0 + tilePx < w ? x0 + tilePx : w;
        if (std::memcmp(ra + x0, rb + x0,
                        sizeof(float) * static_cast<std::size_t>(x1 - x0)) !=
            0) {
          tileRow[tx] = 1;
        }
      }
    }
  });
  return dirty;
}

/// Merges horizontal runs of dirty tiles into pixel rectangles.
std::vector<PxRect> dirtyTileRuns(const std::vector<std::uint8_t>& dirty,
                                  int tilePx, int tilesX, int tilesY,
                                  int width, int height) {
  std::vector<PxRect> rects;
  for (int ty = 0; ty < tilesY; ++ty) {
    const std::uint8_t* row =
        dirty.data() + static_cast<std::size_t>(ty) * tilesX;
    int tx = 0;
    while (tx < tilesX) {
      if (!row[tx]) {
        ++tx;
        continue;
      }
      int end = tx;
      while (end < tilesX && row[end]) ++end;
      PxRect r;
      r.x0 = tx * tilePx;
      r.x1 = end * tilePx < width ? end * tilePx : width;
      r.y0 = ty * tilePx;
      r.y1 = (ty + 1) * tilePx < height ? (ty + 1) * tilePx : height;
      rects.push_back(r);
      tx = end;
    }
  }
  return rects;
}

/// Maps a dirty scene rect into the level's pixel space, conservatively
/// covering every level pixel whose bilinear support touches the rect
/// (plus a 1-px guard for float rounding).
PxRect mapRectToLevel(const PxRect& r, const vision::Image& scene,
                      const vision::Image& level) {
  const float sx = static_cast<float>(scene.width()) / level.width();
  const float sy = static_cast<float>(scene.height()) / level.height();
  PxRect out;
  out.x0 = static_cast<int>(std::floor(
               (static_cast<float>(r.x0) - 0.5f) / sx - 0.5f)) -
           1;
  out.y0 = static_cast<int>(std::floor(
               (static_cast<float>(r.y0) - 0.5f) / sy - 0.5f)) -
           1;
  out.x1 = static_cast<int>(std::ceil(
               (static_cast<float>(r.x1) + 0.5f) / sx - 0.5f)) +
           1;
  out.y1 = static_cast<int>(std::ceil(
               (static_cast<float>(r.y1) + 0.5f) / sy - 0.5f)) +
           1;
  out.x0 = out.x0 > 0 ? out.x0 : 0;
  out.y0 = out.y0 > 0 ? out.y0 : 0;
  out.x1 = out.x1 < level.width() ? out.x1 : level.width();
  out.y1 = out.y1 < level.height() ? out.y1 : level.height();
  return out;
}

/// Flags in `dirty` (cellsY x cellsX, row-major) every cell whose support
/// holds a pixel of level row y, columns [x0, x1), that differs bitwise
/// between `before` and `after` (both pointing at column x0). A cell's
/// support is its pixels plus the 1-px border the gradient stencil reads:
/// columns cx * cell - 1 .. cx * cell + cell, rows alike. The row segment
/// is compared whole first; only a row that differs is compared again one
/// cell's support segment at a time, skipping cells already flagged.
/// Returns whether the row segment differs.
bool flagChangedSupport(const float* before, const float* after, int y,
                        int x0, int x1, int cell, int cellsX, int cellsY,
                        std::vector<std::uint8_t>& dirty) {
  if (std::memcmp(before, after,
                  sizeof(float) * static_cast<std::size_t>(x1 - x0)) == 0) {
    return false;
  }
  const int cy0 = y > 0 ? (y - 1) / cell : 0;
  const int cy1 = std::min(cellsY, (y + 1) / cell + 1);
  const int cx0 = x0 > 0 ? (x0 - 1) / cell : 0;
  const int cx1 = std::min(cellsX, x1 / cell + 1);
  for (int cx = cx0; cx < cx1; ++cx) {
    bool flagged = true;
    for (int cy = cy0; cy < cy1 && flagged; ++cy) {
      flagged = dirty[static_cast<std::size_t>(cy) * cellsX + cx] != 0;
    }
    if (flagged) continue;
    const int s0 = std::max(x0, cx * cell - 1);
    const int s1 = std::min(x1, cx * cell + cell + 1);
    if (std::memcmp(before + (s0 - x0), after + (s0 - x0),
                    sizeof(float) * static_cast<std::size_t>(s1 - s0)) == 0) {
      continue;
    }
    for (int cy = cy0; cy < cy1; ++cy) {
      dirty[static_cast<std::size_t>(cy) * cellsX + cx] = 1;
    }
  }
  return true;
}

/// Turns the dirty-cell mask into rects: the maximal runs of each cell
/// row, with a run that spans the same columns as one in the row above
/// stacked onto it. Linear in the mask.
std::vector<extract::CellRect> dirtyCellRects(
    const std::vector<std::uint8_t>& dirty, int cellsX, int cellsY) {
  std::vector<extract::CellRect> rects;
  std::vector<extract::CellRect> open;  // reaching the previous row, by cx0
  std::vector<extract::CellRect> next;
  for (int cy = 0; cy < cellsY; ++cy) {
    const std::uint8_t* row =
        dirty.data() + static_cast<std::size_t>(cy) * cellsX;
    next.clear();
    std::size_t k = 0;
    for (int cx = 0;;) {
      while (cx < cellsX && !row[cx]) ++cx;
      if (cx == cellsX) break;
      int end = cx;
      while (end < cellsX && row[end]) ++end;
      while (k < open.size() && open[k].cx0 < cx) rects.push_back(open[k++]);
      if (k < open.size() && open[k].cx0 == cx && open[k].cx1 == end) {
        next.push_back(open[k++]);
        next.back().cy1 = cy + 1;
      } else {
        next.push_back({cx, cy, end, cy + 1});
      }
      cx = end;
    }
    rects.insert(rects.end(), open.begin() + static_cast<long>(k),
                 open.end());
    std::swap(open, next);
  }
  rects.insert(rects.end(), open.begin(), open.end());
  return rects;
}

/// Number of kTileCells x kTileCells tiles holding a cell of `rects`.
long tilesHolding(const std::vector<extract::CellRect>& rects,
                  int tilesAcross, int tilesDown) {
  std::vector<std::uint8_t> tiles(
      static_cast<std::size_t>(tilesAcross) * tilesDown, 0);
  long count = 0;
  for (const extract::CellRect& r : rects) {
    for (int ty = r.cy0 / kTileCells; ty <= (r.cy1 - 1) / kTileCells; ++ty) {
      for (int tx = r.cx0 / kTileCells; tx <= (r.cx1 - 1) / kTileCells;
           ++tx) {
        std::uint8_t& tile =
            tiles[static_cast<std::size_t>(ty) * tilesAcross + tx];
        count += tile == 0;
        tile = 1;
      }
    }
  }
  return count;
}

/// One pyramid level's share of a frame's scan, filled in stage by stage.
struct LevelPass {
  int cellsX = 0;
  int cellsY = 0;
  long tiles = 0;    ///< kTileCells x kTileCells tiles of the cell grid
  long windows = 0;  ///< spanX * spanY; 0 when no window fits the level
  /// Still in the scan: not shed, abandoned past the deadline or degraded.
  bool live = false;
  bool fullCompute = false;  ///< no valid cache: every cell and window
  long refreshedPx = 0;      ///< level pixels refreshed from the frame
  /// Warm valid level: the cells whose support holds a changed pixel, as
  /// rects (dirtyCellRects), and the tiles holding one.
  std::vector<extract::CellRect> dirtyRects;
  long dirtyTiles = 0;
  /// The cells whose histogram bits changed (tryUpdateCellGrid).
  std::vector<std::uint8_t> changed;
  /// 2-D prefix sum over `changed`, (cellsY + 1) x (cellsX + 1); empty
  /// when no cell changed.
  std::vector<int> prefix;
  long cells = 0;
  long rescored = 0;
  long lost = 0;
};

/// One window row of one level, the unit of the frame's scoring job.
struct ScanRow {
  int level = 0;
  int wy = 0;
};

/// Brings a valid level's pixels up to date with the live frame under the
/// dirty scene rects only, each refreshed pixel compared with the cached
/// one, so that `p.dirtyRects` covers exactly the cells whose support holds
/// a changed pixel (level 0, a verbatim copy of the scene, splices rows).
/// Writes only the level's own image and its own pass.
void spliceLevel(const vision::Image& frame,
                 const std::vector<PxRect>& sceneDirty, bool verbatim,
                 int cell, auto& lc, LevelPass& p) {
  std::vector<std::uint8_t> dirtyCells(
      static_cast<std::size_t>(p.cellsX) * p.cellsY, 0);
  std::vector<float> cached;  // a rect's pixels before the refresh
  for (const PxRect& sceneRect : sceneDirty) {
    PxRect r;
    if (verbatim) {
      // Level 0 is a verbatim copy of the scene: diff and splice the rows.
      r = sceneRect;
      const float* src = frame.data().data();
      for (int y = r.y0; y < r.y1; ++y) {
        float* dst = &lc.image.at(r.x0, y);
        const float* row =
            src + static_cast<std::size_t>(y) * frame.width() + r.x0;
        if (flagChangedSupport(dst, row, y, r.x0, r.x1, cell, p.cellsX,
                               p.cellsY, dirtyCells)) {
          std::memcpy(dst, row,
                      sizeof(float) * static_cast<std::size_t>(r.x1 - r.x0));
        }
      }
    } else {
      r = mapRectToLevel(sceneRect, frame, lc.image);
      if (r.x0 >= r.x1 || r.y0 >= r.y1) continue;
      const std::size_t rw = static_cast<std::size_t>(r.x1 - r.x0);
      cached.resize(rw * static_cast<std::size_t>(r.y1 - r.y0));
      for (int y = r.y0; y < r.y1; ++y) {
        std::memcpy(cached.data() + (y - r.y0) * rw, &lc.image.at(r.x0, y),
                    sizeof(float) * rw);
      }
      vision::resizeBilinearInto(frame, lc.image, r.x0, r.y0, r.x1, r.y1);
      for (int y = r.y0; y < r.y1; ++y) {
        flagChangedSupport(cached.data() + (y - r.y0) * rw,
                           &lc.image.at(r.x0, y), y, r.x0, r.x1, cell,
                           p.cellsX, p.cellsY, dirtyCells);
      }
    }
    p.refreshedPx += static_cast<long>(r.x1 - r.x0) * (r.y1 - r.y0);
  }
  p.dirtyRects = dirtyCellRects(dirtyCells, p.cellsX, p.cellsY);
  p.dirtyTiles = tilesHolding(p.dirtyRects, ceilDiv(p.cellsX, kTileCells),
                              ceilDiv(p.cellsY, kTileCells));
}

/// Scores the stale windows of `rows` -- (level, window row) pairs across
/// the whole pyramid -- as one pool job. A window is stale when its cached
/// score is the lost sentinel (as every window of a level computed in full
/// starts out) or its cell footprint holds a changed cell, answered in
/// O(1) from the level's prefix sum. Every window writes only its own
/// score slot, so the scores are the same for any thread count or
/// chunking. A window whose feature assembly or scoring throws, or whose
/// score is NaN (which no threshold or NMS order can rank), gets
/// kLostScore and is tallied in its level's `lost`. A scorer's own -inf is
/// stored as the lowest finite float, so only a lost window leaves the
/// sentinel that makes a warm frame retry it. Each chunk assembles its
/// windows' features into one reused buffer.
///
/// Once `deadlineUs` (> 0) has passed, a row of any level but the first
/// queued one is skipped unscored. Returns the lowest level with a skipped
/// row -- the caller abandons it and every later level -- or
/// levels.size() when none was skipped.
std::size_t scoreRows(const extract::FeatureExtractor& extractor,
                      const WindowScorer& scorer, bool blockPath,
                      const GridDetectorParams& params, auto& levels,
                      std::vector<LevelPass>& passes,
                      const std::vector<ScanRow>& rows, double deadlineUs) {
  std::vector<long> rowScored(rows.size(), 0);
  std::vector<long> rowLost(rows.size(), 0);
  std::vector<std::uint8_t> rowSkipped(rows.size(), 0);
  const int wcx = params.windowCellsX;
  const int wcy = params.windowCellsY;
  const int firstLevel = rows.front().level;
  parallelForChunked(
      0, static_cast<long>(rows.size()), 1, [&](long lo, long hi) {
        std::vector<float> features;
        for (long i = lo; i < hi; ++i) {
          const ScanRow& item = rows[static_cast<std::size_t>(i)];
          if (item.level != firstLevel && deadlineUs > 0.0 &&
              obs::nowMicros() > deadlineUs) {
            rowSkipped[static_cast<std::size_t>(i)] = 1;
            continue;
          }
          auto& lc = levels[static_cast<std::size_t>(item.level)];
          const LevelPass& p = passes[static_cast<std::size_t>(item.level)];
          const int wy = item.wy;
          const std::size_t stride = static_cast<std::size_t>(p.cellsX) + 1;
          const int* top =
              p.prefix.empty() ? nullptr : p.prefix.data() + wy * stride;
          const int* bottom =
              top == nullptr ? nullptr : top + wcy * stride;
          float* row = lc.scores.data() + static_cast<std::size_t>(wy) * lc.spanX;
          long scored = 0;
          long lost = 0;
          for (int wx = 0; wx < lc.spanX; ++wx) {
            const bool stale =
                row[wx] == kLostScore ||
                (top != nullptr && bottom[wx + wcx] - top[wx + wcx] -
                                           bottom[wx] + top[wx] >
                                       0);
            if (!stale) continue;
            ++scored;
            float score = std::numeric_limits<float>::quiet_NaN();
            try {
              if (blockPath) {
                extractor.windowFromBlocks(lc.blocks, wx, wy, features);
              } else {
                extractor.windowFromGrid(lc.grid, wx, wy, features);
              }
              score = scorer(features);
            } catch (const std::exception&) {
              // One window's feature assembly or scoring failing loses
              // that window only (its score stays NaN); the rest of the
              // row keeps scanning.
            }
            if (std::isnan(score)) {
              row[wx] = kLostScore;
              ++lost;
            } else {
              row[wx] = score == kLostScore
                            ? std::numeric_limits<float>::lowest()
                            : score;
            }
          }
          rowScored[static_cast<std::size_t>(i)] = scored;
          rowLost[static_cast<std::size_t>(i)] = lost;
        }
      });
  std::size_t expiredFrom = levels.size();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto level = static_cast<std::size_t>(rows[i].level);
    if (rowSkipped[i]) expiredFrom = std::min(expiredFrom, level);
    passes[level].rescored += rowScored[i];
    passes[level].lost += rowLost[i];
  }
  return expiredFrom;
}

}  // namespace


std::vector<vision::Detection> GridDetector::detectRaw(
    const vision::Image& scene, const DetectOptions& options,
    DegradationReport* report) const {
  PCNN_SPAN("detect.scene");
  ScanMetrics::instance().scenes.add();
  TemporalCache cache;  // cold: every level computes in full
  FrameStats stats;
  return scanFrame(scene, cache,
                   options.scoreThreshold.value_or(params_.scoreThreshold),
                   options, 0.0, stats, report);
}

BatchDetectResult GridDetector::detectBatch(
    const std::vector<vision::Image>& frames, const BatchOptions& options,
    std::vector<DegradationReport>* reports) {
  return runBatch(static_cast<int>(frames.size()),
                  [&frames](int index) -> const vision::Image& {
                    return frames[static_cast<std::size_t>(index)];
                  },
                  options, reports);
}

BatchDetectResult GridDetector::detectBatch(
    int numFrames, const FrameProvider& frames, const BatchOptions& options,
    std::vector<DegradationReport>* reports) {
  vision::Image current;  // the provider's frame being scanned
  return runBatch(numFrames,
                  [&](int index) -> const vision::Image& {
                    current = frames(index);
                    return current;
                  },
                  options, reports);
}

BatchDetectResult GridDetector::runBatch(
    int numFrames,
    const std::function<const vision::Image&(int)>& frameAt,
    const BatchOptions& options, std::vector<DegradationReport>* reports) {
  PCNN_SPAN_ARG("detect.batch", "frames", numFrames);
  ScanMetrics& metrics = ScanMetrics::instance();
  const bool temporalOn = params_.temporal.enabled;
  const float threshold =
      options.detect.scoreThreshold.value_or(params_.scoreThreshold);
  BatchDetectResult result;
  result.frames.reserve(static_cast<std::size_t>(numFrames > 0 ? numFrames
                                                               : 0));
  if (reports != nullptr) {
    reports->assign(static_cast<std::size_t>(numFrames > 0 ? numFrames : 0),
                    DegradationReport{});
  }
  if (temporalOn && !temporal_) temporal_.reset(new TemporalCache);
  for (int f = 0; f < numFrames; ++f) {
    const vision::Image& frame = frameAt(f);
    PCNN_SPAN_ARG("detect.frame", "frame", f);
    metrics.frames.add();
    const bool measure = obs::metricsEnabled();
    const double frameStartUs = measure ? obs::nowMicros() : 0.0;
    DegradationReport* report =
        reports != nullptr ? &(*reports)[static_cast<std::size_t>(f)]
                           : nullptr;
    const double deadlineUs =
        static_cast<std::size_t>(f) < options.deadlineUs.size()
            ? options.deadlineUs[static_cast<std::size_t>(f)]
            : 0.0;
    TemporalCache coldCache;  // reuse off: every frame runs like detect()
    TemporalCache& cache = temporalOn ? *temporal_ : coldCache;
    FrameResult fr;
    std::vector<vision::Detection> raw = scanFrame(
        frame, cache, threshold, options.detect, deadlineUs, fr.stats, report);
    // The next frame diffs against this one; a cold cache keeps nothing.
    // A warm scan has already spliced the frame's dirty tiles in.
    // Copy-assigning reuses the cached scene's buffer when it is large
    // enough, as it is for every frame of a fixed-size stream.
    if (temporalOn && !cache.sceneCurrent) cache.scene = frame;
    {
      PCNN_SPAN_ARG("detect.nms", "candidates", raw.size());
      fr.detections =
          vision::nonMaximumSuppression(std::move(raw), params_.nmsEpsilon);
    }
    if (temporalOn && params_.temporal.smooth) {
      fr.detections = cache.smoother.apply(fr.detections);
    }
    if (measure) {
      const double frameUs = obs::nowMicros() - frameStartUs;
      metrics.frameUs.record(frameUs);
      metrics.frameFps.set(frameUs > 0.0 ? 1e6 / frameUs : 0.0);
      const long tiles = fr.stats.tilesReused + fr.stats.tilesRecomputed;
      if (tiles > 0) {
        metrics.tileHitRate.set(static_cast<double>(fr.stats.tilesReused) /
                                static_cast<double>(tiles));
      }
    }
    result.frames.push_back(std::move(fr));
  }
  return result;
}

std::vector<vision::Detection> GridDetector::scanFrame(
    const vision::Image& frame, TemporalCache& cache, float threshold,
    const DetectOptions& options, double deadlineUs, FrameStats& stats,
    DegradationReport* report) const {
  ScanMetrics& metrics = ScanMetrics::instance();
  const tn::FaultCounts faultsBefore =
      report != nullptr ? tn::globalFaultCounts() : tn::FaultCounts{};
  const bool blockPath =
      featureExtractor_->layout() == extract::FeatureLayout::kBlockNorm;
  const int cell = params_.cellSize;
  const int tilePx = kTileCells * cell;
  std::vector<vision::Detection> detections;

  // Cold start (or a stream whose dimensions changed): rebuild the
  // pyramid geometry; every level then takes the full-compute branch.
  const bool cold = !cache.valid || cache.scene.width() != frame.width() ||
                    cache.scene.height() != frame.height();
  // Valid again only once the scan completes: a scan that throws leaves
  // levels half refreshed, and the next frame must then start cold.
  cache.valid = false;
  cache.sceneCurrent = false;
  if (cold) {
    cache.levels.clear();
    vision::PyramidParams pp = params_.pyramid;
    pp.minWidth = params_.windowCellsX * cell;
    pp.minHeight = params_.windowCellsY * cell;
    std::vector<vision::PyramidLevel> pyramid;
    {
      PCNN_SPAN("detect.pyramid");
      pyramid = vision::buildPyramid(frame, pp);
    }
    metrics.pyramidLevels.add(static_cast<long>(pyramid.size()));
    cache.levels.resize(pyramid.size());
    for (std::size_t li = 0; li < pyramid.size(); ++li) {
      cache.levels[li].image = std::move(pyramid[li].image);
      cache.levels[li].scale = pyramid[li].scale;
      cache.levels[li].valid = false;
    }
    stats.fullRecompute = true;
  }

  // Level geometry. Deliberate shedding (the serving ladder's
  // coarser-pyramid rung: the finest levels are the most expensive and go
  // first) is attributed up front, so the caller sees exactly what
  // quality was traded away. A shed level's cached grid goes stale against
  // the live stream, so it is invalidated and rebuilds from the current
  // frame when the ladder re-enables it.
  std::vector<LevelPass> passes(cache.levels.size());
  for (std::size_t li = 0; li < cache.levels.size(); ++li) {
    TemporalCache::Level& lc = cache.levels[li];
    LevelPass& p = passes[li];
    p.cellsX = lc.image.width() / cell;
    p.cellsY = lc.image.height() / cell;
    p.tiles = static_cast<long>(ceilDiv(p.cellsX, kTileCells)) *
              ceilDiv(p.cellsY, kTileCells);
    lc.spanX = p.cellsX - params_.windowCellsX + 1;
    lc.spanY = p.cellsY - params_.windowCellsY + 1;
    if (lc.spanX <= 0 || lc.spanY <= 0) continue;
    p.windows = static_cast<long>(lc.spanX) * static_cast<long>(lc.spanY);
    if (static_cast<long>(li) < options.skipFinestLevels) {
      metrics.levelsShed.add();
      lc.valid = false;
      if (report != nullptr) {
        report->addSkip(static_cast<int>(li), p.windows,
                        Status::Unavailable("detect: level shed by caller"));
      }
      continue;
    }
    p.live = true;
    p.fullCompute = !lc.valid;
  }

  // Deadline abandonment: once the deadline has passed, every level not
  // yet through its cell stage is given up; detections from the levels
  // that were survive. A frame already late refreshes nothing.
  bool abandoned = deadlineUs > 0.0 && obs::nowMicros() > deadlineUs;

  // Stage (a), warm frames only: the tile-granular scene diff, which
  // chooses the level pixels to refresh. Stage (b): one pool job
  // refreshes every live level's pixels, each level writing only its own
  // image and pass.
  if (!cold && !abandoned) {
    std::vector<PxRect> sceneDirty;
    {
      PCNN_SPAN("detect.diff");
      const int tilesX = ceilDiv(frame.width(), tilePx);
      const int tilesY = ceilDiv(frame.height(), tilePx);
      const std::vector<std::uint8_t> dirtyTiles =
          diffSceneTiles(cache.scene, frame, tilePx, tilesX, tilesY);
      sceneDirty = dirtyTileRuns(dirtyTiles, tilePx, tilesX, tilesY,
                                 frame.width(), frame.height());
      // Every pixel outside the dirty tiles is already bitwise equal to
      // the frame's, so splicing the dirty tiles in makes `scene` the
      // frame the next one diffs against.
      for (const PxRect& r : sceneDirty) {
        for (int y = r.y0; y < r.y1; ++y) {
          std::memcpy(&cache.scene.at(r.x0, y),
                      frame.data().data() +
                          static_cast<std::size_t>(y) * frame.width() + r.x0,
                      sizeof(float) * static_cast<std::size_t>(r.x1 - r.x0));
        }
      }
      cache.sceneCurrent = true;
    }
    // A live level without a valid cache (shed, abandoned or degraded on
    // an earlier frame) is refreshed whole: level 0 is a verbatim copy,
    // and every other such level is resized in one job over all their row
    // bands, which reproduces buildPyramid's resize bit for bit. Every
    // valid level splices the dirty rects in, one level per task.
    std::vector<vision::Image*> whole;
    std::vector<std::size_t> splice;
    long refreshedPx = 0;
    for (std::size_t li = 0; li < passes.size(); ++li) {
      if (!passes[li].live) continue;
      if (passes[li].fullCompute) {
        whole.push_back(&cache.levels[li].image);
        refreshedPx += static_cast<long>(whole.back()->data().size());
      } else if (!sceneDirty.empty()) {
        splice.push_back(li);
      }
    }
    if (!whole.empty() || !splice.empty()) {
      PCNN_SPAN_ARG("detect.resize", "levels", whole.size() + splice.size());
      if (!whole.empty() && whole.front() == &cache.levels[0].image) {
        std::memcpy(whole.front()->data().data(), frame.data().data(),
                    sizeof(float) * frame.data().size());
        whole.erase(whole.begin());
      }
      vision::resizeBilinearEach(frame, whole);
      parallelFor(0, static_cast<long>(splice.size()), [&](long i) {
        const std::size_t li = splice[static_cast<std::size_t>(i)];
        spliceLevel(frame, sceneDirty, li == 0, cell, cache.levels[li],
                    passes[li]);
      });
      for (std::size_t li : splice) refreshedPx += passes[li].refreshedPx;
      metrics.resizePx.add(refreshedPx);
    }
  }

  // A level given up past the deadline is invalidated and its windows are
  // reported lost.
  auto expire = [&](std::size_t li) {
    metrics.levelsExpired.add();
    cache.levels[li].valid = false;
    passes[li].live = false;
    if (report != nullptr) {
      report->addSkip(static_cast<int>(li), passes[li].windows,
                      Status::DeadlineExceeded(
                          "detect: level abandoned past deadline"));
    }
  };

  // Stage (c), level by level on the calling thread (extractors may be
  // stateful): bring each live level's cells and blocks up to date and
  // queue its window rows that hold a window to score.
  std::vector<ScanRow> rows;
  for (std::size_t li = 0; li < cache.levels.size(); ++li) {
    TemporalCache::Level& lc = cache.levels[li];
    LevelPass& p = passes[li];
    if (!p.live) continue;
    const long levelIndex = static_cast<long>(li);
    PCNN_SPAN_ARG("detect.level", "level", levelIndex);
    if (!abandoned && deadlineUs > 0.0 && obs::nowMicros() > deadlineUs) {
      abandoned = true;
    }
    if (abandoned) {
      expire(li);
      continue;
    }

    // A level whose grid cannot be produced -- a backend failure, a
    // poisoned image, a simulator fault -- degrades the frame rather than
    // aborting it: the level is skipped, its windows are counted lost, it
    // is rebuilt from scratch on the next frame, and the scan goes on.
    auto skipLevel = [&](Status status) {
      PCNN_SPAN_ARG("detect.level.degraded", "level", levelIndex);
      obs::noteFaultEvent("detect.level.degraded");
      metrics.levelsDegraded.add();
      metrics.windowsLost.add(p.windows);
      lc.valid = false;
      p.live = false;
      if (report != nullptr) {
        report->addSkip(static_cast<int>(li), p.windows, std::move(status));
      }
    };

    if (p.fullCompute) {
      // Full compute: cold cache, or the level was invalidated by a
      // failed incremental update or a shed/abandoned scan (stage (b) has
      // refreshed its pixels whole). The grid is extracted once per
      // level; block-norm extractors also normalize every block exactly
      // once here, and every window then slices them.
      p.dirtyTiles = p.tiles;
      p.cells = static_cast<long>(p.cellsX) * p.cellsY;
      {
        PCNN_SPAN("detect.cellGrid");
        obs::ScopedTimer timer(cellGridUs());
        StatusOr<hog::CellGrid> gridOr =
            featureExtractor_->tryCellGrid(lc.image);
        if (!gridOr.ok()) {
          skipLevel(gridOr.status());
          continue;
        }
        lc.grid = std::move(gridOr).value();
      }
      if (blockPath) {
        PCNN_SPAN("detect.blockGrid");
        try {
          lc.blocks = featureExtractor_->prepareBlocks(lc.grid);
        } catch (const std::exception& e) {
          skipLevel(
              Status::Internal(std::string("prepareBlocks: ") + e.what()));
          continue;
        }
      }
      // Every window starts lost, so the scoring job scores them all.
      lc.scores.assign(static_cast<std::size_t>(p.windows), kLostScore);
      lc.valid = true;
      for (int wy = 0; wy < lc.spanY; ++wy) {
        rows.push_back({static_cast<int>(li), wy});
      }
      continue;
    }

    // Incremental: recompute exactly the cells whose support holds a
    // changed pixel; `changed` then flags the cells whose histogram bits
    // changed.
    if (!p.dirtyRects.empty()) {
      {
        PCNN_SPAN("detect.cellGrid");
        obs::ScopedTimer timer(cellGridUs());
        StatusOr<long> updated = featureExtractor_->tryUpdateCellGrid(
            lc.image, p.dirtyRects, lc.grid, p.changed);
        if (!updated.ok()) {
          skipLevel(updated.status());
          continue;
        }
        p.cells = updated.value();
      }
      if (blockPath) {
        PCNN_SPAN("detect.blockGrid");
        try {
          featureExtractor_->updateBlocks(lc.grid, p.changed, lc.blocks);
        } catch (const std::exception& e) {
          skipLevel(
              Status::Internal(std::string("updateBlocks: ") + e.what()));
          continue;
        }
      }
    }

    // A window is rescored iff its cell footprint holds a changed cell --
    // answered in O(1) by a 2-D prefix sum over the changed-cell mask --
    // or its cached score is the lost sentinel, so a window lost on an
    // earlier frame is retried (and recovers or is counted lost again) on
    // the next one. Only the rows holding such a window are queued.
    const std::size_t stride = static_cast<std::size_t>(p.cellsX) + 1;
    if (std::find(p.changed.begin(), p.changed.end(), 1) != p.changed.end()) {
      p.prefix.assign(stride * (static_cast<std::size_t>(p.cellsY) + 1), 0);
      for (int cy = 0; cy < p.cellsY; ++cy) {
        const std::uint8_t* flags =
            p.changed.data() + static_cast<std::size_t>(cy) * p.cellsX;
        for (int cx = 0; cx < p.cellsX; ++cx) {
          p.prefix[(cy + 1) * stride + cx + 1] =
              p.prefix[cy * stride + cx + 1] +
              p.prefix[(cy + 1) * stride + cx] - p.prefix[cy * stride + cx] +
              flags[cx];
        }
      }
    }
    for (int wy = 0; wy < lc.spanY; ++wy) {
      // Every changed cell of cell rows wy .. wy + windowCellsY - 1 lies
      // in some window of window row wy.
      const bool changedRow =
          !p.prefix.empty() &&
          p.prefix[(wy + params_.windowCellsY) * stride + p.cellsX] >
              p.prefix[wy * stride + p.cellsX];
      const float* scores =
          lc.scores.data() + static_cast<std::size_t>(wy) * lc.spanX;
      if (changedRow ||
          std::find(scores, scores + lc.spanX, kLostScore) !=
              scores + lc.spanX) {
        rows.push_back({static_cast<int>(li), wy});
      }
    }
  }

  // Stage (d): one scoring job over every queued (level, window row). The
  // first queued level is always scored whole. Once the deadline passes,
  // the rows of later levels still queued are skipped, and the first level
  // that lost a row is abandoned with every level after it, as if the
  // levels had been scored one after another.
  if (!rows.empty()) {
    PCNN_SPAN_ARG("detect.scan", "rows", rows.size());
    const std::size_t expiredFrom =
        scoreRows(*featureExtractor_, scorer_, blockPath, params_,
                  cache.levels, passes, rows, deadlineUs);
    for (std::size_t li = expiredFrom; li < passes.size(); ++li) {
      if (passes[li].live) expire(li);
    }
  }

  // Accounting and detections, in level order: the same row-major level
  // order on cold and warm frames, which keeps the NMS input identical
  // between the cached and full paths.
  for (std::size_t li = 0; li < cache.levels.size(); ++li) {
    const LevelPass& p = passes[li];
    if (!p.live) continue;
    if (p.lost > 0) {
      metrics.windowsLost.add(p.lost);
      if (report != nullptr) report->windowsLost += p.lost;
    }
    stats.tilesRecomputed += p.dirtyTiles;
    stats.tilesReused += p.tiles - p.dirtyTiles;
    stats.cellsRecomputed += p.cells;
    stats.windowsRescored += p.rescored;
    stats.windowsReused += p.windows - p.rescored;
    metrics.tilesRecomputed.add(p.dirtyTiles);
    metrics.tilesReused.add(p.tiles - p.dirtyTiles);
    metrics.cellsRecomputed.add(p.cells);
    metrics.windowsRescored.add(p.rescored);
    metrics.windowsReused.add(p.windows - p.rescored);
    metrics.windowsScanned.add(p.rescored);
    metrics.gridCacheHits.add(p.rescored);
    emitLevelDetections(cache.levels[li], params_, threshold, detections);
  }

  cache.valid = true;
  if (report != nullptr) {
    report->faults = tn::globalFaultCounts() - faultsBefore;
  }
  return detections;
}

}  // namespace pcnn::core
