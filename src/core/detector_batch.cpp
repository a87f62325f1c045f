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

  /// The previous frame, for tile diffing; detectBatch moves each frame
  /// in after its scan.
  vision::Image scene;
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

/// Scores the level's windows that `selected(wx, wy)` picks into
/// lc.scores (parallel rows, each row a disjoint slice -- deterministic for
/// any thread count). A window whose feature assembly or scoring throws,
/// or whose score is NaN (which no threshold or NMS order can rank), gets
/// kLostScore and is tallied in `lost`; `scored` counts the picked
/// windows. A scorer's own -inf is stored as the lowest finite float, so
/// only a lost window leaves the sentinel that makes a warm frame retry
/// it.
void scoreWindows(const extract::FeatureExtractor& extractor,
                  const WindowScorer& scorer, bool blockPath, auto& lc,
                  const auto& selected, long& scored, long& lost) {
  std::vector<long> rowScored(static_cast<std::size_t>(lc.spanY), 0);
  std::vector<long> rowLost(static_cast<std::size_t>(lc.spanY), 0);
  parallelFor(0, lc.spanY, [&](long wy) {
    float* row = lc.scores.data() + static_cast<std::size_t>(wy) * lc.spanX;
    for (int wx = 0; wx < lc.spanX; ++wx) {
      if (!selected(wx, static_cast<int>(wy))) continue;
      ++rowScored[static_cast<std::size_t>(wy)];
      float score = std::numeric_limits<float>::quiet_NaN();
      try {
        const std::vector<float> features =
            blockPath ? extractor.windowFromBlocks(lc.blocks, wx,
                                                   static_cast<int>(wy))
                      : extractor.windowFromGrid(lc.grid, wx,
                                                 static_cast<int>(wy));
        score = scorer(features);
      } catch (const std::exception&) {
        // One window's feature assembly or scoring failing loses that
        // window only (its score stays NaN); the rest of the row keeps
        // scanning.
      }
      if (std::isnan(score)) {
        row[wx] = kLostScore;
        ++rowLost[static_cast<std::size_t>(wy)];
      } else {
        row[wx] = score == kLostScore ? std::numeric_limits<float>::lowest()
                                      : score;
      }
    }
  });
  for (long n : rowScored) scored += n;
  for (long n : rowLost) lost += n;
}

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

/// Diffs two same-sized frames at tile granularity. Whole rows are
/// compared first (one memcmp per row -- almost every row of a
/// mostly-static scene is untouched); only rows that differ get per-tile
/// segment checks. Returns the dirty bitmap (tilesY x tilesX, row-major).
std::vector<std::uint8_t> diffSceneTiles(const vision::Image& prev,
                                         const vision::Image& next,
                                         int tilePx, int tilesX, int tilesY) {
  std::vector<std::uint8_t> dirty(
      static_cast<std::size_t>(tilesX) * tilesY, 0);
  const int w = prev.width();
  const int h = prev.height();
  const float* a = prev.data().data();
  const float* b = next.data().data();
  for (int y = 0; y < h; ++y) {
    const float* ra = a + static_cast<std::size_t>(y) * w;
    const float* rb = b + static_cast<std::size_t>(y) * w;
    if (std::memcmp(ra, rb, sizeof(float) * static_cast<std::size_t>(w)) ==
        0) {
      continue;
    }
    std::uint8_t* tileRow =
        dirty.data() + static_cast<std::size_t>(y / tilePx) * tilesX;
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
  return detectBatch(static_cast<int>(frames.size()),
                     [&frames](int index) {
                       return frames[static_cast<std::size_t>(index)];
                     },
                     options, reports);
}

BatchDetectResult GridDetector::detectBatch(
    int numFrames, const FrameProvider& frames, const BatchOptions& options,
    std::vector<DegradationReport>* reports) {
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
    vision::Image frame = frames(f);
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
    if (temporalOn) cache.scene = std::move(frame);
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

  // Tile-granular scene diff (warm frames only).
  std::vector<PxRect> sceneDirty;
  if (!cold) {
    const int tilesX = ceilDiv(frame.width(), tilePx);
    const int tilesY = ceilDiv(frame.height(), tilePx);
    const std::vector<std::uint8_t> dirtyTiles =
        diffSceneTiles(cache.scene, frame, tilePx, tilesX, tilesY);
    sceneDirty = dirtyTileRuns(dirtyTiles, tilePx, tilesX, tilesY,
                               frame.width(), frame.height());
  }

  long levelIndex = -1;
  bool abandoned = false;  // the frame deadline passed mid-frame
  for (TemporalCache::Level& lc : cache.levels) {
    ++levelIndex;
    PCNN_SPAN_ARG("detect.level", "level", levelIndex);
    const int cellsX = lc.image.width() / cell;
    const int cellsY = lc.image.height() / cell;
    const int tilesAcross = ceilDiv(cellsX, kTileCells);
    const int tilesDown = ceilDiv(cellsY, kTileCells);
    const long levelTiles = static_cast<long>(tilesAcross) * tilesDown;
    lc.spanX = cellsX - params_.windowCellsX + 1;
    lc.spanY = cellsY - params_.windowCellsY + 1;
    if (lc.spanX <= 0 || lc.spanY <= 0) continue;
    const long levelWindows =
        static_cast<long>(lc.spanX) * static_cast<long>(lc.spanY);

    // Deliberate shedding (the serving ladder's coarser-pyramid rung: the
    // finest levels are the most expensive and go first) and deadline
    // abandonment (once the hook fires, every remaining level is given up;
    // detections from completed levels survive). Both are attributed so
    // the caller sees exactly what quality was traded away. A skipped
    // level's cached grid goes stale against the live stream, so it is
    // invalidated and rebuilds from the current frame when the ladder
    // re-enables it.
    if (levelIndex < options.skipFinestLevels) {
      metrics.levelsShed.add();
      lc.valid = false;
      if (report != nullptr) {
        report->addSkip(static_cast<int>(levelIndex), levelWindows,
                        Status::Unavailable("detect: level shed by caller"));
      }
      continue;
    }
    if (!abandoned && deadlineUs > 0.0 && obs::nowMicros() > deadlineUs) {
      abandoned = true;
    }
    if (abandoned) {
      metrics.levelsExpired.add();
      lc.valid = false;
      if (report != nullptr) {
        report->addSkip(static_cast<int>(levelIndex), levelWindows,
                        Status::DeadlineExceeded(
                            "detect: level abandoned past deadline"));
      }
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
      metrics.windowsLost.add(levelWindows);
      lc.valid = false;
      if (report != nullptr) {
        report->addSkip(static_cast<int>(levelIndex), levelWindows,
                        std::move(status));
      }
    };

    // Bring the level's cells and blocks up to date. On a full compute
    // every tile is recomputed and every window scored; on an incremental
    // update `changed` flags the cells whose histogram bits changed.
    const bool fullCompute = !lc.valid;
    long dirtyTileCount = levelTiles;
    long levelCells = fullCompute ? static_cast<long>(cellsX) * cellsY : 0;
    std::vector<std::uint8_t> changed;
    if (fullCompute) {
      // Full compute: cold cache, or the level was invalidated by a
      // failed incremental update or a shed/abandoned scan. On a warm
      // cache the level's pixels are stale (the incremental splice only
      // runs for valid levels), so refresh the whole level from the live
      // frame first -- resizeBilinearInto over the full rect reproduces
      // buildPyramid's resize bit for bit. The grid is extracted once per
      // level on the calling thread (extractors may be stateful); block-norm
      // extractors also normalize every block exactly once here, and every
      // window then slices them.
      if (!cold) {
        PCNN_SPAN_ARG("detect.resize", "level", levelIndex);
        metrics.resizePx.add(static_cast<long>(lc.image.data().size()));
        if (levelIndex == 0) {
          std::memcpy(&lc.image.at(0, 0), frame.data().data(),
                      sizeof(float) *
                          static_cast<std::size_t>(frame.width()) *
                          static_cast<std::size_t>(frame.height()));
        } else {
          vision::resizeBilinearInto(frame, lc.image, 0, 0,
                                     lc.image.width(), lc.image.height());
        }
      }
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
      lc.scores.assign(static_cast<std::size_t>(levelWindows), kLostScore);
      lc.valid = true;
    } else {
      // Incremental: refresh the level's pixels under the dirty scene
      // rects, comparing each refreshed pixel with the cached one, and
      // recompute exactly the cells whose support holds a changed pixel.
      std::vector<std::uint8_t> dirtyCells(
          static_cast<std::size_t>(cellsX) * cellsY, 0);
      if (!sceneDirty.empty()) {
        PCNN_SPAN_ARG("detect.resize", "level", levelIndex);
        long refreshedPx = 0;
        std::vector<float> cached;  // a rect's pixels before the refresh
        for (const PxRect& sceneRect : sceneDirty) {
          PxRect r;
          if (levelIndex == 0) {
            // Level 0 is a verbatim copy of the scene: diff and splice the
            // rows.
            r = sceneRect;
            const float* src = frame.data().data();
            for (int y = r.y0; y < r.y1; ++y) {
              float* dst = &lc.image.at(r.x0, y);
              const float* row =
                  src + static_cast<std::size_t>(y) * frame.width() + r.x0;
              if (flagChangedSupport(dst, row, y, r.x0, r.x1, cell, cellsX,
                                     cellsY, dirtyCells)) {
                std::memcpy(dst, row,
                            sizeof(float) *
                                static_cast<std::size_t>(r.x1 - r.x0));
              }
            }
          } else {
            r = mapRectToLevel(sceneRect, frame, lc.image);
            if (r.x0 >= r.x1 || r.y0 >= r.y1) continue;
            const std::size_t rw = static_cast<std::size_t>(r.x1 - r.x0);
            cached.resize(rw * static_cast<std::size_t>(r.y1 - r.y0));
            for (int y = r.y0; y < r.y1; ++y) {
              std::memcpy(cached.data() + (y - r.y0) * rw,
                          &lc.image.at(r.x0, y), sizeof(float) * rw);
            }
            vision::resizeBilinearInto(frame, lc.image, r.x0, r.y0, r.x1,
                                       r.y1);
            for (int y = r.y0; y < r.y1; ++y) {
              flagChangedSupport(cached.data() + (y - r.y0) * rw,
                                 &lc.image.at(r.x0, y), y, r.x0, r.x1, cell,
                                 cellsX, cellsY, dirtyCells);
            }
          }
          refreshedPx += static_cast<long>(r.x1 - r.x0) * (r.y1 - r.y0);
        }
        metrics.resizePx.add(refreshedPx);
      }

      const std::vector<extract::CellRect> cellRects =
          dirtyCellRects(dirtyCells, cellsX, cellsY);
      dirtyTileCount = tilesHolding(cellRects, tilesAcross, tilesDown);
      if (!cellRects.empty()) {
        {
          PCNN_SPAN("detect.cellGrid");
          obs::ScopedTimer timer(cellGridUs());
          StatusOr<long> updated = featureExtractor_->tryUpdateCellGrid(
              lc.image, cellRects, lc.grid, changed);
          if (!updated.ok()) {
            skipLevel(updated.status());
            continue;
          }
          levelCells = updated.value();
        }
        if (blockPath) {
          PCNN_SPAN("detect.blockGrid");
          try {
            featureExtractor_->updateBlocks(lc.grid, changed, lc.blocks);
          } catch (const std::exception& e) {
            skipLevel(
                Status::Internal(std::string("updateBlocks: ") + e.what()));
            continue;
          }
        }
      }
    }

    // Score every window whose cached score may differ from a rescore: all
    // of them on a full compute. On an incremental update a window is
    // rescored iff its cell footprint holds a changed cell -- answered in
    // O(1) by a 2-D prefix sum over the changed-cell mask -- or its cached
    // score is the lost sentinel, so a window lost on an earlier frame is
    // retried (and recovers or is counted lost again) on the next one.
    long rescored = 0;
    long lost = 0;
    if (fullCompute) {
      PCNN_SPAN_ARG("detect.scan", "windows", levelWindows);
      scoreWindows(*featureExtractor_, scorer_, blockPath, lc,
                   [](int, int) { return true; }, rescored, lost);
    } else {
      const std::size_t stride = static_cast<std::size_t>(cellsX) + 1;
      std::vector<int> prefix;
      if (std::find(changed.begin(), changed.end(), 1) != changed.end()) {
        prefix.assign(stride * (static_cast<std::size_t>(cellsY) + 1), 0);
        for (int cy = 0; cy < cellsY; ++cy) {
          const std::uint8_t* flags =
              changed.data() + static_cast<std::size_t>(cy) * cellsX;
          for (int cx = 0; cx < cellsX; ++cx) {
            prefix[(cy + 1) * stride + cx + 1] =
                prefix[cy * stride + cx + 1] + prefix[(cy + 1) * stride + cx] -
                prefix[cy * stride + cx] + flags[cx];
          }
        }
      }
      const bool anyLost = std::find(lc.scores.begin(), lc.scores.end(),
                                     kLostScore) != lc.scores.end();
      if (!prefix.empty() || anyLost) {
        PCNN_SPAN_ARG("detect.scan", "windows", levelWindows);
        const int wcx = params_.windowCellsX;
        const int wcy = params_.windowCellsY;
        auto stale = [&](int wx, int wy) {
          if (lc.scores[static_cast<std::size_t>(wy) * lc.spanX + wx] ==
              kLostScore) {
            return true;
          }
          return !prefix.empty() &&
                 prefix[(wy + wcy) * stride + wx + wcx] -
                         prefix[wy * stride + wx + wcx] -
                         prefix[(wy + wcy) * stride + wx] +
                         prefix[wy * stride + wx] >
                     0;
        };
        scoreWindows(*featureExtractor_, scorer_, blockPath, lc, stale,
                     rescored, lost);
      }
    }
    if (lost > 0) {
      metrics.windowsLost.add(lost);
      if (report != nullptr) report->windowsLost += lost;
    }
    stats.tilesRecomputed += dirtyTileCount;
    stats.tilesReused += levelTiles - dirtyTileCount;
    stats.cellsRecomputed += levelCells;
    stats.windowsRescored += rescored;
    stats.windowsReused += levelWindows - rescored;
    metrics.tilesRecomputed.add(dirtyTileCount);
    metrics.tilesReused.add(levelTiles - dirtyTileCount);
    metrics.cellsRecomputed.add(levelCells);
    metrics.windowsRescored.add(rescored);
    metrics.windowsReused.add(levelWindows - rescored);
    metrics.windowsScanned.add(rescored);
    metrics.gridCacheHits.add(rescored);
    emitLevelDetections(lc, params_, threshold, detections);
  }

  cache.valid = true;
  if (report != nullptr) {
    report->faults = tn::globalFaultCounts() - faultsBefore;
  }
  return detections;
}

}  // namespace pcnn::core
