#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/degradation.hpp"
#include "extract/extractor.hpp"
#include "obs/obs.hpp"
#include "hog/hog.hpp"
#include "vision/image.hpp"
#include "vision/nms.hpp"
#include "vision/pyramid.hpp"

namespace pcnn::core {

/// Scores a window feature vector; higher = more person-like.
using WindowScorer = std::function<float(const std::vector<float>&)>;

/// Cross-frame reuse knobs for GridDetector::detectBatch.
struct TemporalParams {
  /// Keep per-level cell/block/score grids alive across frames and only
  /// recompute the cells whose pixels changed. Off: every frame runs cold
  /// on a fresh level cache -- exactly what detect() runs per scene.
  bool enabled = true;
  /// EMA box smoothing across the burst (TemporalSmoother; only with
  /// `enabled`).
  bool smooth = true;
};

/// Multi-scale sliding-window detector over cell grids.
struct GridDetectorParams {
  int cellSize = 8;
  int windowCellsX = 8;   ///< 64-pixel-wide window
  int windowCellsY = 16;  ///< 128-pixel-tall window
  float scoreThreshold = 0.0f;  ///< keep windows scoring at least this
  float nmsEpsilon = 0.2f;      ///< the paper's NMS epsilon
  vision::PyramidParams pyramid;  ///< 1.1x scale steps by default
  TemporalParams temporal;  ///< detectBatch cross-frame reuse knobs
};

/// Per-call scan controls: an operating-point override for evaluation
/// sweeps, plus deliberate quality shedding and deadline abandonment --
/// the knobs serve::DetectionService turns under overload.
/// Default-constructed options change nothing: the scan uses the
/// detector's params and every pyramid level.
struct DetectOptions {
  /// Keep windows scoring at least this instead of params.scoreThreshold,
  /// so a sweep can vary the operating point without rebuilding the
  /// detector.
  std::optional<float> scoreThreshold;
  /// Skip the N finest (largest, most expensive) pyramid levels. Each
  /// skipped level is recorded in the DegradationReport as a LevelSkip
  /// with StatusCode::kUnavailable, so shed quality is attributed rather
  /// than silent. Small far-away targets are lost first; coarse levels
  /// (near, large targets) keep scanning.
  int skipFinestLevels = 0;
};

/// Per-burst controls for detectBatch.
struct BatchOptions {
  DetectOptions detect;  ///< applied to every frame of the burst
  /// Absolute per-frame deadlines on the obs::nowMicros() clock. Empty =
  /// no deadlines; 0 for a frame = no deadline for that frame. The
  /// deadline is checked before every pyramid level's cells and before
  /// every window row the scan scores outside the first level it scores:
  /// once it has passed, the level being checked and every remaining one
  /// are abandoned, each recorded as a LevelSkip with
  /// StatusCode::kDeadlineExceeded. Detections from levels that already
  /// completed are still returned.
  std::vector<double> deadlineUs;
};

/// What one frame cost, at cell, tile and window granularity. Tiles are
/// 4x4-cell squares of each pyramid level's cell grid; a tile is
/// recomputed when it holds a recomputed cell. A frame that could not
/// reuse anything (cold cache, temporal.enabled = false, a level
/// invalidated by an extraction failure) reports fullRecompute.
struct FrameStats {
  long tilesReused = 0;
  long tilesRecomputed = 0;
  /// Cells whose histograms were recomputed: every cell of a level
  /// computed in full; on a warm level the cells whose support -- their
  /// pixels plus the 1-px border the gradient reads -- holds a level pixel
  /// that changed bitwise. Context cells of the refresh crops not counted.
  long cellsRecomputed = 0;
  /// Windows scored: all of them on a cold level; on a warm one the
  /// windows whose cell footprint holds a cell whose histogram bits
  /// changed, plus windows retried after their scoring threw.
  long windowsRescored = 0;
  long windowsReused = 0;
  bool fullRecompute = false;
};

/// One frame's detections (after NMS and, when enabled, temporal
/// smoothing) plus its reuse accounting.
struct FrameResult {
  std::vector<vision::Detection> detections;
  FrameStats stats;
};

/// detectBatch output: per-frame results in frame order.
struct BatchDetectResult {
  std::vector<FrameResult> frames;
};

class GridDetector {
 public:
  /// Detector over a registry-constructed feature extractor. The window
  /// geometry (cellSize, windowCellsX/Y) is taken from the extractor,
  /// overriding the corresponding params fields. The extractor computes
  /// one grid per pyramid level on the calling thread (it may be
  /// stateful); block-norm extractors additionally precompute the level's
  /// normalized block grid once, and window features are then sliced from
  /// it concurrently.
  GridDetector(const GridDetectorParams& params,
               std::shared_ptr<extract::FeatureExtractor> extractor,
               WindowScorer scorer);
  ~GridDetector();  // out of line: the temporal cache is an opaque type

  /// Scans all pyramid levels with a one-cell stride, scores every window,
  /// keeps those at or above the threshold, and applies NMS. Boxes are in
  /// original scene coordinates. The scene runs as one cold frame of the
  /// detectBatch scan on a throwaway level cache, so detect() and
  /// detectBatch share one pipeline and one set of spans and counters.
  ///
  /// Window rows are scored on the global thread pool (PCNN_NUM_THREADS);
  /// the extractor's windowFromGrid / windowFromBlocks and the scorer are
  /// then called concurrently and must be re-entrant for concurrent reads
  /// -- true of FeatureExtractor, LinearSvm::decision and
  /// EednClassifier::score. Detections are emitted in row-major level
  /// order, so results are identical for any thread count.
  ///
  /// `options` may override the threshold or shed the finest levels (each
  /// recorded in `report` as a LevelSkip, kUnavailable). When `report` is
  /// non-null it is also filled with what the scan had to give up: a
  /// pyramid level whose grid the extractor cannot produce is skipped
  /// (emitting a "detect.level.degraded" span and counter) instead of
  /// aborting the scene, individual windows whose feature assembly or
  /// scoring throws are dropped, and simulator fault activity during the
  /// call is attributed.
  std::vector<vision::Detection> detect(
      const vision::Image& scene, const DetectOptions& options = {},
      DegradationReport* report = nullptr) const;

  /// detect() without NMS (for threshold sweeps in the evaluation).
  std::vector<vision::Detection> detectRaw(
      const vision::Image& scene, const DetectOptions& options = {},
      DegradationReport* report = nullptr) const;

  /// Produces the frames of a video burst lazily (frame index -> image),
  /// so a full-HD burst never has to be resident all at once.
  using FrameProvider = std::function<vision::Image(int)>;

  /// Runs a burst of same-sized frames through the same scan as detect().
  /// Every frame emits a "detect.frame" span (frame-index argument) with
  /// the "detect.level" spans nested under it, inside one enclosing
  /// "detect.batch" span.
  ///
  /// With params.temporal.enabled, per-level cell grids, block grids, and
  /// window scores persist across frames -- and across detectBatch calls,
  /// until resetTemporalCache() or a frame of different dimensions
  /// arrives. Only the cells whose support (their pixels plus a 1-px
  /// border) changed since the previous frame recompute their histograms,
  /// and only the blocks and windows over cells whose bits changed are
  /// re-normalized and rescored ("detect.cells_recomputed",
  /// "detect.tiles_reused" / "detect.tiles_recomputed" and
  /// "detect.windows_rescored" counters); whole-frame recompute remains
  /// the always-available fallback (a level whose incremental update
  /// fails is invalidated, degrades the frame, and is rebuilt from
  /// scratch on the next one). The
  /// reused scan is bitwise-identical to per-frame detect() for every
  /// backend, the spike-coded Parrot included (DESIGN.md Section 5g).
  ///
  /// With temporal.enabled = false every frame runs cold on a fresh level
  /// cache -- bitwise-identical to per-frame detect() at any thread count
  /// and for every backend, with no smoothing.
  ///
  /// `options.detect` applies to every frame; `options.deadlineUs` gives
  /// per-frame deadlines. When `reports` is non-null it receives one
  /// DegradationReport per frame (shed levels as kUnavailable,
  /// deadline-abandoned levels as kDeadlineExceeded, plus failures and
  /// fault attribution as in detect()). A level skipped on the temporal
  /// path is invalidated so it rebuilds from the live frame when the
  /// ladder re-enables it.
  BatchDetectResult detectBatch(
      const std::vector<vision::Image>& frames,
      const BatchOptions& options = {},
      std::vector<DegradationReport>* reports = nullptr);
  BatchDetectResult detectBatch(
      int numFrames, const FrameProvider& frames,
      const BatchOptions& options = {},
      std::vector<DegradationReport>* reports = nullptr);

  /// Drops the persistent per-level grids and smoother tracks; the next
  /// frame recomputes everything (use between unrelated bursts).
  void resetTemporalCache();

  const GridDetectorParams& params() const { return params_; }

  const std::shared_ptr<extract::FeatureExtractor>& extractor() const {
    return featureExtractor_;
  }

 private:
  struct TemporalCache;  // defined in detector_batch.cpp
  /// Out-of-line deleter so TUs other than detector_batch.cpp can destroy
  /// a GridDetector without seeing the cache's definition.
  struct TemporalCacheDeleter {
    void operator()(TemporalCache* cache) const;
  };

  /// Per-backend cell-grid latency histogram
  /// ("extract.<backend>.cell_grid_us"), resolved once at construction so
  /// the per-level hot path never touches the metrics registry lock.
  obs::LatencyHistogram& cellGridUs() const { return *cellGridUs_; }

  /// Both detectBatch overloads: scans frameAt(0 .. numFrames - 1) in
  /// order. A returned frame is only read, and must stay alive until the
  /// next frameAt call.
  BatchDetectResult runBatch(
      int numFrames,
      const std::function<const vision::Image&(int)>& frameAt,
      const BatchOptions& options, std::vector<DegradationReport>* reports);

  /// The one scan: brings `cache` up to date with `frame` -- reusing what
  /// it allows, recomputing the rest, fully on a cold cache -- in
  /// whole-frame stages (scene diff, pixel refresh, per-level cells and
  /// blocks, one scoring job over every level), and returns the pre-NMS
  /// detections scoring at least `threshold`. `deadlineUs` <= 0 means no
  /// deadline; past it, the scan overruns by at most one level's cell
  /// stage plus the first scored level's windows and one window row per
  /// pool thread (DESIGN.md Section 5g). `report` may be null.
  std::vector<vision::Detection> scanFrame(const vision::Image& frame,
                                           TemporalCache& cache,
                                           float threshold,
                                           const DetectOptions& options,
                                           double deadlineUs,
                                           FrameStats& stats,
                                           DegradationReport* report) const;

  GridDetectorParams params_;
  std::shared_ptr<extract::FeatureExtractor> featureExtractor_;
  WindowScorer scorer_;
  obs::LatencyHistogram* cellGridUs_;
  std::unique_ptr<TemporalCache, TemporalCacheDeleter> temporal_;
};

}  // namespace pcnn::core
