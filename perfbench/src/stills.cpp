// stills-640: closed loop, one caller. GridDetector::detect() with the hog
// backend over a fixed seeded set of distinct 640x480 synthetic scenes, full
// pyramid and NMS. A pass is whole rounds, each one walk over every scene.
// Lane a is one scene; lane b is the scan's window rate over the same timed
// scenes (every scene has the same size, so it is lane a's scene rate times
// a constant). A traced pass also replays each scene's stages through the
// public calls (buildPyramid, computeGradients, hogCellRowsBatched,
// cellGrid, prepareBlocks, windowFromBlocks + scorer,
// nonMaximumSuppression) to build the stage ledger, and fails the pass when
// the ledger does not close within kLedgerTolerancePct.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "extract/backends.hpp"
#include "harness.hpp"
#include "hog/cell_kernels.hpp"
#include "hog/gradient.hpp"
#include "vision/pyramid.hpp"
#include "vision/synth.hpp"

namespace perfbench {
namespace {

using namespace pcnn;

constexpr int kWidth = 640;
constexpr int kHeight = 480;
constexpr int kScenes = 24;
/// Leaves NMS a few hundred candidates per scene under linearScorer.
constexpr float kThreshold = 5.5f;
/// The replayed stages must sum to the plain detect() time within this
/// share of it (README.md, "Ledger closure").
constexpr double kLedgerTolerancePct = 15.0;

struct StageMs {
  double pyramid = 0, cellGrid = 0, gradient = 0, cellRows = 0, blocks = 0,
         scan = 0, nms = 0;
  long candidates = 0;
  double closed() const { return pyramid + cellGrid + blocks + scan + nms; }
};

class Stills final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    vision::SyntheticPersonDataset synth;
    Rng rng(seed);
    scenes_.clear();
    for (int i = 0; i < kScenes; ++i) {
      scenes_.push_back(synth.scene(rng, kWidth, kHeight, 3, 96, 320).image);
    }
    inner_ = loadTimed(packBundle("hog", extract::FeatureLayout::kBlockNorm));
    hogParams_ =
        dynamic_cast<const extract::HogBackend&>(*inner_).model().params();
    extractor_ = std::make_shared<TimedExtractor>(inner_);
    rawScorer_ = linearScorer(inner_->featureDim());
    core::GridDetectorParams params;
    params.scoreThreshold = kThreshold;
    detector_ = std::make_unique<core::GridDetector>(
        params, extractor_, scorer_.wrap(rawScorer_));
  }

  std::string inputDigest() const override {
    Digest d;
    for (const vision::Image& scene : scenes_) d.image(scene);
    return d.hex();
  }

  void warmup() override {
    // The first detection of each scene is the reference every later pass
    // (any thread count) must reproduce bit for bit.
    reference_.clear();
    for (const vision::Image& scene : scenes_) {
      reference_.push_back(detector_->detect(scene));
    }
    windowsPerScene_ = 0;
    const int cellSize = inner_->cellSize();
    for (const vision::PyramidLevel& level :
         vision::buildPyramid(scenes_[0], pyramidParams())) {
      const long spanX =
          level.image.width() / cellSize - inner_->windowCellsX() + 1;
      const long spanY =
          level.image.height() / cellSize - inner_->windowCellsY() + 1;
      if (spanX > 0 && spanY > 0) windowsPerScene_ += spanX * spanY;
    }
  }

  PassResult run(double seconds, bool traced) override {
    PassResult r;
    Tally t;
    Samples roundPerS;
    const Samples& lane = traced ? t.armedMs : t.plainMs;
    double timed = 0;
    // Whole rounds over the same scenes in the same order, so every pass
    // and every run of a seed measures the same content mix.
    while (timed < seconds * 1000.0) {
      const std::size_t first = lane.size();
      for (std::size_t s = 0; s < scenes_.size(); ++s) {
        ++r.attempted;
        if (!detectScene(s, traced, t)) ++r.failed;
      }
      Samples round;
      for (std::size_t i = first; i < lane.size(); ++i) round.add(lane.at(i));
      roundPerS.add(1000.0 * static_cast<double>(round.size()) / round.sum());
      r.laneARounds.push_back(std::move(round));
      timed = t.plainMs.sum() + t.armedMs.sum() + t.replayMs;
    }
    r.laneAMs = lane;
    // The p95 over the 24 scenes' best times: the heaviest scenes.
    r.tailQuantile = 0.95;
    // The best round's scene rate, like the per-scene best times a figure
    // that host noise slowing some rounds does not move.
    r.laneAPerS = roundPerS.max();
    r.laneBPerS = r.laneAPerS * static_cast<double>(windowsPerScene_);
    r.indexPerS = r.laneAPerS;
    if (traced) {
      const double n = static_cast<double>(t.armedMs.size());
      const double armedSum = t.armedMs.sum();
      const double plainSum = t.plainMs.sum();
      const double extractPct = 100.0 * t.extractMs / armedSum;
      const double scorerPct =
          100.0 * t.scorerCpuMs / (threadCount() * armedSum);
      const StageMs& stages = t.stages;
      r.layer["extract.cell_grid_pct"] = extractPct;
      r.layer["scorer.pct"] = scorerPct;
      r.layer["core.self_pct"] = 100.0 - extractPct - scorerPct;
      r.layer["extract.cells_computed"] = static_cast<double>(t.cells) / n;
      r.layer["scorer.calls"] = static_cast<double>(t.scorerCalls) / n;
      r.layer["vision.pyramid_pct"] = 100.0 * stages.pyramid / plainSum;
      r.layer["hog.gradient_pct"] = 100.0 * stages.gradient / plainSum;
      r.layer["hog.cell_rows_pct"] = 100.0 * stages.cellRows / plainSum;
      r.layer["extract.block_pct"] = 100.0 * stages.blocks / plainSum;
      r.layer["scan.window_pct"] = 100.0 * stages.scan / plainSum;
      r.layer["vision.nms_pct"] = 100.0 * stages.nms / plainSum;
      r.layer["vision.nms_candidates"] =
          static_cast<double>(stages.candidates) / n;
      const double gapPct =
          100.0 * std::fabs(stages.closed() - plainSum) / plainSum;
      r.layer["ledger.gap_pct"] = gapPct;
      r.layer["ledger.op_ms"] = t.plainMs.mean();
      ++r.attempted;
      if (gapPct > kLedgerTolerancePct) {
        std::fprintf(stderr,
                     "stills-640: stage ledger gap %.1f%% exceeds %.0f%%\n",
                     gapPct, kLedgerTolerancePct);
        ++r.failed;
      }
    }
    return r;
  }

 private:
  /// What a pass accumulates over its scenes.
  struct Tally {
    Samples plainMs, armedMs;
    double replayMs = 0, extractMs = 0, scorerCpuMs = 0;
    long cells = 0, scorerCalls = 0;
    StageMs stages;
  };

  /// Detects scene s (twice more, hooked and replayed, when traced) and
  /// checks every result against the reference.
  bool detectScene(std::size_t s, bool traced, Tally& t) {
    const vision::Image& scene = scenes_[s];
    try {
      const auto t0 = Clock::now();
      std::vector<vision::Detection> dets = detector_->detect(scene);
      t.plainMs.add(msBetween(t0, Clock::now()));
      bool ok = sameDetections(dets, reference_[s]);
      if (!traced) return ok;
      extractor_->reset();
      scorer_.reset();
      extractor_->arm(true);
      scorer_.arm(true);
      const auto t1 = Clock::now();
      dets = detector_->detect(scene);
      t.armedMs.add(msBetween(t1, Clock::now()));
      extractor_->arm(false);
      scorer_.arm(false);
      t.extractMs += extractor_->ms();
      t.scorerCpuMs += scorer_.cpuMs();
      t.cells += extractor_->cells();
      t.scorerCalls += scorer_.calls();
      ok = ok && sameDetections(dets, reference_[s]);
      const auto t2 = Clock::now();
      ok = ok && sameDetections(replay(scene, t.stages), reference_[s]);
      t.replayMs += msBetween(t2, Clock::now());
      return ok;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "stills-640: scene %zu threw: %s\n", s, e.what());
      return false;
    }
  }

  vision::PyramidParams pyramidParams() const {
    vision::PyramidParams pp = detector_->params().pyramid;
    pp.minWidth = inner_->windowCellsX() * inner_->cellSize();
    pp.minHeight = inner_->windowCellsY() * inner_->cellSize();
    return pp;
  }

  /// detect() rebuilt stage by stage from public calls, each stage timed
  /// on its own. Returns the detections so the replay checks itself.
  std::vector<vision::Detection> replay(const vision::Image& scene,
                                        StageMs& ms) {
    auto t = Clock::now();
    auto lap = [&t]() {
      const auto now = Clock::now();
      const double elapsed = msBetween(t, now);
      t = now;
      return elapsed;
    };
    const std::vector<vision::PyramidLevel> levels =
        vision::buildPyramid(scene, pyramidParams());
    ms.pyramid += lap();
    std::vector<vision::Detection> candidates;
    const int cellSize = inner_->cellSize();
    const int windowX = inner_->windowCellsX();
    const int windowY = inner_->windowCellsY();
    for (const vision::PyramidLevel& level : levels) {
      // The hog layer's two kernels, timed apart; the cell grid below
      // recomputes the same cells through the extractor.
      const hog::GradientField field = hog::computeGradients(level.image);
      ms.gradient += lap();
      hog::CellGrid rows;
      rows.cellsX = level.image.width() / cellSize;
      rows.cellsY = level.image.height() / cellSize;
      rows.bins = inner_->bins();
      rows.data.assign(static_cast<std::size_t>(rows.cellsX) * rows.cellsY *
                           rows.bins,
                       0.0f);
      parallelForChunked(0, rows.cellsY, suggestedGrain(rows.cellsY),
                         [&](long lo, long hi) {
                           hog::kernels::hogCellRowsBatched(
                               field, hogParams_, rows, static_cast<int>(lo),
                               static_cast<int>(hi));
                         });
      ms.cellRows += lap();

      const hog::CellGrid grid = inner_->cellGrid(level.image);
      ms.cellGrid += lap();
      const hog::BlockGrid blocks = inner_->prepareBlocks(grid);
      ms.blocks += lap();
      const int maxCy = grid.cellsY - windowY;
      const int maxCx = grid.cellsX - windowX;
      if (maxCy < 0 || maxCx < 0) continue;
      std::vector<std::vector<vision::Detection>> found(
          static_cast<std::size_t>(maxCy) + 1);
      parallelFor(0, maxCy + 1, [&](long cy) {
        for (int cx = 0; cx <= maxCx; ++cx) {
          const float score = rawScorer_(
              inner_->windowFromBlocks(blocks, cx, static_cast<int>(cy)));
          if (score < kThreshold) continue;
          vision::Detection det;
          det.score = score;
          det.box.x = static_cast<float>(cx * cellSize) * level.scale;
          det.box.y = static_cast<float>(static_cast<int>(cy) * cellSize) *
                      level.scale;
          det.box.w = static_cast<float>(windowX * cellSize) * level.scale;
          det.box.h = static_cast<float>(windowY * cellSize) * level.scale;
          found[static_cast<std::size_t>(cy)].push_back(det);
        }
      });
      for (const auto& row : found) {
        candidates.insert(candidates.end(), row.begin(), row.end());
      }
      ms.scan += lap();
    }
    ms.candidates += static_cast<long>(candidates.size());
    std::vector<vision::Detection> kept = vision::nonMaximumSuppression(
        std::move(candidates), detector_->params().nmsEpsilon);
    ms.nms += lap();
    return kept;
  }

  std::vector<vision::Image> scenes_;
  std::vector<std::vector<vision::Detection>> reference_;
  std::shared_ptr<extract::FeatureExtractor> inner_;
  std::shared_ptr<TimedExtractor> extractor_;
  core::WindowScorer rawScorer_;
  ScorerClock scorer_;
  std::unique_ptr<core::GridDetector> detector_;
  hog::HogParams hogParams_;
  long windowsPerScene_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeStills() { return std::make_unique<Stills>(); }

}  // namespace perfbench
