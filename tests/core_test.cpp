#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"
#include "core/detector.hpp"
#include "core/pipeline.hpp"
#include "extract/registry.hpp"
#include "napprox/napprox.hpp"
#include "vision/synth.hpp"

namespace pcnn::core {
namespace {

/// Toy flat-cell extractor whose single-bin "histogram" is the cell's mean
/// brightness -- small enough that detector behavior is obvious by hand.
class CellMeanExtractor : public extract::FeatureExtractor {
 public:
  CellMeanExtractor(int windowCellsX, int windowCellsY)
      : FeatureExtractor("cell-mean", extract::FeatureLayout::kFlatCell, 1,
                         windowCellsX, windowCellsY) {}

  hog::CellGrid cellGrid(const vision::Image& img) override {
    hog::CellGrid grid;
    grid.cellsX = img.width() / 8;
    grid.cellsY = img.height() / 8;
    grid.bins = 1;
    grid.data.reserve(static_cast<std::size_t>(grid.cellsX) * grid.cellsY);
    for (int cy = 0; cy < grid.cellsY; ++cy) {
      for (int cx = 0; cx < grid.cellsX; ++cx) {
        float sum = 0.0f;
        for (int y = 0; y < 8; ++y) {
          for (int x = 0; x < 8; ++x) {
            sum += img.at(cx * 8 + x, cy * 8 + y);
          }
        }
        grid.data.push_back(sum / 64.0f);
      }
    }
    return grid;
  }

  extract::ExtractorInfo info() const override { return {}; }
};

/// Toy flat-cell extractor emitting a constant grid of ones.
class ConstantExtractor : public extract::FeatureExtractor {
 public:
  ConstantExtractor(int windowCellsX, int windowCellsY)
      : FeatureExtractor("constant", extract::FeatureLayout::kFlatCell, 1,
                         windowCellsX, windowCellsY) {}

  hog::CellGrid cellGrid(const vision::Image& img) override {
    hog::CellGrid grid;
    grid.cellsX = img.width() / 8;
    grid.cellsY = img.height() / 8;
    grid.bins = 1;
    grid.data.assign(static_cast<std::size_t>(grid.cellsX) * grid.cellsY,
                     1.0f);
    return grid;
  }

  extract::ExtractorInfo info() const override { return {}; }
};

TEST(ResourceBudget, PaperNumbers) {
  const ResourceBudget budget;
  EXPECT_EQ(budget.cellsPerWindow(), 128);
  EXPECT_EQ(budget.parrotExtractorCores(), 1024);  // 8 cores x 128 cells
  EXPECT_EQ(budget.combinedCores(), 3888);         // 1024 + 2864
}

TEST(Assemblers, FlatCellWindowFromGridFlattens) {
  hog::CellGrid grid;
  grid.cellsX = 4;
  grid.cellsY = 4;
  grid.bins = 2;
  grid.data.resize(32);
  for (std::size_t i = 0; i < grid.data.size(); ++i) {
    grid.data[i] = static_cast<float>(i);
  }
  extract::ExtractorOptions options;
  options.layout = extract::FeatureLayout::kFlatCell;
  options.windowCellsX = 2;
  options.windowCellsY = 2;
  const auto extractor = extract::makeExtractor("napprox", options);
  const auto f = extractor->windowFromGrid(grid, 1, 1);
  ASSERT_EQ(f.size(), 8u);
  // First cell of the window is grid cell (1,1) = index (1*4+1)*2 = 10.
  EXPECT_FLOAT_EQ(f[0], 10.0f);
  EXPECT_FLOAT_EQ(f[1], 11.0f);
}

TEST(Assemblers, BlockNormWindowFromGridShape) {
  hog::CellGrid grid;
  grid.cellsX = 8;
  grid.cellsY = 16;
  grid.bins = 18;
  grid.data.assign(8 * 16 * 18, 1.0f);
  const auto extractor =
      extract::makeExtractor("napprox", extract::FeatureLayout::kBlockNorm);
  EXPECT_EQ(extractor->windowFromGrid(grid, 0, 0).size(),
            static_cast<std::size_t>(7560));
}

TEST(Assemblers, WindowFromBlocksMatchesWindowFromGrid) {
  // The precomputed-block path must be bitwise-identical to the per-window
  // path for every window position over the level grid.
  hog::CellGrid grid;
  grid.cellsX = 6;
  grid.cellsY = 9;
  grid.bins = 4;
  grid.data.resize(static_cast<std::size_t>(6) * 9 * 4);
  for (std::size_t i = 0; i < grid.data.size(); ++i) {
    grid.data[i] = static_cast<float>((i * 7) % 23) * 0.25f;
  }
  extract::ExtractorOptions options;
  options.layout = extract::FeatureLayout::kBlockNorm;
  options.windowCellsX = 3;
  options.windowCellsY = 4;
  const auto extractor = extract::makeExtractor("hog", options);
  const hog::BlockGrid blocks = extractor->prepareBlocks(grid);
  EXPECT_EQ(blocks.blocksX, 5);
  EXPECT_EQ(blocks.blocksY, 8);
  for (int cy = 0; cy + 4 <= grid.cellsY; ++cy) {
    for (int cx = 0; cx + 3 <= grid.cellsX; ++cx) {
      const auto fromGrid = extractor->windowFromGrid(grid, cx, cy);
      const auto fromBlocks = extractor->windowFromBlocks(blocks, cx, cy);
      ASSERT_EQ(fromGrid.size(), fromBlocks.size());
      for (std::size_t i = 0; i < fromGrid.size(); ++i) {
        ASSERT_EQ(fromGrid[i], fromBlocks[i]) << "cx=" << cx << " cy=" << cy
                                              << " i=" << i;
      }
    }
  }
}

TEST(GridDetector, NullCallablesRejected) {
  GridDetectorParams params;
  EXPECT_THROW(GridDetector(params, nullptr,
                            [](const std::vector<float>&) { return 0.0f; }),
               std::invalid_argument);
  EXPECT_THROW(GridDetector(params, std::make_shared<ConstantExtractor>(2, 2),
                            WindowScorer{}),
               std::invalid_argument);
}

TEST(GridDetector, FindsBrightWindowWithToyScorer) {
  // Toy setting: features are cell means; the scorer fires on bright cells.
  GridDetectorParams params;
  params.windowCellsX = 2;
  params.windowCellsY = 4;
  params.scoreThreshold = 0.5f;
  params.pyramid.maxLevels = 1;

  auto scorer = [](const std::vector<float>& f) {
    float sum = 0.0f;
    for (float v : f) sum += v;
    return sum / static_cast<float>(f.size());
  };

  vision::Image scene(64, 64, 0.1f);
  for (int y = 16; y < 48; ++y) {
    for (int x = 24; x < 40; ++x) scene.at(x, y) = 0.95f;
  }
  GridDetector detector(params, std::make_shared<CellMeanExtractor>(2, 4),
                        scorer);
  const auto detections = detector.detect(scene);
  ASSERT_FALSE(detections.empty());
  // The best detection must sit over the bright rectangle.
  const auto& best = detections.front();
  EXPECT_GE(best.box.x + best.box.w / 2, 24.0f);
  EXPECT_LE(best.box.x + best.box.w / 2, 40.0f);
}

TEST(GridDetector, RawDetectionsExceedNmsDetections) {
  GridDetectorParams params;
  params.windowCellsX = 2;
  params.windowCellsY = 2;
  params.scoreThreshold = -1e9f;
  params.nmsEpsilon = 0.6f;  // adjacent windows overlap by exactly 50%
  params.pyramid.maxLevels = 1;
  auto scorer = [](const std::vector<float>&) { return 1.0f; };
  GridDetector detector(params, std::make_shared<ConstantExtractor>(2, 2),
                        scorer);
  vision::Image scene(48, 48, 0.5f);
  EXPECT_GT(detector.detectRaw(scene).size(), detector.detect(scene).size());
}

TEST(GridDetector, ThresholdOverrideAtDetectTime) {
  // Every window scores 1.0; the construction-time threshold keeps them
  // all, and a call-time override above the score drops them all without
  // rebuilding the detector.
  GridDetectorParams params;
  params.windowCellsX = 2;
  params.windowCellsY = 2;
  params.scoreThreshold = 0.5f;
  params.pyramid.maxLevels = 1;
  auto scorer = [](const std::vector<float>&) { return 1.0f; };
  GridDetector detector(params, std::make_shared<ConstantExtractor>(2, 2),
                        scorer);
  vision::Image scene(48, 48, 0.5f);
  const auto atDefault = detector.detectRaw(scene);
  EXPECT_FALSE(atDefault.empty());
  core::DetectOptions same, above;
  same.scoreThreshold = 0.5f;
  above.scoreThreshold = 2.0f;
  EXPECT_EQ(detector.detectRaw(scene, same).size(), atDefault.size());
  EXPECT_TRUE(detector.detectRaw(scene, above).empty());
  EXPECT_TRUE(detector.detect(scene, above).empty());
  core::BatchOptions batchAbove;
  batchAbove.detect = above;
  EXPECT_TRUE(
      detector.detectBatch({scene}, batchAbove).frames[0].detections.empty());
  // The override is per call: the construction-time threshold still holds.
  EXPECT_EQ(detector.detectRaw(scene).size(), atDefault.size());
}

TEST(PartitionedPipeline, TrainsOnExtractedFeatures) {
  // NApprox features + small Eedn head learn to separate synthetic person
  // windows from negatives (a miniature of the Fig. 5 pipeline).
  eedn::EednClassifierConfig config;
  config.inputSize = 8 * 16 * 18;
  config.groupInputSize = 126;
  config.outputsPerGroup = 8;
  config.hiddenWidths = {};
  config.outputPopulation = 4;
  config.seed = 5;
  PartitionedPipeline pipeline(
      extract::makeExtractor("napprox", extract::FeatureLayout::kFlatCell),
      config);

  vision::SyntheticPersonDataset dataset;
  pcnn::Rng rng(7);
  std::vector<vision::Image> windows;
  std::vector<int> labels;
  for (int i = 0; i < 60; ++i) {
    windows.push_back(dataset.positiveWindow(rng));
    labels.push_back(1);
    windows.push_back(dataset.negativeWindow(rng));
    labels.push_back(-1);
  }
  pipeline.trainClassifier(windows, labels, 25, 0.05f);
  EXPECT_GT(pipeline.evalAccuracy(windows, labels), 0.8);
}

TEST(PartitionedPipeline, RejectsNulls) {
  eedn::EednClassifierConfig config;
  config.inputSize = 8;
  EXPECT_THROW(PartitionedPipeline(
                   std::shared_ptr<extract::FeatureExtractor>{}, config),
               std::invalid_argument);
}

TEST(Absorbed, ClassifierMeetsResourceBudget) {
  const ResourceBudget budget;
  auto absorbed = makeAbsorbedClassifier(budget);
  EXPECT_EQ(absorbed->config().inputSize, 64 * 128);
  // Iso-resource in our accounting: the absorbed network must be at least
  // as large as the partitioned pipeline's feature-stage estimate.
  EXPECT_GT(absorbed->coreCountEstimate(), 60);
}

TEST(Absorbed, RawPixelFeatures) {
  vision::Image window(64, 128, 0.25f);
  const auto f = rawPixelFeatures(window);
  EXPECT_EQ(f.size(), static_cast<std::size_t>(64 * 128));
  EXPECT_FLOAT_EQ(f[0], 0.25f);
}

// ------------------------------------------- DegradationReport merging

TEST(DegradationReport, MergeEmptyIntoEmptyStaysHealthy) {
  DegradationReport a;
  DegradationReport b;
  a.merge(b);
  EXPECT_FALSE(a.degraded());
  EXPECT_EQ(a.levelsSkipped, 0);
  EXPECT_EQ(a.windowsLost, 0);
  EXPECT_TRUE(a.skips.empty());
  EXPECT_EQ(a.summary(), "healthy");
}

TEST(DegradationReport, MergeConcatenatesSkipAndFaultAttribution) {
  DegradationReport a;
  a.addSkip(0, 100, Status::Unavailable("shed"));
  a.faults.droppedSpikes = 3;
  DegradationReport b;
  b.addSkip(2, 50, Status::DeadlineExceeded("late"));
  b.faults.droppedSpikes = 4;
  b.faults.weightFlips = 1;
  a.merge(b);
  EXPECT_EQ(a.levelsSkipped, 2);
  EXPECT_EQ(a.windowsLost, 150);
  ASSERT_EQ(a.skips.size(), 2u);
  EXPECT_EQ(a.skips[0].level, 0);
  EXPECT_EQ(a.skips[0].status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(a.skips[1].level, 2);
  EXPECT_EQ(a.skips[1].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(a.faults.droppedSpikes, 7);
  EXPECT_EQ(a.faults.weightFlips, 1);
  EXPECT_EQ(a.faults.total(), 8);
  EXPECT_NE(a.summary().find("2 levels skipped"), std::string::npos);
}

TEST(DegradationReport, MergeCapsStoredSkipsButKeepsTrueCounts) {
  DegradationReport a;
  DegradationReport b;
  for (int i = 0; i < 20; ++i) a.addSkip(i, 1, Status::Unavailable("a"));
  for (int i = 0; i < 20; ++i) b.addSkip(i, 1, Status::Unavailable("b"));
  a.merge(b);
  EXPECT_EQ(a.skips.size(), DegradationReport::kMaxSkips);
  EXPECT_EQ(a.levelsSkipped, 40);  // true count survives the cap
  EXPECT_EQ(a.windowsLost, 40);
}

TEST(DegradationReport, WindowsLostAccumulatesWithoutOverflow) {
  constexpr long kMax = std::numeric_limits<long>::max();
  DegradationReport a;
  a.windowsLost = kMax - 5;
  DegradationReport b;
  b.windowsLost = 10;
  a.merge(b);
  EXPECT_EQ(a.windowsLost, kMax);  // saturates, never wraps negative
  // addSkip saturates the running total the same way.
  DegradationReport c;
  c.addSkip(0, kMax - 1, Status::Unavailable("x"));
  c.addSkip(1, kMax - 1, Status::Unavailable("y"));
  EXPECT_EQ(c.windowsLost, kMax);
  EXPECT_EQ(c.levelsSkipped, 2);
}

TEST(DegradationReport, FaultTalliesSaturateIncludingTotal) {
  constexpr long kMax = std::numeric_limits<long>::max();
  DegradationReport a;
  a.faults.droppedSpikes = kMax - 2;
  DegradationReport b;
  b.faults.droppedSpikes = 100;
  b.faults.deadCoreDrops = 7;
  a.merge(b);
  EXPECT_EQ(a.faults.droppedSpikes, kMax);
  EXPECT_EQ(a.faults.deadCoreDrops, 7);
  // total() must not wrap either once the fields sit near the ceiling.
  EXPECT_EQ(a.faults.total(), kMax);
  EXPECT_TRUE(a.degraded());
  // summary() on a saturated report stays well-formed.
  EXPECT_NE(a.summary().find("fault events"), std::string::npos);
}

}  // namespace
}  // namespace pcnn::core
