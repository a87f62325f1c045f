// Conformance suite for the polymorphic extractor layer: every registered
// backend, in both feature layouts, must honour the FeatureExtractor
// contract -- featureDim() is truthful, the cached-grid slicing path is
// bitwise-identical to standalone extraction, and batchFeatures matches
// the sequential loop at any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "extract/backends.hpp"
#include "extract/extractor.hpp"
#include "extract/registry.hpp"
#include "parrot/parrot.hpp"
#include "vision/synth.hpp"

namespace pcnn::extract {
namespace {

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : saved_(threadCount()) {
    setThreadCount(n);
  }
  ~ThreadCountGuard() { setThreadCount(saved_); }

 private:
  int saved_;
};

vision::Image texturedImage(int width, int height, std::uint64_t seed) {
  Rng rng(seed);
  return vision::valueNoise(width, height, 16, 0.5f, 0.4f, rng);
}

std::vector<vision::Image> texturedWindows(int count, std::uint64_t seed) {
  std::vector<vision::Image> windows;
  windows.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    windows.push_back(
        texturedImage(64, 128, seed + static_cast<std::uint64_t>(i)));
  }
  return windows;
}

/// Every backend's extraction is a pure function of the image -- the
/// spike-coded parrot included -- so every path (standalone, cached-grid,
/// batch at any thread count) must agree bitwise.
const std::vector<std::string>& conformanceSpecs() {
  static const std::vector<std::string> specs = {
      "hog", "fixedpoint", "napprox", "napprox:64spike", "parrot",
      "parrot:4spike"};
  return specs;
}

const std::vector<FeatureLayout>& bothLayouts() {
  static const std::vector<FeatureLayout> layouts = {FeatureLayout::kFlatCell,
                                                     FeatureLayout::kBlockNorm};
  return layouts;
}

std::string caseName(const std::string& spec, FeatureLayout layout) {
  return spec + "/" + layoutName(layout);
}

/// The paper's per-window feature counts for a 64x128 window: 7*15 blocks
/// of 2x2 cells (3780 features at 9 bins, and the 7560 the paper quotes at
/// 18), or 8*16 flat cells (1152 and 2304).
int paperFeatureDim(const std::string& spec, FeatureLayout layout) {
  const bool nineBins = spec == "hog" || spec == "fixedpoint";
  if (layout == FeatureLayout::kBlockNorm) return nineBins ? 3780 : 7560;
  return nineBins ? 1152 : 2304;
}

TEST(ExtractorConformance, FeatureDimMatchesActualVectorLength) {
  // A window larger than the detection window yields the features of its
  // top-left detection window, so its length is featureDim() too.
  const std::vector<vision::Image> windows = {texturedImage(64, 128, 11),
                                              texturedImage(128, 256, 12)};
  for (const auto& spec : conformanceSpecs()) {
    for (FeatureLayout layout : bothLayouts()) {
      auto ex = makeExtractor(spec, layout);
      SCOPED_TRACE(caseName(spec, layout));
      EXPECT_EQ(ex->featureDim(), paperFeatureDim(spec, layout));
      for (const auto& window : windows) {
        const auto features = ex->windowFeatures(window);
        EXPECT_EQ(static_cast<int>(features.size()), ex->featureDim())
            << window.width() << "x" << window.height() << " window";
      }
      const int cells = ex->windowCellsX() * ex->windowCellsY();
      if (layout == FeatureLayout::kFlatCell) {
        EXPECT_EQ(ex->featureDim(), cells * ex->bins());
      } else {
        EXPECT_EQ(ex->featureDim(), (ex->windowCellsX() - 1) *
                                        (ex->windowCellsY() - 1) * 4 *
                                        ex->bins());
      }
    }
  }
}

TEST(ExtractorConformance, WindowFeaturesMatchesGridPathBitwise) {
  const std::vector<vision::Image> windows = {texturedImage(64, 128, 23),
                                              texturedImage(128, 256, 24)};
  for (const auto& spec : conformanceSpecs()) {
    for (FeatureLayout layout : bothLayouts()) {
      auto ex = makeExtractor(spec, layout);
      SCOPED_TRACE(caseName(spec, layout));
      for (const auto& window : windows) {
        const auto direct = ex->windowFeatures(window);
        const auto viaGrid = ex->windowFromGrid(ex->cellGrid(window), 0, 0);
        EXPECT_EQ(direct, viaGrid)
            << window.width() << "x" << window.height() << " window";
      }
    }
  }
}

TEST(ExtractorConformance, WindowOutsideGridThrows) {
  const vision::Image window = texturedImage(64, 128, 29);
  for (const auto& spec : conformanceSpecs()) {
    for (FeatureLayout layout : bothLayouts()) {
      auto ex = makeExtractor(spec, layout);
      SCOPED_TRACE(caseName(spec, layout));
      const hog::CellGrid grid = ex->cellGrid(window);
      for (const auto& [cx0, cy0] :
           {std::pair{1, 0}, std::pair{0, 1}, std::pair{-1, 0}}) {
        EXPECT_THROW(ex->windowFromGrid(grid, cx0, cy0),
                     std::invalid_argument)
            << "origin (" << cx0 << ", " << cy0 << ")";
        if (layout == FeatureLayout::kBlockNorm) {
          EXPECT_THROW(ex->windowFromBlocks(ex->prepareBlocks(grid), cx0, cy0),
                       std::invalid_argument)
              << "origin (" << cx0 << ", " << cy0 << ")";
        }
      }
    }
  }
}

TEST(ExtractorConformance, GridSlicingMatchesStandaloneSubgrid) {
  // A window sliced out of a big image's grid at cell offset (cx0, cy0)
  // must match assembling the corresponding sub-grid standalone: slicing
  // is pure indexing, independent of where the window sits in the level.
  const vision::Image scene = texturedImage(160, 224, 37);
  for (const auto& spec : conformanceSpecs()) {
    for (FeatureLayout layout : bothLayouts()) {
      auto ex = makeExtractor(spec, layout);
      SCOPED_TRACE(caseName(spec, layout));
      const hog::CellGrid grid = ex->cellGrid(scene);
      const int wx = ex->windowCellsX();
      const int wy = ex->windowCellsY();
      for (const auto& [cx0, cy0] : {std::pair{0, 0}, std::pair{3, 2},
                                    std::pair{grid.cellsX - wx,
                                              grid.cellsY - wy}}) {
        hog::CellGrid sub;
        sub.cellsX = wx;
        sub.cellsY = wy;
        sub.bins = grid.bins;
        sub.data.reserve(static_cast<std::size_t>(wx) * wy * grid.bins);
        for (int cy = 0; cy < wy; ++cy) {
          for (int cx = 0; cx < wx; ++cx) {
            const auto* cell = grid.cell(cx0 + cx, cy0 + cy);
            sub.data.insert(sub.data.end(), cell, cell + grid.bins);
          }
        }
        EXPECT_EQ(ex->windowFromGrid(grid, cx0, cy0),
                  ex->windowFromGrid(sub, 0, 0))
            << "offset (" << cx0 << ", " << cy0 << ")";
      }
    }
  }
}

TEST(ExtractorConformance, BatchMatchesSequentialLoopAtAnyThreadCount) {
  const auto windows = texturedWindows(6, 41);
  for (const auto& spec : conformanceSpecs()) {
    for (FeatureLayout layout : bothLayouts()) {
      SCOPED_TRACE(caseName(spec, layout));
      std::vector<std::vector<float>> sequential;
      {
        auto ex = makeExtractor(spec, layout);
        for (const auto& window : windows) {
          sequential.push_back(ex->windowFeatures(window));
        }
      }
      for (int threads : {1, 4}) {
        ThreadCountGuard guard(threads);
        auto ex = makeExtractor(spec, layout);
        EXPECT_EQ(ex->batchFeatures(windows), sequential)
            << threads << " threads";
      }
    }
  }
}

/// The block formula restated: a block's four cells in row-major order, a
/// double sum of squares, eps^2 = 1e-3f * 1e-3f added in float, one float
/// reciprocal of the square root, then one multiply per value.
std::vector<float> referenceBlocks(const hog::CellGrid& grid, int cx0,
                                   int cy0, int blocksX, int blocksY) {
  std::vector<float> out;
  for (int by = 0; by < blocksY; ++by) {
    for (int bx = 0; bx < blocksX; ++bx) {
      std::vector<float> block;
      for (int cy = 0; cy < 2; ++cy) {
        for (int cx = 0; cx < 2; ++cx) {
          const float* cell = grid.cell(cx0 + bx + cx, cy0 + by + cy);
          block.insert(block.end(), cell, cell + grid.bins);
        }
      }
      double sumSq = 0.0;
      for (float v : block) sumSq += static_cast<double>(v) * v;
      const float eps = 1e-3f;
      const float invNorm =
          1.0f / static_cast<float>(std::sqrt(sumSq + eps * eps));
      for (float v : block) out.push_back(v * invNorm);
    }
  }
  return out;
}

std::vector<std::uint32_t> bitsOf(const std::vector<float>& values) {
  std::vector<std::uint32_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), sizeof(float) * values.size());
  return bits;
}

TEST(BlockStage, MatchesReferenceFormulaBitwise) {
  vision::SyntheticPersonDataset synth;
  Rng rng(19);
  const vision::Image window = synth.positiveWindow(rng);
  for (const std::string spec : {"hog", "napprox"}) {
    SCOPED_TRACE(spec);
    auto ex = makeExtractor(spec, FeatureLayout::kBlockNorm);
    const hog::CellGrid grid = ex->cellGrid(window);
    const int blocksX = grid.cellsX - 1;
    const int blocksY = grid.cellsY - 1;
    const auto reference = referenceBlocks(grid, 0, 0, blocksX, blocksY);
    const hog::BlockGrid blocks = ex->prepareBlocks(grid);
    EXPECT_EQ(blocks.blocksX, blocksX);
    EXPECT_EQ(blocks.blocksY, blocksY);
    EXPECT_EQ(bitsOf(blocks.data), bitsOf(reference));
    EXPECT_EQ(bitsOf(ex->windowFromGrid(grid, 0, 0)), bitsOf(reference));
  }
}

// The k-spike input code is unbiased: on a large constant image the mean
// coded value stays within a binomial bound of the pixel value.
TEST(ParrotSpikeCoding, MeanRateMatchesPixelValue) {
  const float v = 0.3f;
  const vision::Image flat(128, 96, v);
  for (int spikes : {1, 4, 32}) {
    SCOPED_TRACE(spikes);
    const vision::Image coded = parrot::codeSpikes(flat, spikes, 77);
    double sum = 0.0;
    for (float c : coded.data()) {
      // Every coded pixel is a whole number of spikes over the window.
      EXPECT_EQ(c * static_cast<float>(spikes),
                std::round(c * static_cast<float>(spikes)));
      sum += c;
    }
    const double draws =
        static_cast<double>(coded.data().size()) * spikes;
    const double mean = sum / static_cast<double>(coded.data().size());
    EXPECT_NEAR(mean, v, 5.0 * std::sqrt(v * (1.0 - v) / draws));
  }
}

// Each pixel's code is keyed on its level position, so a crop codes to
// exactly the pixels of the full image it covers, at any thread count.
TEST(ParrotSpikeCoding, CropCodesLikeTheFullImage) {
  const vision::Image scene = texturedImage(96, 80, 5);
  for (int spikes : {1, 4, 32}) {
    SCOPED_TRACE(spikes);
    const vision::Image full = parrot::codeSpikes(scene, spikes, 77);
    const vision::Image crop = scene.crop(24, 16, 40, 48).crop(3, 5, 30, 30);
    for (int threads : {1, 4}) {
      ThreadCountGuard guard(threads);
      const vision::Image coded = parrot::codeSpikes(crop, spikes, 77);
      bool same = true;
      for (int y = 0; y < coded.height(); ++y) {
        for (int x = 0; x < coded.width(); ++x) {
          same = same && coded.at(x, y) == full.at(27 + x, 21 + y);
        }
      }
      EXPECT_TRUE(same) << threads << " threads";
    }
  }
}

TEST(ExtractorRegistry, SpecVariantsConstructAndReportMetadata) {
  auto parrot4 = makeExtractor("parrot:4spike");
  EXPECT_EQ(parrot4->info().spikeWindow, 4);
  EXPECT_EQ(parrot4->info().coding, CodingScheme::kStochasticStream);

  auto napprox64 = makeExtractor("napprox:64spike");
  EXPECT_EQ(napprox64->info().spikeWindow, 64);
  EXPECT_EQ(napprox64->info().coding, CodingScheme::kRateAccumulate);

  auto fixed = makeExtractor("fixedpoint");
  EXPECT_TRUE(fixed->info().fpgaBaseline);
}

TEST(ExtractorRegistry, KnowsExactlyTheFourBackends) {
  const auto names = ExtractorRegistry::instance().names();
  EXPECT_EQ(names, (std::vector<std::string>{"fixedpoint", "hog", "napprox",
                                             "parrot"}));
}

TEST(ExtractorRegistry, RejectsUnknownSpecs) {
  EXPECT_THROW(makeExtractor("resnet"), std::invalid_argument);
  EXPECT_THROW(makeExtractor("hog:weird"), std::invalid_argument);
  EXPECT_THROW(makeExtractor("parrot:spike"), std::invalid_argument);
}

TEST(ExtractorRegistry, OverlongSpikeCountsAreRejectedNotWrapped) {
  auto& registry = ExtractorRegistry::instance();
  // 4294967328 = 2^32 + 32 and 4294967360 = 2^32 + 64: wrapped into an
  // int they would read as valid 32- and 64-spike deployments.
  for (const std::string spec :
       {"parrot:4294967328spike", "napprox:4294967360spike",
        "parrot:99999999999spike", "napprox:000000000000000000128spike"}) {
    SCOPED_TRACE(spec);
    const auto made = registry.tryCreate(spec);
    ASSERT_FALSE(made.ok());
    EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);
    // The message quotes the spec as given, never a wrapped count.
    EXPECT_NE(made.status().message().find(spec), std::string::npos);
    EXPECT_EQ(made.status().message().find("1215752191"), std::string::npos);
  }
  // Leading zeros are still just digits.
  const auto padded = registry.tryCreate("parrot:0032spike");
  ASSERT_TRUE(padded.ok()) << padded.status().toString();
  EXPECT_EQ(padded.value()->info().spikeWindow, 32);
}

TEST(ExtractorPower, Table2RowsComeFromRegistryMetadata) {
  const auto rows = table2FromRegistry();
  ASSERT_EQ(rows.size(), table2Specs().size());
  // Row 0 is the FPGA baseline at its measured 8.6 W system power.
  EXPECT_NEAR(rows[0].watts, 8.6, 1e-6);
  // Software-only extractors report no hardware deployment.
  EXPECT_FALSE(makeExtractor("hog")->powerEstimate().has_value());
  EXPECT_FALSE(makeExtractor("napprox")->powerEstimate().has_value());
  EXPECT_TRUE(makeExtractor("parrot:32spike")->powerEstimate().has_value());
}

TEST(ExtractorPower, ResourceBudgetDerivesFromInfo) {
  const auto budget =
      core::makeResourceBudget(makeExtractor("parrot:4spike")->info());
  EXPECT_EQ(budget.parrotCoresPerCell, 8);  // the paper's per-cell count
  EXPECT_EQ(budget.parrotExtractorCores(), 1024);
  EXPECT_EQ(budget.combinedCores(), 3888);
}

}  // namespace
}  // namespace pcnn::extract
