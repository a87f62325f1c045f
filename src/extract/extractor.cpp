#include "extract/extractor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/parallel.hpp"

namespace pcnn::extract {

namespace {

// The block stage's one layout (the paper's Fig. 4 configurations): blocks
// of 2x2 cells at a one-cell stride, each L2-normalized as
// v / sqrt(||v||^2 + eps^2). With stride 1 every window origin lines up
// with a block of the level-wide block grid.
constexpr int kBlockCells = 2;
constexpr float kBlockEpsilon = 1e-3f;

/// Copies the block whose top-left cell is (cellX, cellY) to dst and
/// L2-normalizes it in place -- the single implementation behind every
/// block path, which is what makes windowFromGrid, windowFromBlocks and
/// updateBlocks bitwise-identical.
void assembleBlock(const hog::CellGrid& grid, int cellX, int cellY,
                   float* dst) {
  const int blockLen = kBlockCells * kBlockCells * grid.bins;
  float* block = dst;
  for (int cy = 0; cy < kBlockCells; ++cy) {
    for (int cx = 0; cx < kBlockCells; ++cx) {
      const float* hist = grid.cell(cellX + cx, cellY + cy);
      std::memcpy(dst, hist, sizeof(float) * grid.bins);
      dst += grid.bins;
    }
  }
  double sumSq = 0.0;
  for (int i = 0; i < blockLen; ++i) {
    sumSq += static_cast<double>(block[i]) * block[i];
  }
  // One divide + blockLen multiplies; detection assembles thousands of
  // overlapping blocks per frame, and per-element division was a
  // measurable share of the cached-grid scan.
  const float invNorm =
      1.0f / static_cast<float>(
                 std::sqrt(sumSq + kBlockEpsilon * kBlockEpsilon));
  for (int i = 0; i < blockLen; ++i) block[i] *= invNorm;
}

/// Geometry of the level-wide block grid over `grid` (data unallocated);
/// 0 x 0 blocks when the grid is narrower or shorter than one block.
hog::BlockGrid blockGridShape(const hog::CellGrid& grid) {
  hog::BlockGrid blocks;
  const int blocksX = grid.cellsX - kBlockCells + 1;
  const int blocksY = grid.cellsY - kBlockCells + 1;
  if (blocksX > 0 && blocksY > 0) {
    blocks.blocksX = blocksX;
    blocks.blocksY = blocksY;
  }
  blocks.blockLen = kBlockCells * kBlockCells * grid.bins;
  return blocks;
}

/// Cells in a cell rectangle.
long cellArea(const CellRect& r) {
  return static_cast<long>(r.cx1 - r.cx0) * (r.cy1 - r.cy0);
}

/// One refresh crop of tryUpdateCellGrid: its cell box (the targets plus
/// one cell of context, clipped to the grid) and the target rects it
/// splices back.
struct CellCrop {
  CellRect box;
  std::vector<CellRect> targets;
};

/// Merges crops pairwise: two crops become their bounding crop whenever
/// that costs no more cells than the two apart, so a level whose dirty
/// cells cover almost everything ends as one whole-level crop while
/// far-apart edits keep crops of their own. Only crops that overlap or
/// share an edge can pass the test -- a gap between them adds cells that
/// neither pays for -- so each pass sweeps the crops top to bottom and
/// compares a crop only with the crops still open across its top row.
/// A merged crop may grow upward past a crop the sweep already closed,
/// so passes repeat until one merges nothing; on edits that come as
/// blobs the second pass is the last.
void mergeCrops(std::vector<CellCrop>& crops) {
  auto bounding = [](const CellRect& a, const CellRect& b) {
    return CellRect{std::min(a.cx0, b.cx0), std::min(a.cy0, b.cy0),
                    std::max(a.cx1, b.cx1), std::max(a.cy1, b.cy1)};
  };
  for (bool mergedAny = crops.size() > 1; mergedAny;) {
    mergedAny = false;
    std::sort(crops.begin(), crops.end(),
              [](const CellCrop& a, const CellCrop& b) {
                return a.box.cy0 != b.box.cy0 ? a.box.cy0 < b.box.cy0
                                              : a.box.cx0 < b.box.cx0;
              });
    std::vector<CellCrop> closed;
    std::vector<CellCrop> open;
    auto take = [&open](std::size_t k) {
      CellCrop crop = std::move(open[k]);
      open[k] = std::move(open.back());
      open.pop_back();
      return crop;
    };
    for (CellCrop& crop : crops) {
      // Later crops start no higher than this one, so a crop ending above
      // its top row can touch none of them.
      for (std::size_t k = 0; k < open.size();) {
        if (open[k].box.cy1 < crop.box.cy0) {
          closed.push_back(take(k));
        } else {
          ++k;
        }
      }
      for (std::size_t k = 0; k < open.size();) {
        const CellRect both = bounding(open[k].box, crop.box);
        if (cellArea(both) > cellArea(open[k].box) + cellArea(crop.box)) {
          ++k;
          continue;
        }
        CellCrop other = take(k);
        crop.box = both;
        crop.targets.insert(crop.targets.end(), other.targets.begin(),
                            other.targets.end());
        mergedAny = true;
        k = 0;  // the grown crop may now absorb an open crop it passed
      }
      open.push_back(std::move(crop));
    }
    for (CellCrop& crop : open) closed.push_back(std::move(crop));
    crops = std::move(closed);
  }
}

}  // namespace

const char* layoutName(FeatureLayout layout) {
  switch (layout) {
    case FeatureLayout::kFlatCell:
      return "flat-cell";
    case FeatureLayout::kBlockNorm:
      return "block-norm";
  }
  return "?";
}

FeatureExtractor::FeatureExtractor(std::string name, FeatureLayout layout,
                                   int bins, int windowCellsX,
                                   int windowCellsY, int cellSize)
    : name_(std::move(name)),
      layout_(layout),
      bins_(bins),
      cellSize_(cellSize),
      windowCellsX_(windowCellsX),
      windowCellsY_(windowCellsY) {
  if (bins_ <= 0 || cellSize_ <= 0 || windowCellsX_ <= 0 ||
      windowCellsY_ <= 0) {
    throw std::invalid_argument("FeatureExtractor: invalid geometry");
  }
  batchUs_ = &obs::histogram("extract." + name_ + ".batch_us");
}

int FeatureExtractor::featureDim() const {
  switch (layout_) {
    case FeatureLayout::kFlatCell:
      return windowCellsX_ * windowCellsY_ * bins_;
    case FeatureLayout::kBlockNorm:
      return (windowCellsX_ - kBlockCells + 1) *
             (windowCellsY_ - kBlockCells + 1) * kBlockCells * kBlockCells *
             bins_;
  }
  return 0;
}

std::vector<float> FeatureExtractor::windowFromGrid(const hog::CellGrid& grid,
                                                    int cx0, int cy0) const {
  std::vector<float> features;
  windowFromGrid(grid, cx0, cy0, features);
  return features;
}

void FeatureExtractor::windowFromGrid(const hog::CellGrid& grid, int cx0,
                                      int cy0,
                                      std::vector<float>& features) const {
  if (cx0 < 0 || cy0 < 0 || cx0 + windowCellsX_ > grid.cellsX ||
      cy0 + windowCellsY_ > grid.cellsY) {
    throw std::invalid_argument("windowFromGrid: window exceeds grid");
  }
  if (layout_ == FeatureLayout::kBlockNorm) {
    const int blocksX = windowCellsX_ - kBlockCells + 1;
    const int blocksY = windowCellsY_ - kBlockCells + 1;
    if (blocksX <= 0 || blocksY <= 0) {
      features.clear();
      return;
    }
    const int blockLen = kBlockCells * kBlockCells * grid.bins;
    features.resize(static_cast<std::size_t>(blocksX) * blocksY * blockLen);
    float* dst = features.data();
    for (int by = 0; by < blocksY; ++by) {
      for (int bx = 0; bx < blocksX; ++bx) {
        assembleBlock(grid, cx0 + bx, cy0 + by, dst);
        dst += blockLen;
      }
    }
    return;
  }
  const std::size_t rowLen = static_cast<std::size_t>(grid.bins);
  features.resize(static_cast<std::size_t>(windowCellsX_) * windowCellsY_ *
                  rowLen);
  float* dst = features.data();
  for (int cy = 0; cy < windowCellsY_; ++cy) {
    for (int cx = 0; cx < windowCellsX_; ++cx) {
      std::memcpy(dst, grid.cell(cx0 + cx, cy0 + cy), sizeof(float) * rowLen);
      dst += rowLen;
    }
  }
}

hog::BlockGrid FeatureExtractor::prepareBlocks(
    const hog::CellGrid& grid) const {
  if (layout_ != FeatureLayout::kBlockNorm) return {};
  hog::BlockGrid blocks = blockGridShape(grid);
  if (blocks.blocksX == 0) return blocks;
  blocks.data.resize(static_cast<std::size_t>(blocks.blocksX) *
                     blocks.blocksY * blocks.blockLen);
  static obs::Counter& blocksNormalized = obs::counter("blocks_normalized");
  blocksNormalized.add(static_cast<long>(blocks.blocksX) * blocks.blocksY);
  // Block rows write disjoint output rows; assembleBlock only reads the
  // grid, so chunk boundaries cannot change any value.
  parallelForChunked(
      0, blocks.blocksY, suggestedGrain(blocks.blocksY),
      [&](long lo, long hi) {
        for (long by = lo; by < hi; ++by) {
          float* dst = blocks.block(0, static_cast<int>(by));
          for (int bx = 0; bx < blocks.blocksX; ++bx) {
            assembleBlock(grid, bx, static_cast<int>(by), dst);
            dst += blocks.blockLen;
          }
        }
      });
  return blocks;
}

std::vector<float> FeatureExtractor::windowFromBlocks(
    const hog::BlockGrid& blocks, int cx0, int cy0) const {
  std::vector<float> features;
  windowFromBlocks(blocks, cx0, cy0, features);
  return features;
}

void FeatureExtractor::windowFromBlocks(const hog::BlockGrid& blocks, int cx0,
                                        int cy0,
                                        std::vector<float>& features) const {
  if (layout_ != FeatureLayout::kBlockNorm) {
    throw std::logic_error(
        "windowFromBlocks: only block-norm extractors have a block grid");
  }
  const int wbx = windowCellsX_ - kBlockCells + 1;
  const int wby = windowCellsY_ - kBlockCells + 1;
  if (wbx <= 0 || wby <= 0) {
    features.clear();
    return;
  }
  if (cx0 < 0 || cy0 < 0 || cx0 + wbx > blocks.blocksX ||
      cy0 + wby > blocks.blocksY) {
    throw std::invalid_argument("windowFromBlocks: window exceeds block grid");
  }
  // With stride 1 the window's blocks are wby contiguous runs of wbx
  // blocks in the level-wide grid: a straight row-wise copy.
  const std::size_t rowLen = static_cast<std::size_t>(wbx) * blocks.blockLen;
  features.resize(rowLen * wby);
  float* dst = features.data();
  for (int by = 0; by < wby; ++by) {
    std::memcpy(dst, blocks.block(cx0, cy0 + by), sizeof(float) * rowLen);
    dst += rowLen;
  }
}

std::vector<float> FeatureExtractor::windowFeatures(
    const vision::Image& window) {
  return windowFromGrid(cellGrid(window), 0, 0);
}

namespace {

/// Maps an escaping exception to the closest StatusCode; backends signal
/// caller errors with std::invalid_argument / std::out_of_range and
/// anything else (including simulator faults) lands in kInternal.
Status statusFromException(const std::string& where) {
  try {
    throw;  // rethrow the in-flight exception
  } catch (const std::invalid_argument& e) {
    return Status::InvalidArgument(where + ": " + e.what());
  } catch (const std::out_of_range& e) {
    return Status::OutOfRange(where + ": " + e.what());
  } catch (const std::exception& e) {
    return Status::Internal(where + ": " + e.what());
  } catch (...) {
    return Status::Internal(where + ": unknown exception");
  }
}

obs::Counter& extractFailures() {
  static obs::Counter& failures = obs::counter("extract.failures");
  return failures;
}

}  // namespace

StatusOr<hog::CellGrid> FeatureExtractor::tryCellGrid(
    const vision::Image& image) {
  if (image.empty()) {
    extractFailures().add();
    return Status::InvalidArgument("tryCellGrid(" + name_ + "): empty image");
  }
  if (image.width() < cellSize_ || image.height() < cellSize_) {
    extractFailures().add();
    return Status::InvalidArgument(
        "tryCellGrid(" + name_ + "): image " + std::to_string(image.width()) +
        "x" + std::to_string(image.height()) + " smaller than one " +
        std::to_string(cellSize_) + "px cell");
  }
  try {
    return cellGrid(image);
  } catch (...) {
    extractFailures().add();
    return statusFromException("tryCellGrid(" + name_ + ")");
  }
}

StatusOr<std::vector<float>> FeatureExtractor::tryWindowFeatures(
    const vision::Image& window) {
  if (window.width() < windowCellsX_ * cellSize_ ||
      window.height() < windowCellsY_ * cellSize_) {
    extractFailures().add();
    return Status::InvalidArgument(
        "tryWindowFeatures(" + name_ + "): window " +
        std::to_string(window.width()) + "x" +
        std::to_string(window.height()) + " smaller than the " +
        std::to_string(windowCellsX_ * cellSize_) + "x" +
        std::to_string(windowCellsY_ * cellSize_) + " detection window");
  }
  try {
    return windowFeatures(window);
  } catch (...) {
    extractFailures().add();
    return statusFromException("tryWindowFeatures(" + name_ + ")");
  }
}

StatusOr<long> FeatureExtractor::tryUpdateCellGrid(
    const vision::Image& image, const std::vector<CellRect>& dirty,
    hog::CellGrid& grid, std::vector<std::uint8_t>& changed) {
  if (image.empty()) {
    extractFailures().add();
    return Status::InvalidArgument("tryUpdateCellGrid(" + name_ +
                                   "): empty image");
  }
  const int cellsX = image.width() / cellSize_;
  const int cellsY = image.height() / cellSize_;
  if (grid.cellsX != cellsX || grid.cellsY != cellsY ||
      grid.bins != bins_ ||
      grid.data.size() != static_cast<std::size_t>(cellsX) * cellsY * bins_) {
    extractFailures().add();
    return Status::InvalidArgument(
        "tryUpdateCellGrid(" + name_ + "): grid " +
        std::to_string(grid.cellsX) + "x" + std::to_string(grid.cellsY) +
        " does not match image " + std::to_string(image.width()) + "x" +
        std::to_string(image.height()));
  }
  changed.assign(static_cast<std::size_t>(cellsX) * cellsY, 0);
  // Target cells are recomputed from a crop with one cell of context on
  // every side: the gradient stencil reads one pixel beyond the cell, so
  // target cells sitting one full cell inside the crop (or on the image
  // border, where clamping behaves alike) see exactly the pixels the
  // full-image computation would.
  auto withContext = [&](const CellRect& r) {
    return CellRect{std::max(0, r.cx0 - 1), std::max(0, r.cy0 - 1),
                    std::min(cellsX, r.cx1 + 1), std::min(cellsY, r.cy1 + 1)};
  };
  std::vector<CellCrop> crops;
  for (const CellRect& rect : dirty) {
    const CellRect t{std::max(0, rect.cx0), std::max(0, rect.cy0),
                     std::min(cellsX, rect.cx1), std::min(cellsY, rect.cy1)};
    if (t.cx0 >= t.cx1 || t.cy0 >= t.cy1) continue;
    crops.push_back({withContext(t), {t}});
  }
  mergeCrops(crops);
  long recomputed = 0;
  for (const CellCrop& cellCrop : crops) {
    const CellRect& crop = cellCrop.box;
    const int px0 = crop.cx0 * cellSize_;
    const int py0 = crop.cy0 * cellSize_;
    // Extending the crop to the image border when it reaches the last
    // cell column/row keeps border clamping identical to the full image
    // (partial leftover pixels < cellSize, so the crop's own cell count is
    // unchanged).
    const int px1 = crop.cx1 == cellsX ? image.width() : crop.cx1 * cellSize_;
    const int py1 = crop.cy1 == cellsY ? image.height() : crop.cy1 * cellSize_;
    try {
      const vision::Image region =
          image.crop(px0, py0, px1 - px0, py1 - py0);
      const hog::CellGrid sub = cellGrid(region);
      if (sub.cellsX != crop.cx1 - crop.cx0 ||
          sub.cellsY != crop.cy1 - crop.cy0 || sub.bins != bins_) {
        extractFailures().add();
        return Status::Internal("tryUpdateCellGrid(" + name_ +
                                "): backend produced a mismatched sub-grid");
      }
      // Splice only the cells whose bits differ, flagging each one.
      const std::size_t cellBytes =
          sizeof(float) * static_cast<std::size_t>(bins_);
      for (const CellRect& t : cellCrop.targets) {
        for (int cy = t.cy0; cy < t.cy1; ++cy) {
          float* dst = grid.cell(t.cx0, cy);
          const float* src = sub.cell(t.cx0 - crop.cx0, cy - crop.cy0);
          std::uint8_t* flags =
              changed.data() + static_cast<std::size_t>(cy) * cellsX;
          for (int cx = t.cx0; cx < t.cx1; ++cx, dst += bins_, src += bins_) {
            if (std::memcmp(dst, src, cellBytes) == 0) continue;
            std::memcpy(dst, src, cellBytes);
            flags[cx] = 1;
          }
        }
        recomputed += cellArea(t);
      }
    } catch (...) {
      extractFailures().add();
      return statusFromException("tryUpdateCellGrid(" + name_ + ")");
    }
  }
  return recomputed;
}

long FeatureExtractor::updateBlocks(
    const hog::CellGrid& grid, const std::vector<std::uint8_t>& changedCells,
    hog::BlockGrid& blocks) const {
  if (layout_ != FeatureLayout::kBlockNorm) return 0;
  const int cellsX = grid.cellsX;
  const hog::BlockGrid shape = blockGridShape(grid);
  if (changedCells.size() != static_cast<std::size_t>(cellsX) * grid.cellsY ||
      blocks.blocksX != shape.blocksX || blocks.blocksY != shape.blocksY ||
      blocks.blockLen != shape.blockLen ||
      blocks.data.size() != static_cast<std::size_t>(shape.blocksX) *
                                shape.blocksY * shape.blockLen) {
    throw std::invalid_argument(
        "updateBlocks: changed-cell mask or block grid does not match the "
        "cell grid");
  }
  // The 2x2 block at (bx, by) reads cells bx..bx+1 x by..by+1; every
  // block reading a changed cell is re-normalized.
  long refreshed = 0;
  for (int by = 0; by < blocks.blocksY; ++by) {
    const std::uint8_t* top =
        changedCells.data() + static_cast<std::size_t>(by) * cellsX;
    const std::uint8_t* bottom = top + cellsX;
    auto stale = [&](int bx) {
      return (top[bx] | top[bx + 1] | bottom[bx] | bottom[bx + 1]) != 0;
    };
    for (int bx = 0; bx < blocks.blocksX; ++bx) {
      if (!stale(bx)) continue;
      assembleBlock(grid, bx, by, blocks.block(bx, by));
      ++refreshed;
    }
  }
  return refreshed;
}

std::vector<std::vector<float>> FeatureExtractor::batchFeatures(
    const std::vector<vision::Image>& windows) {
  const obs::Span span("extract.batch", "windows",
                       static_cast<long>(windows.size()));
  const obs::ScopedTimer timer(*batchUs_);
  static obs::Counter& extracted = obs::counter("extract.windows");
  extracted.add(static_cast<long>(windows.size()));
  std::vector<std::vector<float>> out(windows.size());
  parallelFor(0, static_cast<long>(windows.size()), [&](long i) {
    out[static_cast<std::size_t>(i)] =
        windowFeatures(windows[static_cast<std::size_t>(i)]);
  });
  return out;
}

namespace {

constexpr char kStateMagic[5] = "PXST";
constexpr std::uint32_t kStateVersion = 1;

std::uint8_t layoutCode(FeatureLayout layout) {
  return layout == FeatureLayout::kBlockNorm ? 1 : 0;
}

}  // namespace

Status FeatureExtractor::trySaveState(std::ostream& out) {
  io::Writer w(out);
  w.header(kStateMagic, kStateVersion);
  {
    std::ostringstream payload;
    io::Writer pw(payload);
    pw.str(name_);
    pw.u8(layoutCode(layout_));
    pw.u32(static_cast<std::uint32_t>(bins_));
    pw.u32(static_cast<std::uint32_t>(cellSize_));
    pw.u32(static_cast<std::uint32_t>(windowCellsX_));
    pw.u32(static_cast<std::uint32_t>(windowCellsY_));
    if (!pw.status().ok()) return pw.status();
    w.chunk("META", payload.str());
  }
  if (Status status = saveStateBody(w); !status.ok()) return status;
  return w.status();
}

Status FeatureExtractor::tryLoadState(std::istream& in) {
  io::Reader r(in);
  if (!r.header(kStateMagic, kStateVersion).ok()) return r.status();

  io::Reader::Chunk chunk;
  bool end = false;
  for (;;) {
    if (!r.nextChunk(chunk, end).ok()) return r.status();
    if (end) return Status::DataLoss("loadState: missing META chunk");
    if (chunk.tag == "META") break;  // unknown chunks skipped
  }
  {
    std::istringstream payload(chunk.payload);
    io::Reader pr(payload);
    std::string name;
    std::uint8_t layout = 0;
    std::uint32_t bins = 0, cellSize = 0, cellsX = 0, cellsY = 0;
    pr.str(name);
    pr.u8(layout);
    pr.u32(bins);
    pr.u32(cellSize);
    pr.u32(cellsX);
    if (!pr.u32(cellsY).ok()) return pr.status();
    if (name != name_) {
      return Status::FailedPrecondition("loadState: state for extractor \"" +
                                        name + "\" does not match \"" +
                                        name_ + "\"");
    }
    if (layout != layoutCode(layout_) ||
        bins != static_cast<std::uint32_t>(bins_) ||
        cellSize != static_cast<std::uint32_t>(cellSize_) ||
        cellsX != static_cast<std::uint32_t>(windowCellsX_) ||
        cellsY != static_cast<std::uint32_t>(windowCellsY_)) {
      return Status::FailedPrecondition(
          "loadState: geometry mismatch for extractor \"" + name_ + "\"");
    }
  }

  std::vector<io::Reader::Chunk> body;
  for (;;) {
    if (!r.nextChunk(chunk, end).ok()) return r.status();
    if (end) break;
    body.push_back(std::move(chunk));
  }
  return loadStateBody(body);
}

Status FeatureExtractor::saveStateBody(io::Writer&) { return Status::Ok(); }

Status FeatureExtractor::loadStateBody(
    const std::vector<io::Reader::Chunk>&) {
  return Status::Ok();
}

float FeatureExtractor::pretrain(int, int, float) { return 0.0f; }

void FeatureExtractor::setInputSpikes(int) {}

std::optional<power::PowerEstimate> FeatureExtractor::powerEstimate(
    const power::FullHdWorkload& workload) const {
  const ExtractorInfo meta = info();
  const power::TrueNorthPowerModel model;
  switch (meta.coding) {
    case CodingScheme::kRateAccumulate:
      return model.napprox(workload, meta.spikeWindow,
                           meta.paperCoresPerCell);
    case CodingScheme::kStochasticStream:
      return model.parrot(workload, meta.spikeWindow, meta.paperCoresPerCell);
    case CodingScheme::kNone:
      break;
  }
  if (meta.fpgaBaseline) {
    const power::FpgaPowerModel fpga;
    power::PowerEstimate estimate;
    estimate.approach = "High-precision HoG on FPGA";
    estimate.signalResolution = std::to_string(fpga.bits) + "-bit";
    estimate.watts = fpga.systemWatts;  // system; logic-only is 1.12 W
    return estimate;
  }
  return std::nullopt;
}

}  // namespace pcnn::extract
