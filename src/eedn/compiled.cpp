#include "eedn/compiled.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/parallel.hpp"
#include "common/target_clones.hpp"
#include "eedn/partitioned.hpp"
#include "eedn/trinary.hpp"

namespace pcnn::eedn {
namespace {

/// Eight float lanes as a GCC vector: the v3 clone keeps each in one ymm
/// register, the baseline clone in two xmm registers. A plain float array
/// accumulator is scalarised instead, so the tile is spelled in vectors.
using Vec = float __attribute__((vector_size(32)));
constexpr int kLanes = 8;
constexpr int kTileVecs = 8;
constexpr int kTileColumns = kLanes * kTileVecs;

/// Column block a wide batch is cut into: the widest stage plane of a
/// block (504 rows for the parrot net) stays within a core's L2 cache.
constexpr long kBlockColumns = 256;

/// Least work (nonzero terms x columns) one pool chunk carries. A pool job
/// costs tens of microseconds to dispatch, about what this much work takes
/// on one core, so a stage splits only into chunks at least this big and
/// a smaller one runs inline.
constexpr long kMinChunkWork = 1L << 18;

/// One output row over one column tile: `terms` nonzero weights (input
/// rows of `in`, whose row stride is `stride`, and their +-1 signs), and
/// where the tile's results go.
struct RowTile {
  const float* in;
  long stride;
  const int* inputs;
  const float* signs;
  int terms;
  float bias;
  bool threshold;
  float* out;
};

/// Computes a RowTile of kVecs * kLanes columns: the accumulators start at
/// the bias, add sign * x for each term in order, and are stored once
/// (thresholded to {0, 1} when a SpikingThreshold follows).
template <int kVecs>
[[gnu::always_inline]] inline void accumulate(const RowTile& tile) {
  // Lanes are set by brace-init: Vec{} + bias would turn a -0 bias
  // into +0.
  const float bias = tile.bias;
  Vec acc[kVecs];
  for (int v = 0; v < kVecs; ++v) {
    acc[v] = Vec{bias, bias, bias, bias, bias, bias, bias, bias};
  }
  for (int t = 0; t < tile.terms; ++t) {
    const float* src =
        tile.in + static_cast<long>(tile.inputs[t]) * tile.stride;
    const float w = tile.signs[t];
    const Vec sign = {w, w, w, w, w, w, w, w};
    for (int v = 0; v < kVecs; ++v) {
      Vec x;
      std::memcpy(&x, src + v * kLanes, sizeof x);
      acc[v] += sign * x;
    }
  }
  if (tile.threshold) {
    const Vec one = {1, 1, 1, 1, 1, 1, 1, 1};
    for (int v = 0; v < kVecs; ++v) {
      acc[v] = acc[v] >= Vec{} ? one : Vec{};
    }
  }
  std::memcpy(tile.out, acc, sizeof acc);
}

/// Dispatches a tile of `vecs` (1..kTileVecs) vectors to its
/// register-resident instance. The fixed 64-byte alignment pins the hot
/// loops' placement relative to cache lines and fetch blocks, so the
/// kernel's speed does not move with where the linker lays it out.
PCNN_TARGET_CLONES [[gnu::aligned(64)]]
void rowTileKernel(const RowTile& tile, int vecs) {
  switch (vecs) {
    case 8: return accumulate<8>(tile);
    case 7: return accumulate<7>(tile);
    case 6: return accumulate<6>(tile);
    case 5: return accumulate<5>(tile);
    case 4: return accumulate<4>(tile);
    case 3: return accumulate<3>(tile);
    case 2: return accumulate<2>(tile);
    default: return accumulate<1>(tile);
  }
}

}  // namespace

CompiledTrinaryNet::CompiledTrinaryNet(const nn::Sequential& net) {
  // Appends one bank's rows to the stage's row table: bias, then the
  // nonzero weights in ascending input order (input rows offset by the
  // bank's slice of the stage input).
  auto appendBank = [](Stage& stage, const TrinaryDense& layer,
                       int inputOffset) {
    for (int j = 0; j < layer.outputSize(); ++j) {
      stage.biases.push_back(layer.bias(j));
      for (int i = 0; i < layer.inputSize(); ++i) {
        const int w = layer.effectiveWeight(j, i);
        if (w == 0) continue;
        stage.termInput.push_back(inputOffset + i);
        stage.termSign.push_back(static_cast<float>(w));
      }
      stage.rowStart.push_back(static_cast<int>(stage.termInput.size()));
    }
  };

  for (std::size_t l = 0; l < net.layerCount(); ++l) {
    const nn::Layer& layer = net.layer(l);
    Stage stage;
    stage.rowStart.push_back(0);
    if (const auto* dense = dynamic_cast<const TrinaryDense*>(&layer)) {
      appendBank(stage, *dense, 0);
    } else if (const auto* part =
                   dynamic_cast<const PartitionedDense*>(&layer)) {
      // Groups own consecutive output rows, so appending them in order
      // folds the partition into one row table.
      for (int g = 0; g < part->groupCount(); ++g) {
        const PartitionedDense::GroupView view = part->group(g);
        appendBank(stage, *view.layer, view.inputOffset);
      }
    } else if (dynamic_cast<const SpikingThreshold*>(&layer) != nullptr) {
      if (stages_.empty() || stages_.back().thresholdAfter) {
        throw std::invalid_argument(
            "CompiledTrinaryNet: SpikingThreshold must follow a dense stage");
      }
      stages_.back().thresholdAfter = true;
      continue;
    } else {
      throw std::invalid_argument(
          "CompiledTrinaryNet: unsupported layer type");
    }
    stage.inputSize = layer.inputSize();
    stage.outputSize = layer.outputSize();
    stages_.push_back(std::move(stage));
  }
  if (stages_.empty()) {
    throw std::invalid_argument("CompiledTrinaryNet: empty network");
  }
  inputSize_ = stages_.front().inputSize;
  outputSize_ = stages_.back().outputSize;
  for (const Stage& stage : stages_) {
    maxWidth_ = std::max({maxWidth_, stage.inputSize, stage.outputSize});
  }
}

void CompiledTrinaryNet::runStage(const Stage& stage, const float* in,
                                  float* out, long stride) const {
  // Items are (column tile, output row) pairs, tile-major, so a chunk's
  // consecutive rows reread the same input tile from L1. Every item writes
  // its own slice of one output row, so any chunking gives the same plane.
  const long tiles = (stride + kTileColumns - 1) / kTileColumns;
  const long rows = stage.outputSize;
  const long items = tiles * rows;
  const long work = static_cast<long>(stage.termInput.size()) * stride;
  const long chunks = std::max(
      1L, std::min(work / kMinChunkWork, items / suggestedGrain(items)));
  parallelForChunked(
      0, items, (items + chunks - 1) / chunks, [&](long lo, long hi) {
        for (long item = lo; item < hi; ++item) {
          const long column = item / rows * kTileColumns;
          const long row = item % rows;
          const int begin = stage.rowStart[static_cast<std::size_t>(row)];
          const int end = stage.rowStart[static_cast<std::size_t>(row) + 1];
          const RowTile tile{in + column,
                             stride,
                             stage.termInput.data() + begin,
                             stage.termSign.data() + begin,
                             end - begin,
                             stage.biases[static_cast<std::size_t>(row)],
                             stage.thresholdAfter,
                             out + row * stride + column};
          rowTileKernel(tile, static_cast<int>(std::min<long>(
                                  kTileVecs, (stride - column) / kLanes)));
        }
      });
}

std::vector<float> CompiledTrinaryNet::forwardBatch(
    const std::vector<float>& input, int count) const {
  if (count < 0 ||
      input.size() != static_cast<std::size_t>(inputSize_) * count) {
    throw std::invalid_argument(
        "CompiledTrinaryNet::forwardBatch: input plane size mismatch");
  }
  std::vector<float> output(static_cast<std::size_t>(outputSize_) * count);
  if (count == 0) return output;

  // Runs columns [begin, begin + width) through every stage on the
  // running thread's two ping-pong scratch planes. The kernel works in
  // whole vectors, so their row stride is padded to the vector width;
  // padding columns carry zeros in and finite junk through, and no real
  // column ever reads them. The planes are kept per thread and only grow:
  // a narrow batch's are megabytes, and freeing them on every call let
  // the allocator hand the pages back to the OS, so every call faulted
  // them in again.
  auto runBlock = [&](long begin, long width) {
    thread_local std::vector<float> planes[2];
    const long stride = (width + kLanes - 1) / kLanes * kLanes;
    for (std::vector<float>& plane : planes) {
      if (plane.size() < static_cast<std::size_t>(maxWidth_ * stride)) {
        plane.resize(static_cast<std::size_t>(maxWidth_ * stride));
      }
    }
    for (long r = 0; r < inputSize_; ++r) {
      float* row = planes[0].data() + r * stride;
      std::copy_n(input.data() + r * count + begin, width, row);
      std::fill(row + width, row + stride, 0.0f);
    }
    for (std::size_t s = 0; s < stages_.size(); ++s) {
      runStage(stages_[s], planes[s % 2].data(), planes[(s + 1) % 2].data(),
               stride);
    }
    const float* result = planes[stages_.size() % 2].data();
    for (long r = 0; r < outputSize_; ++r) {
      std::copy_n(result + r * stride, width,
                  output.data() + r * count + begin);
    }
  };

  // A wide batch (a cold frame) gives every thread several column blocks
  // and runs each through all stages inline, so its planes stay in cache.
  // A narrow one (an incremental crop) runs as one block whose stages each
  // split over (tile x row) items.
  const long blocks = (count + kBlockColumns - 1) / kBlockColumns;
  if (blocks >= 2L * threadCount()) {
    parallelForChunked(0, blocks, suggestedGrain(blocks),
                       [&](long lo, long hi) {
                         for (long b = lo; b < hi; ++b) {
                           const long begin = b * kBlockColumns;
                           runBlock(begin,
                                    std::min(kBlockColumns, count - begin));
                         }
                       });
  } else {
    runBlock(0, count);
  }
  return output;
}

}  // namespace pcnn::eedn
