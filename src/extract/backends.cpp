#include "extract/backends.hpp"

#include <sstream>
#include <utility>

#include "eedn/serialize.hpp"
#include "napprox/corelet.hpp"
#include "parrot/generator.hpp"
#include "tn/model_io.hpp"

namespace pcnn::extract {

// --- HogBackend -----------------------------------------------------------

HogBackend::HogBackend(std::string name, FeatureLayout layout,
                       const hog::HogParams& params, int windowCellsX,
                       int windowCellsY)
    : FeatureExtractor(std::move(name), layout, params.numBins, windowCellsX,
                       windowCellsY, params.cellSize),
      model_(params) {}

hog::CellGrid HogBackend::cellGrid(const vision::Image& image) {
  return model_.computeCells(image);
}

ExtractorInfo HogBackend::info() const {
  ExtractorInfo meta;
  meta.precision = "float (software reference)";
  return meta;
}

// --- FixedPointBackend ----------------------------------------------------

FixedPointBackend::FixedPointBackend(std::string name, FeatureLayout layout,
                                     const hog::FixedPointHogParams& params,
                                     int windowCellsX, int windowCellsY)
    : FeatureExtractor(std::move(name), layout, params.numBins, windowCellsX,
                       windowCellsY, params.cellSize),
      model_(params) {}

hog::CellGrid FixedPointBackend::cellGrid(const vision::Image& image) {
  const hog::FixedPointHog::IntCellGrid intGrid = model_.computeCells(image);
  hog::CellGrid grid;
  grid.cellsX = intGrid.cellsX;
  grid.cellsY = intGrid.cellsY;
  grid.bins = intGrid.bins;
  grid.data.assign(intGrid.data.begin(), intGrid.data.end());
  return grid;
}

ExtractorInfo FixedPointBackend::info() const {
  ExtractorInfo meta;
  meta.precision = "16-bit fixed point";
  meta.fpgaBaseline = true;
  return meta;
}

// --- NApproxBackend -------------------------------------------------------

NApproxBackend::NApproxBackend(std::string name, FeatureLayout layout,
                               const napprox::NApproxParams& params,
                               int windowCellsX, int windowCellsY)
    : FeatureExtractor(std::move(name), layout, params.bins, windowCellsX,
                       windowCellsY, params.cellSize),
      model_(params) {}

hog::CellGrid NApproxBackend::cellGrid(const vision::Image& image) {
  return model_.computeCells(image);
}

ExtractorInfo NApproxBackend::info() const {
  ExtractorInfo meta;
  meta.precision = "float";
  // The float model maps to the same corelet structure once quantized, so
  // report the mapping's footprint for the Sec. 5.1 core accounting.
  meta.coresPerCell = napproxCoreletCoresPerCell();
  meta.paperCoresPerCell = 26;
  return meta;
}

// --- QuantizedNApproxBackend ----------------------------------------------

QuantizedNApproxBackend::QuantizedNApproxBackend(
    std::string name, FeatureLayout layout,
    const napprox::NApproxParams& params,
    const napprox::QuantizedParams& quant, int windowCellsX, int windowCellsY)
    : FeatureExtractor(std::move(name), layout, params.bins, windowCellsX,
                       windowCellsY, params.cellSize),
      model_(params, quant) {}

hog::CellGrid QuantizedNApproxBackend::cellGrid(const vision::Image& image) {
  return model_.computeCells(image);
}

ExtractorInfo QuantizedNApproxBackend::info() const {
  ExtractorInfo meta;
  const int spikes = model_.quant().spikeWindow;
  meta.precision = std::to_string(spikes) + "-spike rate code";
  meta.coding = CodingScheme::kRateAccumulate;
  meta.spikeWindow = spikes;
  meta.coresPerCell = napproxCoreletCoresPerCell();
  meta.paperCoresPerCell = 26;
  return meta;
}

int napproxCoreletCoresPerCell() {
  static const int cores = [] {
    const napprox::QuantizedNApproxHog model(
        {}, {}, napprox::QuantizedMode::kTickAccurate);
    return napprox::NApproxCorelet(model).coreCount();
  }();
  return cores;
}

// --- ParrotBackend --------------------------------------------------------

ParrotBackend::ParrotBackend(std::string name, FeatureLayout layout,
                             const parrot::ParrotConfig& config,
                             int windowCellsX, int windowCellsY)
    : FeatureExtractor(std::move(name), layout, config.bins, windowCellsX,
                       windowCellsY),
      model_(config) {}

hog::CellGrid ParrotBackend::cellGrid(const vision::Image& image) {
  return model_.computeCells(image);
}

ExtractorInfo ParrotBackend::info() const {
  ExtractorInfo meta;
  const int spikes = model_.config().inputSpikes;
  meta.precision = spikes > 0
                       ? std::to_string(spikes) + "-spike stochastic"
                       : "float (exact inputs)";
  meta.coding = spikes > 0 ? CodingScheme::kStochasticStream
                           : CodingScheme::kNone;
  meta.spikeWindow = spikes;
  meta.coresPerCell = model_.mappedCoresPerCell();
  meta.paperCoresPerCell = model_.config().paperCoresPerCell;
  return meta;
}

float ParrotBackend::pretrain(int numSamples, int epochs,
                              float learningRate) {
  const parrot::OrientedSampleGenerator generator;
  return model_.train(generator, numSamples, epochs, learningRate);
}

void ParrotBackend::setInputSpikes(int spikes) {
  model_.setInputSpikes(spikes);
}

Status QuantizedNApproxBackend::saveStateBody(io::Writer& writer) {
  std::ostringstream payload;
  io::Writer pw(payload);
  pw.u32(static_cast<std::uint32_t>(model_.quant().spikeWindow));
  pw.i32(model_.quant().weightScale);
  pw.i32(model_.quant().rampLeak);
  pw.i32(model_.effectiveThreshold());
  if (!pw.status().ok()) return pw.status();
  if (Status status = writer.chunk("QNAP", payload.str()); !status.ok()) {
    return status;
  }

  napprox::NApproxCorelet corelet(model_);
  std::ostringstream tnModel;
  if (Status status = tn::trySaveModel(corelet.network(), tnModel);
      !status.ok()) {
    return status;
  }
  return writer.chunk("TNMD", tnModel.str());
}

Status QuantizedNApproxBackend::loadStateBody(
    const std::vector<io::Reader::Chunk>& chunks) {
  bool sawParams = false;
  for (const io::Reader::Chunk& chunk : chunks) {
    if (chunk.tag == "QNAP") {
      std::istringstream payload(chunk.payload);
      io::Reader pr(payload);
      std::uint32_t spikeWindow = 0;
      std::int32_t weightScale = 0, rampLeak = 0, threshold = 0;
      pr.u32(spikeWindow);
      pr.i32(weightScale);
      pr.i32(rampLeak);
      if (!pr.i32(threshold).ok()) return pr.status();
      if (spikeWindow != static_cast<std::uint32_t>(
                             model_.quant().spikeWindow) ||
          weightScale != model_.quant().weightScale ||
          rampLeak != model_.quant().rampLeak ||
          threshold != model_.effectiveThreshold()) {
        return Status::FailedPrecondition(
            "loadState: quantization point mismatch for \"" + name() + "\"");
      }
      sawParams = true;
    } else if (chunk.tag == "TNMD") {
      // The stored corelet model must describe the same hardware mapping
      // this build derives from the quantization point.
      std::istringstream payload(chunk.payload);
      StatusOr<std::unique_ptr<tn::Network>> stored =
          tn::tryLoadModel(payload);
      if (!stored.ok()) return stored.status();
      napprox::NApproxCorelet corelet(model_);
      if (stored.value()->coreCount() != corelet.coreCount()) {
        return Status::DataLoss(
            "loadState: stored corelet has " +
            std::to_string(stored.value()->coreCount()) + " cores, this " +
            "build maps " + std::to_string(corelet.coreCount()));
      }
    }
  }
  if (!sawParams) {
    return Status::DataLoss("loadState: napprox state has no QNAP chunk");
  }
  return Status::Ok();
}

Status ParrotBackend::saveStateBody(io::Writer& writer) {
  std::ostringstream net;
  if (Status status = eedn::trySaveNetwork(model_.net(), net); !status.ok()) {
    return status;
  }
  return writer.chunk("EEDN", net.str());
}

Status ParrotBackend::loadStateBody(
    const std::vector<io::Reader::Chunk>& chunks) {
  for (const io::Reader::Chunk& chunk : chunks) {
    if (chunk.tag != "EEDN") continue;
    std::istringstream payload(chunk.payload);
    return model_.tryLoadNet(payload);
  }
  return Status::DataLoss("loadState: parrot state has no EEDN chunk");
}

}  // namespace pcnn::extract
