#pragma once

#include <memory>
#include <string>
#include <vector>

#include "extract/extractor.hpp"
#include "hog/fixed_point.hpp"
#include "hog/hog.hpp"
#include "napprox/napprox.hpp"
#include "napprox/quantized.hpp"
#include "parrot/parrot.hpp"

namespace pcnn::extract {

/// Classic floating-point Dalal-Triggs HoG (9 unsigned bins, weighted
/// voting) -- the software reference every other backend is compared to.
class HogBackend final : public FeatureExtractor {
 public:
  HogBackend(std::string name, FeatureLayout layout,
             const hog::HogParams& params = {}, int windowCellsX = 8,
             int windowCellsY = 16);

  hog::CellGrid cellGrid(const vision::Image& image) override;
  ExtractorInfo info() const override;

  const hog::HogExtractor& model() const { return model_; }

 private:
  hog::HogExtractor model_;
};

/// Integer-only FPGA-style HoG ("FPGA-HoG" in Fig. 4). Cell histograms are
/// integer; the shared block stage consumes them dequantized so both heads
/// see the same float feature space as every other backend.
class FixedPointBackend final : public FeatureExtractor {
 public:
  FixedPointBackend(std::string name, FeatureLayout layout,
                    const hog::FixedPointHogParams& params = {},
                    int windowCellsX = 8, int windowCellsY = 16);

  hog::CellGrid cellGrid(const vision::Image& image) override;
  ExtractorInfo info() const override;

  const hog::FixedPointHog& model() const { return model_; }

 private:
  hog::FixedPointHog model_;
};

/// NApprox HoG, float ("NApprox(fp)" in Fig. 4): 18 signed bins, count
/// voting, TrueNorth-friendly primitives in full precision.
class NApproxBackend final : public FeatureExtractor {
 public:
  NApproxBackend(std::string name, FeatureLayout layout,
                 const napprox::NApproxParams& params = {},
                 int windowCellsX = 8, int windowCellsY = 16);

  hog::CellGrid cellGrid(const vision::Image& image) override;
  ExtractorInfo info() const override;

  const napprox::NApproxHog& model() const { return model_; }

 private:
  napprox::NApproxHog model_;
};

/// NApprox HoG at TrueNorth precision ("NApprox" in Fig. 4): rate-coded
/// inputs over a spike window, integer projections.
class QuantizedNApproxBackend final : public FeatureExtractor {
 public:
  QuantizedNApproxBackend(std::string name, FeatureLayout layout,
                          const napprox::NApproxParams& params = {},
                          const napprox::QuantizedParams& quant = {},
                          int windowCellsX = 8, int windowCellsY = 16);

  hog::CellGrid cellGrid(const vision::Image& image) override;
  ExtractorInfo info() const override;

  const napprox::QuantizedNApproxHog& model() const { return model_; }

 protected:
  /// Persists the quantization point plus the compiled NApprox corelet's
  /// TrueNorth model (the deployable artifact); loading re-derives both
  /// and verifies the stored copy matches -- a bundle compiled by another
  /// build must describe the same hardware mapping.
  Status saveStateBody(io::Writer& writer) override;
  Status loadStateBody(const std::vector<io::Reader::Chunk>& chunks) override;

 private:
  napprox::QuantizedNApproxHog model_;
};

/// TrueNorth cores per cell of our deployed NApprox corelet (the paper's
/// module uses 26). Computed once from the tick-accurate corelet mapping.
int napproxCoreletCoresPerCell();

/// Parrot HoG: the trained Eedn cell network with optional stochastic
/// input coding. The code is a pure function of each pixel's value and
/// level position (parrot::codeSpikes), so extraction is deterministic
/// like every other backend's.
class ParrotBackend final : public FeatureExtractor {
 public:
  ParrotBackend(std::string name, FeatureLayout layout,
                const parrot::ParrotConfig& config = {}, int windowCellsX = 8,
                int windowCellsY = 16);

  hog::CellGrid cellGrid(const vision::Image& image) override;
  ExtractorInfo info() const override;
  float pretrain(int numSamples, int epochs, float learningRate) override;
  void setInputSpikes(int spikes) override;
  bool hasTrainedState() const override { return true; }

  parrot::ParrotHog& parrot() { return model_; }

 protected:
  /// Persists the trained Eedn cell network (an embedded "PEDN" stream),
  /// so a loaded Parrot skips stage-A pretraining entirely.
  Status saveStateBody(io::Writer& writer) override;
  Status loadStateBody(const std::vector<io::Reader::Chunk>& chunks) override;

 private:
  parrot::ParrotHog model_;
};

}  // namespace pcnn::extract
