#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/degradation.hpp"
#include "eedn/classifier.hpp"
#include "extract/extractor.hpp"
#include "extract/registry.hpp"
#include "io/bundle.hpp"
#include "vision/image.hpp"

namespace pcnn::core {

/// Resource accounting for the three paradigms. Paper numbers (Sec. 5.1):
/// the Parrot extractor uses 8 cores per 8x8 cell -> 1024 cores for a
/// 64x128 window; the Eedn classifier uses 2864 cores; the Absorbed
/// monolithic network is granted the combined 3888 cores.
struct ResourceBudget {
  int windowCellsX = 8;
  int windowCellsY = 16;
  int parrotCoresPerCell = 8;
  int classifierCores = 2864;

  int cellsPerWindow() const { return windowCellsX * windowCellsY; }
  int parrotExtractorCores() const {
    return parrotCoresPerCell * cellsPerWindow();  // 1024 in the paper
  }
  int combinedCores() const {
    return parrotExtractorCores() + classifierCores;  // 3888 in the paper
  }
};

/// Budget derived from an extractor's own deployment metadata instead of
/// hard-coded constants: the per-cell core count comes from
/// ExtractorInfo::paperCoresPerCell (falling back to the mapped count,
/// then to the paper's parrot default when the extractor reports no
/// TrueNorth footprint).
ResourceBudget makeResourceBudget(const extract::ExtractorInfo& info,
                                  int classifierCores = 2864);

/// The paper's primary artifact: a *partitioned* network -- an explicit
/// feature-extraction stage (NApprox, Parrot, or classic HoG) feeding a
/// separately trained Eedn classification stage, the two co-trained as a
/// pipeline rather than absorbed into one monolithic network.
class PartitionedPipeline {
 public:
  /// Feature stage behind the polymorphic extractor layer (typically
  /// registry-constructed). Uses the extractor's native batch path for
  /// whole-dataset feature extraction.
  PartitionedPipeline(std::shared_ptr<extract::FeatureExtractor> extractor,
                      const eedn::EednClassifierConfig& classifierConfig);

  /// Extract features for every window, then train the classifier stage.
  /// Returns final-epoch mean loss.
  float trainClassifier(const std::vector<vision::Image>& windows,
                        const std::vector<int>& labels, int epochs,
                        float learningRate, float momentum = 0.9f,
                        int batchSize = 16);

  float score(const vision::Image& window) const;
  int predict(const vision::Image& window) const {
    return score(window) >= 0.0f ? 1 : -1;
  }
  double evalAccuracy(const std::vector<vision::Image>& windows,
                      const std::vector<int>& labels) const;

  /// Graceful whole-batch scoring: tries the extractor's native batch path
  /// first, and if anything in it fails, falls back to scoring windows one
  /// by one so a single poisoned window (or a simulator fault mid-batch)
  /// loses only itself. A lost window scores quiet NaN at its position --
  /// the output always has windows.size() entries in input order. When
  /// `report` is non-null it receives the lost-window count and the
  /// simulator fault activity observed during the call.
  std::vector<float> scoreAllDegraded(
      const std::vector<vision::Image>& windows,
      DegradationReport* report = nullptr) const;

  eedn::EednClassifier& classifier() { return *classifier_; }

  const std::shared_ptr<extract::FeatureExtractor>& extractor() const {
    return featureExtractor_;
  }

  /// Packs the trained pipeline into a bundle: the manifest records the
  /// extractor spec + options, the classifier configuration and the build
  /// provenance (git SHA); the chunks carry the extractor state
  /// (chunks::kExtractorState) and the trained classifier network
  /// (chunks::kEednNetwork). `extractorOptions` must be the options the
  /// extractor was constructed with -- they are not recoverable from the
  /// built instance (the coding seed is consumed into RNG state).
  Status packBundle(io::Bundle& bundle,
                    const extract::ExtractorOptions& extractorOptions);

  /// Reconstructs a trained pipeline from a bundle without re-running
  /// stage A (extractor pretraining) or stage B (classifier training):
  /// the extractor is rebuilt from the manifest spec + state chunk, the
  /// classifier from the manifest config + network chunk. A manifest
  /// whose classifier input size disagrees with the extractor's feature
  /// dimension is kFailedPrecondition.
  static StatusOr<PartitionedPipeline> tryLoadBundle(const io::Bundle& bundle);

 private:
  std::vector<std::vector<float>> extractAll(
      const std::vector<vision::Image>& windows) const;

  std::shared_ptr<extract::FeatureExtractor> featureExtractor_;
  std::unique_ptr<eedn::EednClassifier> classifier_;
};

/// The Absorbed baseline: a monolithic pixels-to-decision Eedn classifier
/// given (at least) the combined resource budget of extractor + classifier
/// and trained on the same windows (Sec. 3.3 / 5.1). Returns a classifier
/// over raw 64x128 = 8192-pixel inputs.
std::unique_ptr<eedn::EednClassifier> makeAbsorbedClassifier(
    const ResourceBudget& budget, float tau = 0.5f, std::uint64_t seed = 99);

/// Flattens a window's raw pixels (the absorbed network's input).
std::vector<float> rawPixelFeatures(const vision::Image& window);

}  // namespace pcnn::core
