#include "core/detector.hpp"

#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace pcnn::core {

GridDetector::GridDetector(const GridDetectorParams& params,
                           std::shared_ptr<extract::FeatureExtractor> extractor,
                           WindowScorer scorer)
    : params_(params),
      featureExtractor_(std::move(extractor)),
      scorer_(std::move(scorer)) {
  if (!featureExtractor_ || !scorer_) {
    throw std::invalid_argument("GridDetector: null extractor or scorer");
  }
  cellGridUs_ = &obs::histogram("extract." + featureExtractor_->name() +
                                ".cell_grid_us");
  params_.cellSize = featureExtractor_->cellSize();
  params_.windowCellsX = featureExtractor_->windowCellsX();
  params_.windowCellsY = featureExtractor_->windowCellsY();
}

std::vector<vision::Detection> GridDetector::detect(
    const vision::Image& scene, const DetectOptions& options,
    DegradationReport* report) const {
  std::vector<vision::Detection> raw = detectRaw(scene, options, report);
  PCNN_SPAN_ARG("detect.nms", "candidates", raw.size());
  return vision::nonMaximumSuppression(std::move(raw), params_.nmsEpsilon);
}

}  // namespace pcnn::core
