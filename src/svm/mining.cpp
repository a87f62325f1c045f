#include "svm/mining.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace pcnn::svm {

MiningResult trainWithHardNegatives(
    LinearSvm& svm, extract::FeatureExtractor& extractor,
    const std::vector<vision::Image>& positiveWindows,
    const std::vector<vision::Image>& negativeWindows,
    const std::vector<vision::Image>& negativeScenes,
    const MiningParams& params) {
  if (positiveWindows.empty() || negativeWindows.empty()) {
    throw std::invalid_argument(
        "trainWithHardNegatives: need both positive and negative windows");
  }
  // A standalone training window IS its own grid (top-left cell 0,0).
  auto windowFeatures = [&extractor](const vision::Image& window) {
    return extractor.windowFromGrid(extractor.cellGrid(window), 0, 0);
  };
  std::vector<std::vector<float>> features;
  std::vector<int> labels;
  features.reserve(positiveWindows.size() + negativeWindows.size());
  for (const auto& window : positiveWindows) {
    features.push_back(windowFeatures(window));
    labels.push_back(1);
  }
  for (const auto& window : negativeWindows) {
    features.push_back(windowFeatures(window));
    labels.push_back(-1);
  }
  svm.train(features, labels);

  MiningResult result;
  for (int round = 0; round < params.rounds; ++round) {
    PCNN_SPAN_ARG("mining.round", "round", round);
    int minedThisRound = 0;
    for (const vision::Image& scene : negativeScenes) {
      int minedInScene = 0;
      long windowsInScene = 0;
      vision::forEachWindowOnGrid(
          scene, params.scan, extractor.cellSize(),
          [&extractor](const vision::Image& img) {
            return extractor.cellGrid(img);
          },
          [&](const vision::Image&, const hog::CellGrid& grid, int cx0,
              int cy0, const vision::Rect&, const vision::Rect&) {
            ++windowsInScene;
            if (minedInScene >= params.maxMinedPerScene) return;
            std::vector<float> f = extractor.windowFromGrid(grid, cx0, cy0);
            if (svm.decision(f) > params.mineThreshold) {
              features.push_back(std::move(f));
              labels.push_back(-1);
              ++minedInScene;
            }
          });
      // Mining shares one cached grid per pyramid level exactly like the
      // detector scan, so its windows count as grid-cache hits too.
      static obs::Counter& windowsScanned = obs::counter("windows_scanned");
      static obs::Counter& gridCacheHits = obs::counter("grid_cache_hits");
      static obs::Counter& mined = obs::counter("mining.hard_negatives");
      windowsScanned.add(windowsInScene);
      gridCacheHits.add(windowsInScene);
      mined.add(minedInScene);
      minedThisRound += minedInScene;
    }
    result.minedNegatives += minedThisRound;
    if (minedThisRound == 0) break;
    svm.train(features, labels);
  }
  result.finalTrainAccuracy = svm.accuracy(features, labels);
  return result;
}

}  // namespace pcnn::svm
