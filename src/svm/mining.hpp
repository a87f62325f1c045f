#pragma once

#include <vector>

#include "extract/extractor.hpp"
#include "hog/hog.hpp"
#include "svm/linear_svm.hpp"
#include "vision/image.hpp"
#include "vision/sliding_window.hpp"

namespace pcnn::svm {

/// Parameters of the hard-negative mining loop.
struct MiningParams {
  int rounds = 1;              ///< re-training rounds after the initial fit
  float mineThreshold = 0.0f;  ///< negatives scoring above this are mined
  int maxMinedPerScene = 40;   ///< cap per negative scene
  vision::SlidingWindowParams scan;  ///< how negative scenes are scanned
};

/// Result of training with mining.
struct MiningResult {
  int minedNegatives = 0;
  double finalTrainAccuracy = 0.0;
};

/// Trains `svm` on the given positive/negative windows, then augments the
/// negative set with false positives mined from person-free scenes and
/// retrains -- the paper's protocol: "after the training of an SVM model is
/// completed, we go through negative training images to filter false
/// positives, to augment the SVM model as negatives" (Sec. 4).
///
/// Training windows use windowFromGrid(cellGrid(window), 0, 0) and
/// negative scenes are scanned over one cached grid per pyramid level
/// (vision::forEachWindowOnGrid), matching the feature path GridDetector
/// uses at detection time. The extractor may be stateful (grids are
/// computed on the calling thread). Requires positive, cell-aligned scan
/// strides and window (see forEachWindowOnGrid).
MiningResult trainWithHardNegatives(
    LinearSvm& svm, extract::FeatureExtractor& extractor,
    const std::vector<vision::Image>& positiveWindows,
    const std::vector<vision::Image>& negativeWindows,
    const std::vector<vision::Image>& negativeScenes,
    const MiningParams& params = {});

}  // namespace pcnn::svm
