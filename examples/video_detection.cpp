// Video detection walkthrough: renders a short synthetic full-HD-style
// burst (vision::SyntheticVideo), trains nothing -- a fixed linear scorer
// stands in for the classifier -- and runs GridDetector::detectBatch with
// temporal reuse on, printing per-frame detections next to the ground
// truth and what the temporal cache saved.
//
// Usage: video_detection [frames] [width] [height] [persons]
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "core/detector.hpp"
#include "extract/registry.hpp"
#include "vision/video.hpp"

using namespace pcnn;

int main(int argc, char** argv) {
  const int numFrames = argc > 1 ? std::atoi(argv[1]) : 12;
  const int width = argc > 2 ? std::atoi(argv[2]) : 640;
  const int height = argc > 3 ? std::atoi(argv[3]) : 480;
  const int persons = argc > 4 ? std::atoi(argv[4]) : 2;

  vision::VideoParams vp;
  vp.width = width;
  vp.height = height;
  vp.numPersons = persons;
  vp.seed = 5;
  vision::SyntheticVideo video(vp);

  auto extractor =
      extract::makeExtractor("hog", extract::FeatureLayout::kBlockNorm);
  // A fixed random linear scorer: high threshold keeps the report small
  // while still exercising the full scan (swap in a trained LinearSvm via
  // svm::trainWithHardNegatives for real detections).
  std::vector<float> weights(
      static_cast<std::size_t>(extractor->featureDim()));
  Rng wrng(7);
  for (auto& w : weights) w = static_cast<float>(wrng.uniform()) - 0.5f;
  core::GridDetectorParams params;
  params.scoreThreshold = 2.5f;
  core::GridDetector detector(
      params, extractor, [&weights](const std::vector<float>& f) {
        float acc = 0.0f;
        for (std::size_t i = 0; i < f.size() && i < weights.size(); ++i) {
          acc += weights[i] * f[i];
        }
        return acc;
      });

  std::printf("synthetic video %dx%d, %d frames, %d persons\n", width,
              height, numFrames, persons);
  const core::BatchDetectResult batch = detector.detectBatch(
      numFrames, [&video](int f) { return video.frame(f).image; });

  for (std::size_t f = 0; f < batch.frames.size(); ++f) {
    const core::FrameResult& frame = batch.frames[f];
    const vision::Scene scene = video.frame(static_cast<int>(f));
    const long tiles = frame.stats.tilesReused + frame.stats.tilesRecomputed;
    std::printf(
        "frame %2zu: %2zu detections, %zu persons visible, "
        "tiles %ld/%ld reused, cells %ld recomputed, windows %ld "
        "rescored%s\n",
        f, frame.detections.size(), scene.groundTruth.size(),
        frame.stats.tilesReused, tiles, frame.stats.cellsRecomputed,
        frame.stats.windowsRescored,
        frame.stats.fullRecompute ? " (full recompute)" : "");
    for (const vision::Detection& det : frame.detections) {
      std::printf("    box (%6.1f, %6.1f) %5.1fx%5.1f  score %.2f\n",
                  det.box.x, det.box.y, det.box.w, det.box.h, det.score);
    }
  }
  return 0;
}
