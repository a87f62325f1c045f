// End-to-end pedestrian detection on synthetic scenes: pick a feature
// backend from the extractor registry, train an SVM on its flat cell
// features with hard-negative mining, scan a multi-scale pyramid with the
// grid detector, apply NMS (epsilon = 0.2), and report detections against
// ground truth -- the full Figure-4-style pipeline on a couple of scenes,
// for every registered backend by default.
//
// Usage: pedestrian_detection [numScenes] [seed] [extractor]
//   extractor: a registry spec ("hog", "napprox", "parrot:4spike", ...);
//              omit to run every registered backend.
//
// With PCNN_BUNDLE=<path.pcnb> set, the extractor and SVM are loaded from
// a model bundle (see bundle_tool) instead of being trained in-process:
// no stage-A pretraining, no SVM mining -- straight to detection.
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/detector.hpp"
#include "eval/detection_eval.hpp"
#include "extract/registry.hpp"
#include "io/bundle.hpp"
#include "obs/obs.hpp"
#include "svm/linear_svm.hpp"
#include "svm/mining.hpp"
#include "svm/serialize.hpp"
#include "vision/pgm.hpp"
#include "vision/synth.hpp"

namespace {

/// Steps 4-5 of the pipeline, shared by the trained-in-process and the
/// bundle-loaded paths: multi-scale detection on fresh scenes plus the
/// evaluation summary.
void detectAndReport(
    const std::shared_ptr<pcnn::extract::FeatureExtractor>& extractor,
    const pcnn::svm::LinearSvm& model, int numScenes, pcnn::Rng& rng) {
  using namespace pcnn;
  vision::SyntheticPersonDataset dataset;
  core::GridDetectorParams params;
  params.scoreThreshold = 0.25f;
  core::GridDetector detector(params, extractor,
                              [&model](const std::vector<float>& f) {
                                return static_cast<float>(model.decision(f));
                              });

  std::vector<eval::ImageResult> results;
  for (int s = 0; s < numScenes; ++s) {
    const vision::Scene scene = dataset.scene(rng, 320, 256, 2, 96, 180);
    const auto detections = detector.detect(scene.image);
    std::printf("scene %d: %zu ground truth, %zu detections after NMS\n", s,
                scene.groundTruth.size(), detections.size());
    for (const auto& det : detections) {
      std::printf("  box (%.0f,%.0f %.0fx%.0f) score %.2f\n", det.box.x,
                  det.box.y, det.box.w, det.box.h, det.score);
    }
    if (s == 0) {
      vision::writePgm(scene.image, "/tmp/pcnn_scene0.pgm");
      std::printf("  (scene image written to /tmp/pcnn_scene0.pgm)\n");
    }
    eval::ImageResult r;
    r.detections = detections;
    r.groundTruth = scene.groundTruth;
    results.push_back(std::move(r));
  }

  const eval::Counts counts = eval::evaluateAtThreshold(results, 0.0f);
  std::printf("\noverall: TP=%d FP=%d misses=%d\n", counts.truePositives,
              counts.falsePositives, counts.misses);
  const auto curve = eval::missRateCurve(results);
  std::printf("log-average miss rate: %.3f\n",
              eval::logAverageMissRate(curve));
}

/// Detection with the extractor and SVM loaded from a model bundle:
/// the deployment path -- no training of any kind in this process.
int runBundle(const std::string& path, int numScenes, std::uint64_t seed) {
  using namespace pcnn;
  std::printf("\n=== bundle: %s ===\n", path.c_str());
  StatusOr<io::Bundle> bundle = io::Bundle::tryLoadFile(path);
  if (!bundle.ok()) {
    std::fprintf(stderr, "PCNN_BUNDLE: %s\n",
                 bundle.status().toString().c_str());
    return 1;
  }
  StatusOr<std::shared_ptr<extract::FeatureExtractor>> extractor =
      extract::ExtractorRegistry::instance().tryLoadExtractor(
          bundle.value());
  if (!extractor.ok()) {
    std::fprintf(stderr, "PCNN_BUNDLE: %s\n",
                 extractor.status().toString().c_str());
    return 1;
  }
  const std::string* svmBytes =
      bundle.value().chunk(io::chunks::kSvmModel);
  if (svmBytes == nullptr) {
    std::fprintf(stderr, "PCNN_BUNDLE: bundle has no %s chunk\n",
                 io::chunks::kSvmModel);
    return 1;
  }
  std::istringstream svmIn(*svmBytes);
  StatusOr<svm::LinearSvm> model = svm::tryLoadModel(svmIn);
  if (!model.ok()) {
    std::fprintf(stderr, "PCNN_BUNDLE: %s\n",
                 model.status().toString().c_str());
    return 1;
  }
  std::printf("loaded extractor %s, %zu-d SVM (content hash %s)\n",
              extractor.value()->name().c_str(),
              model.value().weights().size(),
              bundle.value().contentHash().c_str());
  Rng rng(seed);
  detectAndReport(extractor.value(), model.value(), numScenes, rng);
  return 0;
}

void runExtractor(const std::string& spec, int numScenes,
                  std::uint64_t seed) {
  using namespace pcnn;
  std::printf("\n=== extractor: %s ===\n", spec.c_str());
  vision::SyntheticPersonDataset dataset;
  Rng rng(seed);

  // 1. Training windows.
  std::printf("generating training data...\n");
  std::vector<vision::Image> positives, negatives, negativeScenes;
  for (int i = 0; i < 150; ++i) {
    positives.push_back(dataset.positiveWindow(rng));
    negatives.push_back(dataset.negativeWindow(rng));
  }
  for (int i = 0; i < 2; ++i) {
    negativeScenes.push_back(dataset.scene(rng, 256, 256, 0).image);
  }

  // 2. Stage A: pretrain the extractor where it is trainable (the parrot
  // learns to mimic its NApprox teacher; fixed-function backends no-op).
  const auto extractor =
      extract::makeExtractor(spec, extract::FeatureLayout::kFlatCell);
  extractor->pretrain(4000, 16, 0.005f);

  // 3. SVM on flat cell features, with hard-negative mining. The extractor
  // is shared with the detector: mining scans each negative scene over one
  // cached cell grid per pyramid level instead of re-extracting every
  // window from scratch.
  svm::LinearSvm model;
  svm::MiningParams mining;
  mining.scan.strideX = 16;
  mining.scan.strideY = 16;
  mining.scan.pyramid.maxLevels = 3;
  const auto miningResult = svm::trainWithHardNegatives(
      model, *extractor, positives, negatives, negativeScenes, mining);
  std::printf("trained SVM: %d hard negatives mined, train accuracy %.3f\n",
              miningResult.minedNegatives, miningResult.finalTrainAccuracy);

  // 4-5. Multi-scale detection on fresh scenes (window rows scanned on the
  // thread pool; set PCNN_NUM_THREADS to control it) plus the evaluation
  // summary.
  detectAndReport(extractor, model, numScenes, rng);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pcnn;
  const int numScenes = argc > 1 ? std::atoi(argv[1]) : 3;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  if (const std::optional<std::string> bundlePath = env::raw("PCNN_BUNDLE")) {
    return runBundle(*bundlePath, numScenes, seed);
  }
  if (argc > 3) {
    runExtractor(argv[3], numScenes, seed);
    return 0;
  }
  for (const std::string& name : extract::ExtractorRegistry::instance().names()) {
    runExtractor(name, numScenes, seed);
  }

  // With PCNN_TRACE / PCNN_METRICS set, the whole run's spans and metrics
  // window are exported here (the at-exit flush rewrites the trace and
  // appends no second metrics line).
  if (!obs::configuredTracePath().empty() ||
      !obs::configuredMetricsPath().empty()) {
    obs::writeConfiguredReports();
    std::printf("\nobs: trace=%s metrics=%s\n",
                obs::configuredTracePath().empty()
                    ? "(off)"
                    : obs::configuredTracePath().c_str(),
                obs::configuredMetricsPath().empty()
                    ? "(off)"
                    : obs::configuredMetricsPath().c_str());
  }
  return 0;
}
