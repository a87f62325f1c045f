#pragma once

// Shared helpers for the experiment-regeneration benches. Each bench binary
// reproduces one table or figure of the paper (see DESIGN.md Section 4) and
// prints the same rows/series the paper reports. Scales (scene counts,
// training-set sizes) are chosen so every bench finishes in minutes on a
// laptop; the *shape* of each result is what must match the paper.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/detector.hpp"
#include "eval/detection_eval.hpp"
#include "extract/extractor.hpp"
#include "hog/cell_kernels.hpp"
#include "io/bundle.hpp"
#include "obs/provenance.hpp"
#include "svm/linear_svm.hpp"
#include "svm/mining.hpp"
#include "vision/pyramid.hpp"
#include "vision/sliding_window.hpp"
#include "vision/synth.hpp"

namespace pcnn::bench {

/// Run provenance every bench writer shares: the process-wide fields from
/// obs::provenance() plus the CPU's SIMD level for the hog kernels. One
/// helper instead of each bench duplicating its own subset of
/// thread/SIMD fields (BENCH_detect.json used to hand-roll them).
/// With PCNN_BUNDLE set, the bundle's manifest identity (spec + content
/// hash) is stamped in too, so a bench row can always be traced back to
/// the exact trained artifact it measured.
inline std::string provenanceJson() {
  std::vector<std::pair<std::string, std::string>> extras = {
      {"simd_level", hog::kernels::simdLevel()}};
  if (const std::optional<std::string> bundlePath = env::raw("PCNN_BUNDLE")) {
    StatusOr<io::Manifest> manifest =
        io::Bundle::tryLoadManifestFile(*bundlePath);
    if (manifest.ok()) {
      extras.emplace_back("bundle_spec",
                          manifest.value().get(io::keys::kSpec, "unknown"));
      extras.emplace_back(
          "bundle_hash",
          manifest.value().get(io::keys::kContentHash, "unrecorded"));
    } else {
      // Code name only: provenanceJson does not escape the message text.
      extras.emplace_back("bundle_error",
                          statusCodeName(manifest.status().code()));
    }
  }
  return obs::provenanceJson(obs::provenance(), extras);
}

/// Windows a scan with `scan` visits over `scene`, in closed form per
/// pyramid level: ((w - windowW) / strideX + 1) * ((h - windowH) / strideY
/// + 1), the count GridDetector and forEachWindowOnGrid scan.
inline long scanWindowCount(const vision::Image& scene,
                            const vision::SlidingWindowParams& scan) {
  vision::PyramidParams pp = scan.pyramid;
  pp.minWidth = scan.windowWidth;
  pp.minHeight = scan.windowHeight;
  long count = 0;
  for (const vision::PyramidLevel& level : vision::buildPyramid(scene, pp)) {
    count += static_cast<long>(
                 (level.image.width() - scan.windowWidth) / scan.strideX + 1) *
             ((level.image.height() - scan.windowHeight) / scan.strideY + 1);
  }
  return count;
}

/// Prints the provenance line benches emit before their rows.
inline void printProvenance() {
  std::printf("provenance: %s\n", provenanceJson().c_str());
}

/// Standard synthetic dataset sizes used across benches.
struct BenchDataset {
  std::vector<vision::Image> trainPositives;
  std::vector<vision::Image> trainNegatives;
  std::vector<vision::Image> negativeScenes;  ///< person-free, for mining
  std::vector<vision::Scene> testScenes;
};

inline BenchDataset makeBenchDataset(int trainCount, int negSceneCount,
                                     int testSceneCount, int sceneW,
                                     int sceneH, std::uint64_t seed) {
  BenchDataset data;
  vision::SyntheticPersonDataset synth;
  Rng rng(seed);
  for (int i = 0; i < trainCount; ++i) {
    data.trainPositives.push_back(synth.positiveWindow(rng));
    data.trainNegatives.push_back(synth.negativeWindow(rng));
  }
  for (int i = 0; i < negSceneCount; ++i) {
    data.negativeScenes.push_back(synth.scene(rng, sceneW, sceneH, 0).image);
  }
  for (int i = 0; i < testSceneCount; ++i) {
    data.testScenes.push_back(
        synth.scene(rng, sceneW, sceneH, 2, 96, 170));
  }
  return data;
}

/// Runs a detector over the test scenes and returns per-image results.
inline std::vector<eval::ImageResult> evaluateDetector(
    const core::GridDetector& detector,
    const std::vector<vision::Scene>& scenes) {
  std::vector<eval::ImageResult> results;
  results.reserve(scenes.size());
  for (const vision::Scene& scene : scenes) {
    eval::ImageResult r;
    r.detections = detector.detect(scene.image);
    r.groundTruth = scene.groundTruth;
    results.push_back(std::move(r));
  }
  return results;
}

/// Figure 4's detection protocol for one extractor: an SVM trained on the
/// training windows plus one hard-negative round over the person-free
/// scenes, then a GridDetector sweep over the test scenes. The extractor is
/// shared by mining and detection, so both read features off cached
/// per-level cell grids.
struct SvmDetectionRun {
  svm::MiningResult mining;
  std::vector<eval::CurvePoint> curve;
};

inline SvmDetectionRun runSvmDetection(
    const std::shared_ptr<extract::FeatureExtractor>& extractor,
    const BenchDataset& data) {
  svm::LinearSvm model;
  svm::MiningParams mining;
  mining.mineThreshold = -0.25f;  // near-boundary windows count as hard
  mining.scan.strideX = 16;
  mining.scan.strideY = 16;
  mining.scan.pyramid.maxLevels = 3;
  SvmDetectionRun run;
  run.mining = svm::trainWithHardNegatives(
      model, *extractor, data.trainPositives, data.trainNegatives,
      data.negativeScenes, mining);

  core::GridDetectorParams params;
  params.scoreThreshold = -2.0f;  // keep a wide sweep for the curve
  const core::GridDetector detector(
      params, extractor, [&model](const std::vector<float>& f) {
        return static_cast<float>(model.decision(f));
      });
  run.curve = eval::missRateCurve(evaluateDetector(detector, data.testScenes));
  return run;
}

/// Prints a miss-rate/FPPI curve as a fixed set of sample points plus the
/// log-average miss rate summary (the paper's Figures 4 and 5 axes).
inline void printCurve(const std::string& label,
                       const std::vector<eval::CurvePoint>& curve) {
  std::printf("%s\n", label.c_str());
  std::printf("  %10s  %10s  %10s\n", "threshold", "FPPI", "miss rate");
  const std::size_t step = curve.size() > 12 ? curve.size() / 12 : 1;
  for (std::size_t i = 0; i < curve.size(); i += step) {
    std::printf("  %10.3f  %10.3f  %10.3f\n", curve[i].threshold,
                curve[i].fppi, curve[i].missRate);
  }
  if (!curve.empty()) {
    std::printf("  %10s  %10.3f  %10.3f\n", "(last)", curve.back().fppi,
                curve.back().missRate);
  }
  std::printf("  log-average miss rate: %.3f\n\n",
              eval::logAverageMissRate(curve));
}

}  // namespace pcnn::bench
