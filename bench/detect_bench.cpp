// Full-frame detection benchmark: the cost of scanning one 640x480 scene
// with the classic HoG + linear scorer at an 8-px stride, measuring
//   (a) the cached-grid scan -- one cell grid per pyramid level, windows
//       assembled by slicing it (GridDetector), at 1/2/4 threads,
//   (b) the same scan for every registered extractor backend on a smaller
//       scene (the registry walk -- one entry per backend).
// Emits BENCH_detect.json with wall times and thread speedups.
//
// Usage: bench_detect [outputPath] [repeats]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/detector.hpp"
#include "extract/registry.hpp"
#include "obs/obs.hpp"
#include "vision/sliding_window.hpp"
#include "vision/synth.hpp"

namespace {

using namespace pcnn;
using Clock = std::chrono::steady_clock;

double bestOfMs(int repeats, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) best = ms;
  }
  return best;
}

/// A fixed linear scorer of the given dimension; the benchmark measures
/// feature extraction, not classifier quality.
std::function<float(const std::vector<float>&)> randomScorer(int dim) {
  std::vector<float> weights(static_cast<std::size_t>(dim));
  Rng wrng(7);
  for (auto& w : weights) w = static_cast<float>(wrng.uniform()) - 0.5f;
  return [weights = std::move(weights)](const std::vector<float>& f) {
    float acc = 0.0f;
    const std::size_t n = f.size() < weights.size() ? f.size() : weights.size();
    for (std::size_t i = 0; i < n; ++i) acc += weights[i] * f[i];
    return acc;
  };
}

}  // namespace

int main(int argc, char** argv) {
  const std::string outPath = argc > 1 ? argv[1] : "BENCH_detect.json";
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 3;
  const int sceneW = 640, sceneH = 480;

  bench::printProvenance();
  vision::SyntheticPersonDataset dataset;
  Rng rng(42);
  const vision::Image scene = dataset.scene(rng, sceneW, sceneH, 2).image;

  const auto score = randomScorer(3780);  // 7x15x36-float window descriptor

  vision::SlidingWindowParams scan;  // 64x128 window, 8-px stride
  const long numWindows = bench::scanWindowCount(scene, scan);
  std::printf("scene %dx%d, %ld windows at 8-px stride\n", sceneW, sceneH,
              numWindows);

  // (a) Cached grids via GridDetector at 1/2/4 threads, classic-HoG block
  // features through the polymorphic extractor layer.
  core::GridDetectorParams params;
  params.scoreThreshold = 1e9f;  // score every window, keep (almost) none
  core::GridDetector detector(
      params, extract::makeExtractor("hog", extract::FeatureLayout::kBlockNorm),
      score);

  const int threadCounts[] = {1, 2, 4};
  double cachedMs[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    setThreadCount(threadCounts[i]);
    cachedMs[i] =
        bestOfMs(repeats, [&] { (void)detector.detectRaw(scene).size(); });
    std::printf("cached grid, %d thread%s: %9.1f ms  (%.2fx vs 1 thread)\n",
                threadCounts[i], threadCounts[i] == 1 ? " " : "s",
                cachedMs[i], cachedMs[0] / cachedMs[i]);
  }

  // (b) Registry walk: every backend through the same cached-grid scan on
  // a smaller scene (NApprox/Parrot cells cost far more than classic HoG).
  const int smallW = 320, smallH = 240;
  Rng smallRng(43);
  const vision::Image smallScene =
      dataset.scene(smallRng, smallW, smallH, 1).image;
  vision::SlidingWindowParams smallScan;
  smallScan.pyramid.maxLevels = 2;
  const long smallWindows = bench::scanWindowCount(smallScene, smallScan);
  setThreadCount(1);
  std::printf("\nper-backend cached-grid scan, %dx%d scene, %ld windows, "
              "1 thread:\n",
              smallW, smallH, smallWindows);
  const auto names = extract::ExtractorRegistry::instance().names();
  std::vector<double> backendMs(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    auto extractor = extract::makeExtractor(
        names[i], extract::FeatureLayout::kBlockNorm);
    const auto backendScore = randomScorer(extractor->featureDim());
    core::GridDetectorParams bp;
    bp.scoreThreshold = 1e9f;
    bp.pyramid = smallScan.pyramid;
    core::GridDetector backendDetector(bp, extractor, backendScore);
    backendMs[i] = bestOfMs(
        repeats, [&] { (void)backendDetector.detectRaw(smallScene).size(); });
    std::printf("  %-12s %9.1f ms  (%d-dim features)\n", names[i].c_str(),
                backendMs[i], extractor->featureDim());
  }

  // (c) Bundle row: with PCNN_BUNDLE set, the same cached-grid scan with
  // the extractor reloaded from the bundle -- the deployment path, timed
  // against the in-process constructions above. The manifest identity also
  // lands in the provenance block (bench::provenanceJson).
  double bundleMs = -1.0;
  std::string bundleSpec;
  if (const std::optional<std::string> bundlePath = env::raw("PCNN_BUNDLE")) {
    StatusOr<io::Bundle> bundle = io::Bundle::tryLoadFile(*bundlePath);
    StatusOr<std::shared_ptr<extract::FeatureExtractor>> loaded =
        bundle.ok() ? extract::ExtractorRegistry::instance().tryLoadExtractor(
                          bundle.value())
                    : StatusOr<std::shared_ptr<extract::FeatureExtractor>>(
                          bundle.status());
    if (loaded.ok()) {
      bundleSpec = loaded.value()->name();
      const auto bundleScore = randomScorer(loaded.value()->featureDim());
      core::GridDetectorParams bp;
      bp.scoreThreshold = 1e9f;
      bp.pyramid = smallScan.pyramid;
      core::GridDetector bundleDetector(bp, loaded.value(), bundleScore);
      bundleMs = bestOfMs(
          repeats, [&] { (void)bundleDetector.detectRaw(smallScene).size(); });
      std::printf("  %-12s %9.1f ms  (bundle-loaded %s)\n", "bundle",
                  bundleMs, bundleSpec.c_str());
    } else {
      std::fprintf(stderr, "PCNN_BUNDLE: %s\n",
                   loaded.status().toString().c_str());
    }
  }

  // (d) Obs overhead: the hog and fixedpoint rows again with metrics and
  // the flight recorder armed (counters, gauges, per-frame histograms and
  // ring writes all live), against the plain rows above. Guards the
  // documented <2% instrumentation budget (DESIGN.md 5c/5h) now that the
  // telemetry layer is continuous rather than exit-time only.
  struct OverheadRow {
    std::string name;
    double plainMs = 0.0;
    double obsMs = 0.0;
  };
  std::vector<OverheadRow> overhead;
  {
    const bool metricsWere = obs::metricsEnabled();
    const bool flightWere = obs::flightEnabled();
    // Back-to-back plain/armed measurement of the same detector with
    // extra repeats: at ~4 ms per scan, best-of-3 from section (b) has
    // more jitter than the budget being measured.
    const int overheadRepeats = repeats < 10 ? 10 : repeats;
    std::printf("\nobs overhead (metrics + flight recorder on):\n");
    for (const std::string target : {"hog", "fixedpoint"}) {
      for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] != target) continue;
        auto extractor = extract::makeExtractor(
            names[i], extract::FeatureLayout::kBlockNorm);
        const auto backendScore = randomScorer(extractor->featureDim());
        core::GridDetectorParams bp;
        bp.scoreThreshold = 1e9f;
        bp.pyramid = smallScan.pyramid;
        core::GridDetector backendDetector(bp, extractor, backendScore);
        OverheadRow row;
        row.name = names[i];
        obs::setMetricsEnabled(false);
        obs::setFlightEnabled(false);
        row.plainMs = bestOfMs(overheadRepeats, [&] {
          (void)backendDetector.detectRaw(smallScene).size();
        });
        obs::setMetricsEnabled(true);
        obs::setFlightEnabled(true);
        row.obsMs = bestOfMs(overheadRepeats, [&] {
          (void)backendDetector.detectRaw(smallScene).size();
        });
        std::printf("  %-12s %9.1f ms  (plain %9.1f ms, %+.2f%%)\n",
                    row.name.c_str(), row.obsMs, row.plainMs,
                    100.0 * (row.obsMs - row.plainMs) / row.plainMs);
        overhead.push_back(std::move(row));
      }
    }
    obs::setMetricsEnabled(metricsWere);
    obs::setFlightEnabled(flightWere);
  }

  std::FILE* out = std::fopen(outPath.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", outPath.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"scene\": [%d, %d],\n"
               "  \"stride_px\": 8,\n"
               "  \"window_px\": [64, 128],\n"
               "  \"windows_scanned\": %ld,\n"
               "  \"repeats\": %d,\n"
               "  \"provenance\": %s,\n"
               "  \"cached_grid_1t_ms\": %.2f,\n"
               "  \"cached_grid_2t_ms\": %.2f,\n"
               "  \"cached_grid_4t_ms\": %.2f,\n"
               "  \"speedup_2t\": %.2f,\n"
               "  \"speedup_4t\": %.2f,\n"
               "  \"extractor_scene\": [%d, %d],\n"
               "  \"extractor_windows_scanned\": %ld,\n"
               "  \"extractors\": {",
               sceneW, sceneH, numWindows, repeats,
               bench::provenanceJson().c_str(), cachedMs[0], cachedMs[1],
               cachedMs[2], cachedMs[0] / cachedMs[1],
               cachedMs[0] / cachedMs[2], smallW, smallH, smallWindows);
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::fprintf(out, "%s\n    \"%s\": {\"cached_grid_1t_ms\": %.2f}",
                 i == 0 ? "" : ",", names[i].c_str(), backendMs[i]);
  }
  std::fprintf(out, "\n  }");
  std::fprintf(out, ",\n  \"obs_overhead\": {");
  for (std::size_t i = 0; i < overhead.size(); ++i) {
    const OverheadRow& row = overhead[i];
    std::fprintf(out,
                 "%s\n    \"%s\": {\"plain_ms\": %.2f, \"obs_ms\": %.2f, "
                 "\"overhead_pct\": %.2f}",
                 i == 0 ? "" : ",", row.name.c_str(), row.plainMs, row.obsMs,
                 100.0 * (row.obsMs - row.plainMs) / row.plainMs);
  }
  std::fprintf(out, "\n  }");
  if (bundleMs >= 0.0) {
    std::fprintf(out,
                 ",\n  \"bundle\": {\"spec\": \"%s\", "
                 "\"cached_grid_1t_ms\": %.2f}",
                 bundleSpec.c_str(), bundleMs);
  }
  std::fprintf(out, "\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", outPath.c_str());

  // With PCNN_TRACE / PCNN_METRICS set, the run's spans and final metrics
  // window land next to the bench output (the at-exit flush then adds
  // nothing; doing it here makes the paths visible in the bench log).
  if (!obs::configuredTracePath().empty() ||
      !obs::configuredMetricsPath().empty()) {
    obs::writeConfiguredReports();
    std::printf("obs: trace=%s metrics=%s\n",
                obs::configuredTracePath().empty()
                    ? "(off)"
                    : obs::configuredTracePath().c_str(),
                obs::configuredMetricsPath().empty()
                    ? "(off)"
                    : obs::configuredMetricsPath().c_str());
  }
  return 0;
}
