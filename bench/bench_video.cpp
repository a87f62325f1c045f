// Full-HD video detection benchmark: a synthetic 1920x1080 burst (persons
// translating over a textured background) run through
// GridDetector::detectBatch twice per backend --
//   (a) temporal.enabled = false: every frame runs cold, paying the full
//       scan detect() runs, the bitwise reference;
//   (b) the temporal path: persistent per-level grids, recomputation of
//       the cells whose pixels changed, cached window scores.
// Reports per-backend fps for both against the paper's full-HD 26 fps bar
// (Table 2), the tile hit rate, the cells recomputed per warm frame, and
// the reuse speedup; writes
// BENCH_video.json. Each burst runs kRepeats times on a fresh detector;
// the times are the median, with the min..max range beside it.
//
// Usage: bench_video [outputPath] [frames] [width] [height] [persons]
//   (the ci.sh smoke runs "bench_video /tmp/out.json 8 320 240 1")
#include <algorithm>
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
#include "vision/video.hpp"

namespace {

using namespace pcnn;
using Clock = std::chrono::steady_clock;

/// A fixed linear scorer of the given dimension; the benchmark measures
/// the scan machinery, not classifier quality.
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

/// Bursts per (backend, mode): enough for a median and a spread.
constexpr int kRepeats = 5;

struct RunResult {
  double ms = 0.0;  ///< median over the repeats
  double msMin = 0.0;
  double msMax = 0.0;
  double fps = 0.0;
  long tilesReused = 0;
  long tilesRecomputed = 0;
  long windowsRescored = 0;
  long windowsReused = 0;
  double cellsPerWarmFrame = 0.0;  ///< FrameStats::cellsRecomputed mean
};

/// Runs the burst kRepeats times through `backend`, each on a fresh
/// detector (so every repeat starts from a cold temporal cache).
RunResult runBurst(const std::string& backend,
                   const core::GridDetectorParams& params,
                   const std::vector<vision::Image>& frames) {
  RunResult r;
  std::vector<double> ms;
  core::BatchDetectResult batch;
  for (int rep = 0; rep < kRepeats; ++rep) {
    auto extractor =
        extract::makeExtractor(backend, extract::FeatureLayout::kBlockNorm);
    const auto scorer = randomScorer(extractor->featureDim());
    core::GridDetector detector(params, extractor, scorer);
    const auto t0 = Clock::now();
    batch = detector.detectBatch(frames);
    const auto t1 = Clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(ms.begin(), ms.end());
  r.ms = ms[ms.size() / 2];
  r.msMin = ms.front();
  r.msMax = ms.back();
  r.fps = r.ms > 0.0 ? 1000.0 * static_cast<double>(frames.size()) / r.ms
                     : 0.0;
  // Burst-level rate next to the per-frame detect.frame_fps gauge the
  // detector maintains; a streaming exporter sampling mid-bench sees the
  // most recent burst's throughput.
  static obs::Gauge& fpsGauge = obs::gauge("video.fps");
  fpsGauge.set(r.fps);
  long warmFrames = 0;
  long warmCells = 0;
  for (const core::FrameResult& frame : batch.frames) {
    r.tilesReused += frame.stats.tilesReused;
    r.tilesRecomputed += frame.stats.tilesRecomputed;
    r.windowsRescored += frame.stats.windowsRescored;
    r.windowsReused += frame.stats.windowsReused;
    if (!frame.stats.fullRecompute) {
      ++warmFrames;
      warmCells += frame.stats.cellsRecomputed;
    }
  }
  r.cellsPerWarmFrame =
      warmFrames > 0 ? static_cast<double>(warmCells) / warmFrames : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string outPath = argc > 1 ? argv[1] : "BENCH_video.json";
  const int numFrames = argc > 2 ? std::atoi(argv[2]) : 10;
  const int width = argc > 3 ? std::atoi(argv[3]) : 1920;
  const int height = argc > 4 ? std::atoi(argv[4]) : 1080;
  const int persons = argc > 5 ? std::atoi(argv[5]) : 3;
  constexpr double kPaperFpsBar = 26.0;  // Table 2: full-HD images/s

  bench::printProvenance();

  vision::VideoParams vp;
  vp.width = width;
  vp.height = height;
  vp.numPersons = persons;
  vp.seed = 97;
  vision::SyntheticVideo video(vp);
  std::vector<vision::Image> frames;
  frames.reserve(static_cast<std::size_t>(numFrames));
  for (int f = 0; f < numFrames; ++f) {
    frames.push_back(video.frame(f).image);
  }
  std::printf(
      "video %dx%d, %d frames, %d persons, %d repeats (paper bar: %.0f "
      "fps)\n",
      width, height, numFrames, persons, kRepeats, kPaperFpsBar);

  const std::vector<std::string> backends = {"hog", "fixedpoint", "napprox",
                                             "parrot"};
  std::vector<RunResult> off(backends.size()), temporal(backends.size());
  for (std::size_t i = 0; i < backends.size(); ++i) {
    // 6 pyramid levels: what the paper's full-HD analysis assumes.
    core::GridDetectorParams params;
    params.scoreThreshold = 1e9f;  // score every window, keep (almost) none
    params.pyramid.maxLevels = 6;

    core::GridDetectorParams offParams = params;
    offParams.temporal.enabled = false;  // the full-recompute reference
    off[i] = runBurst(backends[i], offParams, frames);
    temporal[i] = runBurst(backends[i], params, frames);
    const long tiles = temporal[i].tilesReused + temporal[i].tilesRecomputed;
    const double hitRate =
        tiles > 0 ? static_cast<double>(temporal[i].tilesReused) / tiles : 0.0;
    std::printf(
        "  %-12s off: %8.1f ms (%6.2f fps)   temporal: %8.1f ms "
        "(%6.2f fps, %.2fx, tile hit rate %.3f, %.0f cells per warm "
        "frame)\n",
        backends[i].c_str(), off[i].ms, off[i].fps, temporal[i].ms,
        temporal[i].fps,
        temporal[i].ms > 0.0 ? off[i].ms / temporal[i].ms : 0.0, hitRate,
        temporal[i].cellsPerWarmFrame);
  }

  std::FILE* out = std::fopen(outPath.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", outPath.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"scene\": [%d, %d],\n"
               "  \"frames\": %d,\n"
               "  \"persons\": %d,\n"
               "  \"repeats\": %d,\n"
               "  \"pyramid_levels\": 6,\n"
               "  \"paper_fps_bar\": %.1f,\n"
               "  \"provenance\": %s,\n"
               "  \"backends\": {\n",
               width, height, numFrames, persons, kRepeats, kPaperFpsBar,
               bench::provenanceJson().c_str());
  for (std::size_t i = 0; i < backends.size(); ++i) {
    const long tiles = temporal[i].tilesReused + temporal[i].tilesRecomputed;
    const double hitRate =
        tiles > 0 ? static_cast<double>(temporal[i].tilesReused) / tiles : 0.0;
    std::fprintf(
        out,
        "    \"%s\": {\"off_ms\": %.2f, \"off_ms_range\": [%.2f, %.2f], "
        "\"off_fps\": %.3f, "
        "\"temporal_ms\": %.2f, \"temporal_ms_range\": [%.2f, %.2f], "
        "\"temporal_fps\": %.3f, "
        "\"reuse_speedup\": %.2f, \"tile_hit_rate\": %.4f, "
        "\"tiles_reused\": %ld, \"tiles_recomputed\": %ld, "
        "\"windows_rescored\": %ld, \"windows_reused\": %ld, "
        "\"cells_recomputed_per_warm_frame\": %.1f}%s\n",
        backends[i].c_str(), off[i].ms, off[i].msMin, off[i].msMax,
        off[i].fps, temporal[i].ms, temporal[i].msMin, temporal[i].msMax,
        temporal[i].fps,
        temporal[i].ms > 0.0 ? off[i].ms / temporal[i].ms : 0.0, hitRate,
        temporal[i].tilesReused, temporal[i].tilesRecomputed,
        temporal[i].windowsRescored, temporal[i].windowsReused,
        temporal[i].cellsPerWarmFrame, i + 1 < backends.size() ? "," : "");
  }
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", outPath.c_str());

  // With PCNN_TRACE / PCNN_METRICS set, flush the run's spans and final
  // metrics window here so the paths appear in the bench log (the at-exit
  // flush then adds nothing).
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
