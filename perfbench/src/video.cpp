// video-1080p: two 1920x1080 SyntheticVideo camera streams (3 persons each).
// One runs on a hog detector, one on a parrot (exact) detector, each with
// its own temporal cache; every frame is one detectBatch call, and frame
// synthesis stays outside the timed region. Lane a is the hog camera's
// frames, lane b the parrot camera's.
//
// Each camera plays a fixed clip forward and back again, round after
// round: every round diffs the same frame pairs, so every round (and every
// pass of a seed) does the same work. The cameras alternate rounds, so
// both lanes sample the host over the whole pass.
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "harness.hpp"
#include "vision/video.hpp"

namespace perfbench {
namespace {

using namespace pcnn;

constexpr int kWidth = 1920;
constexpr int kHeight = 1080;
constexpr int kPersons = 3;
/// One person size, no scale breathing and a walking pace, so the area
/// that changes per frame -- what the temporal path recomputes -- is about
/// the persons' silhouettes and varies little between seeds.
constexpr int kPersonHeight = 220;
constexpr float kMaxSpeedPx = 2.0f;
/// Persons in a clip keep at least this far apart horizontally, and their
/// boxes this far inside every border of the frame, so no seed saves work
/// by overlapping them or by clipping their windows at a border.
constexpr float kMinGapPx = 256.0f;
constexpr float kBorderPx = 96.0f;
/// How far into a camera's stream firstClipFrame() looks for a clip.
constexpr int kSearchFrames = 20000;
/// The camera seeds, among 1..170, whose persons keep kBorderPx from the
/// top and bottom and that have a clip of kClipFrames[0] frames (see
/// rowsInView() and firstClipFrame()). A workload seed picks two of them;
/// about two thirds of all cameras would fail, and rendering cameras until
/// one passes would make setup time depend on the seed.
constexpr std::uint64_t kCameraSeeds[] = {
    4,   5,   6,   7,   10,  13,  14,  15,  21,  22,  25,  27,  28,
    30,  32,  33,  36,  44,  50,  53,  54,  56,  58,  62,  68,  69,
    71,  75,  78,  79,  83,  87,  88,  90,  91,  94,  96,  99,  102,
    108, 111, 113, 115, 117, 121, 123, 127, 128, 130, 132, 135, 139,
    140, 141, 146, 148, 150, 152, 153, 156, 158, 167, 168, 170};
constexpr std::uint64_t kCameras = std::size(kCameraSeeds);
constexpr int kLevels = 6;  ///< the paper's full-HD pyramid
/// Thresholds leaving NMS a few hundred candidates per frame.
constexpr float kHogThreshold = 6.5f;
constexpr float kParrotThreshold = 5.8f;
/// Clip length (frames after the first) of the hog and the parrot camera.
/// A round plays the clip forward and back, 2 x this many timed frames:
/// about 1.3 s of work each at 1 thread.
constexpr int kClipFrames[2] = {12, 3};
/// Clip positions that are multiples of this are checked against a fresh
/// detect() of the frame, in every round.
constexpr int kCheckEvery[2] = {4, 3};

struct Stream {
  const char* spec;
  float threshold;
  std::unique_ptr<vision::SyntheticVideo> video;
  int firstFrame = 0;  ///< clip position 0 is video frame firstFrame
  /// detect() of the checked clip positions, computed once before timing.
  std::map<int, std::vector<vision::Detection>> expected;
  std::shared_ptr<TimedExtractor> extractor;
  ScorerClock scorer;
  std::unique_ptr<core::GridDetector> detector;   ///< temporal path
  std::unique_ptr<core::GridDetector> reference;  ///< detect() oracle
  double coldMs = 0.0;
};

std::unique_ptr<vision::SyntheticVideo> camera(std::uint64_t seed) {
  vision::VideoParams vp;
  vp.width = kWidth;
  vp.height = kHeight;
  vp.numPersons = kPersons;
  vp.minPersonHeight = kPersonHeight;
  vp.maxPersonHeight = kPersonHeight;
  vp.maxSpeedPx = kMaxSpeedPx;
  vp.scaleAmplitude = 0.0f;
  vp.seed = seed;
  return std::make_unique<vision::SyntheticVideo>(vp);
}

/// True when every person's box is kBorderPx inside the top and bottom of
/// the frame. Persons walk horizontally at a fixed size, so this holds for
/// every frame of a camera or for none.
bool rowsInView(const vision::SyntheticVideo& video) {
  const float height = static_cast<float>(video.params().height);
  for (int a = 0; a < video.numActors(); ++a) {
    const vision::Rect box = video.actorBox(a, 0);
    if (box.y < kBorderPx || box.y + box.h > height - kBorderPx) return false;
  }
  return true;
}

/// True when every person's box is kBorderPx inside the sides of frame f
/// and no two boxes come closer than kMinGapPx horizontally.
bool apartInView(const vision::SyntheticVideo& video, int f) {
  const float width = static_cast<float>(video.params().width);
  for (int a = 0; a < video.numActors(); ++a) {
    const vision::Rect box = video.actorBox(a, f);
    if (box.x < kBorderPx || box.x + box.w > width - kBorderPx) return false;
    for (int b = 0; b < a; ++b) {
      const vision::Rect other = video.actorBox(b, f);
      if (box.x < other.x + other.w + kMinGapPx &&
          other.x < box.x + box.w + kMinGapPx) {
        return false;
      }
    }
  }
  return true;
}

/// The first frame of a clip of `frames` more in which three whole,
/// separate persons walk well inside the frame, so every seed's clip does
/// about the same work per frame.
int firstClipFrame(const vision::SyntheticVideo& video, int frames) {
  if (rowsInView(video)) {
    for (int first = 0; first < kSearchFrames; ++first) {
      bool ok = true;
      for (int f = first; ok && f <= first + frames; ++f) {
        ok = apartInView(video, f);
      }
      if (ok) return first;
    }
  }
  throw std::runtime_error("video-1080p: the camera has no clip that keeps "
                           "the persons apart and in view");
}

/// What a pass measured on one stream.
struct StreamPass {
  Samples ms;
  Samples roundFps;
  double extractMs = 0, scorerCpuMs = 0;
  long cells = 0, scorerCalls = 0, tilesReused = 0, tilesRecomputed = 0,
       windowsRescored = 0;
  double timed() const { return ms.sum(); }  ///< whole rounds so far
};

class Video final : public Workload {
 public:
  Video() {
    streams_[0].spec = "hog";
    streams_[0].threshold = kHogThreshold;
    streams_[1].spec = "parrot";
    streams_[1].threshold = kParrotThreshold;
  }

  void setup(std::uint64_t seed) override {
    for (int i = 0; i < 2; ++i) {
      Stream& s = streams_[i];
      s.video = camera(kCameraSeeds[(seed * 2 + static_cast<std::uint64_t>(i)) %
                                    kCameras]);
      s.firstFrame = firstClipFrame(*s.video, kClipFrames[i]);
      const std::string bytes =
          packBundle(s.spec, extract::FeatureLayout::kBlockNorm);
      std::shared_ptr<extract::FeatureExtractor> inner = loadTimed(bytes);
      s.extractor = std::make_shared<TimedExtractor>(inner);
      const core::WindowScorer scorer = linearScorer(inner->featureDim());
      core::GridDetectorParams params;
      params.scoreThreshold = s.threshold;
      params.pyramid.maxLevels = kLevels;
      params.temporal.smooth = false;  // outputs must match detect()
      s.detector = std::make_unique<core::GridDetector>(
          params, s.extractor, s.scorer.wrap(scorer));
      s.reference =
          std::make_unique<core::GridDetector>(params, loadTimed(bytes), scorer);
    }
  }

  std::string inputDigest() const override {
    Digest d;
    for (const Stream& s : streams_) {
      d.image(s.video->frame(s.firstFrame).image);
      d.image(s.video->frame(s.firstFrame + 1).image);
    }
    return d.hex();
  }

  /// The reference detections of the checked clip positions: untimed, and
  /// once per process, as they do not change between passes.
  void warmup() override {
    for (int i = 0; i < 2; ++i) {
      Stream& s = streams_[i];
      for (int pos = 0; pos <= kClipFrames[i]; pos += kCheckEvery[i]) {
        s.expected[pos] =
            s.reference->detect(s.video->frame(s.firstFrame + pos).image);
      }
    }
  }

  PassResult run(double seconds, bool traced) override {
    // Each camera starts from an untimed cold frame at clip position 0, so
    // passes see the same frames. A round is clip positions 1..n and back
    // to 0, where the next round starts: each camera's temporal cache stays
    // valid across the other camera's rounds.
    PassResult r;
    StreamPass pass[2];
    traced_ = traced;
    for (Stream& s : streams_) {
      s.detector->resetTemporalCache();
      const std::vector<vision::Image> cold{
          s.video->frame(s.firstFrame).image};
      const auto t0 = Clock::now();
      s.detector->detectBatch(cold);
      s.coldMs = msBetween(t0, Clock::now());
    }
    while (pass[0].timed() + pass[1].timed() < seconds * 1000.0) {
      for (int i = 0; i < 2; ++i) {
        Stream& s = streams_[i];
        StreamPass& p = pass[i];
        Samples round;
        const int n = kClipFrames[i];
        for (int k = 1; k <= 2 * n; ++k) {
          const int pos = k <= n ? k : 2 * n - k;
          ++r.attempted;
          if (!detectFrame(s, pos, round, p)) ++r.failed;
        }
        // Lane throughput is the best round's frame rate.
        p.roundFps.add(1000.0 * static_cast<double>(round.size()) /
                       round.sum());
        p.ms.append(round);
        if (i == 0) r.laneARounds.push_back(std::move(round));
      }
    }
    // The p90 over the 24 hog frames' best times: the frames whose diffs
    // cost most.
    r.laneAMs = pass[0].ms;
    r.tailQuantile = 0.90;
    r.laneAPerS = pass[0].roundFps.max();
    r.laneBPerS = pass[1].roundFps.max();
    r.indexPerS = std::sqrt(r.laneAPerS * r.laneBPerS);
    if (traced) {
      const StreamPass& hog = pass[0];
      const double frames = static_cast<double>(hog.ms.size());
      const double extractPct = 100.0 * hog.extractMs / hog.ms.sum();
      const double scorerPct =
          100.0 * hog.scorerCpuMs / (threadCount() * hog.ms.sum());
      r.layer["extract.cell_grid_pct"] = extractPct;
      r.layer["scorer.pct"] = scorerPct;
      r.layer["core.self_pct"] = 100.0 - extractPct - scorerPct;
      r.layer["extract.cells_computed"] = static_cast<double>(hog.cells) / frames;
      r.layer["scorer.calls"] = static_cast<double>(hog.scorerCalls) / frames;
      const long tiles = hog.tilesReused + hog.tilesRecomputed;
      r.layer["core.tile_reuse_frac"] =
          tiles > 0 ? static_cast<double>(hog.tilesReused) / tiles : 0.0;
      r.layer["core.windows_rescored_per_frame"] =
          static_cast<double>(hog.windowsRescored) / frames;
      r.layer["core.cold_frame_x"] = streams_[0].coldMs / hog.ms.median();
      r.layer["parrot.cell_grid_pct"] =
          100.0 * pass[1].extractMs / pass[1].ms.sum();
      r.layer["ledger.op_ms"] = hog.ms.mean();
    }
    return r;
  }

 private:
  /// One timed detectBatch call on clip position `pos` of stream s; a
  /// checked position is compared with the frame's detect().
  bool detectFrame(Stream& s, int pos, Samples& ms, StreamPass& p) {
    const std::vector<vision::Image> frames{
        s.video->frame(s.firstFrame + pos).image};
    try {
      s.extractor->reset();
      s.scorer.reset();
      s.extractor->arm(traced_);
      s.scorer.arm(traced_);
      const auto t1 = Clock::now();
      const core::BatchDetectResult batch = s.detector->detectBatch(frames);
      ms.add(msBetween(t1, Clock::now()));
      s.extractor->arm(false);
      s.scorer.arm(false);
      p.extractMs += s.extractor->ms();
      p.scorerCpuMs += s.scorer.cpuMs();
      p.cells += s.extractor->cells();
      p.scorerCalls += s.scorer.calls();
      const core::FrameResult& frame = batch.frames.at(0);
      p.tilesReused += frame.stats.tilesReused;
      p.tilesRecomputed += frame.stats.tilesRecomputed;
      p.windowsRescored += frame.stats.windowsRescored;
      const auto expected = s.expected.find(pos);
      if (expected != s.expected.end() &&
          !sameDetections(frame.detections, expected->second)) {
        std::fprintf(stderr, "video-1080p: %s clip frame %d failed its "
                     "check\n", s.spec, pos);
        return false;
      }
      return true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "video-1080p: %s clip frame %d threw: %s\n",
                   s.spec, pos, e.what());
      return false;
    }
  }

  Stream streams_[2];
  bool traced_ = false;  ///< the current pass arms the timing hooks
};

}  // namespace

std::unique_ptr<Workload> makeVideo() { return std::make_unique<Video>(); }

}  // namespace perfbench
