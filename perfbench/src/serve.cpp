// serve-4stream: an open-loop Poisson stream into serve::DetectionService
// (primary parrot, fallback fixedpoint -- the ladder pair service.hpp
// documents). Four interleaved 320x240 camera streams share the service.
// Two phases at fixed offered rates: nominal, below capacity, and
// overload, about 3x capacity. Latency is timed from each request's due
// time: (submit - due) + queueUs + detectUs. Lane a is the nominal phase's
// requests (lane_a_per_s = share served OK at full quality within the
// deadline x the offered rate); lane b is the overload phase's goodput.
// The nominal phase replays one arrival schedule a few times, so each
// request's latency is the best of its replays.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "harness.hpp"
#include "serve/service.hpp"
#include "vision/pyramid.hpp"
#include "vision/video.hpp"

namespace perfbench {
namespace {

using namespace pcnn;

constexpr int kStreams = 4;
constexpr int kWidth = 320;
constexpr int kHeight = 240;
constexpr int kFramesPerStream = 48;
/// The four cameras are fixed. A camera's background sets what a request
/// on it costs (up to ~30% apart between cameras), and four cameras are
/// too few to average that out: drawn from the workload seed, they moved
/// the latency quantiles from seed to seed. The seed picks where in the
/// cameras' streams the requests start instead, frame
/// (seed % kOffsets) x kOffsetStride, and so the persons' positions.
constexpr std::uint64_t kCameraSeed = 1000;
constexpr std::uint64_t kOffsets = 997;
constexpr int kOffsetStride = 7;
constexpr int kLevels = 3;
/// Frozen operating point, never re-calibrated per run so runs compare
/// across commits. Chosen on a 4-core x86-64 host whose pool measures at 1
/// thread (run.py), where a full-quality parrot request costs ~45 ms
/// (capacity ~22 fps): nominal is ~27% of capacity, overload ~3x, and the
/// deadline ~11x one service time.
constexpr double kNominalFps = 6.0;
constexpr double kOverloadFps = 66.0;
constexpr double kDeadlineMs = 500.0;
constexpr std::size_t kQueueCapacity = 8;
/// One request per detectBatch call, so a request's latency never waits
/// on another's scan.
constexpr int kMaxBatch = 1;
/// Share of the timed budget spent in the nominal phase.
constexpr double kNominalShare = 0.85;
/// The nominal phase replays a schedule at least this long as often as it
/// fits: six times in a 25 s run, enough tries for each request to find
/// its unloaded latency, while the schedule still holds arrivals that
/// queue behind another.
constexpr double kReplaySeconds = 3.5;
constexpr float kParrotThreshold = 5.8f;
constexpr float kFixedThreshold = 5.5f;
/// Every Nth full-quality response is checked against a fresh detect().
constexpr int kCheckEvery = 8;

struct Request {
  int replay = 0;
  int stream = 0;
  int frame = 0;
  double lateMs = 0.0;  ///< generator lateness: submit - due
  bool admitted = false;
  Status rejection;
  std::future<serve::Response> future;
};

/// Outcome counts of one phase.
struct Phase {
  long offered = 0, rejected = 0, expired = 0, served = 0, okFull = 0,
       okInDeadline = 0, degraded = 0, failed = 0;
  long rung[3] = {0, 0, 0};
  long transitions = 0;
  Samples latencyMs, lateMs;
  /// Latencies of served requests, one Samples per replay, in order.
  std::vector<Samples> replayMs;
  double queueMs = 0.0;
  double extractMs = 0.0;
  long cells = 0;
  double wallMs = 0.0;
};

class Serve final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    frames_.assign(kStreams, {});
    for (int s = 0; s < kStreams; ++s) {
      vision::VideoParams vp;
      vp.width = kWidth;
      vp.height = kHeight;
      vp.numPersons = 2;
      vp.minPersonHeight = 100;
      vp.maxPersonHeight = 200;
      vp.seed = kCameraSeed + static_cast<std::uint64_t>(s);
      const vision::SyntheticVideo video(vp);
      const int first = static_cast<int>(seed % kOffsets) * kOffsetStride;
      for (int f = 0; f < kFramesPerStream; ++f) {
        frames_[s].push_back(video.frame(first + f).image);
      }
    }
    const std::string parrot =
        packBundle("parrot", extract::FeatureLayout::kBlockNorm);
    const std::string fixed =
        packBundle("fixedpoint", extract::FeatureLayout::kBlockNorm);
    std::shared_ptr<extract::FeatureExtractor> primary = loadTimed(parrot);
    primaryExtractor_ = std::make_shared<TimedExtractor>(primary);
    const core::WindowScorer primaryScorer =
        linearScorer(primary->featureDim());
    std::shared_ptr<extract::FeatureExtractor> fallback = loadTimed(fixed);
    core::GridDetectorParams params;
    params.temporal.smooth = false;  // responses must match detect()
    params.pyramid.maxLevels = kLevels;
    params.scoreThreshold = kParrotThreshold;
    primary_ = std::make_shared<core::GridDetector>(params, primaryExtractor_,
                                                    primaryScorer);
    reference_ = std::make_unique<core::GridDetector>(
        params, loadTimed(parrot), primaryScorer);
    params.scoreThreshold = kFixedThreshold;
    fallback_ = std::make_shared<core::GridDetector>(
        params, fallback, linearScorer(fallback->featureDim()));
  }

  std::string inputDigest() const override {
    Digest d;
    for (const auto& stream : frames_) {
      for (const vision::Image& frame : stream) d.image(frame);
    }
    // The arrival schedules are inputs too (fixed, see scheduleSeed).
    for (int id = 0; id < 2; ++id) {
      Rng rng(scheduleSeed(id));
      for (int i = 0; i < 64; ++i) d.number(rng.uniform());
    }
    return d.hex();
  }

  void warmup() override {
    for (int s = 0; s < kStreams; ++s) primary_->detect(frames_[s][0]);
    fallback_->detect(frames_[0][0]);
    cellsPerFrame_ = 0;
    const core::GridDetectorParams& params = primary_->params();
    vision::PyramidParams pp = params.pyramid;
    pp.minWidth = params.windowCellsX * params.cellSize;
    pp.minHeight = params.windowCellsY * params.cellSize;
    for (const vision::PyramidLevel& level :
         vision::buildPyramid(frames_[0][0], pp)) {
      cellsPerFrame_ += static_cast<long>(level.image.width() / params.cellSize) *
                        (level.image.height() / params.cellSize);
    }
  }

  PassResult run(double seconds, bool traced) override {
    const double nominalSeconds = seconds * kNominalShare;
    const Phase nominal =
        runPhase(0, kNominalFps, nominalSeconds,
                 std::max(1, static_cast<int>(nominalSeconds / kReplaySeconds)),
                 traced);
    const Phase overload = runPhase(1, kOverloadFps,
                                    seconds * (1.0 - kNominalShare), 1, traced);
    PassResult r;
    r.attempted = nominal.offered + overload.offered;
    r.failed = nominal.failed + overload.failed;
    r.laneAMs = nominal.latencyMs;
    // When every replay served every request, lane-a quantiles are over the
    // requests' best latencies across replays. The p90 over the ~17
    // requests of a 25 s run's schedule keeps ~1.7 requests, ~10 samples,
    // beyond it.
    if (nominal.served == nominal.offered) r.laneARounds = nominal.replayMs;
    r.tailQuantile = 0.90;
    r.laneAPerS = nominal.okFull / (nominal.wallMs / 1000.0);
    r.laneBPerS = overload.okInDeadline / (overload.wallMs / 1000.0);
    r.indexPerS = r.laneBPerS;
    if (traced) {
      r.layer["serve.ok_frac"] = frac(nominal.okFull, nominal.offered);
      r.layer["serve.queue_pct"] =
          100.0 * nominal.queueMs / nominal.latencyMs.sum();
      r.layer["serve.cells_recomputed_frac"] =
          frac(nominal.cells, nominal.served * cellsPerFrame_);
      r.layer["extract.cells_computed"] = frac(nominal.cells, nominal.served);
      Samples late = nominal.lateMs;
      late.append(overload.lateMs);
      r.layer["serve.gen_late_p99_pct"] =
          100.0 * late.quantile(0.99) / kDeadlineMs;
      r.layer["serve.shed_frac"] =
          frac(overload.rejected + overload.expired, overload.offered);
      r.layer["serve.degraded_frac"] = frac(overload.degraded, overload.served);
      r.layer["serve.rung_full_frac"] = frac(overload.rung[0], overload.served);
      r.layer["serve.rung_coarse_frac"] =
          frac(overload.rung[1], overload.served);
      r.layer["serve.rung_fallback_frac"] =
          frac(overload.rung[2], overload.served);
      r.layer["serve.transitions"] = static_cast<double>(overload.transitions);
      r.layer["parrot.cell_grid_pct"] =
          100.0 * overload.extractMs / overload.wallMs;
      r.layer["ledger.op_ms"] = nominal.latencyMs.mean();
    }
    return r;
  }

 private:
  /// The arrival schedules are fixed Poisson draws, the same for every
  /// seed: the seed picks the camera content, and the luck of one short
  /// draw's bursts does not move the latency quantiles between seeds.
  static std::uint64_t scheduleSeed(int phase) {
    return 0x5eedull + static_cast<std::uint64_t>(phase);
  }

  static double frac(double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  }

  /// Every pass replays the same arrival schedule and frames for a phase,
  /// so passes compare: `replays` times, each over seconds / replays, and
  /// each starting from an idle service.
  Phase runPhase(int id, double fps, double seconds, int replays,
                 bool traced) {
    // A fresh service per phase, and cold detector caches, so the phases
    // are independent measurements.
    primary_->resetTemporalCache();
    fallback_->resetTemporalCache();
    serve::ServiceParams params;
    params.readEnv = false;
    params.queueCapacity = kQueueCapacity;
    params.maxBatch = kMaxBatch;
    params.deadlineMs = kDeadlineMs;
    Phase phase;
    phase.replayMs.resize(static_cast<std::size_t>(replays));
    std::vector<Request> requests;
    primaryExtractor_->reset();
    primaryExtractor_->arm(traced);
    {
      serve::DetectionService service(params, primary_, fallback_);
      for (int replay = 0; replay < replays; ++replay) {
        Rng rng(scheduleSeed(id));
        const std::size_t first = requests.size();
        const auto start = Clock::now();
        double dueMs = 0.0;
        for (long k = 0;; ++k) {
          dueMs += -std::log(1.0 - rng.uniform()) * 1000.0 / fps;
          if (dueMs > seconds * 1000.0 / replays) break;
          Request req;
          req.replay = replay;
          req.stream = static_cast<int>(k % kStreams);
          req.frame = static_cast<int>((k / kStreams) % kFramesPerStream);
          std::this_thread::sleep_until(
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(dueMs)));
          req.lateMs = msBetween(start, Clock::now()) - dueMs;
          auto admitted = service.submit(frames_[req.stream][req.frame]);
          req.admitted = admitted.ok();
          if (req.admitted) {
            req.future = std::move(admitted).value();
          } else {
            req.rejection = admitted.status();
          }
          requests.push_back(std::move(req));
        }
        for (std::size_t i = first; i < requests.size(); ++i) {
          if (requests[i].admitted) requests[i].future.wait();
        }
        phase.wallMs += msBetween(start, Clock::now());
      }
      phase.transitions = service.stats().transitions;
    }
    primaryExtractor_->arm(false);
    phase.extractMs = primaryExtractor_->ms();
    phase.cells = primaryExtractor_->cells();

    long fullSeen = 0;
    for (Request& req : requests) {
      ++phase.offered;
      phase.lateMs.add(req.lateMs);
      if (!req.admitted) {
        if (req.rejection.code() == StatusCode::kUnavailable) {
          ++phase.rejected;
        } else {
          ++phase.failed;
        }
        continue;
      }
      serve::Response resp;
      try {
        resp = req.future.get();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "serve-4stream: request threw: %s\n", e.what());
        ++phase.failed;
        continue;
      }
      if (resp.status.code() == StatusCode::kDeadlineExceeded) {
        ++phase.expired;
        continue;
      }
      if (!resp.status.ok()) {
        ++phase.failed;
        continue;
      }
      ++phase.served;
      const int rung = std::min(static_cast<int>(resp.servedAt), 2);
      ++phase.rung[rung];
      const double latencyMs =
          req.lateMs + (resp.queueUs + resp.detectUs) / 1000.0;
      phase.latencyMs.add(latencyMs);
      phase.replayMs[static_cast<std::size_t>(req.replay)].add(latencyMs);
      phase.queueMs += resp.queueUs / 1000.0;
      const bool full = resp.servedAt == serve::ServiceLevel::kFull &&
                        !resp.degradation.degraded();
      if (!full) ++phase.degraded;
      if (latencyMs <= kDeadlineMs) {
        ++phase.okInDeadline;
        if (full) ++phase.okFull;
      }
      if (full && fullSeen++ % kCheckEvery == 0 &&
          !sameDetections(resp.detections,
                          reference_->detect(frames_[req.stream][req.frame]))) {
        std::fprintf(stderr, "serve-4stream: response differs from detect()\n");
        ++phase.failed;
      }
    }
    return phase;
  }

  std::vector<std::vector<vision::Image>> frames_;
  std::shared_ptr<TimedExtractor> primaryExtractor_;
  std::shared_ptr<core::GridDetector> primary_;
  std::shared_ptr<core::GridDetector> fallback_;
  std::unique_ptr<core::GridDetector> reference_;
  long cellsPerFrame_ = 0;
};

}  // namespace

std::unique_ptr<Workload> makeServe() { return std::make_unique<Serve>(); }

}  // namespace perfbench
