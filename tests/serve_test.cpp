// Tests for the serving layer (serve::DetectionService) and the per-call
// shed/deadline controls it drives in the detector:
//  - typed admission: kUnavailable when the bounded queue is full or the
//    ladder sits at the reject rung, kDeadlineExceeded for requests that
//    expire on the queue (dropped at dequeue, no detector work spent);
//  - the hysteresis-guarded degradation ladder (LoadController) stepping
//    down under synthetic overload and recovering;
//  - bitwise identity with direct detectBatch when nothing sheds, at 1
//    and 4 threads;
//  - DetectOptions/BatchOptions attribution into DegradationReport.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/detector.hpp"
#include "extract/registry.hpp"
#include "obs/obs.hpp"
#include "obs/provenance.hpp"
#include "serve/service.hpp"
#include "vision/video.hpp"

namespace pcnn {
namespace {

using core::GridDetector;
using core::GridDetectorParams;
using serve::ControllerParams;
using serve::DetectionService;
using serve::LoadController;
using serve::Response;
using serve::ServiceLevel;
using serve::ServiceParams;
using vision::Image;

/// RAII env override restored to unset on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

/// A fixed deterministic linear scorer, optionally instrumented: every
/// invocation bumps `calls` (when given), sleeps `sleepUs` (slow-server
/// simulation), and blocks on `gate` until it opens (worker freezing).
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  void release() {
    {
      std::lock_guard<std::mutex> lock(m);
      open = true;
    }
    cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [this] { return open; });
  }
};

core::WindowScorer instrumentedScorer(
    int dim, std::shared_ptr<std::atomic<long>> calls = nullptr,
    int sleepUs = 0, std::shared_ptr<Gate> gate = nullptr) {
  std::vector<float> weights(static_cast<std::size_t>(dim));
  Rng wrng(7);
  for (auto& w : weights) w = static_cast<float>(wrng.uniform()) - 0.5f;
  return [weights = std::move(weights), calls, sleepUs,
          gate](const std::vector<float>& f) {
    if (calls) calls->fetch_add(1, std::memory_order_relaxed);
    if (gate) gate->wait();
    if (sleepUs > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(sleepUs));
    }
    float acc = 0.0f;
    const std::size_t n =
        f.size() < weights.size() ? f.size() : weights.size();
    for (std::size_t i = 0; i < n; ++i) acc += weights[i] * f[i];
    return acc;
  };
}

std::shared_ptr<GridDetector> makeDetector(
    bool temporal, int maxLevels = 3,
    std::shared_ptr<std::atomic<long>> calls = nullptr, int sleepUs = 0,
    std::shared_ptr<Gate> gate = nullptr) {
  auto extractor =
      extract::makeExtractor("hog", extract::FeatureLayout::kBlockNorm);
  GridDetectorParams params;
  params.scoreThreshold = 2.0f;
  params.pyramid.maxLevels = maxLevels;
  params.temporal.enabled = temporal;
  params.temporal.smooth = false;
  return std::make_shared<GridDetector>(
      params, extractor,
      instrumentedScorer(extractor->featureDim(), std::move(calls), sleepUs,
                         std::move(gate)));
}

Image testFrame(int width = 320, int height = 240, std::uint64_t seed = 1,
                int index = 0) {
  vision::VideoParams vp;
  vp.width = width;
  vp.height = height;
  vp.numPersons = 1;
  vp.seed = seed;
  return vision::SyntheticVideo(vp).frame(index).image;
}

ServiceParams quietParams() {
  ServiceParams params;
  params.readEnv = false;  // tests control knobs explicitly
  return params;
}

bool waitUntil(const std::function<bool()>& predicate, int timeoutMs) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

// ------------------------------------------------------------- naming

TEST(ServeStatus, NewStatusCodesHaveStableNames) {
  EXPECT_STREQ(statusCodeName(StatusCode::kUnavailable), "UNAVAILABLE");
  EXPECT_STREQ(statusCodeName(StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_EQ(Status::DeadlineExceeded("late").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_NE(Status::DeadlineExceeded("late").toString().find(
                "DEADLINE_EXCEEDED"),
            std::string::npos);
}

TEST(ServeLevel, NamesAreStable) {
  EXPECT_STREQ(serve::serviceLevelName(ServiceLevel::kFull), "full");
  EXPECT_STREQ(serve::serviceLevelName(ServiceLevel::kCoarse), "coarse");
  EXPECT_STREQ(serve::serviceLevelName(ServiceLevel::kFallback), "fallback");
  EXPECT_STREQ(serve::serviceLevelName(ServiceLevel::kReject), "reject");
}

// ---------------------------------------------------- LoadController

TEST(LoadController, StepsUpOneRungPerPressuredTick) {
  LoadController controller;
  EXPECT_EQ(controller.level(), 0);
  EXPECT_EQ(controller.onTick(80, 100, 0.0, 0.0), 1);  // util 0.8 > 0.75
  EXPECT_EQ(controller.onTick(80, 100, 0.0, 0.0), 2);
  EXPECT_EQ(controller.onTick(80, 100, 0.0, 0.0), 3);
  EXPECT_EQ(controller.onTick(80, 100, 0.0, 0.0), 3);  // clamped at reject
}

TEST(LoadController, LatencySignalDegradesIndependentlyOfQueue) {
  LoadController controller;
  // Empty queue, but windowed p99 at 95% of a 100ms deadline budget.
  EXPECT_EQ(controller.onTick(0, 100, 95'000.0, 100'000.0), 1);
  // No deadline budget: the latency signal is disabled, p99 is ignored.
  LoadController noDeadline;
  EXPECT_EQ(noDeadline.onTick(0, 100, 95'000.0, 0.0), 0);
}

TEST(LoadController, RecoversOnlyAfterConsecutiveCalmTicks) {
  ControllerParams params;
  params.recoverHoldTicks = 3;
  LoadController controller(params);
  controller.onTick(80, 100, 0.0, 0.0);
  controller.onTick(80, 100, 0.0, 0.0);
  ASSERT_EQ(controller.level(), 2);
  // Two calm ticks are not enough...
  EXPECT_EQ(controller.onTick(0, 100, 0.0, 0.0), 2);
  EXPECT_EQ(controller.onTick(0, 100, 0.0, 0.0), 2);
  // ...the third steps down one rung and restarts the hold.
  EXPECT_EQ(controller.onTick(0, 100, 0.0, 0.0), 1);
  EXPECT_EQ(controller.onTick(0, 100, 0.0, 0.0), 1);
  EXPECT_EQ(controller.onTick(0, 100, 0.0, 0.0), 1);
  EXPECT_EQ(controller.onTick(0, 100, 0.0, 0.0), 0);
}

TEST(LoadController, DeadBandNeitherDegradesNorRecovers) {
  ControllerParams params;
  params.recoverHoldTicks = 1;
  LoadController controller(params);
  controller.onTick(80, 100, 0.0, 0.0);
  ASSERT_EQ(controller.level(), 1);
  // Utilization between recoverQueueFrac (0.25) and degradeQueueFrac
  // (0.75): not pressured, but not calm either -- the level holds and the
  // calm streak resets, so an oscillating queue cannot flap the ladder.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(controller.onTick(50, 100, 0.0, 0.0), 1) << "tick " << i;
  }
  EXPECT_EQ(controller.onTick(0, 100, 0.0, 0.0), 0);
}

TEST(LoadController, CalmStreakResetByPressuredTick) {
  ControllerParams params;
  params.recoverHoldTicks = 2;
  LoadController controller(params);
  controller.onTick(80, 100, 0.0, 0.0);
  controller.onTick(80, 100, 0.0, 0.0);
  ASSERT_EQ(controller.level(), 2);
  EXPECT_EQ(controller.onTick(0, 100, 0.0, 0.0), 2);   // calm #1
  EXPECT_EQ(controller.onTick(80, 100, 0.0, 0.0), 3);  // pressure resets
  EXPECT_EQ(controller.onTick(0, 100, 0.0, 0.0), 3);   // calm #1 again
  EXPECT_EQ(controller.onTick(0, 100, 0.0, 0.0), 2);   // calm #2 -> down
}

// ------------------------------------------------- detector options

TEST(DetectOptions, DefaultOptionsAreBitwiseIdenticalToPlainDetect) {
  auto detector = makeDetector(/*temporal=*/false, /*maxLevels=*/2);
  const Image frame = testFrame();
  const auto plain = detector->detect(frame);
  core::DegradationReport report;
  const auto optioned =
      detector->detect(frame, core::DetectOptions{}, &report);
  ASSERT_EQ(plain.size(), optioned.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].score, optioned[i].score);
    EXPECT_EQ(plain[i].box.x, optioned[i].box.x);
  }
  EXPECT_FALSE(report.degraded());
}

TEST(DetectOptions, SkipFinestLevelsIsAttributedAsUnavailable) {
  auto detector = makeDetector(/*temporal=*/false, /*maxLevels=*/3);
  const Image frame = testFrame();
  core::DegradationReport report;
  core::DetectOptions options;
  options.skipFinestLevels = 1;
  detector->detect(frame, options, &report);
  ASSERT_GE(report.levelsSkipped, 1);
  ASSERT_FALSE(report.skips.empty());
  EXPECT_EQ(report.skips[0].level, 0);  // the finest level goes first
  EXPECT_EQ(report.skips[0].status.code(), StatusCode::kUnavailable);
  EXPECT_GT(report.skips[0].windowsLost, 0);
}

TEST(BatchOptions, PastDeadlineAbandonsAFrameMidBurst) {
  for (bool temporal : {false, true}) {
    auto detector = makeDetector(temporal, /*maxLevels=*/2);
    std::vector<Image> frames = {testFrame(320, 240, 1, 0),
                                 testFrame(320, 240, 1, 1)};
    core::BatchOptions options;
    options.deadlineUs = {0.0, 1.0};  // frame 1's deadline passed long ago
    std::vector<core::DegradationReport> reports;
    const auto result = detector->detectBatch(frames, options, &reports);
    ASSERT_EQ(reports.size(), 2u);
    EXPECT_FALSE(reports[0].degraded()) << "temporal=" << temporal;
    ASSERT_GE(reports[1].levelsSkipped, 1) << "temporal=" << temporal;
    EXPECT_TRUE(result.frames[1].detections.empty());
    for (const core::LevelSkip& skip : reports[1].skips) {
      EXPECT_EQ(skip.status.code(), StatusCode::kDeadlineExceeded);
    }
  }
}

/// Forwards to a wrapped extractor. Once armed with a deadline, its next
/// cellGrid call -- the first level a frame recomputes cells on, which is
/// level 0 here -- sleeps until that deadline has passed.
class DeadlineCrossingExtractor final : public extract::FeatureExtractor {
 public:
  explicit DeadlineCrossingExtractor(
      std::shared_ptr<extract::FeatureExtractor> inner)
      : FeatureExtractor(inner->name(), inner->layout(), inner->bins(),
                         inner->windowCellsX(), inner->windowCellsY(),
                         inner->cellSize()),
        inner_(std::move(inner)) {}

  void arm(double deadlineUs) { deadlineUs_ = deadlineUs; }

  hog::CellGrid cellGrid(const Image& image) override {
    if (deadlineUs_ > 0.0) {
      while (obs::nowMicros() <= deadlineUs_) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      deadlineUs_ = 0.0;
    }
    return inner_->cellGrid(image);
  }
  extract::ExtractorInfo info() const override { return inner_->info(); }

 private:
  std::shared_ptr<extract::FeatureExtractor> inner_;
  double deadlineUs_ = 0.0;
};

// A deadline that passes while level 0 computes its cells: level 0 passed
// its deadline check, so its windows are still scored and its detections
// survive; every later level is abandoned as kDeadlineExceeded with its
// windows counted lost. Checked on a cold frame and on a warm one, at 1
// and 4 threads.
TEST(BatchOptions, DeadlinePassingMidFrameKeepsTheLevelItInterrupted) {
  constexpr int kLevels = 3;
  const int restoreThreads = threadCount();
  const std::vector<Image> frames = {testFrame(320, 240, 3, 0),
                                     testFrame(320, 240, 3, 1),
                                     testFrame(320, 240, 3, 2)};
  auto inner =
      extract::makeExtractor("hog", extract::FeatureLayout::kBlockNorm);
  GridDetectorParams params;
  params.scoreThreshold = 2.0f;
  params.pyramid.maxLevels = kLevels;
  params.temporal.smooth = false;
  const core::WindowScorer scorer = instrumentedScorer(inner->featureDim());
  GridDetectorParams finestOnly = params;
  finestOnly.pyramid.maxLevels = 1;
  const GridDetector finest(finestOnly, inner, scorer);
  const GridDetector full(params, inner, scorer);
  // Each level's window count, from a frame that sheds every level.
  core::DegradationReport allShed;
  core::DetectOptions shedAll;
  shedAll.skipFinestLevels = kLevels;
  full.detect(frames[0], shedAll, &allShed);
  ASSERT_EQ(allShed.skips.size(), static_cast<std::size_t>(kLevels));

  for (int threads : {1, 4}) {
    setThreadCount(threads);
    for (bool warm : {false, true}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " warm=" << warm);
      auto crossing = std::make_shared<DeadlineCrossingExtractor>(inner);
      GridDetector detector(params, crossing, scorer);
      if (warm) detector.detectBatch({frames[0]});
      const Image& frame = frames[warm ? 1 : 0];
      // Far enough ahead that level 0 passes its check on a slow
      // (sanitized) build; level 0's cellGrid then waits the rest out.
      const double deadlineUs = obs::nowMicros() + 200000.0;
      crossing->arm(deadlineUs);
      core::BatchOptions options;
      options.deadlineUs = {deadlineUs};
      std::vector<core::DegradationReport> reports;
      const core::BatchDetectResult result =
          detector.detectBatch({frame}, options, &reports);
      ASSERT_EQ(reports.size(), 1u);
      const core::DegradationReport& report = reports[0];

      const auto expected = finest.detect(frame);
      ASSERT_FALSE(expected.empty());
      const auto& got = result.frames[0].detections;
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].score, expected[i].score) << "det " << i;
        EXPECT_EQ(got[i].box.x, expected[i].box.x) << "det " << i;
        EXPECT_EQ(got[i].box.y, expected[i].box.y) << "det " << i;
      }
      if (!warm) {
        EXPECT_EQ(result.frames[0].stats.windowsRescored,
                  allShed.skips[0].windowsLost);
      } else {
        EXPECT_GT(result.frames[0].stats.windowsRescored, 0);
      }

      ASSERT_EQ(report.levelsSkipped, kLevels - 1);
      ASSERT_EQ(report.skips.size(), static_cast<std::size_t>(kLevels - 1));
      long lost = 0;
      for (int k = 1; k < kLevels; ++k) {
        const core::LevelSkip& skip =
            report.skips[static_cast<std::size_t>(k - 1)];
        EXPECT_EQ(skip.level, k);
        EXPECT_EQ(skip.status.code(), StatusCode::kDeadlineExceeded);
        EXPECT_EQ(skip.windowsLost,
                  allShed.skips[static_cast<std::size_t>(k)].windowsLost);
        EXPECT_GT(skip.windowsLost, 0);
        lost += skip.windowsLost;
      }
      EXPECT_EQ(report.windowsLost, lost);

      // The abandoned levels rebuild on the next frame.
      const core::BatchDetectResult next = detector.detectBatch({frames[2]});
      const auto reference = full.detect(frames[2]);
      ASSERT_EQ(next.frames[0].detections.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(next.frames[0].detections[i].score, reference[i].score);
      }
    }
  }
  setThreadCount(restoreThreads);
}

// A deadline that passes while level 0's windows are being scored: every
// level is through its cell stage, and all of them share one scoring job.
// Level 0 is still scored whole; the rows of later levels still queued are
// skipped, so each later level is abandoned as kDeadlineExceeded with its
// windows counted lost. At 4 threads each thread's first window sleeps
// past the deadline, so at most 4 rows (all of level 0's 15) start before
// it. Checked on a cold frame and on a warm one, at 1 and 4 threads.
TEST(BatchOptions, DeadlinePassingWhileScoringKeepsOnlyTheFirstLevel) {
  constexpr int kLevels = 3;
  const int restoreThreads = threadCount();
  const std::vector<Image> frames = {testFrame(320, 240, 3, 0),
                                     testFrame(320, 240, 3, 1),
                                     testFrame(320, 240, 3, 2)};
  auto extractor =
      extract::makeExtractor("hog", extract::FeatureLayout::kBlockNorm);
  GridDetectorParams params;
  params.scoreThreshold = 2.0f;
  params.pyramid.maxLevels = kLevels;
  params.temporal.smooth = false;
  const core::WindowScorer scorer =
      instrumentedScorer(extractor->featureDim());
  // Sleeps until the armed deadline has passed, then scores as `scorer`.
  auto armedUs = std::make_shared<std::atomic<double>>(0.0);
  const core::WindowScorer sleepy = [scorer,
                                     armedUs](const std::vector<float>& f) {
    const double until = armedUs->load();
    while (obs::nowMicros() <= until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return scorer(f);
  };
  GridDetectorParams finestOnly = params;
  finestOnly.pyramid.maxLevels = 1;
  const GridDetector finest(finestOnly, extractor, scorer);
  const GridDetector full(params, extractor, scorer);
  core::DegradationReport allShed;
  core::DetectOptions shedAll;
  shedAll.skipFinestLevels = kLevels;
  full.detect(frames[0], shedAll, &allShed);
  ASSERT_EQ(allShed.skips.size(), static_cast<std::size_t>(kLevels));

  for (int threads : {1, 4}) {
    setThreadCount(threads);
    for (bool warm : {false, true}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " warm=" << warm);
      armedUs->store(0.0);
      GridDetector detector(params, extractor, sleepy);
      if (warm) detector.detectBatch({frames[0]});
      const Image& frame = frames[warm ? 1 : 0];
      // Far enough ahead that every level gets through its cell stage on
      // a slow (sanitized) build; the first scored window waits it out.
      const double deadlineUs = obs::nowMicros() + 200000.0;
      armedUs->store(deadlineUs);
      core::BatchOptions options;
      options.deadlineUs = {deadlineUs};
      std::vector<core::DegradationReport> reports;
      const core::BatchDetectResult result =
          detector.detectBatch({frame}, options, &reports);
      ASSERT_EQ(reports.size(), 1u);
      const core::DegradationReport& report = reports[0];

      const auto expected = finest.detect(frame);
      ASSERT_FALSE(expected.empty());
      const auto& got = result.frames[0].detections;
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].score, expected[i].score) << "det " << i;
        EXPECT_EQ(got[i].box.x, expected[i].box.x) << "det " << i;
        EXPECT_EQ(got[i].box.y, expected[i].box.y) << "det " << i;
      }

      ASSERT_EQ(report.levelsSkipped, kLevels - 1);
      ASSERT_EQ(report.skips.size(), static_cast<std::size_t>(kLevels - 1));
      long lost = 0;
      for (int k = 1; k < kLevels; ++k) {
        const core::LevelSkip& skip =
            report.skips[static_cast<std::size_t>(k - 1)];
        EXPECT_EQ(skip.level, k);
        EXPECT_EQ(skip.status.code(), StatusCode::kDeadlineExceeded);
        EXPECT_EQ(skip.windowsLost,
                  allShed.skips[static_cast<std::size_t>(k)].windowsLost);
        lost += skip.windowsLost;
      }
      EXPECT_EQ(report.windowsLost, lost);

      // The abandoned levels rebuild on the next frame.
      const core::BatchDetectResult next = detector.detectBatch({frames[2]});
      const auto reference = full.detect(frames[2]);
      ASSERT_EQ(next.frames[0].detections.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(next.frames[0].detections[i].score, reference[i].score);
      }
    }
  }
  setThreadCount(restoreThreads);
}

TEST(BatchOptions, TemporalCacheRebuildsAfterShedLevelReenabled) {
  // A level shed on the temporal path must not leave stale cached state
  // behind: frame 2 (nothing shed) must match a never-shed run bitwise.
  std::vector<Image> frames = {testFrame(320, 240, 5, 0),
                               testFrame(320, 240, 5, 1),
                               testFrame(320, 240, 5, 2)};
  auto shedThenFull = makeDetector(/*temporal=*/true, /*maxLevels=*/2);
  core::BatchOptions shedMiddle;
  shedMiddle.detect.skipFinestLevels = 1;
  shedThenFull->detectBatch({frames[0], frames[1]}, shedMiddle);
  const auto afterShed = shedThenFull->detectBatch({frames[2]});

  auto alwaysFull = makeDetector(/*temporal=*/true, /*maxLevels=*/2);
  const auto reference = alwaysFull->detectBatch(frames);

  const auto& a = afterShed.frames[0].detections;
  const auto& b = reference.frames[2].detections;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].score, b[i].score) << "det " << i;
    EXPECT_EQ(a[i].box.x, b[i].box.x) << "det " << i;
    EXPECT_EQ(a[i].box.y, b[i].box.y) << "det " << i;
  }
}

// ------------------------------------------------------ admission

TEST(DetectionService, ExpiredRequestIsDroppedWithoutDetectorWork) {
  auto calls = std::make_shared<std::atomic<long>>(0);
  auto detector =
      makeDetector(/*temporal=*/false, /*maxLevels=*/1, calls);
  ServiceParams params = quietParams();
  DetectionService service(params, detector);
  // The deadline (1 nanosecond) has always already passed by the time the
  // worker wakes, takes the queue lock, and reads the clock.
  Response response = service.detectNow(testFrame(), /*deadlineMs=*/1e-6);
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.detections.empty());
  EXPECT_EQ(calls->load(), 0) << "expired request reached the detector";
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.expired, 1);
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.completed, 1);
}

TEST(DetectionService, FullQueueRejectsWithUnavailable) {
  auto gate = std::make_shared<Gate>();
  auto calls = std::make_shared<std::atomic<long>>(0);
  auto detector =
      makeDetector(/*temporal=*/false, /*maxLevels=*/1, calls, 0, gate);
  ServiceParams params = quietParams();
  params.queueCapacity = 2;
  params.maxBatch = 1;
  DetectionService service(params, detector);
  const Image frame = testFrame();

  auto first = service.submit(frame);
  ASSERT_TRUE(first.ok());
  // Wait for the worker to start scoring (and block on the gate), so the
  // first request occupies the worker, not a queue slot.
  ASSERT_TRUE(waitUntil([&] { return calls->load() > 0; }, 5000));

  auto second = service.submit(frame);
  auto third = service.submit(frame);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(third.ok());
  auto fourth = service.submit(frame);
  ASSERT_FALSE(fourth.ok());
  EXPECT_EQ(fourth.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(service.stats().rejected, 1);

  gate->release();
  EXPECT_TRUE(first.value().get().status.ok());
  EXPECT_TRUE(second.value().get().status.ok());
  EXPECT_TRUE(third.value().get().status.ok());
}

TEST(DetectionService, StopDrainsQueuedRequests) {
  auto detector = makeDetector(/*temporal=*/false, /*maxLevels=*/1);
  ServiceParams params = quietParams();
  params.maxBatch = 2;
  DetectionService service(params, detector);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 3; ++i) {
    auto admitted = service.submit(testFrame());
    ASSERT_TRUE(admitted.ok());
    futures.push_back(std::move(admitted.value()));
  }
  service.stop();
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  // Post-stop submissions are refused, typed.
  auto late = service.submit(testFrame());
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
}

// ------------------------------------------------- degradation ladder

TEST(DetectionService, LadderDegradesUnderOverloadAndRecovers) {
  // A slow scorer (50us per window) makes each frame cost ~5-15ms, so a
  // burst of instant submissions drives queue utilization past the
  // degrade threshold; once the flood stops, idle ticks recover the
  // ladder to full quality.
  auto detector = makeDetector(/*temporal=*/false, /*maxLevels=*/1, nullptr,
                               /*sleepUs=*/50);
  ServiceParams params = quietParams();
  params.queueCapacity = 4;
  params.maxBatch = 1;
  params.controller.recoverHoldTicks = 2;
  DetectionService service(params, detector);
  const Image frame = testFrame();

  std::vector<std::future<Response>> futures;
  bool sawDegradedLevel = false;
  const auto floodDeadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < floodDeadline) {
    auto admitted = service.submit(frame);
    if (admitted.ok()) futures.push_back(std::move(admitted.value()));
    if (service.stats().level > 0) {
      sawDegradedLevel = true;
      break;
    }
    // Yield to the worker: the single-core CI container needs the flood
    // loop to give batches a chance to complete (and tick the controller).
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_TRUE(sawDegradedLevel) << "overload never degraded the ladder";

  // Stop submitting: the queue drains and idle ticks walk the ladder back.
  EXPECT_TRUE(waitUntil(
      [&] {
        const serve::ServiceStats stats = service.stats();
        return stats.level == 0 && stats.queueDepth == 0;
      },
      10000))
      << "ladder never recovered after the flood";
  const serve::ServiceStats stats = service.stats();
  EXPECT_GE(stats.transitions, 2);  // at least one up and one down

  bool sawDegradedResponse = false;
  for (auto& future : futures) {
    Response response = future.get();
    ASSERT_TRUE(response.status.ok());
    if (response.servedAt != ServiceLevel::kFull) sawDegradedResponse = true;
  }
  EXPECT_TRUE(sawDegradedResponse);
  EXPECT_GE(service.stats().degraded, 1);
}

TEST(DetectionService, FallbackDetectorServesDeepRungs) {
  auto primaryCalls = std::make_shared<std::atomic<long>>(0);
  auto fallbackCalls = std::make_shared<std::atomic<long>>(0);
  auto primary = makeDetector(/*temporal=*/false, /*maxLevels=*/1,
                              primaryCalls, /*sleepUs=*/50);
  auto fallback =
      makeDetector(/*temporal=*/false, /*maxLevels=*/1, fallbackCalls);
  ServiceParams params = quietParams();
  params.queueCapacity = 4;
  params.maxBatch = 1;
  DetectionService service(params, primary, fallback);
  const Image frame = testFrame();

  std::vector<std::future<Response>> futures;
  const auto floodDeadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < floodDeadline) {
    auto admitted = service.submit(frame);
    if (admitted.ok()) futures.push_back(std::move(admitted.value()));
    if (service.stats().level >=
        static_cast<int>(ServiceLevel::kFallback)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_GE(service.stats().level, static_cast<int>(ServiceLevel::kFallback))
      << "overload never reached the fallback rung";
  // Let the queued work drain at the fallback rung.
  EXPECT_TRUE(
      waitUntil([&] { return service.stats().queueDepth == 0; }, 10000));
  EXPECT_GT(fallbackCalls->load(), 0)
      << "fallback rung never used the fallback detector";
  bool sawFallbackResponse = false;
  for (auto& future : futures) {
    if (future.get().servedAt == ServiceLevel::kFallback) {
      sawFallbackResponse = true;
    }
  }
  EXPECT_TRUE(sawFallbackResponse);
}

// ------------------------------------------------- bitwise identity

TEST(DetectionService, UnloadedServiceMatchesDirectDetectBatchBitwise) {
  for (int threads : {1, 4}) {
    setThreadCount(threads);
    std::vector<Image> frames;
    for (int f = 0; f < 4; ++f) frames.push_back(testFrame(320, 240, 3, f));

    auto direct = makeDetector(/*temporal=*/true, /*maxLevels=*/2);
    const core::BatchDetectResult reference = direct->detectBatch(frames);

    auto served = makeDetector(/*temporal=*/true, /*maxLevels=*/2);
    ServiceParams params = quietParams();
    DetectionService service(params, served);
    for (std::size_t f = 0; f < frames.size(); ++f) {
      Response response = service.detectNow(frames[f]);
      ASSERT_TRUE(response.status.ok()) << "threads=" << threads;
      EXPECT_EQ(response.servedAt, ServiceLevel::kFull);
      EXPECT_FALSE(response.degradation.degraded());
      const auto& expect = reference.frames[f].detections;
      ASSERT_EQ(response.detections.size(), expect.size())
          << "threads=" << threads << " frame " << f;
      for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(response.detections[i].score, expect[i].score);
        EXPECT_EQ(response.detections[i].box.x, expect[i].box.x);
        EXPECT_EQ(response.detections[i].box.y, expect[i].box.y);
        EXPECT_EQ(response.detections[i].box.w, expect[i].box.w);
        EXPECT_EQ(response.detections[i].box.h, expect[i].box.h);
      }
    }
  }
  setThreadCount(1);
}

// ---------------------------------------------------- env + provenance

TEST(ServiceParams, EnvOverridesQueueAndDeadline) {
  ScopedEnv queueEnv("PCNN_SERVE_QUEUE", "3");
  ScopedEnv deadlineEnv("PCNN_SERVE_DEADLINE_MS", "250");
  auto detector = makeDetector(/*temporal=*/false, /*maxLevels=*/1);
  ServiceParams params;  // readEnv defaults to true
  DetectionService service(params, detector);
  EXPECT_EQ(service.params().queueCapacity, 3u);
  EXPECT_EQ(service.params().deadlineMs, 250.0);
}

TEST(ServiceParams, UnsetEnvKeepsTheCallersValuesExactly) {
  ::unsetenv("PCNN_SERVE_QUEUE");
  ::unsetenv("PCNN_SERVE_DEADLINE_MS");
  auto detector = makeDetector(/*temporal=*/false, /*maxLevels=*/1);
  ServiceParams params;  // readEnv defaults to true
  params.deadlineMs = 0.5;  // sub-millisecond: must not round to "off"
  params.queueCapacity = (std::size_t{1} << 32) + 5;  // wider than int
  DetectionService service(params, detector);
  EXPECT_EQ(service.params().deadlineMs, 0.5);
  EXPECT_EQ(service.params().queueCapacity, (std::size_t{1} << 32) + 5);
}

TEST(Provenance, RecordsServeEnvVars) {
  ScopedEnv queueEnv("PCNN_SERVE_QUEUE", "17");
  ScopedEnv deadlineEnv("PCNN_SERVE_DEADLINE_MS", "33");
  const obs::Provenance p = obs::provenance();
  EXPECT_EQ(p.serveQueueEnv, "17");
  EXPECT_EQ(p.serveDeadlineEnv, "33");
  const std::string json = obs::provenanceJson(p);
  EXPECT_NE(json.find("\"serve_queue_env\": \"17\""), std::string::npos);
  EXPECT_NE(json.find("\"serve_deadline_ms_env\": \"33\""),
            std::string::npos);
}

}  // namespace
}  // namespace pcnn
