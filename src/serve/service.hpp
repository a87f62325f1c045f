#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "core/degradation.hpp"
#include "core/detector.hpp"
#include "obs/obs.hpp"
#include "vision/image.hpp"
#include "vision/nms.hpp"

namespace pcnn::serve {

/// Detection-as-a-service: a long-lived DetectionService that accepts
/// frame requests on a bounded admission queue, batches compatible
/// (same-sized) requests through GridDetector::detectBatch, enforces
/// per-request deadlines -- checked at dequeue (expired work is dropped
/// before any detector cycles are spent on it) and between pyramid levels
/// (via core::BatchOptions deadlines) -- and sheds load under pressure
/// through an explicit, hysteresis-guarded degradation ladder:
///
///   level 0  full      primary detector, full pyramid
///   level 1  coarse    primary detector, finest pyramid level(s) shed
///   level 2  fallback  cheaper fallback detector (e.g. parrot ->
///                      fixedpoint, the HOG-vs-CNN energy tradeoff of
///                      Suleiman et al. 1703.05853), or deeper shedding
///                      when no fallback detector was provided
///   level 3  reject    admission closed: new submissions are refused
///                      with kUnavailable; queued work still drains at
///                      the fallback configuration
///
/// The ladder is driven by two signals evaluated on every control tick
/// (after each batch, and periodically while idle): admission-queue
/// utilization and the windowed p99 of end-to-end latency, computed with
/// the same log2-bucket interpolation the src/obs streaming exporter uses
/// (obs::quantileFromDeltaBuckets) against the service's own baseline, so
/// the signal works even when PCNN_METRICS is unset.

/// Degradation-ladder rungs, coarsest quality last.
enum class ServiceLevel : int {
  kFull = 0,
  kCoarse = 1,
  kFallback = 2,
  kReject = 3,
};

/// Stable lower-case name ("full", "coarse", "fallback", "reject").
const char* serviceLevelName(ServiceLevel level);

/// Hysteresis thresholds for the degradation ladder. The ladder steps
/// *up* (degrades) immediately when either signal crosses its degrade
/// threshold, but steps *down* (recovers) only after `recoverHoldTicks`
/// consecutive calm ticks -- one flapping-guard per direction, so a queue
/// oscillating around a threshold cannot toggle quality every batch.
struct ControllerParams {
  double degradeQueueFrac = 0.75;   ///< step up when depth > frac*capacity
  double recoverQueueFrac = 0.25;   ///< calm requires depth < frac*capacity
  /// Latency signal, as fractions of the deadline budget: step up when
  /// windowed p99 > degradeLatencyFrac * deadline; calm requires p99 <
  /// recoverLatencyFrac * deadline. Disabled when the service has no
  /// deadline budget.
  double degradeLatencyFrac = 0.90;
  double recoverLatencyFrac = 0.50;
  int recoverHoldTicks = 3;  ///< calm ticks required before stepping down
  int maxLevel = static_cast<int>(ServiceLevel::kReject);
};

/// The ladder's state machine, separated from the service so the
/// hysteresis logic is deterministic and unit-testable: feed it queue
/// depth and windowed p99, read the level.
class LoadController {
 public:
  explicit LoadController(const ControllerParams& params = {})
      : params_(params) {}

  int level() const { return level_; }

  /// One control tick. `p99Us` is the windowed end-to-end p99 (0 for an
  /// empty window); `deadlineUs` <= 0 disables the latency signal.
  /// Returns the (possibly changed) level. Steps at most one rung per
  /// tick in either direction.
  int onTick(std::size_t queueDepth, std::size_t queueCapacity, double p99Us,
             double deadlineUs);

 private:
  ControllerParams params_;
  int level_ = 0;
  int calmTicks_ = 0;
};

/// Service configuration. Environment overrides (applied at construction
/// unless `readEnv` is false): PCNN_SERVE_QUEUE (admission-queue
/// capacity) and PCNN_SERVE_DEADLINE_MS (default per-request deadline
/// budget; 0 disables deadlines). An unset or malformed variable leaves
/// its field exactly as given.
struct ServiceParams {
  std::size_t queueCapacity = 64;
  /// Default per-request deadline budget in ms; <= 0 = no deadline.
  double deadlineMs = 0.0;
  /// Max compatible requests folded into one detectBatch call.
  int maxBatch = 4;
  /// Finest pyramid levels shed at the coarse rung (level 2 doubles this
  /// when no fallback detector was provided).
  int coarseSkipLevels = 1;
  ControllerParams controller;
  /// Worker wake-up period while the queue is idle, so the ladder can
  /// recover (hysteresis ticks) without traffic.
  int idleTickMs = 2;
  bool readEnv = true;  ///< apply PCNN_SERVE_* overrides in the ctor
};

/// One served (or refused) request.
struct Response {
  /// OK for served requests (possibly degraded -- see `degradation`);
  /// kDeadlineExceeded for requests that expired on the queue and were
  /// dropped at dequeue without any detector work.
  Status status;
  std::vector<vision::Detection> detections;
  /// What the request gave up: shed levels (kUnavailable), levels
  /// abandoned past the deadline mid-scan (kDeadlineExceeded), plus any
  /// failure-driven skips and fault attribution from the detector.
  core::DegradationReport degradation;
  ServiceLevel servedAt = ServiceLevel::kFull;  ///< ladder rung served at
  double queueUs = 0.0;   ///< admission -> dequeue
  double detectUs = 0.0;  ///< detector wall time for the request's batch
};

/// Monotonic service accounting (always on, independent of PCNN_METRICS;
/// the same values are mirrored into obs counters/gauges for export).
struct ServiceStats {
  long admitted = 0;
  long rejected = 0;   ///< refused at admission (queue full / reject rung)
  long expired = 0;    ///< dropped at dequeue past their deadline
  long degraded = 0;   ///< served below full quality (rung > 0)
  long completed = 0;  ///< responses delivered (incl. expired/drained)
  long transitions = 0;  ///< ladder level changes
  int level = 0;         ///< current ladder level
  std::size_t queueDepth = 0;
};

class DetectionService {
 public:
  /// `primary` serves levels 0-1; `fallback` (may be null) serves levels
  /// 2-3. Both detectors are driven only from the service worker thread,
  /// so their temporal caches are safe. With a null fallback, levels 2-3
  /// serve from `primary` with 2x the coarse shedding.
  DetectionService(const ServiceParams& params,
                   std::shared_ptr<core::GridDetector> primary,
                   std::shared_ptr<core::GridDetector> fallback = nullptr);
  ~DetectionService();  ///< stop() -- drains the queue, joins the worker

  DetectionService(const DetectionService&) = delete;
  DetectionService& operator=(const DetectionService&) = delete;

  /// Admission gate. Returns a future for the response, or a typed
  /// rejection without enqueuing anything: kUnavailable when the bounded
  /// queue is full, when the ladder sits at the reject rung, or when the
  /// service is stopped. `deadlineMs` overrides the service default for
  /// this request (< 0 = explicitly no deadline; 0 = use the default).
  StatusOr<std::future<Response>> submit(vision::Image frame,
                                         double deadlineMs = 0.0);

  /// submit + wait. A rejected submission comes back as a Response whose
  /// status carries the rejection (empty detections).
  Response detectNow(vision::Image frame, double deadlineMs = 0.0);

  /// Point-in-time counters and ladder state.
  ServiceStats stats() const;

  const ServiceParams& params() const { return params_; }

  /// Stops admission, serves every request still queued (except expired
  /// ones, which are dropped as usual), and joins the worker. Idempotent;
  /// called by the destructor.
  void stop();

 private:
  struct Pending {
    vision::Image frame;
    double deadlineUs = 0.0;  ///< absolute, obs::nowMicros() clock; 0=none
    double enqueueUs = 0.0;
    std::promise<Response> promise;
  };

  void workerLoop();
  /// Serves one dequeued batch outside the queue lock.
  void processBatch(std::vector<Pending>& batch);
  /// Controller tick + level bookkeeping (gauge, counters, flight event).
  void controlTick(std::size_t depthNow);

  ServiceParams params_;
  std::shared_ptr<core::GridDetector> primary_;
  std::shared_ptr<core::GridDetector> fallback_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;

  LoadController controller_;
  /// End-to-end latencies since the last controlTick, in the log2 buckets
  /// of obs::LatencyHistogram (recorded unconditionally -- obs histograms
  /// are gated on PCNN_METRICS), read with obs::quantileFromDeltaBuckets
  /// and cleared each tick. Worker-thread only.
  long tickLatencyBuckets_[obs::LatencyHistogram::kBuckets] = {};
  long tickLatencyCount_ = 0;

  /// Always-on accounting (stats()); mirrored into obs instruments.
  mutable std::mutex statsMutex_;
  ServiceStats stats_;

  std::thread worker_;
};

}  // namespace pcnn::serve
