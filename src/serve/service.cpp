#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "common/env.hpp"
#include "obs/flight.hpp"

namespace pcnn::serve {

namespace {

/// Registry instruments, resolved once. The service keeps its own
/// always-on ServiceStats; these mirrors exist so the streaming exporter
/// and flight recorder see the same story when PCNN_METRICS is on.
struct ServeMetrics {
  obs::Counter& admitted = obs::counter("serve.admitted");
  obs::Counter& rejected = obs::counter("serve.rejected");
  obs::Counter& expired = obs::counter("serve.expired");
  obs::Counter& degraded = obs::counter("serve.degraded");
  obs::Counter& completed = obs::counter("serve.completed");
  obs::Counter& transitions = obs::counter("serve.level.transitions");
  obs::Gauge& level = obs::gauge("serve.level");
  obs::Gauge& queueDepth = obs::gauge("serve.queue_depth");
  obs::LatencyHistogram& latencyUs = obs::histogram("serve.latency_us");
  obs::LatencyHistogram& queueUs = obs::histogram("serve.queue_us");
  obs::LatencyHistogram& detectUs = obs::histogram("serve.detect_us");
};

ServeMetrics& metrics() {
  static ServeMetrics m;
  return m;
}

int clampLevel(int level) {
  return std::clamp(level, 0, static_cast<int>(ServiceLevel::kReject));
}

}  // namespace

const char* serviceLevelName(ServiceLevel level) {
  switch (level) {
    case ServiceLevel::kFull: return "full";
    case ServiceLevel::kCoarse: return "coarse";
    case ServiceLevel::kFallback: return "fallback";
    case ServiceLevel::kReject: return "reject";
  }
  return "unknown";
}

int LoadController::onTick(std::size_t queueDepth, std::size_t queueCapacity,
                           double p99Us, double deadlineUs) {
  const double util =
      queueCapacity == 0
          ? 0.0
          : static_cast<double>(queueDepth) / static_cast<double>(queueCapacity);
  const bool latencySignal = deadlineUs > 0.0;
  const bool pressured =
      util > params_.degradeQueueFrac ||
      (latencySignal && p99Us > params_.degradeLatencyFrac * deadlineUs);
  // Calm is stricter than "not pressured": both signals must sit well
  // below their degrade thresholds, so the level cannot flap around a
  // single threshold.
  const bool calm =
      util < params_.recoverQueueFrac &&
      (!latencySignal || p99Us < params_.recoverLatencyFrac * deadlineUs);

  if (pressured) {
    calmTicks_ = 0;
    if (level_ < params_.maxLevel) ++level_;
  } else if (calm && level_ > 0) {
    if (++calmTicks_ >= params_.recoverHoldTicks) {
      --level_;
      calmTicks_ = 0;
    }
  } else {
    calmTicks_ = 0;
  }
  return level_;
}

DetectionService::DetectionService(
    const ServiceParams& params,
    std::shared_ptr<core::GridDetector> primary,
    std::shared_ptr<core::GridDetector> fallback)
    : params_(params),
      primary_(std::move(primary)),
      fallback_(std::move(fallback)),
      controller_(params.controller) {
  if (!primary_) {
    throw std::invalid_argument("DetectionService: primary detector is null");
  }
  if (params_.readEnv) {
    // Each fallback lies outside its variable's range, so it marks "unset
    // or malformed" and the caller's value stays exactly as given.
    const int queue = env::intValue("PCNN_SERVE_QUEUE", 0, 1, 1 << 20);
    if (queue > 0) params_.queueCapacity = static_cast<std::size_t>(queue);
    const int deadline =
        env::intValue("PCNN_SERVE_DEADLINE_MS", -1, 0, 1 << 30);
    if (deadline >= 0) params_.deadlineMs = deadline;
  }
  if (params_.maxBatch < 1) params_.maxBatch = 1;
  if (params_.idleTickMs < 1) params_.idleTickMs = 1;
  metrics().level.set(0.0);
  worker_ = std::thread([this] { workerLoop(); });
}

DetectionService::~DetectionService() { stop(); }

StatusOr<std::future<Response>> DetectionService::submit(vision::Image frame,
                                                         double deadlineMs) {
  std::future<Response> future;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      return Status::Unavailable("serve: service stopped");
    }
    {
      std::lock_guard<std::mutex> statsLock(statsMutex_);
      if (stats_.level >= static_cast<int>(ServiceLevel::kReject)) {
        ++stats_.rejected;
        metrics().rejected.add();
        return Status::Unavailable(
            "serve: admission closed (degradation ladder at reject)");
      }
      if (queue_.size() >= params_.queueCapacity) {
        ++stats_.rejected;
        metrics().rejected.add();
        return Status::Unavailable("serve: admission queue full");
      }
      ++stats_.admitted;
      stats_.queueDepth = queue_.size() + 1;
    }
    double budgetMs = deadlineMs;
    if (budgetMs == 0.0) budgetMs = params_.deadlineMs;
    Pending pending;
    pending.frame = std::move(frame);
    pending.enqueueUs = obs::nowMicros();
    pending.deadlineUs =
        budgetMs > 0.0 ? pending.enqueueUs + budgetMs * 1000.0 : 0.0;
    future = pending.promise.get_future();
    queue_.push_back(std::move(pending));
    metrics().admitted.add();
    metrics().queueDepth.set(static_cast<double>(queue_.size()));
  }
  cv_.notify_all();
  return future;
}

Response DetectionService::detectNow(vision::Image frame, double deadlineMs) {
  StatusOr<std::future<Response>> admitted =
      submit(std::move(frame), deadlineMs);
  if (!admitted.ok()) {
    Response response;
    response.status = admitted.status();
    return response;
  }
  return admitted.value().get();
}

ServiceStats DetectionService::stats() const {
  std::lock_guard<std::mutex> lock(statsMutex_);
  return stats_;
}

void DetectionService::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ && !worker_.joinable()) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void DetectionService::workerLoop() {
  const auto idleTick = std::chrono::milliseconds(params_.idleTickMs);
  std::vector<Pending> expired;
  std::vector<Pending> batch;
  for (;;) {
    expired.clear();
    batch.clear();
    std::size_t depthAfter = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock, idleTick,
                   [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) break;
      // Dequeue: drop expired requests first (no detector work spent on
      // them), then gather up to maxBatch same-sized frames. A frame of
      // different dimensions stays queued and starts the next batch.
      const double nowUs = obs::nowMicros();
      while (!queue_.empty() &&
             static_cast<int>(batch.size()) < params_.maxBatch) {
        Pending& head = queue_.front();
        if (head.deadlineUs > 0.0 && nowUs > head.deadlineUs) {
          expired.push_back(std::move(head));
          queue_.pop_front();
          continue;
        }
        if (!batch.empty() &&
            (head.frame.width() != batch.front().frame.width() ||
             head.frame.height() != batch.front().frame.height())) {
          break;
        }
        batch.push_back(std::move(head));
        queue_.pop_front();
      }
      depthAfter = queue_.size();
    }
    metrics().queueDepth.set(static_cast<double>(depthAfter));
    {
      std::lock_guard<std::mutex> statsLock(statsMutex_);
      stats_.queueDepth = depthAfter;
    }

    for (Pending& pending : expired) {
      Response response;
      response.status = Status::DeadlineExceeded(
          "serve: request expired on the admission queue");
      response.queueUs = obs::nowMicros() - pending.enqueueUs;
      {
        std::lock_guard<std::mutex> statsLock(statsMutex_);
        ++stats_.expired;
        ++stats_.completed;
        stats_.queueDepth = depthAfter;
      }
      metrics().expired.add();
      metrics().completed.add();
      pending.promise.set_value(std::move(response));
    }

    if (!batch.empty()) processBatch(batch);
    // The tick reads the depth NOW, not the dequeue-time snapshot: the
    // queue refills while a batch is being served, and that refill is
    // exactly the pressure signal the ladder must see.
    std::size_t depthNow;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      depthNow = queue_.size();
    }
    {
      std::lock_guard<std::mutex> statsLock(statsMutex_);
      stats_.queueDepth = depthNow;
    }
    metrics().queueDepth.set(static_cast<double>(depthNow));
    controlTick(depthNow);
  }
}

void DetectionService::processBatch(std::vector<Pending>& batch) {
  // Even at the reject rung, already-admitted work drains -- at the
  // fallback configuration, never dropped.
  const int level =
      std::min(controller_.level(), static_cast<int>(ServiceLevel::kFallback));
  PCNN_SPAN_ARG("serve.batch", "level", level);

  core::GridDetector* detector = primary_.get();
  core::BatchOptions options;
  if (level >= static_cast<int>(ServiceLevel::kFallback)) {
    if (fallback_) {
      detector = fallback_.get();
    } else {
      // No cheaper backend available: degrade by shedding twice as deep.
      options.detect.skipFinestLevels = 2 * params_.coarseSkipLevels;
    }
  } else if (level == static_cast<int>(ServiceLevel::kCoarse)) {
    options.detect.skipFinestLevels = params_.coarseSkipLevels;
  }

  std::vector<vision::Image> frames;
  frames.reserve(batch.size());
  options.deadlineUs.reserve(batch.size());
  const double dequeueUs = obs::nowMicros();
  for (Pending& pending : batch) {
    frames.push_back(std::move(pending.frame));
    options.deadlineUs.push_back(pending.deadlineUs);
  }

  std::vector<core::DegradationReport> reports;
  const double detectStartUs = obs::nowMicros();
  core::BatchDetectResult result =
      detector->detectBatch(frames, options, &reports);
  const double detectUs = obs::nowMicros() - detectStartUs;
  metrics().detectUs.record(detectUs);

  const bool degradedLevel = level > 0;
  {
    std::lock_guard<std::mutex> statsLock(statsMutex_);
    stats_.completed += static_cast<long>(batch.size());
    if (degradedLevel) stats_.degraded += static_cast<long>(batch.size());
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Response response;
    response.detections = std::move(result.frames[i].detections);
    if (i < reports.size()) response.degradation = reports[i];
    response.servedAt = static_cast<ServiceLevel>(level);
    response.queueUs = dequeueUs - batch[i].enqueueUs;
    response.detectUs = detectUs;
    metrics().completed.add();
    if (degradedLevel) metrics().degraded.add();
    metrics().queueUs.record(response.queueUs);
    const double latencyUs = obs::nowMicros() - batch[i].enqueueUs;
    metrics().latencyUs.record(latencyUs);
    ++tickLatencyBuckets_[obs::LatencyHistogram::bucketIndex(latencyUs)];
    ++tickLatencyCount_;
    batch[i].promise.set_value(std::move(response));
  }
}

void DetectionService::controlTick(std::size_t depthNow) {
  // The p99 of this tick's latencies -- the same quantile math the
  // metrics export uses, but over private buckets so the control loop
  // neither depends on PCNN_METRICS nor steals the exporter's window.
  const double p99Us = obs::quantileFromDeltaBuckets(tickLatencyBuckets_,
                                                     tickLatencyCount_, 0.99);
  std::fill(std::begin(tickLatencyBuckets_), std::end(tickLatencyBuckets_), 0);
  tickLatencyCount_ = 0;

  const int before = controller_.level();
  const int after = controller_.onTick(depthNow, params_.queueCapacity, p99Us,
                                       params_.deadlineMs * 1000.0);
  if (after == before) return;

  const int level = clampLevel(after);
  {
    std::lock_guard<std::mutex> statsLock(statsMutex_);
    ++stats_.transitions;
    stats_.level = level;
    stats_.queueDepth = depthNow;
  }
  metrics().transitions.add();
  metrics().level.set(static_cast<double>(level));
  PCNN_SPAN_ARG("serve.level", "level", level);
  if (after > before) {
    // Degrading is fault-ish: leave the recent history in the flight
    // recorder so a shed window in a long run can be reconstructed.
    obs::noteFaultEvent("serve.level.degrade");
  }
}

}  // namespace pcnn::serve
