#pragma once

// Shared pieces of the repository benchmark: sample statistics, the input
// digest, the timing hooks the detector calls through (a forwarding
// FeatureExtractor and a wrapped WindowScorer, both defined here rather than
// inside src/), bundle round trips, and the Workload interface every named
// workload implements.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "extract/extractor.hpp"
#include "vision/image.hpp"
#include "vision/nms.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// A set of measurements with linearly interpolated quantiles.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other);
  std::size_t size() const { return values_.size(); }
  double at(std::size_t i) const { return values_.at(i); }
  double sum() const;
  double mean() const;
  /// q in [0, 1]; 0 for an empty set.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double min() const { return quantile(0.0); }
  double max() const { return quantile(1.0); }

 private:
  std::vector<double> values_;
};

/// FNV-1a 64 over the generated workload inputs: the same seed must give
/// the same digest, which the benchmark's own tests check.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  void image(const pcnn::vision::Image& img);
  void number(double v) { bytes(&v, sizeof v); }
  std::string hex() const;

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

/// Forwards every call to a wrapped extractor and, while armed, times the
/// cellGrid calls the detector makes (full levels and the
/// tryUpdateCellGrid crops of the temporal path alike) and counts the
/// cells they computed. cellGrid runs on one caller thread at a time, so
/// plain fields suffice.
class TimedExtractor final : public pcnn::extract::FeatureExtractor {
 public:
  explicit TimedExtractor(std::shared_ptr<pcnn::extract::FeatureExtractor> inner);

  pcnn::hog::CellGrid cellGrid(const pcnn::vision::Image& image) override;
  std::vector<float> windowFeatures(const pcnn::vision::Image& window) override;
  std::vector<std::vector<float>> batchFeatures(
      const std::vector<pcnn::vision::Image>& windows) override;
  pcnn::extract::ExtractorInfo info() const override;
  bool statelessExtraction() const override;
  bool hasTrainedState() const override;

  void arm(bool on) { armed_ = on; }
  /// Cells computed by armed calls since the last reset.
  long cells() const { return cells_; }
  double ms() const { return ms_; }
  void reset() { ms_ = 0.0; cells_ = 0; }

 private:
  std::shared_ptr<pcnn::extract::FeatureExtractor> inner_;
  bool armed_ = false;
  double ms_ = 0.0;
  long cells_ = 0;
};

/// Wraps a WindowScorer. While armed, each call's time is added to one of a
/// few padded per-thread slots (the scan calls the scorer from every pool
/// thread), so the sum is scorer CPU time across threads.
class ScorerClock {
 public:
  pcnn::core::WindowScorer wrap(pcnn::core::WindowScorer inner);
  void arm(bool on) { armed_.store(on, std::memory_order_relaxed); }
  double cpuMs() const;
  long calls() const;
  void reset();

 private:
  struct alignas(64) Slot {
    std::atomic<long long> ns{0};
    std::atomic<long> calls{0};
  };
  static constexpr int kSlots = 16;
  std::atomic<bool> armed_{false};
  Slot slots_[kSlots];
};

/// The fixed linear scorer every detection workload uses: weights drawn
/// from a fixed seed, independent of the workload seed, so a seed changes
/// the scenes and never the model.
pcnn::core::WindowScorer linearScorer(int dim);

/// Packs a freshly constructed extractor into serialized bundle bytes.
std::string packBundle(const std::string& spec,
                       pcnn::extract::FeatureLayout layout);

/// Reconstructs an extractor from bundle bytes through the io deployment
/// path (Bundle::tryLoad + registry). Throws on failure.
std::shared_ptr<pcnn::extract::FeatureExtractor> loadBundle(
    const std::string& bytes);

/// Exact equality of two detection lists (boxes and scores, bitwise).
bool sameDetections(const std::vector<pcnn::vision::Detection>& a,
                    const std::vector<pcnn::vision::Detection>& b);

/// What one measured pass produced. Lane a and lane b are the workload's
/// two measured streams of operations (see README.md for each workload's
/// definition); `layer` holds per-layer metrics of a traced pass.
struct PassResult {
  Samples laneAMs;          ///< per-operation latency of lane a
  /// The same samples split by round, for workloads whose every round runs
  /// the same operations in the same order. When set, a lane-a quantile is
  /// taken over the operations' best times across rounds: a slow operation
  /// moves it, host noise that slows some of its rounds does not.
  std::vector<Samples> laneARounds;
  /// The quantile reported as lane_a_ms_tail.
  double tailQuantile = 0.95;
  double laneAPerS = 0.0;   ///< lane a throughput
  double laneBPerS = 0.0;   ///< lane b throughput
  /// The throughput the tracing / obs overhead and the 1-thread speedup
  /// are computed from.
  double indexPerS = 0.0;
  std::map<std::string, double> layer;
  long attempted = 0;
  long failed = 0;

  /// Lane a's q-quantile (see laneARounds).
  double laneAQuantile(double q) const;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from the seed and loads the models from bundles;
  /// this is what setup_s times.
  virtual void setup(std::uint64_t seed) = 0;
  /// Digest of the generated inputs (valid after setup).
  virtual std::string inputDigest() const = 0;
  /// Untimed warm-up: cold caches fill, lazy initialization finishes.
  virtual void warmup() = 0;
  /// One pass of about `seconds` of timed work. `traced` arms the timing
  /// hooks and fills PassResult::layer.
  virtual PassResult run(double seconds, bool traced) = 0;
  /// Milliseconds spent reconstructing models from bundles during setup.
  double bundleLoadMs() const { return bundleLoadMs_; }

 protected:
  /// loadBundle, timed into bundleLoadMs().
  std::shared_ptr<pcnn::extract::FeatureExtractor> loadTimed(
      const std::string& bytes);
  double bundleLoadMs_ = 0.0;
};

std::unique_ptr<Workload> makeStills();
std::unique_ptr<Workload> makeVideo();
std::unique_ptr<Workload> makeServe();
std::unique_ptr<Workload> makeTn();

}  // namespace perfbench
