#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "extract/registry.hpp"
#include "io/bundle.hpp"

namespace perfbench {

using namespace pcnn;

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::sum() const {
  double total = 0.0;
  for (double v : values_) total += v;
  return total;
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
}

double PassResult::laneAQuantile(double q) const {
  if (laneARounds.empty()) return laneAMs.quantile(q);
  Samples perOp;
  for (std::size_t i = 0; i < laneARounds.front().size(); ++i) {
    Samples op;
    for (const Samples& round : laneARounds) op.add(round.at(i));
    perOp.add(op.min());
  }
  return perOp.quantile(q);
}

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ull;
  }
}

void Digest::image(const vision::Image& img) {
  const int dims[2] = {img.width(), img.height()};
  bytes(dims, sizeof dims);
  bytes(img.data().data(), img.data().size() * sizeof(float));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

TimedExtractor::TimedExtractor(
    std::shared_ptr<extract::FeatureExtractor> inner)
    : FeatureExtractor(inner->name(), inner->layout(), inner->bins(),
                       inner->windowCellsX(), inner->windowCellsY(),
                       inner->cellSize()),
      inner_(std::move(inner)) {}

hog::CellGrid TimedExtractor::cellGrid(const vision::Image& image) {
  if (!armed_) return inner_->cellGrid(image);
  const auto t0 = Clock::now();
  hog::CellGrid grid = inner_->cellGrid(image);
  ms_ += msBetween(t0, Clock::now());
  cells_ += static_cast<long>(grid.cellsX) * grid.cellsY;
  return grid;
}

std::vector<float> TimedExtractor::windowFeatures(const vision::Image& window) {
  return inner_->windowFeatures(window);
}

std::vector<std::vector<float>> TimedExtractor::batchFeatures(
    const std::vector<vision::Image>& windows) {
  return inner_->batchFeatures(windows);
}

extract::ExtractorInfo TimedExtractor::info() const { return inner_->info(); }

bool TimedExtractor::statelessExtraction() const {
  return inner_->statelessExtraction();
}

bool TimedExtractor::hasTrainedState() const {
  return inner_->hasTrainedState();
}

core::WindowScorer ScorerClock::wrap(core::WindowScorer inner) {
  return [this, inner = std::move(inner)](const std::vector<float>& features) {
    if (!armed_.load(std::memory_order_relaxed)) return inner(features);
    static std::atomic<int> nextSlot{0};
    thread_local const int slot =
        nextSlot.fetch_add(1, std::memory_order_relaxed) % kSlots;
    const auto t0 = Clock::now();
    const float score = inner(features);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count();
    slots_[slot].ns.fetch_add(ns, std::memory_order_relaxed);
    slots_[slot].calls.fetch_add(1, std::memory_order_relaxed);
    return score;
  };
}

double ScorerClock::cpuMs() const {
  long long ns = 0;
  for (const Slot& s : slots_) ns += s.ns.load(std::memory_order_relaxed);
  return static_cast<double>(ns) * 1e-6;
}

long ScorerClock::calls() const {
  long calls = 0;
  for (const Slot& s : slots_) calls += s.calls.load(std::memory_order_relaxed);
  return calls;
}

void ScorerClock::reset() {
  for (Slot& s : slots_) {
    s.ns.store(0, std::memory_order_relaxed);
    s.calls.store(0, std::memory_order_relaxed);
  }
}

core::WindowScorer linearScorer(int dim) {
  std::vector<float> weights(static_cast<std::size_t>(dim));
  Rng rng(7);
  for (float& w : weights) w = static_cast<float>(rng.uniform()) - 0.5f;
  return [weights = std::move(weights)](const std::vector<float>& f) {
    const std::size_t n = std::min(f.size(), weights.size());
    float acc = 0.0f;
    for (std::size_t i = 0; i < n; ++i) acc += weights[i] * f[i];
    return acc;
  };
}

std::string packBundle(const std::string& spec, extract::FeatureLayout layout) {
  const extract::ExtractorRegistry& registry =
      extract::ExtractorRegistry::instance();
  extract::ExtractorOptions options;
  options.layout = layout;
  std::shared_ptr<extract::FeatureExtractor> extractor =
      registry.create(spec, options);
  io::Bundle bundle;
  std::ostringstream out;
  if (Status s = registry.packExtractor(bundle, *extractor, options); !s.ok()) {
    throw std::runtime_error("pack " + spec + ": " + s.message());
  }
  if (Status s = bundle.trySave(out); !s.ok()) {
    throw std::runtime_error("save " + spec + ": " + s.message());
  }
  return out.str();
}

std::shared_ptr<extract::FeatureExtractor> loadBundle(const std::string& bytes) {
  std::istringstream in(bytes);
  StatusOr<io::Bundle> bundle = io::Bundle::tryLoad(in);
  if (!bundle.ok()) {
    throw std::runtime_error("bundle load: " + bundle.status().message());
  }
  StatusOr<std::shared_ptr<extract::FeatureExtractor>> extractor =
      extract::ExtractorRegistry::instance().tryLoadExtractor(bundle.value());
  if (!extractor.ok()) {
    throw std::runtime_error("bundle extractor: " +
                             extractor.status().message());
  }
  return std::move(extractor).value();
}

bool sameDetections(const std::vector<vision::Detection>& a,
                    const std::vector<vision::Detection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].score != b[i].score || a[i].box.x != b[i].box.x ||
        a[i].box.y != b[i].box.y || a[i].box.w != b[i].box.w ||
        a[i].box.h != b[i].box.h) {
      return false;
    }
  }
  return true;
}

std::shared_ptr<extract::FeatureExtractor> Workload::loadTimed(
    const std::string& bytes) {
  const auto t0 = Clock::now();
  std::shared_ptr<extract::FeatureExtractor> extractor = loadBundle(bytes);
  bundleLoadMs_ += msBetween(t0, Clock::now());
  return extractor;
}

}  // namespace perfbench
