#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "common/env.hpp"
#include "obs/flight.hpp"
#include "obs/json_util.hpp"

namespace pcnn::obs {

namespace detail {
std::atomic<bool> traceOn{false};
std::atomic<bool> metricsOn{false};
std::atomic<bool> flightOn{false};
}  // namespace detail

namespace {

using internal::appendJsonEscaped;
using internal::appendNumber;
using internal::writeStringToFile;

using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

/// One recorded span, Chrome trace_event "ph":"X" complete-event shaped.
struct TraceEvent {
  const char* name;
  const char* argKey;  ///< nullptr = no args
  long argValue;
  double tsUs;
  double durUs;
  int tid;
};

/// Per-thread span buffer. The owner thread appends under the buffer's own
/// mutex (uncontended except while an export drains); at thread exit the
/// events move to the global retired list so nothing is lost.
struct ThreadBuffer;

struct TraceRegistry {
  std::mutex mutex;
  std::vector<ThreadBuffer*> live;
  std::vector<TraceEvent> retired;
  std::atomic<int> nextTid{1};
  std::atomic<long> dropped{0};

  static TraceRegistry& instance() {
    static TraceRegistry* r = new TraceRegistry();  // never destroyed:
    return *r;  // thread buffers may retire during static destruction
  }
};

struct ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  int tid;
  /// Cap per thread so a forgotten PCNN_TRACE on a long service run cannot
  /// grow without bound; overflow is counted, not silently swallowed.
  static constexpr std::size_t kMaxEvents = 1u << 20;

  ThreadBuffer() {
    auto& reg = TraceRegistry::instance();
    tid = reg.nextTid.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.live.push_back(this);
  }

  ~ThreadBuffer() {
    auto& reg = TraceRegistry::instance();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.retired.insert(reg.retired.end(), events.begin(), events.end());
    reg.live.erase(std::find(reg.live.begin(), reg.live.end(), this));
  }

  void push(const TraceEvent& e) {
    std::lock_guard<std::mutex> lock(mutex);
    if (events.size() >= kMaxEvents) {
      TraceRegistry::instance().dropped.fetch_add(1,
                                                  std::memory_order_relaxed);
      return;
    }
    events.push_back(e);
  }
};

ThreadBuffer& threadBuffer() {
  static thread_local ThreadBuffer buffer;
  return buffer;
}

/// Per-histogram window baseline: the cumulative state at the end of the
/// previous window, so the next windowSnapshot() can subtract.
struct HistBaseline {
  long count = 0;
  double sumUs = 0.0;
  long buckets[LatencyHistogram::kBuckets] = {};
};

/// Counter / gauge / histogram registries. Pointers handed out stay
/// valid forever (values are heap-allocated, the maps are never
/// destroyed). Window baselines live here too, guarded by the same mutex.
struct MetricsStore {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms;

  // Windowed-view state (all guarded by `mutex`).
  std::map<std::string, long> counterBase;
  std::map<std::string, HistBaseline> histBase;
  double windowStartUs = 0.0;
  long long windowSeq = 0;

  static MetricsStore& instance() {
    static MetricsStore* store = new MetricsStore();
    return *store;
  }
};

struct ExportConfig {
  std::mutex mutex;
  std::string tracePath;
  std::string metricsPath;
  std::string flightPath;

  static ExportConfig& instance() {
    static ExportConfig* config = new ExportConfig();
    return *config;
  }
};

void atExitExport() { writeConfiguredReports(); }

/// Reads the environment once per process load, so a binary run with
/// PCNN_TRACE / PCNN_METRICS / PCNN_FLIGHT needs no code changes to
/// produce reports.
struct EnvInitializer {
  EnvInitializer() { configureFromEnv(); }
};
const EnvInitializer kEnvInitializer;

}  // namespace

double nowMicros() {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   kProcessStart)
      .count();
}

void setTraceEnabled(bool on) {
  detail::traceOn.store(kCompiledIn && on, std::memory_order_relaxed);
}

void setMetricsEnabled(bool on) {
  detail::metricsOn.store(kCompiledIn && on, std::memory_order_relaxed);
}

void setFlightEnabled(bool on) {
  detail::flightOn.store(kCompiledIn && on, std::memory_order_relaxed);
}

void configureFromEnv() {
  // PCNN_OBS is a master switch defaulting to on; PCNN_TRACE/PCNN_METRICS/
  // PCNN_FLIGHT are output paths, not flags. PCNN_METRICS_PERIOD_MS adds
  // periodic window lines before the exit-time one.
  const bool masterOn = env::flag("PCNN_OBS", true);
  const std::string trace = env::str("PCNN_TRACE");
  const std::string metrics = env::str("PCNN_METRICS");
  const std::string flight = env::str("PCNN_FLIGHT");
  const int periodMs =
      static_cast<int>(env::intValue("PCNN_METRICS_PERIOD_MS", 0, 1,
                                     3'600'000));
  auto& config = ExportConfig::instance();
  bool anyConfigured = false;
  {
    std::lock_guard<std::mutex> lock(config.mutex);
    config.tracePath = masterOn ? trace : "";
    config.metricsPath = masterOn ? metrics : "";
    config.flightPath = masterOn ? flight : "";
    anyConfigured = !config.tracePath.empty() ||
                    !config.metricsPath.empty() ||
                    !config.flightPath.empty();
  }
  setTraceEnabled(masterOn && !trace.empty());
  setMetricsEnabled(masterOn && !metrics.empty());
  setFlightEnabled(masterOn && !flight.empty());
  startMetricsExporter(masterOn ? metrics : "", periodMs);
  if (anyConfigured) {
    static bool atExitRegistered = false;
    static std::mutex registerMutex;
    std::lock_guard<std::mutex> lock(registerMutex);
    if (!atExitRegistered) {
      std::atexit(atExitExport);
      atExitRegistered = true;
    }
  }
}

std::string configuredTracePath() {
  auto& config = ExportConfig::instance();
  std::lock_guard<std::mutex> lock(config.mutex);
  return config.tracePath;
}

std::string configuredMetricsPath() {
  auto& config = ExportConfig::instance();
  std::lock_guard<std::mutex> lock(config.mutex);
  return config.metricsPath;
}

std::string configuredFlightPath() {
  auto& config = ExportConfig::instance();
  std::lock_guard<std::mutex> lock(config.mutex);
  return config.flightPath;
}

// --------------------------------------------------------------------------
// Counters / gauges / histograms

Counter& counter(const std::string& name) {
  auto& store = MetricsStore::instance();
  std::lock_guard<std::mutex> lock(store.mutex);
  const auto it = store.counters.try_emplace(name).first;
  if (!it->second) {
    it->second = std::make_unique<Counter>();
    // The map key outlives the process (the store is never destroyed), so
    // its c_str() is a stable name for flight-recorder events.
    it->second->setFlightName(it->first.c_str());
  }
  return *it->second;
}

Gauge& gauge(const std::string& name) {
  auto& store = MetricsStore::instance();
  std::lock_guard<std::mutex> lock(store.mutex);
  auto& slot = store.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& histogram(const std::string& name) {
  auto& store = MetricsStore::instance();
  std::lock_guard<std::mutex> lock(store.mutex);
  auto& slot = store.histograms[name];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

void LatencyHistogram::record(double us) {
  if (!metricsEnabled()) return;
  if (us < 0.0) us = 0.0;
  count_.fetch_add(1, std::memory_order_relaxed);
  sumNanos_.fetch_add(static_cast<long long>(us * 1e3),
                      std::memory_order_relaxed);
  buckets_[bucketIndex(us)].fetch_add(1, std::memory_order_relaxed);
}

void LatencyHistogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sumNanos_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

void resetMetrics() {
  auto& store = MetricsStore::instance();
  std::lock_guard<std::mutex> lock(store.mutex);
  for (auto& [name, c] : store.counters) c->reset();
  for (auto& [name, g] : store.gauges) g->reset();
  for (auto& [name, h] : store.histograms) h->reset();
  // The baselines drop to zero with the values they track, so the window
  // spanning this reset reports the post-reset activity.
  for (auto& [name, base] : store.counterBase) base = 0;
  for (auto& [name, base] : store.histBase) base = HistBaseline{};
}

// --------------------------------------------------------------------------
// Windowed snapshot

/// Linear interpolation of the q-quantile inside log2 delta buckets.
/// Bucket i covers [2^i, 2^(i+1)) us (bucket 0: [0, 2)). Public: control
/// loops keeping their own baselines (serve::DetectionService) share the
/// exact interpolation the streaming exporter reports.
double quantileFromDeltaBuckets(const long* delta, long count, double q) {
  if (count <= 0) return 0.0;
  double rank = q * static_cast<double>(count);
  if (rank < 1.0) rank = 1.0;
  long cum = 0;
  double last = 0.0;
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    if (delta[i] <= 0) continue;
    const double lo = i == 0 ? 0.0 : static_cast<double>(1ul << i);
    const double hi = static_cast<double>(1ul << (i + 1));
    if (static_cast<double>(cum) + static_cast<double>(delta[i]) >= rank) {
      const double frac =
          (rank - static_cast<double>(cum)) / static_cast<double>(delta[i]);
      return lo + frac * (hi - lo);
    }
    cum += delta[i];
    last = hi;
  }
  return last;
}

WindowSnapshot windowSnapshot() {
  WindowSnapshot w;
  auto& store = MetricsStore::instance();
  std::lock_guard<std::mutex> lock(store.mutex);
  w.seq = ++store.windowSeq;
  w.startUs = store.windowStartUs;
  w.endUs = nowMicros();
  store.windowStartUs = w.endUs;

  for (const auto& [name, c] : store.counters) {
    const long cur = c->value();
    long& base = store.counterBase[name];
    const long delta = cur - base;
    // A negative delta means someone reset the counter directly without
    // resetMetrics(); swallow it and re-baseline rather than lie.
    if (delta > 0) w.counters.emplace_back(name, delta);
    base = cur;
  }
  for (const auto& [name, h] : store.histograms) {
    HistBaseline& base = store.histBase[name];
    const long curCount = h->count();
    const double curSum = h->sumMicros();
    long curBuckets[LatencyHistogram::kBuckets];
    for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
      curBuckets[i] = h->bucket(i);
    }
    const long dCount = curCount - base.count;
    if (dCount > 0) {
      WindowHistogram stats;
      stats.name = name;
      stats.count = dCount;
      stats.sumUs = curSum - base.sumUs;
      if (stats.sumUs < 0.0) stats.sumUs = 0.0;
      long dBuckets[LatencyHistogram::kBuckets];
      for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
        const long d = curBuckets[i] - base.buckets[i];
        dBuckets[i] = d > 0 ? d : 0;
      }
      stats.p50Us = quantileFromDeltaBuckets(dBuckets, dCount, 0.50);
      stats.p95Us = quantileFromDeltaBuckets(dBuckets, dCount, 0.95);
      stats.p99Us = quantileFromDeltaBuckets(dBuckets, dCount, 0.99);
      w.histograms.push_back(std::move(stats));
    }
    base.count = curCount;
    base.sumUs = curSum;
    std::memcpy(base.buckets, curBuckets, sizeof(curBuckets));
  }
  for (const auto& [name, g] : store.gauges) {
    if (g->updateCount() != 0) w.gauges.emplace_back(name, g->value());
  }
  return w;
}

std::string windowJson(const WindowSnapshot& w) {
  std::string out = "{\"seq\": " + std::to_string(w.seq) +
                    ", \"window_start_us\": ";
  appendNumber(out, w.startUs);
  out += ", \"window_end_us\": ";
  appendNumber(out, w.endUs);
  out += ", \"counters\": {";
  for (std::size_t i = 0; i < w.counters.size(); ++i) {
    if (i) out += ", ";
    out += "\"";
    appendJsonEscaped(out, w.counters[i].first.c_str());
    out += "\": " + std::to_string(w.counters[i].second);
  }
  out += "}, \"gauges\": {";
  for (std::size_t i = 0; i < w.gauges.size(); ++i) {
    if (i) out += ", ";
    out += "\"";
    appendJsonEscaped(out, w.gauges[i].first.c_str());
    out += "\": ";
    appendNumber(out, w.gauges[i].second);
  }
  out += "}, \"histograms\": {";
  for (std::size_t i = 0; i < w.histograms.size(); ++i) {
    const WindowHistogram& h = w.histograms[i];
    if (i) out += ", ";
    out += "\"";
    appendJsonEscaped(out, h.name.c_str());
    out += "\": {\"count\": " + std::to_string(h.count) + ", \"sum_us\": ";
    appendNumber(out, h.sumUs);
    out += ", \"p50_us\": ";
    appendNumber(out, h.p50Us);
    out += ", \"p95_us\": ";
    appendNumber(out, h.p95Us);
    out += ", \"p99_us\": ";
    appendNumber(out, h.p99Us);
    out += "}";
  }
  out += "}}";
  return out;
}

// --------------------------------------------------------------------------
// Spans

Span::Span(const char* name, const char* argKey, long argValue)
    : name_(name), argKey_(argKey), argValue_(argValue) {
  const bool trace = traceEnabled();
  const bool flight = flightEnabled();
  traceActive_ = trace;
  startUs_ = (trace || flight) ? nowMicros() : -1.0;
  if (flight) detail::flightRecordBegin(name_, argKey_ ? argValue_ : 0);
}

Span::~Span() {
  if (startUs_ < 0.0) return;
  if (flightEnabled()) detail::flightRecordEnd(name_);
  if (!traceActive_) return;
  TraceEvent e;
  e.name = name_;
  e.argKey = argKey_;
  e.argValue = argValue_;
  e.tsUs = startUs_;
  e.durUs = nowMicros() - startUs_;
  ThreadBuffer& buffer = threadBuffer();
  e.tid = buffer.tid;
  buffer.push(e);
}

namespace {

void collectEvents(std::vector<TraceEvent>& out) {
  auto& reg = TraceRegistry::instance();
  std::lock_guard<std::mutex> regLock(reg.mutex);
  out = reg.retired;
  for (ThreadBuffer* buffer : reg.live) {
    std::lock_guard<std::mutex> bufLock(buffer->mutex);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
}

}  // namespace

std::string traceJson() {
  std::vector<TraceEvent> events;
  collectEvents(events);
  std::string out = "{\"traceEvents\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out += i ? ",\n  " : "\n  ";
    out += "{\"name\": \"";
    appendJsonEscaped(out, e.name);
    out += "\", \"cat\": \"pcnn\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
           std::to_string(e.tid) + ", \"ts\": ";
    appendNumber(out, e.tsUs);
    out += ", \"dur\": ";
    appendNumber(out, e.durUs);
    if (e.argKey) {
      out += ", \"args\": {\"";
      appendJsonEscaped(out, e.argKey);
      out += "\": " + std::to_string(e.argValue) + "}";
    }
    out += "}";
  }
  out += events.empty() ? "]" : "\n]";
  const long dropped =
      TraceRegistry::instance().dropped.load(std::memory_order_relaxed);
  out += ", \"displayTimeUnit\": \"ms\"";
  if (dropped > 0) {
    out += ", \"pcnnDroppedEvents\": " + std::to_string(dropped);
  }
  out += "}\n";
  return out;
}

long traceEventCount() {
  std::vector<TraceEvent> events;
  collectEvents(events);
  return static_cast<long>(events.size());
}

void clearTrace() {
  auto& reg = TraceRegistry::instance();
  std::lock_guard<std::mutex> regLock(reg.mutex);
  reg.retired.clear();
  for (ThreadBuffer* buffer : reg.live) {
    std::lock_guard<std::mutex> bufLock(buffer->mutex);
    buffer->events.clear();
  }
  reg.dropped.store(0, std::memory_order_relaxed);
}

// --------------------------------------------------------------------------
// Export

bool writeTrace(const std::string& path) {
  return writeStringToFile(path, traceJson());
}

void writeConfiguredReports() {
  const std::string trace = configuredTracePath();
  if (!trace.empty()) writeTrace(trace);
  stopMetricsExporter();
}

}  // namespace pcnn::obs
