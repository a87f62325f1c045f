#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pcnn::obs {

/// Pipeline-wide observability layer: scoped trace spans (Chrome
/// trace_event JSON), counters, gauges and latency histograms, shared by
/// every subsystem so all perf work reports against the same instruments.
///
/// Gating, designed so instrumentation can live permanently in hot paths:
///  - compile time: configuring with -DPCNN_OBS=OFF defines
///    PCNN_OBS_DISABLED for the whole tree; the macros expand to nothing
///    and the inline fast paths fold to constants. The library still
///    links, windowSnapshot() is empty, every call is a no-op.
///  - runtime: PCNN_TRACE=<path> turns on span recording (exported to
///    <path> at exit), PCNN_METRICS=<path|stderr> turns on counters and
///    histograms (one NDJSON window line covering the run written at
///    exit, or one line per period plus a final one when
///    PCNN_METRICS_PERIOD_MS is also set), PCNN_FLIGHT=<path> arms the
///    flight recorder (see obs/flight.hpp). PCNN_OBS=off is a master
///    kill switch overriding all of them. With none of the variables set,
///    the entire layer costs a couple of relaxed atomic loads +
///    predictable branches per instrumentation site -- no clock reads,
///    no stores.
///
/// Threading: counters, gauges and histograms are lock-free atomics after
/// a mutex-protected first lookup (hot sites cache the reference in a
/// function-local static). Spans record into per-thread buffers, so
/// worker threads never contend; buffers are drained under a registry
/// lock at export time.

#ifdef PCNN_OBS_DISABLED
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

namespace detail {
/// Runtime switches, inlined into every call site. Relaxed is enough:
/// observing a toggle late loses at most a few events, never corrupts.
extern std::atomic<bool> traceOn;
extern std::atomic<bool> metricsOn;
extern std::atomic<bool> flightOn;

/// Flight-recorder write hooks (implemented in flight.cpp); call only
/// behind flightEnabled(). `name` must have static storage duration.
void flightRecordBegin(const char* name, long arg);
void flightRecordEnd(const char* name);
void flightRecordCount(const char* name, long delta);
}  // namespace detail

inline bool traceEnabled() {
  return kCompiledIn && detail::traceOn.load(std::memory_order_relaxed);
}
inline bool metricsEnabled() {
  return kCompiledIn && detail::metricsOn.load(std::memory_order_relaxed);
}
inline bool flightEnabled() {
  return kCompiledIn && detail::flightOn.load(std::memory_order_relaxed);
}

/// Programmatic toggles (tests, benches). Enabling metrics/tracing that
/// the env did not request does not register an at-exit export.
void setTraceEnabled(bool on);
void setMetricsEnabled(bool on);
void setFlightEnabled(bool on);

/// Re-reads PCNN_TRACE / PCNN_METRICS / PCNN_METRICS_PERIOD_MS /
/// PCNN_FLIGHT / PCNN_OBS and reconfigures the switches, export paths and
/// the streaming exporter thread. Called once automatically during static
/// initialization of any binary linking the library; call again after
/// changing the environment to make the new values take effect.
void configureFromEnv();

/// Export paths currently configured from the environment ("" = none).
std::string configuredTracePath();
std::string configuredMetricsPath();
std::string configuredFlightPath();

/// Microseconds since process start (steady clock).
double nowMicros();

// --------------------------------------------------------------------------
// Counters

/// A named monotonic counter. add() is safe from any thread and nearly
/// free while metrics are off. When the flight recorder is armed, add()
/// also leaves a count event in the calling thread's ring.
class Counter {
 public:
  void add(long n = 1) {
    if (metricsEnabled()) value_.fetch_add(n, std::memory_order_relaxed);
    if (flightEnabled() && flightName_ != nullptr) {
      detail::flightRecordCount(flightName_, n);
    }
  }
  long value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

  /// Registry-owned stable name used for flight-recorder events; set once
  /// at registration (the registry map key outlives the process).
  void setFlightName(const char* name) { flightName_ = name; }

 private:
  std::atomic<long> value_{0};
  const char* flightName_ = nullptr;
};

/// Registry lookup (registers on first use). The reference stays valid for
/// the process lifetime; hot call sites should cache it:
///   static obs::Counter& c = obs::counter("windows_scanned");
Counter& counter(const std::string& name);

// --------------------------------------------------------------------------
// Gauges

/// A named point-in-time value (queue depth, hit rate, active cores, fps).
/// Unlike a Counter it is not monotonic: set() overwrites, add() offsets.
/// Lock-free; the double payload travels as its bit pattern through an
/// atomic integer so torn reads are impossible.
class Gauge {
 public:
  void set(double v) {
    if (!metricsEnabled()) return;
    bits_.store(std::bit_cast<long long>(v), std::memory_order_relaxed);
    updates_.fetch_add(1, std::memory_order_relaxed);
  }
  void add(double delta) {
    if (!metricsEnabled()) return;
    long long seen = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(
        seen, std::bit_cast<long long>(std::bit_cast<double>(seen) + delta),
        std::memory_order_relaxed)) {
    }
    updates_.fetch_add(1, std::memory_order_relaxed);
  }
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }
  /// Number of set()/add() calls since the last reset; windows use this
  /// to tell "never touched" from "legitimately set to 0".
  long updateCount() const {
    return updates_.load(std::memory_order_relaxed);
  }
  void reset() {
    bits_.store(0, std::memory_order_relaxed);
    updates_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<long long> bits_{0};  ///< 0 is the bit pattern of 0.0
  std::atomic<long> updates_{0};
};

Gauge& gauge(const std::string& name);

// --------------------------------------------------------------------------
// Latency histograms

/// Log2-bucketed latency histogram over microseconds, with count and sum.
/// record() is lock-free.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 32;  ///< bucket i: [2^i, 2^(i+1)) us

  /// The bucket record() files `us` under: bucket i holds [2^i, 2^(i+1))
  /// us, samples below 2 us (negative and NaN included) land in bucket 0
  /// and samples of 2^31 us or more in the last bucket.
  static int bucketIndex(double us) {
    int bucket = 0;
    for (double bound = 2.0; us >= bound && bucket < kBuckets - 1;
         bound *= 2.0) {
      ++bucket;
    }
    return bucket;
  }

  void record(double us);

  long count() const { return count_.load(std::memory_order_relaxed); }
  double sumMicros() const {
    return static_cast<double>(sumNanos_.load(std::memory_order_relaxed)) *
           1e-3;
  }
  long bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::atomic<long> count_{0};
  std::atomic<long long> sumNanos_{0};
  std::atomic<long> buckets_[kBuckets] = {};
};

LatencyHistogram& histogram(const std::string& name);

/// RAII timer recording its scope's wall time into a histogram on
/// destruction. No clock read while metrics are off.
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram& h)
      : hist_(metricsEnabled() ? &h : nullptr),
        startUs_(hist_ ? nowMicros() : 0.0) {}
  ~ScopedTimer() {
    if (hist_) hist_->record(nowMicros() - startUs_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  LatencyHistogram* hist_;
  double startUs_;
};

// --------------------------------------------------------------------------
// Windowed snapshot (deltas since the previous windowSnapshot call)

struct WindowHistogram {
  std::string name;
  long count = 0;      ///< samples recorded this window
  double sumUs = 0.0;  ///< time accumulated this window
  /// Quantiles interpolated linearly inside the log2 buckets of this
  /// window's samples -- bounded by bucket resolution, not exact.
  double p50Us = 0.0;
  double p95Us = 0.0;
  double p99Us = 0.0;
};

struct WindowSnapshot {
  long long seq = 0;        ///< monotonically increasing window number
  double startUs = 0.0;     ///< window start (process-relative)
  double endUs = 0.0;       ///< window end = snapshot time
  std::vector<std::pair<std::string, long>> counters;  ///< deltas, nonzero
  std::vector<std::pair<std::string, double>> gauges;  ///< current values
  std::vector<WindowHistogram> histograms;             ///< count > 0 only
};

/// Advances the global window: returns per-interval counter/histogram
/// deltas since the previous call (plus current gauge values) and makes
/// this instant the new baseline. Thread-safe; concurrent callers see
/// disjoint windows.
WindowSnapshot windowSnapshot();
/// Zeroes all counters, gauges and histograms, and the window baselines
/// with them (under the lock windowSnapshot() takes), so the window that
/// spans a reset reports exactly the post-reset activity, never a
/// negative delta.
void resetMetrics();

/// Linear interpolation of the q-quantile inside log2 delta buckets
/// (bucket i covers [2^i, 2^(i+1)) us; bucket 0 covers [0, 2)). This is
/// the interpolation windowSnapshot() uses for its p50/p95/p99 fields,
/// exposed for control loops that window a histogram against their own
/// baseline instead of consuming (and stealing) the global window -- the
/// serving layer's p99 ladder signal (serve::DetectionService).
/// `delta` must point at LatencyHistogram::kBuckets per-window counts and
/// `count` at their total; returns 0 for an empty window.
double quantileFromDeltaBuckets(const long* delta, long count, double q);
/// One compact NDJSON line (no trailing newline) for a window.
std::string windowJson(const WindowSnapshot& w);

// --------------------------------------------------------------------------
// Metrics export (PCNN_METRICS; periodic lines with PCNN_METRICS_PERIOD_MS)

/// Starts (or reconfigures) metrics export to `path` ("stderr"/"-" =
/// stderr): one windowJson() line appended per period from a background
/// thread, or none before the final flush when `periodMs` <= 0. The file
/// is truncated the first time this process exports to it, so a rerun
/// never appends to an earlier run's lines. Idempotent: same path+period
/// is a no-op; a change first ends the current export (final flush). An
/// empty path ends export. Normally driven by configureFromEnv().
void startMetricsExporter(const std::string& path, int periodMs);
/// Ends the current export: stops the thread, if any, and appends one
/// final window covering everything since the previous line (with no
/// period, the whole run). Idempotent: a second call writes nothing.
void stopMetricsExporter();
/// True while the periodic exporter thread runs.
bool metricsExporterRunning();

// --------------------------------------------------------------------------
// Trace spans

/// RAII span. `name` (and `argKey`) must have static storage duration --
/// pass string literals. Spans may nest freely and may be opened on any
/// thread; each thread records into its own buffer. When tracing is off
/// construction reads no clock. When the flight recorder is armed the
/// span also leaves begin/end events in the calling thread's ring.
class Span {
 public:
  explicit Span(const char* name) : Span(name, nullptr, 0) {}
  Span(const char* name, const char* argKey, long argValue);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* argKey_;
  long argValue_;
  double startUs_;  ///< < 0 = inactive (neither trace nor flight on)
  bool traceActive_;  ///< push a Chrome trace event at destruction
};

/// All recorded events as Chrome trace_event JSON ("traceEvents" array of
/// "ph":"X" complete events); loadable in chrome://tracing or Perfetto.
std::string traceJson();
/// Number of span events currently buffered across all threads.
long traceEventCount();
/// Discards all buffered events.
void clearTrace();

// --------------------------------------------------------------------------
// Export

/// Writes traceJson() to `path`. Returns false on I/O failure.
bool writeTrace(const std::string& path);
/// Writes whatever PCNN_TRACE / PCNN_METRICS requested (no-op when unset):
/// the trace, and the metrics export's final window (stopMetricsExporter).
/// Also runs automatically at process exit, so ad-hoc runs need no code;
/// calling it again appends no second metrics line.
void writeConfiguredReports();

}  // namespace pcnn::obs

// ---------------------------------------------------------------------------
// Macros: the only interface hot code should use for spans, so a
// PCNN_OBS=OFF build removes the objects entirely.

#ifdef PCNN_OBS_DISABLED
#define PCNN_SPAN(name) \
  do {                  \
  } while (0)
#define PCNN_SPAN_ARG(name, key, value) \
  do {                                  \
  } while (0)
#else
#define PCNN_OBS_CONCAT2(a, b) a##b
#define PCNN_OBS_CONCAT(a, b) PCNN_OBS_CONCAT2(a, b)
/// Opens a span covering the rest of the enclosing scope.
#define PCNN_SPAN(name) \
  ::pcnn::obs::Span PCNN_OBS_CONCAT(pcnnObsSpan_, __LINE__)(name)
/// Same, attaching one integer argument (shown in the trace viewer).
#define PCNN_SPAN_ARG(name, key, value)                        \
  ::pcnn::obs::Span PCNN_OBS_CONCAT(pcnnObsSpan_, __LINE__)(   \
      name, key, static_cast<long>(value))
#endif
