// Observability layer: counter thread safety under the pool, span nesting
// round-tripped through the Chrome trace JSON it exports, gauges, windowed
// deltas and quantiles, the flight-recorder ring, the streaming exporter,
// disabled-mode no-op behaviour, and PCNN_TRACE / PCNN_METRICS /
// PCNN_METRICS_PERIOD_MS / PCNN_FLIGHT / PCNN_OBS env gating.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"

namespace pcnn {
namespace {

/// Saves and restores the runtime obs switches plus the metric/trace/
/// flight stores and the exporter thread, so each test starts clean and
/// leaves no global residue.
class ObsStateGuard {
 public:
  ObsStateGuard()
      : traceWas_(obs::traceEnabled()),
        metricsWas_(obs::metricsEnabled()),
        flightWas_(obs::flightEnabled()) {
    obs::stopMetricsExporter();
    obs::resetMetrics();
    obs::clearTrace();
    obs::clearFlightRecorder();
  }
  ~ObsStateGuard() {
    obs::stopMetricsExporter();
    obs::resetMetrics();
    obs::clearTrace();
    obs::clearFlightRecorder();
    obs::setTraceEnabled(traceWas_);
    obs::setMetricsEnabled(metricsWas_);
    obs::setFlightEnabled(flightWas_);
  }

 private:
  bool traceWas_;
  bool metricsWas_;
  bool flightWas_;
};

std::string readWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return {};
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);
  return text;
}

/// The non-empty lines of an NDJSON document.
std::vector<std::string> nonEmptyLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    if (nl > start) lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

// --- A minimal JSON reader, enough to parse back what obs exports --------

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  /// Parses the whole document; false on any syntax error or trailing
  /// garbage.
  bool parse(JsonValue& out) {
    pos_ = 0;
    if (!parseValue(out)) return false;
    skipWs();
    return pos_ == text_.size();
  }

 private:
  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parseString(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) return false;
            pos_ += 4;  // codepoint value irrelevant to these tests
            out += '?';
            break;
          default:
            return false;
        }
      } else {
        out += c;
      }
    }
    return false;  // unterminated
  }

  bool parseValue(JsonValue& out) {
    skipWs();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out.kind = JsonValue::kObject;
      skipWs();
      if (consume('}')) return true;
      while (true) {
        std::string key;
        JsonValue value;
        if (!parseString(key) || !consume(':') || !parseValue(value)) {
          return false;
        }
        out.object.emplace_back(std::move(key), std::move(value));
        if (consume('}')) return true;
        if (!consume(',')) return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out.kind = JsonValue::kArray;
      skipWs();
      if (consume(']')) return true;
      while (true) {
        JsonValue value;
        if (!parseValue(value)) return false;
        out.array.push_back(std::move(value));
        if (consume(']')) return true;
        if (!consume(',')) return false;
      }
    }
    if (c == '"') {
      out.kind = JsonValue::kString;
      return parseString(out.str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out.kind = JsonValue::kBool;
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.kind = JsonValue::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out.kind = JsonValue::kNull;
      pos_ += 4;
      return true;
    }
    // Number.
    char* end = nullptr;
    out.kind = JsonValue::kNumber;
    out.number = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) return false;
    pos_ = static_cast<std::size_t>(end - text_.c_str());
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// --- Counters & histograms ------------------------------------------------

TEST(ObsCounters, ThreadSafeUnderParallelFor) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with PCNN_OBS=OFF";
  ObsStateGuard guard;
  obs::setMetricsEnabled(true);

  obs::Counter& hits = obs::counter("test.parallel_hits");
  obs::LatencyHistogram& lat = obs::histogram("test.parallel_us");
  const long n = 20000;
  double expectedSum = 0.0;
  // Values 1 / 2-3 / 4-7 us land in log2 buckets 0 / 1 / 2.
  long expectedBuckets[3] = {};
  for (long i = 0; i < n; ++i) {
    const double v = static_cast<double>(i % 7) + 1.0;
    expectedSum += v;
    ++expectedBuckets[v < 2.0 ? 0 : v < 4.0 ? 1 : 2];
  }
  setThreadCount(4);
  parallelFor(0, n, [&](long i) {
    hits.add();
    lat.record(static_cast<double>(i % 7) + 1.0);
  });
  setThreadCount(1);

  EXPECT_EQ(hits.value(), n);
  EXPECT_EQ(lat.count(), n);
  for (int b = 0; b < obs::LatencyHistogram::kBuckets; ++b) {
    EXPECT_EQ(lat.bucket(b), b < 3 ? expectedBuckets[b] : 0) << "bucket " << b;
  }
  EXPECT_NEAR(lat.sumMicros(), expectedSum, 1.0);
}

TEST(ObsCounters, SnapshotReportsCountersAndHistograms) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with PCNN_OBS=OFF";
  ObsStateGuard guard;
  obs::setMetricsEnabled(true);

  obs::counter("test.snapshot_counter").add(42);
  obs::histogram("test.snapshot_us").record(3.0);

  // The guard's reset zeroed the window baselines, so this window holds
  // everything recorded since.
  const obs::WindowSnapshot snap = obs::windowSnapshot();
  bool sawCounter = false, sawHist = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "test.snapshot_counter") {
      sawCounter = true;
      EXPECT_EQ(value, 42);
    }
  }
  for (const auto& hist : snap.histograms) {
    if (hist.name == "test.snapshot_us") {
      sawHist = true;
      EXPECT_EQ(hist.count, 1);
    }
  }
  EXPECT_TRUE(sawCounter);
  EXPECT_TRUE(sawHist);

  // The JSON rendering of the same window must parse back.
  JsonValue doc;
  EXPECT_TRUE(JsonReader(obs::windowJson(snap)).parse(doc));
  ASSERT_EQ(doc.kind, JsonValue::kObject);
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* counter = counters->find("test.snapshot_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_DOUBLE_EQ(counter->number, 42.0);
}

// --- Gauges ---------------------------------------------------------------

TEST(ObsGauges, SetAddAndSnapshotVisibility) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with PCNN_OBS=OFF";
  ObsStateGuard guard;
  obs::setMetricsEnabled(true);

  obs::Gauge& g = obs::gauge("test.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.set(-0.25);  // gauges are not monotonic
  EXPECT_DOUBLE_EQ(g.value(), -0.25);
  EXPECT_EQ(g.updateCount(), 3);

  // A gauge legitimately set to 0 is reported; a never-touched one is not.
  obs::gauge("test.gauge_zero").set(0.0);
  obs::gauge("test.gauge_untouched");
  const obs::WindowSnapshot snap = obs::windowSnapshot();
  bool sawSet = false, sawZero = false, sawUntouched = false;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "test.gauge") {
      sawSet = true;
      EXPECT_DOUBLE_EQ(value, -0.25);
    }
    if (name == "test.gauge_zero") sawZero = true;
    if (name == "test.gauge_untouched") sawUntouched = true;
  }
  EXPECT_TRUE(sawSet);
  EXPECT_TRUE(sawZero);
  EXPECT_FALSE(sawUntouched);

  // The JSON window line carries the same gauge object.
  JsonValue doc;
  ASSERT_TRUE(JsonReader(obs::windowJson(snap)).parse(doc));
  const JsonValue* gauges = doc.find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(gauges->find("test.gauge"), nullptr);
  EXPECT_NEAR(gauges->find("test.gauge")->number, -0.25, 1e-9);
}

TEST(ObsGauges, DisabledModeIsANoOp) {
  ObsStateGuard guard;
  obs::setMetricsEnabled(false);
  obs::Gauge& g = obs::gauge("test.gauge_disabled");
  g.set(7.0);
  g.add(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(g.updateCount(), 0);
}

// --- Windowed snapshots ---------------------------------------------------

TEST(ObsWindows, CounterDeltasArePerWindow) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with PCNN_OBS=OFF";
  ObsStateGuard guard;
  obs::setMetricsEnabled(true);
  obs::windowSnapshot();  // establish a baseline at the current values

  obs::Counter& c = obs::counter("test.win_counter");
  c.add(5);
  const obs::WindowSnapshot w1 = obs::windowSnapshot();
  c.add(3);
  const obs::WindowSnapshot w2 = obs::windowSnapshot();
  const obs::WindowSnapshot w3 = obs::windowSnapshot();

  auto deltaOf = [](const obs::WindowSnapshot& w, const std::string& name,
                    long fallback) {
    for (const auto& [n, v] : w.counters) {
      if (n == name) return v;
    }
    return fallback;
  };
  EXPECT_EQ(deltaOf(w1, "test.win_counter", -1), 5);
  EXPECT_EQ(deltaOf(w2, "test.win_counter", -1), 3);
  // An idle window omits the counter entirely (delta 0).
  EXPECT_EQ(deltaOf(w3, "test.win_counter", 0), 0);
  EXPECT_LT(w1.seq, w2.seq);
  EXPECT_LT(w2.seq, w3.seq);
  EXPECT_LE(w1.endUs, w2.endUs);

  // The cumulative value is untouched by windowing.
  EXPECT_EQ(c.value(), 8);

  // The NDJSON rendering of a window parses back.
  JsonValue doc;
  ASSERT_TRUE(JsonReader(obs::windowJson(w1)).parse(doc));
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("test.win_counter"), nullptr);
  EXPECT_DOUBLE_EQ(counters->find("test.win_counter")->number, 5.0);
  ASSERT_NE(doc.find("seq"), nullptr);
}

TEST(ObsWindows, QuantilesUnderConcurrentWriters) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with PCNN_OBS=OFF";
  ObsStateGuard guard;
  obs::setMetricsEnabled(true);
  obs::windowSnapshot();

  // 900 samples in the [2,4) us bucket and 100 in [64,128) us, recorded
  // from pool threads: p50 must land in the low bucket, p95/p99 in the
  // high one (interpolated within log2 buckets, so ranges not points).
  obs::LatencyHistogram& h = obs::histogram("test.win_us");
  setThreadCount(4);
  parallelFor(0, 1000, [&](long i) { h.record(i % 10 == 0 ? 100.0 : 3.0); });
  setThreadCount(1);

  const obs::WindowSnapshot w = obs::windowSnapshot();
  const obs::WindowHistogram* stats = nullptr;
  for (const auto& hist : w.histograms) {
    if (hist.name == "test.win_us") stats = &hist;
  }
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->count, 1000);
  EXPECT_NEAR(stats->sumUs, 900 * 3.0 + 100 * 100.0, 1.0);
  EXPECT_GE(stats->p50Us, 2.0);
  EXPECT_LE(stats->p50Us, 4.0);
  EXPECT_GE(stats->p95Us, 64.0);
  EXPECT_LE(stats->p95Us, 128.0);
  EXPECT_GE(stats->p99Us, 64.0);
  EXPECT_LE(stats->p99Us, 128.0);
  EXPECT_LE(stats->p50Us, stats->p95Us);
  EXPECT_LE(stats->p95Us, stats->p99Us);

  // The next window sees none of these samples.
  const obs::WindowSnapshot w2 = obs::windowSnapshot();
  for (const auto& hist : w2.histograms) {
    EXPECT_NE(hist.name, "test.win_us");
  }
}

TEST(ObsWindows, ResetRebaselinesInsteadOfNegativeDeltas) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with PCNN_OBS=OFF";
  ObsStateGuard guard;
  obs::setMetricsEnabled(true);
  obs::windowSnapshot();

  obs::counter("test.win_reset").add(100);
  obs::windowSnapshot();  // baseline now 100
  obs::counter("test.win_reset").add(10);
  obs::resetMetrics();  // value drops 110 -> 0, and the baseline with it
  obs::counter("test.win_reset").add(2);

  auto deltaOf = [](const obs::WindowSnapshot& w) {
    long delta = -1;
    for (const auto& [n, v] : w.counters) {
      if (n == "test.win_reset") delta = v;
    }
    return delta;
  };
  // The window spanning the reset reports exactly the post-reset
  // activity -- not -108, and not the 10 the reset discarded.
  EXPECT_EQ(deltaOf(obs::windowSnapshot()), 2);

  // The next window is an ordinary delta.
  obs::counter("test.win_reset").add(4);
  EXPECT_EQ(deltaOf(obs::windowSnapshot()), 4);
}

// --- Flight recorder ------------------------------------------------------

TEST(ObsFlight, RingWraparoundKeepsNewestEventsInOrder) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with PCNN_OBS=OFF";
  ObsStateGuard guard;
  obs::setMetricsEnabled(false);
  obs::setFlightEnabled(true);

  // Overfill the calling thread's ring so it wraps: only the newest
  // kFlightCapacity events survive, still in recording order.
  const long total = obs::kFlightCapacity + 808;
  obs::Counter& c = obs::counter("test.flight_wrap");
  for (long i = 0; i < total; ++i) c.add(i + 1);
  EXPECT_EQ(c.value(), 0);  // metrics off: only the flight ring saw these
  EXPECT_EQ(obs::flightEventCount(), obs::kFlightCapacity);

  const std::string path = testing::TempDir() + "obs_flight_wrap.json";
  ASSERT_TRUE(obs::dumpFlightRecorder(path, "test"));
  const std::string text = readWholeFile(path);
  std::remove(path.c_str());

  JsonValue doc;
  ASSERT_TRUE(JsonReader(text).parse(doc));
  EXPECT_EQ(doc.find("reason")->str, "test");
  const JsonValue* events = doc.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(),
            static_cast<std::size_t>(obs::kFlightCapacity));

  // args were 1..total; the retained window must be the last capacity of
  // them, contiguous and increasing, with non-decreasing timestamps.
  double lastTs = -1.0;
  long expectedArg = total - obs::kFlightCapacity + 1;
  for (const JsonValue& event : events->array) {
    EXPECT_EQ(event.find("kind")->str, "count");
    EXPECT_EQ(event.find("name")->str, "test.flight_wrap");
    EXPECT_EQ(static_cast<long>(event.find("arg")->number), expectedArg);
    ++expectedArg;
    const double ts = event.find("ts_us")->number;
    EXPECT_GE(ts, lastTs);
    lastTs = ts;
  }

  obs::clearFlightRecorder();
  EXPECT_EQ(obs::flightEventCount(), 0);
}

TEST(ObsFlight, SpansLeaveBeginEndPairsAndFaultEventAutoDumpIsOnce) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with PCNN_OBS=OFF";
  ObsStateGuard guard;
  obs::setFlightEnabled(true);

  {
    PCNN_SPAN_ARG("test.flight_span", "item", 3);
  }
  EXPECT_EQ(obs::flightEventCount(), 2);

  const std::string path = testing::TempDir() + "obs_flight_span.json";
  ASSERT_TRUE(obs::dumpFlightRecorder(path, "test"));
  const std::string text = readWholeFile(path);
  std::remove(path.c_str());
  JsonValue doc;
  ASSERT_TRUE(JsonReader(text).parse(doc));
  const JsonValue* events = doc.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);
  EXPECT_EQ(events->array[0].find("kind")->str, "begin");
  EXPECT_EQ(events->array[0].find("name")->str, "test.flight_span");
  EXPECT_DOUBLE_EQ(events->array[0].find("arg")->number, 3.0);
  EXPECT_EQ(events->array[1].find("kind")->str, "end");

  // Without a configured PCNN_FLIGHT path, fault events cannot auto-dump.
  EXPECT_FALSE(obs::flightAutoDumped());
  obs::noteFaultEvent("test.fault");
  EXPECT_FALSE(obs::flightAutoDumped());
}

// --- Streaming exporter ---------------------------------------------------

TEST(ObsExporter, PeriodicNdjsonStreamThroughEnv) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with PCNN_OBS=OFF";
  ObsStateGuard guard;
  const std::string path = testing::TempDir() + "obs_stream.ndjson";
  std::remove(path.c_str());

  ::setenv("PCNN_METRICS", path.c_str(), 1);
  ::setenv("PCNN_METRICS_PERIOD_MS", "20", 1);
  ::unsetenv("PCNN_OBS");
  obs::configureFromEnv();
  EXPECT_TRUE(obs::metricsExporterRunning());

  obs::Counter& c = obs::counter("test.stream_counter");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(90);
  while (std::chrono::steady_clock::now() < deadline) {
    c.add();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ::unsetenv("PCNN_METRICS");
  ::unsetenv("PCNN_METRICS_PERIOD_MS");
  obs::configureFromEnv();
  EXPECT_FALSE(obs::metricsExporterRunning());

  // At least two windows over ~90ms of 20ms periods (plus the final
  // flush), each line independently parseable with increasing seq.
  const std::vector<std::string> lines = nonEmptyLines(readWholeFile(path));
  std::remove(path.c_str());
  ASSERT_GE(lines.size(), 2u);
  double lastSeq = -1.0;
  long streamed = 0;
  for (const std::string& line : lines) {
    JsonValue doc;
    ASSERT_TRUE(JsonReader(line).parse(doc)) << line;
    const JsonValue* seq = doc.find("seq");
    ASSERT_NE(seq, nullptr);
    EXPECT_GT(seq->number, lastSeq);
    lastSeq = seq->number;
    const JsonValue* counters = doc.find("counters");
    if (counters != nullptr) {
      const JsonValue* delta = counters->find("test.stream_counter");
      if (delta != nullptr) {
        EXPECT_GT(delta->number, 0.0);  // per-window deltas, never totals
        streamed += static_cast<long>(delta->number);
      }
    }
  }
  // Deltas over all windows, the final flush included, sum to exactly the
  // cumulative count.
  EXPECT_GT(streamed, 0);
  EXPECT_EQ(streamed, c.value());
}

TEST(ObsExporter, PeriodWithoutPathStartsNothing) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with PCNN_OBS=OFF";
  ObsStateGuard guard;
  ::unsetenv("PCNN_METRICS");
  ::setenv("PCNN_METRICS_PERIOD_MS", "20", 1);
  ::unsetenv("PCNN_OBS");
  obs::configureFromEnv();
  EXPECT_FALSE(obs::metricsExporterRunning());
  ::unsetenv("PCNN_METRICS_PERIOD_MS");
  obs::configureFromEnv();
}

TEST(ObsExporter, ExitReportIsOneWindowLineWrittenOnce) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with PCNN_OBS=OFF";
  ObsStateGuard guard;
  const std::string path = testing::TempDir() + "obs_exit_once.ndjson";
  std::remove(path.c_str());

  ::setenv("PCNN_METRICS", path.c_str(), 1);
  ::unsetenv("PCNN_METRICS_PERIOD_MS");
  ::unsetenv("PCNN_OBS");
  obs::configureFromEnv();
  EXPECT_FALSE(obs::metricsExporterRunning());
  obs::counter("test.exit_once").add(3);
  obs::histogram("test.exit_once_us").record(5.0);

  // Programs flush explicitly and the at-exit hook flushes again: the
  // second call must not append a second line.
  obs::writeConfiguredReports();
  obs::writeConfiguredReports();
  ::unsetenv("PCNN_METRICS");
  obs::configureFromEnv();

  const std::vector<std::string> lines = nonEmptyLines(readWholeFile(path));
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 1u);
  JsonValue doc;
  ASSERT_TRUE(JsonReader(lines[0]).parse(doc)) << lines[0];
  for (const char* key : {"seq", "window_start_us", "window_end_us"}) {
    EXPECT_NE(doc.find(key), nullptr) << key;
  }
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("test.exit_once"), nullptr);
  EXPECT_DOUBLE_EQ(counters->find("test.exit_once")->number, 3.0);
  const JsonValue* histograms = doc.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* hist = histograms->find("test.exit_once_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->number, 1.0);
  EXPECT_NE(hist->find("p50_us"), nullptr);
}

TEST(ObsExporter, RerunIntoAUsedPathKeepsOnlyTheNewRun) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with PCNN_OBS=OFF";
  ObsStateGuard guard;
  const std::string path = testing::TempDir() + "obs_rerun.ndjson";
  {
    // An earlier run's stream, left in place.
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"seq\": 1, \"counters\": {\"test.stale_run\": 1}}\n"
               "{\"seq\": 2, \"counters\": {\"test.stale_run\": 1}}\n",
               f);
    std::fclose(f);
  }

  ::setenv("PCNN_METRICS", path.c_str(), 1);
  ::setenv("PCNN_METRICS_PERIOD_MS", "5", 1);
  ::unsetenv("PCNN_OBS");
  obs::configureFromEnv();
  obs::counter("test.rerun").add(7);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ::unsetenv("PCNN_METRICS");
  ::unsetenv("PCNN_METRICS_PERIOD_MS");
  obs::configureFromEnv();

  const std::vector<std::string> lines = nonEmptyLines(readWholeFile(path));
  std::remove(path.c_str());
  ASSERT_GE(lines.size(), 1u);
  double lastSeq = -1.0;
  long rerun = 0;
  for (const std::string& line : lines) {
    JsonValue doc;
    ASSERT_TRUE(JsonReader(line).parse(doc)) << line;
    EXPECT_GT(doc.find("seq")->number, lastSeq);
    lastSeq = doc.find("seq")->number;
    const JsonValue* counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->find("test.stale_run"), nullptr) << line;
    if (const JsonValue* delta = counters->find("test.rerun")) {
      rerun += static_cast<long>(delta->number);
    }
  }
  EXPECT_EQ(rerun, 7);
}

TEST(ObsExporter, ConcurrentResetNeverStreamsNegativeDeltas) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with PCNN_OBS=OFF";
  ObsStateGuard guard;
  obs::setMetricsEnabled(true);
  const std::string path = testing::TempDir() + "obs_stream_reset.ndjson";
  std::remove(path.c_str());

  obs::startMetricsExporter(path, 5);
  obs::Counter& c = obs::counter("test.reset_race");
  for (int burst = 0; burst < 8; ++burst) {
    for (int i = 0; i < 500; ++i) c.add();
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
    obs::resetMetrics();  // races the exporter's windowSnapshot
  }
  // A quiet tail with no resets: these windows must emit normally (every
  // window spanning a reset above reports only post-reset deltas).
  for (int i = 0; i < 500; ++i) c.add();
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  obs::stopMetricsExporter();

  const std::string text = readWholeFile(path);
  std::remove(path.c_str());
  std::size_t start = 0, parsed = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) break;
    const std::string line = text.substr(start, nl - start);
    start = nl + 1;
    if (line.empty()) continue;
    JsonValue doc;
    ASSERT_TRUE(JsonReader(line).parse(doc)) << line;
    ++parsed;
    const JsonValue* counters = doc.find("counters");
    if (counters == nullptr) continue;
    for (const auto& [name, value] : counters->object) {
      EXPECT_GE(value.number, 0.0) << name << " streamed a negative delta";
    }
  }
  EXPECT_GE(parsed, 1u);
}

// --- Trace spans ----------------------------------------------------------

TEST(ObsSpans, NestingProducesWellFormedContainedTraceEvents) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with PCNN_OBS=OFF";
  ObsStateGuard guard;
  obs::setTraceEnabled(true);

  {
    PCNN_SPAN("test.outer");
    {
      PCNN_SPAN_ARG("test.inner", "item", 7);
      volatile long sink = 0;
      for (long i = 0; i < 10000; ++i) sink = sink + i;
    }
  }
  EXPECT_EQ(obs::traceEventCount(), 2);

  JsonValue doc;
  ASSERT_TRUE(JsonReader(obs::traceJson()).parse(doc));
  ASSERT_EQ(doc.kind, JsonValue::kObject);
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::kArray);
  ASSERT_EQ(events->array.size(), 2u);

  const JsonValue* outer = nullptr;
  const JsonValue* inner = nullptr;
  for (const JsonValue& event : events->array) {
    const JsonValue* name = event.find("name");
    ASSERT_NE(name, nullptr);
    const JsonValue* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->str, "X");  // complete events
    if (name->str == "test.outer") outer = &event;
    if (name->str == "test.inner") inner = &event;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);

  // The inner span's interval must nest inside the outer's.
  const double outerTs = outer->find("ts")->number;
  const double outerEnd = outerTs + outer->find("dur")->number;
  const double innerTs = inner->find("ts")->number;
  const double innerEnd = innerTs + inner->find("dur")->number;
  const double slack = 0.01;  // exported at microsecond precision
  EXPECT_GE(innerTs + slack, outerTs);
  EXPECT_LE(innerEnd, outerEnd + slack);

  // Both spans ran on this thread, so they share a tid.
  EXPECT_DOUBLE_EQ(outer->find("tid")->number, inner->find("tid")->number);
  // The span argument survives the export.
  const JsonValue* args = inner->find("args");
  ASSERT_NE(args, nullptr);
  ASSERT_NE(args->find("item"), nullptr);
  EXPECT_DOUBLE_EQ(args->find("item")->number, 7.0);
}

TEST(ObsSpans, SpansFromPoolThreadsAllExported) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with PCNN_OBS=OFF";
  ObsStateGuard guard;
  obs::setTraceEnabled(true);

  setThreadCount(4);
  parallelFor(0, 64, [](long) { PCNN_SPAN("test.pool_span"); });
  setThreadCount(1);

  // The pool itself emits a "pool.job" span around the parallelFor, so
  // count only our spans: all 64 must survive the per-thread buffers.
  EXPECT_GE(obs::traceEventCount(), 64);
  JsonValue doc;
  ASSERT_TRUE(JsonReader(obs::traceJson()).parse(doc));
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  long poolSpans = 0;
  for (const JsonValue& event : events->array) {
    const JsonValue* name = event.find("name");
    ASSERT_NE(name, nullptr);
    if (name->str == "test.pool_span") ++poolSpans;
  }
  EXPECT_EQ(poolSpans, 64);
}

// --- Disabled mode --------------------------------------------------------

TEST(ObsDisabled, RecordsNothingAndSnapshotIsEmpty) {
  ObsStateGuard guard;
  obs::setTraceEnabled(false);
  obs::setMetricsEnabled(false);

  obs::counter("test.disabled_counter").add(5);
  obs::histogram("test.disabled_us").record(1.0);
  {
    PCNN_SPAN("test.disabled_span");
  }

  const obs::WindowSnapshot w = obs::windowSnapshot();
  EXPECT_TRUE(w.counters.empty());
  EXPECT_TRUE(w.gauges.empty());
  EXPECT_TRUE(w.histograms.empty());
  EXPECT_EQ(obs::traceEventCount(), 0);

  // The empty exports are still valid JSON documents.
  JsonValue metrics;
  EXPECT_TRUE(JsonReader(obs::windowJson(w)).parse(metrics));
  JsonValue trace;
  ASSERT_TRUE(JsonReader(obs::traceJson()).parse(trace));
  const JsonValue* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->array.empty());
}

// --- Environment gating ---------------------------------------------------

TEST(ObsEnv, GatingRoundTripsThroughConfigureFromEnv) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with PCNN_OBS=OFF";
  ObsStateGuard guard;
  const std::string tracePath = testing::TempDir() + "obs_env_trace.json";

  ::setenv("PCNN_TRACE", tracePath.c_str(), 1);
  ::setenv("PCNN_METRICS", "stderr", 1);
  ::unsetenv("PCNN_OBS");
  obs::configureFromEnv();
  EXPECT_TRUE(obs::traceEnabled());
  EXPECT_TRUE(obs::metricsEnabled());
  EXPECT_EQ(obs::configuredTracePath(), tracePath);
  EXPECT_EQ(obs::configuredMetricsPath(), "stderr");

  // PCNN_OBS=off is a master kill switch over both.
  ::setenv("PCNN_OBS", "off", 1);
  obs::configureFromEnv();
  EXPECT_FALSE(obs::traceEnabled());
  EXPECT_FALSE(obs::metricsEnabled());
  EXPECT_EQ(obs::configuredTracePath(), "");
  EXPECT_EQ(obs::configuredMetricsPath(), "");

  // Clearing the environment turns everything back off cleanly.
  ::unsetenv("PCNN_TRACE");
  ::unsetenv("PCNN_METRICS");
  ::unsetenv("PCNN_OBS");
  obs::configureFromEnv();
  EXPECT_FALSE(obs::traceEnabled());
  EXPECT_FALSE(obs::metricsEnabled());
  EXPECT_EQ(obs::configuredTracePath(), "");
  EXPECT_EQ(obs::configuredMetricsPath(), "");
}

TEST(ObsExport, WriteTraceProducesParsableFile) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "built with PCNN_OBS=OFF";
  ObsStateGuard guard;
  obs::setTraceEnabled(true);
  {
    PCNN_SPAN("test.file_span");
  }
  const std::string path = testing::TempDir() + "obs_write_trace.json";
  ASSERT_TRUE(obs::writeTrace(path));

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);
  std::remove(path.c_str());

  JsonValue doc;
  ASSERT_TRUE(JsonReader(text).parse(doc));
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->array.size(), 1u);
}

}  // namespace
}  // namespace pcnn
