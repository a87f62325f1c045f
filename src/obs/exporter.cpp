// Metrics exporter: the one path by which PCNN_METRICS reaches its file.
// Export to a path starts when configureFromEnv() (or a direct
// startMetricsExporter call) names it; the first export to a file in this
// process truncates it. With PCNN_METRICS_PERIOD_MS a background thread
// appends one NDJSON window line (windowSnapshot + windowJson) per period.
// stop() -- run at exit by writeConfiguredReports -- joins that thread and
// appends one final window, so an exit-time-only export is exactly one
// line covering the whole run, and a second stop() appends nothing.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "obs/obs.hpp"

namespace pcnn::obs {

namespace {

bool isStderr(const std::string& path) {
  return path == "stderr" || path == "-";
}

struct Exporter {
  /// Serializes start/stop (held across thread join and the final flush).
  /// The worker thread never takes it, so joining under it cannot
  /// deadlock.
  std::mutex lifecycle;
  std::string path;  ///< guarded by lifecycle; "" = not exporting
  int periodMs = 0;  ///< guarded by lifecycle; 0 = final window only
  std::thread thread;  ///< guarded by lifecycle; joinable while streaming
  /// Files this process has truncated (guarded by lifecycle), so a rerun
  /// into a used path starts clean but a re-export within one process
  /// keeps appending under the process-wide, still increasing seq.
  std::set<std::string> truncated;

  std::mutex mutex;  ///< guards stopRequested for the cv
  std::condition_variable cv;
  bool stopRequested = false;

  static Exporter& instance() {
    static Exporter* e = new Exporter();  // never destroyed
    return *e;
  }
};

/// Advances the global window and appends its line to `path`.
void emitWindow(const std::string& path) {
  const std::string line = windowJson(windowSnapshot());
  if (isStderr(path)) {
    std::fprintf(stderr, "%s\n", line.c_str());
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (!f) return;
  std::fprintf(f, "%s\n", line.c_str());
  std::fclose(f);
}

void exporterLoop(std::string path, int periodMs) {
  auto& e = Exporter::instance();
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(e.mutex);
      e.cv.wait_for(lock, std::chrono::milliseconds(periodMs),
                    [&] { return e.stopRequested; });
      if (e.stopRequested) return;
    }
    emitWindow(path);
  }
}

/// Caller holds e.lifecycle. Ends the current export with its final
/// window; a no-op when nothing is being exported.
void stopUnderLifecycle(Exporter& e) {
  if (e.path.empty()) return;
  if (e.thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(e.mutex);
      e.stopRequested = true;
    }
    e.cv.notify_all();
    e.thread.join();
  }
  emitWindow(e.path);
  e.path.clear();
  e.periodMs = 0;
}

}  // namespace

void startMetricsExporter(const std::string& path, int periodMs) {
  if (!kCompiledIn) return;
  if (path.empty() || periodMs < 0) periodMs = 0;
  auto& e = Exporter::instance();
  std::lock_guard<std::mutex> life(e.lifecycle);
  if (e.path == path && e.periodMs == periodMs) return;
  stopUnderLifecycle(e);
  if (path.empty()) return;
  if (!isStderr(path) && e.truncated.insert(path).second) {
    if (std::FILE* f = std::fopen(path.c_str(), "w")) std::fclose(f);
  }
  e.path = path;
  e.periodMs = periodMs;
  if (periodMs == 0) return;
  {
    std::lock_guard<std::mutex> lock(e.mutex);
    e.stopRequested = false;
  }
  e.thread = std::thread(exporterLoop, path, periodMs);
}

void stopMetricsExporter() {
  auto& e = Exporter::instance();
  std::lock_guard<std::mutex> life(e.lifecycle);
  stopUnderLifecycle(e);
}

bool metricsExporterRunning() {
  auto& e = Exporter::instance();
  std::lock_guard<std::mutex> life(e.lifecycle);
  return e.thread.joinable();
}

}  // namespace pcnn::obs
