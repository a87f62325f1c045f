#pragma once

#include <string>
#include <utility>
#include <vector>

namespace pcnn::obs {

/// Build/host provenance shared by every bench and report writer, so each
/// JSON artifact carries the same fields instead of hand-rolling its own
/// subset (BENCH_detect.json used to assemble these inline).
struct Provenance {
  std::string gitSha;         ///< short HEAD SHA, or "unknown"
  unsigned hardwareThreads;   ///< std::thread::hardware_concurrency()
  std::string numThreadsEnv;  ///< PCNN_NUM_THREADS value, or "unset"
  std::string faultsEnv;      ///< PCNN_FAULTS value, or "unset"
  std::string serveQueueEnv;  ///< PCNN_SERVE_QUEUE value, or "unset"
  std::string serveDeadlineEnv;  ///< PCNN_SERVE_DEADLINE_MS, or "unset"
  std::string obsBuild;       ///< "on" / "off" (compile-time PCNN_OBS)
};

/// Collects the process-wide provenance fields. The git SHA is resolved at
/// runtime against the source tree the binary was configured from, so a
/// rebuilt binary always reports the current checkout.
Provenance provenance();

/// `provenance()` as a JSON object, with optional caller-supplied extra
/// string fields appended (e.g. the hog layer's SIMD level, which this
/// library cannot know without depending on it).
std::string provenanceJson(
    const Provenance& p,
    const std::vector<std::pair<std::string, std::string>>& extra = {});

}  // namespace pcnn::obs
