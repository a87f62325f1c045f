#include "obs/provenance.hpp"

#include <cstdio>
#include <thread>

#include "common/env.hpp"
#include "obs/obs.hpp"

#ifndef PCNN_SOURCE_DIR
#define PCNN_SOURCE_DIR "."
#endif

namespace pcnn::obs {

namespace {

std::string envOrUnset(const char* name) {
  return env::str(name, "unset");
}

std::string gitShortSha() {
  // popen rather than a configure-time bake: the SHA tracks the checkout,
  // not the last cmake run. Failure (no git, not a repo) is expected on
  // deployed hosts and degrades to "unknown".
  std::FILE* pipe = ::popen(
      "git -C \"" PCNN_SOURCE_DIR "\" rev-parse --short HEAD 2>/dev/null",
      "r");
  if (!pipe) return "unknown";
  char buf[64] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, pipe);
  ::pclose(pipe);
  std::string sha(buf, n);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

}  // namespace

Provenance provenance() {
  Provenance p;
  p.gitSha = gitShortSha();
  p.hardwareThreads = std::thread::hardware_concurrency();
  p.numThreadsEnv = envOrUnset("PCNN_NUM_THREADS");
  p.faultsEnv = envOrUnset("PCNN_FAULTS");
  p.serveQueueEnv = envOrUnset("PCNN_SERVE_QUEUE");
  p.serveDeadlineEnv = envOrUnset("PCNN_SERVE_DEADLINE_MS");
  p.obsBuild = kCompiledIn ? "on" : "off";
  return p;
}

std::string provenanceJson(
    const Provenance& p,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  std::string out = "{";
  out += "\"git_sha\": \"" + p.gitSha + "\"";
  out += ", \"hardware_threads\": " + std::to_string(p.hardwareThreads);
  out += ", \"num_threads_env\": \"" + p.numThreadsEnv + "\"";
  out += ", \"faults_env\": \"" + p.faultsEnv + "\"";
  out += ", \"serve_queue_env\": \"" + p.serveQueueEnv + "\"";
  out += ", \"serve_deadline_ms_env\": \"" + p.serveDeadlineEnv + "\"";
  out += ", \"obs_build\": \"" + p.obsBuild + "\"";
  for (const auto& [key, value] : extra) {
    out += ", \"" + key + "\": \"" + value + "\"";
  }
  out += "}";
  return out;
}

}  // namespace pcnn::obs
