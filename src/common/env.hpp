#pragma once

// Single home for PCNN_* environment-variable parsing. Every runtime knob
// (PCNN_OBS, PCNN_TRACE, PCNN_METRICS, PCNN_FAULTS, PCNN_BUNDLE,
// PCNN_NUM_THREADS, PCNN_SERVE_QUEUE, ...) reads through these
// typed getters instead of hand-rolling getenv + strtol + tolower at its
// call site, so malformed values produce one consistent stderr diagnostic
// (once per variable) and fall back to the documented default instead of
// being silently misread.
//
// Header-only on purpose: pcnn_obs sits below pcnn_common in the link
// order, and both layers parse env vars.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <set>
#include <string>

namespace pcnn::env {

/// The variable's value, or nullopt when unset or empty (the two are
/// treated identically everywhere in this codebase).
inline std::optional<std::string> raw(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return std::string(value);
}

/// String getter with a default for unset/empty.
inline std::string str(const char* name, const std::string& fallback = "") {
  std::optional<std::string> value = raw(name);
  return value ? *value : fallback;
}

/// The value lowercased, for case-insensitive token comparison
/// ("PCNN_OBS=OFF" and "off" behave identically). nullopt when unset.
inline std::optional<std::string> loweredToken(const char* name) {
  std::optional<std::string> value = raw(name);
  if (!value) return std::nullopt;
  for (char& c : *value) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return value;
}

/// Emits one "ignoring malformed ..." diagnostic per variable name per
/// process, so a knob misspelled in a long-running service does not spam
/// stderr on every query.
inline void warnMalformed(const char* name, const std::string& value,
                          const char* expected) {
  static std::mutex mutex;
  static std::set<std::string>* warned = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mutex);
  if (!warned->insert(name).second) return;
  std::fprintf(stderr, "pcnn: ignoring malformed %s=\"%s\" (expected %s)\n",
               name, value.c_str(), expected);
}

/// Boolean knob: on/1/true/yes enable, off/0/false/no disable
/// (case-insensitive). Unset or malformed -> `fallback`, with a one-time
/// diagnostic for malformed values.
inline bool flag(const char* name, bool fallback) {
  std::optional<std::string> token = loweredToken(name);
  if (!token) return fallback;
  if (*token == "on" || *token == "1" || *token == "true" ||
      *token == "yes") {
    return true;
  }
  if (*token == "off" || *token == "0" || *token == "false" ||
      *token == "no") {
    return false;
  }
  warnMalformed(name, *token, "on/off/1/0/true/false/yes/no");
  return fallback;
}

/// Integer knob constrained to [minValue, maxValue]. The whole value must
/// parse ("8x" is malformed, not 8); out-of-range or malformed values fall
/// back with a one-time diagnostic.
inline int intValue(const char* name, int fallback, int minValue,
                    int maxValue) {
  std::optional<std::string> value = raw(name);
  if (!value) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value->c_str(), &end, 10);
  if (end == value->c_str() || *end != '\0' || parsed < minValue ||
      parsed > maxValue) {
    char expected[64];
    std::snprintf(expected, sizeof(expected), "integer in [%d, %d]",
                  minValue, maxValue);
    warnMalformed(name, *value, expected);
    return fallback;
  }
  return static_cast<int>(parsed);
}

}  // namespace pcnn::env
