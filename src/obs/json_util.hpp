#pragma once

// Internal JSON string helpers shared by the obs translation units
// (obs.cpp, flight.cpp, exporter.cpp). Not part of the public API.

#include <cstdio>
#include <string>

namespace pcnn::obs::internal {

inline void appendJsonEscaped(std::string& out, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

inline void appendNumber(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

inline bool writeStringToFile(const std::string& path,
                              const std::string& body) {
  if (path == "stderr" || path == "-") {
    std::fputs(body.c_str(), stderr);
    std::fputc('\n', stderr);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

}  // namespace pcnn::obs::internal
