#include "io/bundle.hpp"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

namespace pcnn::io {

namespace {

constexpr char kBundleMagic[5] = "PCNB";
constexpr std::uint32_t kBundleVersion = 1;

/// The manifest may not bloat without bound; chunk payloads carry the
/// heavy data.
constexpr std::uint32_t kMaxManifestEntries = 4096;

std::string packManifest(const Manifest& manifest) {
  std::ostringstream buffer;
  Writer w(buffer);
  w.u32(static_cast<std::uint32_t>(manifest.fields().size()));
  for (const auto& [key, value] : manifest.fields()) {
    w.str(key);
    w.str(value);
  }
  return buffer.str();
}

Status unpackManifest(const std::string& payload, Manifest& manifest) {
  std::istringstream buffer(payload);
  Reader r(buffer);
  std::uint32_t count = 0;
  if (!r.u32(count).ok()) return r.status();
  if (count > kMaxManifestEntries) {
    return Status::OutOfRange("Bundle: manifest declares " +
                              std::to_string(count) + " entries, over the " +
                              std::to_string(kMaxManifestEntries) + " limit");
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string key, value;
    if (!r.str(key).ok() || !r.str(value).ok()) return r.status();
    manifest.set(key, value);
  }
  return Status::Ok();
}

}  // namespace

const std::string* Manifest::find(const std::string& key) const {
  const auto it = fields_.find(key);
  return it == fields_.end() ? nullptr : &it->second;
}

std::string Manifest::get(const std::string& key,
                          const std::string& fallback) const {
  const std::string* value = find(key);
  return value != nullptr ? *value : fallback;
}

StatusOr<int> Manifest::getInt(const std::string& key, int lo,
                               int hi) const {
  const std::string* value = find(key);
  if (value == nullptr) {
    return Status::DataLoss("Bundle: manifest missing \"" + key + "\"");
  }
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value->c_str(), &end, 10);
  if (end == value->c_str() || *end != '\0') {
    return Status::OutOfRange("Bundle: manifest \"" + key + "\" = \"" +
                              *value + "\" is not an integer");
  }
  if (errno == ERANGE || parsed < lo || parsed > hi) {
    return Status::OutOfRange("Bundle: manifest \"" + key + "\" = \"" +
                              *value + "\" outside " + std::to_string(lo) +
                              ".." + std::to_string(hi));
  }
  return static_cast<int>(parsed);
}

StatusOr<std::uint64_t> Manifest::getUint64(const std::string& key) const {
  const std::string* value = find(key);
  if (value == nullptr) {
    return Status::DataLoss("Bundle: manifest missing \"" + key + "\"");
  }
  // strtoull would accept a sign and wrap "-1" to 2^64-1.
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed =
      std::strtoull(value->c_str(), &end, 10);
  if (value->empty() || (*value)[0] < '0' || (*value)[0] > '9' ||
      *end != '\0' || errno == ERANGE) {
    return Status::OutOfRange("Bundle: manifest \"" + key + "\" = \"" +
                              *value + "\" is not an unsigned 64-bit integer");
  }
  return static_cast<std::uint64_t>(parsed);
}

StatusOr<double> Manifest::getFloat(const std::string& key) const {
  const std::string* value = find(key);
  if (value == nullptr) {
    return Status::DataLoss("Bundle: manifest missing \"" + key + "\"");
  }
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  if (end == value->c_str() || *end != '\0') {
    return Status::OutOfRange("Bundle: manifest \"" + key + "\" = \"" +
                              *value + "\" is not a number");
  }
  return parsed;
}

void Bundle::setChunk(const std::string& name, std::string payload) {
  chunks_[name] = std::move(payload);
}

const std::string* Bundle::chunk(const std::string& name) const {
  const auto it = chunks_.find(name);
  return it == chunks_.end() ? nullptr : &it->second;
}

bool Bundle::hasChunk(const std::string& name) const {
  return chunks_.count(name) > 0;
}

std::vector<std::string> Bundle::chunkNames() const {
  std::vector<std::string> names;
  names.reserve(chunks_.size());
  for (const auto& [name, payload] : chunks_) names.push_back(name);
  return names;
}

std::string Bundle::contentHash() const {
  std::uint64_t hash = fnv1a64("pcnn-bundle-content");
  for (const auto& [name, payload] : chunks_) {
    hash = fnv1a64(name, hash);
    hash = fnv1a64(payload, hash);
  }
  return hashHex(hash);
}

Status Bundle::verifyContentHash() const {
  const std::string* recorded = manifest_.find(keys::kContentHash);
  if (recorded == nullptr) {
    return Status::FailedPrecondition(
        "Bundle: manifest records no content hash");
  }
  const std::string actual = contentHash();
  if (*recorded != actual) {
    return Status::DataLoss("Bundle: content hash mismatch (manifest " +
                            *recorded + ", chunks " + actual + ")");
  }
  return Status::Ok();
}

Status Bundle::trySave(std::ostream& out) const {
  // The manifest written to disk always records the identity of the
  // chunks it travels with; the in-memory bundle stays untouched.
  Manifest stamped = manifest_;
  stamped.set(keys::kFormat, "pcnn-bundle");
  stamped.set(keys::kContentHash, contentHash());

  Writer w(out);
  w.header(kBundleMagic, kBundleVersion);
  w.chunk("MANF", packManifest(stamped));
  for (const auto& [name, payload] : chunks_) {
    std::ostringstream blob;
    Writer bw(blob);
    bw.str(name);
    bw.u64(payload.size());
    bw.bytes(payload.data(), payload.size());
    if (!bw.status().ok()) return bw.status();
    w.chunk("BLOB", blob.str());
  }
  return w.status();
}

Status Bundle::trySaveFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Unavailable("Bundle: cannot open " + path);
  Status status = trySave(out);
  if (status.ok() && !out.flush()) {
    status = Status::DataLoss("Bundle: write failure on " + path);
  }
  return status;
}

StatusOr<Bundle> Bundle::tryLoad(std::istream& in) {
  Reader r(in);
  if (!r.header(kBundleMagic, kBundleVersion).ok()) return r.status();
  Bundle bundle;
  bool sawManifest = false;
  for (;;) {
    Reader::Chunk chunk;
    bool end = false;
    if (!r.nextChunk(chunk, end).ok()) return r.status();
    if (end) break;
    if (chunk.tag == "MANF") {
      if (Status status = unpackManifest(chunk.payload, bundle.manifest_);
          !status.ok()) {
        return status;
      }
      sawManifest = true;
    } else if (chunk.tag == "BLOB") {
      std::istringstream blob(chunk.payload);
      Reader br(blob);
      std::string name;
      std::uint64_t size = 0;
      if (!br.str(name).ok() || !br.u64(size).ok()) return br.status();
      if (size > kMaxChunkBytes ||
          size > chunk.payload.size()) {  // cannot exceed its container
        return Status::OutOfRange("Bundle: chunk \"" + name + "\" declares " +
                                  std::to_string(size) + " bytes");
      }
      std::string payload(static_cast<std::size_t>(size), '\0');
      if (!br.bytes(payload.data(), payload.size()).ok()) return br.status();
      bundle.chunks_[name] = std::move(payload);
    }
    // Unknown tags: a newer writer's extension; skipped by construction
    // (the chunk length already moved the stream past the payload).
  }
  if (!sawManifest) {
    return Status::DataLoss("Bundle: no manifest chunk");
  }
  return bundle;
}

StatusOr<Bundle> Bundle::tryLoadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Unavailable("Bundle: cannot open " + path);
  return tryLoad(in);
}

StatusOr<Manifest> Bundle::tryLoadManifestFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Unavailable("Bundle: cannot open " + path);
  Reader r(in);
  if (!r.header(kBundleMagic, kBundleVersion).ok()) return r.status();
  for (;;) {
    Reader::Chunk chunk;
    bool end = false;
    if (!r.nextChunk(chunk, end).ok()) return r.status();
    if (end) break;
    if (chunk.tag == "MANF") {
      Manifest manifest;
      if (Status status = unpackManifest(chunk.payload, manifest);
          !status.ok()) {
        return status;
      }
      return manifest;
    }
  }
  return Status::DataLoss("Bundle: no manifest chunk");
}

}  // namespace pcnn::io
