#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "io/io.hpp"

namespace pcnn::io {

/// Well-known bundle chunk names. A bundle may carry any subset (plus
/// chunks this build has never heard of -- loaders keep them, consumers
/// ignore what they do not recognize, so bundles are forward-extensible).
namespace chunks {
inline constexpr const char* kExtractorState = "extractor_state";
inline constexpr const char* kEednNetwork = "eedn_network";
inline constexpr const char* kSvmModel = "svm_model";
inline constexpr const char* kTnModel = "tn_model";
}  // namespace chunks

/// Well-known manifest keys.
namespace keys {
inline constexpr const char* kFormat = "format";      ///< "pcnn-bundle"
inline constexpr const char* kSpec = "spec";          ///< "parrot:4spike"
inline constexpr const char* kLayout = "layout";      ///< layoutName()
inline constexpr const char* kWindowCellsX = "window_cells_x";
inline constexpr const char* kWindowCellsY = "window_cells_y";
inline constexpr const char* kSeed = "seed";          ///< extractor RNG seed
inline constexpr const char* kGitSha = "git_sha";
inline constexpr const char* kContentHash = "content_hash";
}  // namespace keys

/// The deployment manifest: ordered string key/value pairs describing how
/// to reconstruct the pipeline the bundle's chunks belong to (extractor
/// spec + options, classifier config, provenance). Ordered so the
/// serialized form -- and anything hashed over it -- is deterministic.
class Manifest {
 public:
  void set(const std::string& key, const std::string& value) {
    fields_[key] = value;
  }
  /// nullptr when absent.
  const std::string* find(const std::string& key) const;
  /// Value or fallback when absent.
  std::string get(const std::string& key,
                  const std::string& fallback = "") const;
  /// Typed accessors; kDataLoss when absent, kOutOfRange when unparsable.
  /// getInt also rejects a value outside lo..hi as kOutOfRange, checked on
  /// the full decimal value before it is narrowed to int, so "4294967304"
  /// can never read back as 8. getUint64 takes plain decimal digits only
  /// (no sign) up to 2^64-1, the range of a stored RNG seed.
  StatusOr<int> getInt(const std::string& key,
                       int lo = std::numeric_limits<int>::min(),
                       int hi = std::numeric_limits<int>::max()) const;
  StatusOr<std::uint64_t> getUint64(const std::string& key) const;
  StatusOr<double> getFloat(const std::string& key) const;

  const std::map<std::string, std::string>& fields() const { return fields_; }

 private:
  std::map<std::string, std::string> fields_;
};

/// One versioned container for everything a trained deployment needs: the
/// manifest plus named binary chunks (SVM weights, Eedn network, compiled
/// TN model, extractor state). The serving layer, benches and examples
/// reload a co-trained pipeline from one file by name instead of
/// re-running stage A/B training.
///
/// Wire format (all via io::Writer -- magic "PCNB", version 1):
///   header | MANF chunk (u32 count, (str key, str value)*)
///          | BLOB chunk per named chunk (str name, u64 size, bytes),
///            sorted by name so equal content serializes identically.
/// Unknown top-level chunk tags are skipped on load (forward compat);
/// unknown BLOB names are kept and reachable via chunk().
class Bundle {
 public:
  Manifest& manifest() { return manifest_; }
  const Manifest& manifest() const { return manifest_; }

  void setChunk(const std::string& name, std::string payload);
  /// nullptr when the bundle has no chunk of that name.
  const std::string* chunk(const std::string& name) const;
  bool hasChunk(const std::string& name) const;
  std::vector<std::string> chunkNames() const;

  /// FNV-1a 64 (hex) over the sorted (name, payload) chunk sequence --
  /// the identity of the trained artifact, independent of manifest
  /// cosmetics. Stamped into the manifest as keys::kContentHash on save.
  std::string contentHash() const;

  /// OK when the manifest's recorded content hash matches the chunks
  /// actually present (kDataLoss on mismatch, kFailedPrecondition when
  /// the manifest has no recorded hash to check against).
  Status verifyContentHash() const;

  Status trySave(std::ostream& out) const;
  Status trySaveFile(const std::string& path) const;
  static StatusOr<Bundle> tryLoad(std::istream& in);
  static StatusOr<Bundle> tryLoadFile(const std::string& path);

  /// Reads only the header + manifest of a bundle file -- cheap enough
  /// for every bench to stamp bundle provenance without inflating the
  /// chunks (the manifest is always the first chunk).
  static StatusOr<Manifest> tryLoadManifestFile(const std::string& path);

 private:
  Manifest manifest_;
  std::map<std::string, std::string> chunks_;
};

}  // namespace pcnn::io
