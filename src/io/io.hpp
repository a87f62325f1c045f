#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/status.hpp"

namespace pcnn::io {

/// Shared binary serialization substrate for every persisted artifact
/// (TN model files, Eedn networks, SVM hyperplanes, deployment bundles).
///
/// Wire shape: a 4-byte magic + u32 version header, then a sequence of
/// length-prefixed chunks (4-byte tag, u64 payload length, payload).
/// Integers are little-endian fixed-width; floats are their IEEE-754 bit
/// patterns, so numeric round trips are bitwise. Readers never trust a
/// declared length: chunk and string sizes are capped before any
/// allocation, truncation is kDataLoss, an implausible size is
/// kOutOfRange. Writers carry the same Status contract as readers --
/// a failed write poisons the Writer instead of throwing, so save paths
/// can return typed errors (the PR-5 load-side pattern, now symmetric).

/// Largest payload a single chunk may declare. A corrupt length field
/// must fail before it drives an allocation.
constexpr std::uint64_t kMaxChunkBytes = std::uint64_t{1} << 30;

/// Largest length-prefixed string (tags, manifest keys/values, names).
constexpr std::uint32_t kMaxStringBytes = std::uint32_t{1} << 20;

/// Binary writer over an ostream with a sticky Status: the first failed
/// write latches the error and every later call becomes a no-op returning
/// it, so a save routine checks once at the end.
class Writer {
 public:
  explicit Writer(std::ostream& out);

  /// 4-byte magic + u32 format version.
  Status header(const char (&magic)[5], std::uint32_t version);

  Status u8(std::uint8_t v);
  Status u32(std::uint32_t v);
  Status u64(std::uint64_t v);
  Status i32(std::int32_t v);
  Status f32(float v);
  Status f64(double v);
  Status bytes(const void* data, std::size_t n);
  /// u32 length + raw bytes; rejects strings over kMaxStringBytes.
  Status str(const std::string& s);
  /// One length-prefixed chunk: 4-byte tag, u64 size, payload.
  Status chunk(const char (&tag)[5], const std::string& payload);

  const Status& status() const { return status_; }

 private:
  Status put(const void* data, std::size_t n);
  std::ostream& out_;
  Status status_;
};

/// Bounds-checked binary reader over an istream, sticky-Status like
/// Writer. All multi-byte reads validate stream health; the chunk
/// iterator distinguishes clean end-of-stream from a torn chunk header.
class Reader {
 public:
  explicit Reader(std::istream& in);

  /// Validates the 4-byte magic and reads the version, which must be in
  /// 1..maxVersion (a newer file than this binary understands is
  /// kOutOfRange, a wrong magic kDataLoss).
  Status header(const char (&magic)[5], std::uint32_t maxVersion,
                std::uint32_t* version = nullptr);

  Status u8(std::uint8_t& v);
  Status u32(std::uint32_t& v);
  Status u64(std::uint64_t& v);
  Status i32(std::int32_t& v);
  Status f32(float& v);
  Status f64(double& v);
  Status bytes(void* data, std::size_t n);
  Status str(std::string& s, std::uint32_t maxBytes = kMaxStringBytes);

  /// One chunk read by nextChunk. Payloads are capped by kMaxChunkBytes.
  struct Chunk {
    std::string tag;      ///< 4 characters
    std::string payload;  ///< raw bytes; parse with a nested Reader
  };

  /// Reads the next chunk. Clean end of stream sets `end` and returns OK;
  /// a partial chunk header or short payload is kDataLoss, an oversized
  /// declared length kOutOfRange.
  Status nextChunk(Chunk& chunk, bool& end);

  const Status& status() const { return status_; }

 private:
  Status get(void* data, std::size_t n);
  std::istream& in_;
  Status status_;
};

/// FNV-1a 64 over a byte string; the bundle content hash.
std::uint64_t fnv1a64(const std::string& data,
                      std::uint64_t seed = 0xcbf29ce484222325ull);

/// 16-hex-digit rendering of a hash.
std::string hashHex(std::uint64_t hash);

}  // namespace pcnn::io
