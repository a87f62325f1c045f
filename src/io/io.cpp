#include "io/io.hpp"

#include <cstring>
#include <istream>
#include <ostream>

namespace pcnn::io {

namespace {

void encodeLe(std::uint64_t v, unsigned char* out, int n) {
  for (int i = 0; i < n; ++i) {
    out[i] = static_cast<unsigned char>(v >> (8 * i));
  }
}

std::uint64_t decodeLe(const unsigned char* in, int n) {
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

}  // namespace

Writer::Writer(std::ostream& out) : out_(out) {}

Status Writer::put(const void* data, std::size_t n) {
  if (!status_.ok()) return status_;
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(n));
  if (!out_) status_ = Status::DataLoss("io::Writer: write failure");
  return status_;
}

Status Writer::header(const char (&magic)[5], std::uint32_t version) {
  put(magic, 4);
  return u32(version);
}

Status Writer::u8(std::uint8_t v) { return put(&v, 1); }

Status Writer::u32(std::uint32_t v) {
  unsigned char buf[4];
  encodeLe(v, buf, 4);
  return put(buf, 4);
}

Status Writer::u64(std::uint64_t v) {
  unsigned char buf[8];
  encodeLe(v, buf, 8);
  return put(buf, 8);
}

Status Writer::i32(std::int32_t v) {
  return u32(static_cast<std::uint32_t>(v));
}

Status Writer::f32(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, 4);
  return u32(bits);
}

Status Writer::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  return u64(bits);
}

Status Writer::bytes(const void* data, std::size_t n) {
  return put(data, n);
}

Status Writer::str(const std::string& s) {
  if (!status_.ok()) return status_;
  if (s.size() > kMaxStringBytes) {
    status_ = Status::OutOfRange("io::Writer: string of " +
                                 std::to_string(s.size()) +
                                 " bytes exceeds the limit");
    return status_;
  }
  u32(static_cast<std::uint32_t>(s.size()));
  return put(s.data(), s.size());
}

Status Writer::chunk(const char (&tag)[5], const std::string& payload) {
  if (!status_.ok()) return status_;
  if (payload.size() > kMaxChunkBytes) {
    status_ = Status::OutOfRange("io::Writer: chunk " + std::string(tag) +
                                 " of " + std::to_string(payload.size()) +
                                 " bytes exceeds the limit");
    return status_;
  }
  put(tag, 4);
  u64(payload.size());
  return put(payload.data(), payload.size());
}

Reader::Reader(std::istream& in) : in_(in) {}

Status Reader::get(void* data, std::size_t n) {
  if (!status_.ok()) return status_;
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(in_.gcount()) != n) {
    status_ = Status::DataLoss("io::Reader: truncated stream (wanted " +
                               std::to_string(n) + " bytes)");
  }
  return status_;
}

Status Reader::header(const char (&magic)[5], std::uint32_t maxVersion,
                      std::uint32_t* version) {
  char got[4] = {};
  if (!get(got, 4).ok()) return status_;
  if (std::memcmp(got, magic, 4) != 0) {
    status_ = Status::DataLoss(std::string("io::Reader: bad magic "
                                           "(expected ") +
                               magic + ")");
    return status_;
  }
  std::uint32_t v = 0;
  if (!u32(v).ok()) return status_;
  if (v < 1 || v > maxVersion) {
    status_ = Status::OutOfRange(std::string("io::Reader: ") + magic +
                                 " version " + std::to_string(v) +
                                 " outside 1.." + std::to_string(maxVersion));
    return status_;
  }
  if (version != nullptr) *version = v;
  return status_;
}

Status Reader::u8(std::uint8_t& v) { return get(&v, 1); }

Status Reader::u32(std::uint32_t& v) {
  unsigned char buf[4];
  if (!get(buf, 4).ok()) return status_;
  v = static_cast<std::uint32_t>(decodeLe(buf, 4));
  return status_;
}

Status Reader::u64(std::uint64_t& v) {
  unsigned char buf[8];
  if (!get(buf, 8).ok()) return status_;
  v = decodeLe(buf, 8);
  return status_;
}

Status Reader::i32(std::int32_t& v) {
  std::uint32_t raw = 0;
  if (!u32(raw).ok()) return status_;
  v = static_cast<std::int32_t>(raw);
  return status_;
}

Status Reader::f32(float& v) {
  std::uint32_t bits = 0;
  if (!u32(bits).ok()) return status_;
  std::memcpy(&v, &bits, 4);
  return status_;
}

Status Reader::f64(double& v) {
  std::uint64_t bits = 0;
  if (!u64(bits).ok()) return status_;
  std::memcpy(&v, &bits, 8);
  return status_;
}

Status Reader::bytes(void* data, std::size_t n) { return get(data, n); }

Status Reader::str(std::string& s, std::uint32_t maxBytes) {
  std::uint32_t size = 0;
  if (!u32(size).ok()) return status_;
  if (size > maxBytes) {
    status_ = Status::OutOfRange("io::Reader: string of " +
                                 std::to_string(size) +
                                 " bytes exceeds the limit of " +
                                 std::to_string(maxBytes));
    return status_;
  }
  s.resize(size);
  return get(s.data(), size);
}

Status Reader::nextChunk(Chunk& chunk, bool& end) {
  end = false;
  if (!status_.ok()) return status_;
  char tag[4];
  in_.read(tag, 4);
  const std::streamsize got = in_.gcount();
  if (got == 0 && in_.eof()) {
    end = true;  // clean end: the previous chunk was the last one
    return status_;
  }
  if (got != 4) {
    status_ = Status::DataLoss("io::Reader: torn chunk tag");
    return status_;
  }
  chunk.tag.assign(tag, 4);
  std::uint64_t size = 0;
  if (!u64(size).ok()) {
    status_ = Status::DataLoss("io::Reader: torn chunk header (" +
                               chunk.tag + ")");
    return status_;
  }
  if (size > kMaxChunkBytes) {
    status_ = Status::OutOfRange("io::Reader: chunk " + chunk.tag +
                                 " declares " + std::to_string(size) +
                                 " bytes, over the " +
                                 std::to_string(kMaxChunkBytes) +
                                 "-byte limit");
    return status_;
  }
  chunk.payload.resize(static_cast<std::size_t>(size));
  if (!get(chunk.payload.data(), chunk.payload.size()).ok()) {
    status_ = Status::DataLoss("io::Reader: chunk " + chunk.tag +
                               " truncated (declared " +
                               std::to_string(size) + " bytes)");
    return status_;
  }
  return status_;
}

std::uint64_t fnv1a64(const std::string& data, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string hashHex(std::uint64_t hash) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[hash & 0xF];
    hash >>= 4;
  }
  return out;
}

}  // namespace pcnn::io
