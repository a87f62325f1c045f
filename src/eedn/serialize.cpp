#include "eedn/serialize.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>

#include "eedn/partitioned.hpp"
#include "eedn/trinary.hpp"
#include "io/io.hpp"

namespace pcnn::eedn {
namespace {

constexpr char kMagic[5] = "PEDN";
constexpr std::uint32_t kVersion = 2;

void packTrinary(const TrinaryDense& layer, io::Writer& w) {
  w.u32(static_cast<std::uint32_t>(layer.inputSize()));
  w.u32(static_cast<std::uint32_t>(layer.outputSize()));
  for (float weight : layer.hiddenWeights()) w.f32(weight);
  for (float bias : layer.biases()) w.f32(bias);
}

Status unpackTrinary(TrinaryDense& layer, io::Reader& r) {
  std::uint32_t inSize = 0, outSize = 0;
  r.u32(inSize);
  if (!r.u32(outSize).ok()) return r.status();
  if (inSize != static_cast<std::uint32_t>(layer.inputSize()) ||
      outSize != static_cast<std::uint32_t>(layer.outputSize())) {
    return Status::DataLoss("loadNetwork: TrinaryDense shape mismatch");
  }
  for (float& w : layer.hiddenWeights()) {
    if (!r.f32(w).ok()) {
      return Status::DataLoss("loadNetwork: truncated weights");
    }
    if (!std::isfinite(w)) {
      return Status::OutOfRange("loadNetwork: non-finite weight");
    }
  }
  for (float& b : layer.biases()) {
    if (!r.f32(b).ok()) {
      return Status::DataLoss("loadNetwork: truncated biases");
    }
    if (!std::isfinite(b)) {
      return Status::OutOfRange("loadNetwork: non-finite bias");
    }
  }
  return Status::Ok();
}

}  // namespace

Status tryLoadNetwork(nn::Sequential& net, std::istream& in) {
  io::Reader r(in);
  if (!r.header(kMagic, kVersion).ok()) return r.status();

  io::Reader::Chunk chunk;
  bool end = false;
  if (!r.nextChunk(chunk, end).ok()) return r.status();
  if (end || chunk.tag != "NETW") {
    return Status::DataLoss("loadNetwork: missing NETW chunk");
  }
  {
    std::istringstream payload(chunk.payload);
    io::Reader pr(payload);
    std::uint32_t layerCount = 0;
    if (!pr.u32(layerCount).ok()) return pr.status();
    if (layerCount != net.layerCount()) {
      return Status::DataLoss("loadNetwork: bad header or layer count");
    }
  }

  for (std::size_t i = 0; i < net.layerCount(); ++i) {
    // One chunk per layer, unknown tags skipped for forward compat.
    for (;;) {
      if (!r.nextChunk(chunk, end).ok()) return r.status();
      if (end) {
        return Status::DataLoss("loadNetwork: truncated layer sequence");
      }
      if (chunk.tag == "TDNS" || chunk.tag == "PDNS" ||
          chunk.tag == "SPKT") {
        break;
      }
    }
    std::istringstream payload(chunk.payload);
    io::Reader pr(payload);
    nn::Layer& layer = net.layer(i);
    if (auto* td = dynamic_cast<TrinaryDense*>(&layer)) {
      if (chunk.tag != "TDNS") {
        return Status::DataLoss("loadNetwork: TrinaryDense layer mismatch");
      }
      if (Status status = unpackTrinary(*td, pr); !status.ok()) {
        return status;
      }
    } else if (auto* pd = dynamic_cast<PartitionedDense*>(&layer)) {
      if (chunk.tag != "PDNS") {
        return Status::DataLoss("loadNetwork: PartitionedDense mismatch");
      }
      std::uint32_t groups = 0;
      if (!pr.u32(groups).ok()) return pr.status();
      if (groups != static_cast<std::uint32_t>(pd->groupCount())) {
        return Status::DataLoss("loadNetwork: PartitionedDense mismatch");
      }
      for (std::uint32_t g = 0; g < groups; ++g) {
        if (Status status =
                unpackTrinary(pd->mutableGroupLayer(static_cast<int>(g)), pr);
            !status.ok()) {
          return status;
        }
      }
    } else if (dynamic_cast<SpikingThreshold*>(&layer) != nullptr) {
      if (chunk.tag != "SPKT") {
        return Status::DataLoss("loadNetwork: SpikingThreshold mismatch");
      }
      std::uint32_t size = 0;
      float width = 0.0f;
      pr.u32(size);
      if (!pr.f32(width).ok()) return pr.status();
      if (size != static_cast<std::uint32_t>(layer.inputSize())) {
        return Status::DataLoss("loadNetwork: SpikingThreshold mismatch");
      }
    } else {
      return Status::InvalidArgument(
          "loadNetwork: unsupported layer type in Eedn network");
    }
  }
  return Status::Ok();
}

Status trySaveNetwork(const nn::Sequential& net, std::ostream& out) {
  io::Writer w(out);
  w.header(kMagic, kVersion);
  {
    std::ostringstream payload;
    io::Writer pw(payload);
    pw.u32(static_cast<std::uint32_t>(net.layerCount()));
    w.chunk("NETW", payload.str());
  }
  for (std::size_t i = 0; i < net.layerCount(); ++i) {
    const nn::Layer& layer = net.layer(i);
    std::ostringstream payload;
    io::Writer pw(payload);
    if (const auto* td = dynamic_cast<const TrinaryDense*>(&layer)) {
      packTrinary(*td, pw);
      if (!pw.status().ok()) return pw.status();
      w.chunk("TDNS", payload.str());
    } else if (const auto* pd =
                   dynamic_cast<const PartitionedDense*>(&layer)) {
      pw.u32(static_cast<std::uint32_t>(pd->groupCount()));
      for (int g = 0; g < pd->groupCount(); ++g) {
        packTrinary(*pd->group(g).layer, pw);
      }
      if (!pw.status().ok()) return pw.status();
      w.chunk("PDNS", payload.str());
    } else if (const auto* spike =
                   dynamic_cast<const SpikingThreshold*>(&layer)) {
      pw.u32(static_cast<std::uint32_t>(spike->inputSize()));
      pw.f32(spike->steWidth());
      if (!pw.status().ok()) return pw.status();
      w.chunk("SPKT", payload.str());
    } else {
      return Status::InvalidArgument(
          "saveNetwork: unsupported layer type in Eedn network");
    }
  }
  return w.status();
}

}  // namespace pcnn::eedn
