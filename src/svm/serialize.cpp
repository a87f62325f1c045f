#include "svm/serialize.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "io/io.hpp"

namespace pcnn::svm {

namespace {

constexpr char kMagic[5] = "PSVM";
constexpr std::uint32_t kVersion = 2;

/// The largest weight vector a model file may declare. Far beyond any real
/// descriptor (the block-norm HoG window is 3780 doubles) but small enough
/// that a corrupt dimension field cannot force an absurd allocation.
constexpr std::uint64_t kMaxModelDim = std::uint64_t{1} << 26;

}  // namespace

StatusOr<LinearSvm> tryLoadModel(std::istream& in) {
  io::Reader r(in);
  if (!r.header(kMagic, kVersion).ok()) return r.status();
  io::Reader::Chunk chunk;
  bool end = false;
  for (;;) {
    if (!r.nextChunk(chunk, end).ok()) return r.status();
    if (end) return Status::DataLoss("loadModel: no SVMW chunk");
    if (chunk.tag == "SVMW") break;  // unknown chunks skipped
  }
  std::istringstream payload(chunk.payload);
  io::Reader pr(payload);
  std::uint64_t dim = 0;
  if (!pr.u64(dim).ok()) return pr.status();
  if (dim == 0 || dim > kMaxModelDim) {
    return Status::OutOfRange("loadModel: weight dimension " +
                              std::to_string(dim) + " outside 1.." +
                              std::to_string(kMaxModelDim));
  }
  SvmParams params;
  double bias = 0.0;
  pr.f64(params.C);
  pr.f64(params.biasScale);
  pr.f64(bias);
  std::vector<double> weights(static_cast<std::size_t>(dim));
  for (double& w : weights) {
    if (!pr.f64(w).ok()) {
      return Status::DataLoss("loadModel: truncated weights (expected " +
                              std::to_string(dim) + ")");
    }
  }
  if (!pr.status().ok()) return pr.status();
  LinearSvm model(params);
  model.setModel(std::move(weights), bias);
  return model;
}

Status trySaveModel(const LinearSvm& model, std::ostream& out) {
  if (!model.trained()) {
    return Status::FailedPrecondition("saveModel: model is untrained");
  }
  std::ostringstream payload;
  io::Writer pw(payload);
  pw.u64(model.weights().size());
  pw.f64(model.params().C);
  pw.f64(model.params().biasScale);
  pw.f64(model.bias());
  for (double w : model.weights()) pw.f64(w);
  if (!pw.status().ok()) return pw.status();

  io::Writer w(out);
  w.header(kMagic, kVersion);
  w.chunk("SVMW", payload.str());
  return w.status();
}

}  // namespace pcnn::svm
