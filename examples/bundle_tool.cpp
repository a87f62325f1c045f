// Model-bundle utility: pack a trained deployment into one versioned
// container, inspect a bundle's manifest and chunks, or verify that a
// bundle reloads into a pipeline with bitwise-reproducible scores.
//
// Usage:
//   bundle_tool pack <out.pcnb> [spec] [--windows N] [--epochs N] [--seed N]
//       Train a small pipeline end to end (stage A where the extractor is
//       trainable, stage B classifier training, plus a mined linear SVM on
//       the same features) on synthetic windows, then save extractor state,
//       classifier network and SVM hyperplane as one bundle.
//   bundle_tool inspect <bundle.pcnb>
//       Print the manifest, the chunk table and the content-hash check.
//   bundle_tool verify <bundle.pcnb> [--windows N] [--seed N]
//       Load the bundle twice into fresh pipelines and require bitwise
//       score parity on deterministic synthetic windows. Exits nonzero on
//       hash mismatch, load failure or any diverging score.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "extract/registry.hpp"
#include "io/bundle.hpp"
#include "svm/linear_svm.hpp"
#include "svm/mining.hpp"
#include "svm/serialize.hpp"
#include "vision/synth.hpp"

namespace {

using namespace pcnn;

struct ToolArgs {
  std::string command;
  std::string path;
  std::string spec = "hog";
  int windows = 60;
  int epochs = 2;
  std::uint64_t seed = 7;
};

bool parseArgs(int argc, char** argv, ToolArgs& args) {
  if (argc < 3) return false;
  args.command = argv[1];
  args.path = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--windows" && i + 1 < argc) {
      args.windows = std::atoi(argv[++i]);
    } else if (flag == "--epochs" && i + 1 < argc) {
      args.epochs = std::atoi(argv[++i]);
    } else if (flag == "--seed" && i + 1 < argc) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag[0] != '-' && args.command == "pack") {
      args.spec = flag;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", flag.c_str());
      return false;
    }
  }
  return args.windows > 0 && args.epochs > 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  bundle_tool pack <out.pcnb> [spec] [--windows N] [--epochs N] "
      "[--seed N]\n"
      "  bundle_tool inspect <bundle.pcnb>\n"
      "  bundle_tool verify <bundle.pcnb> [--windows N] [--seed N]\n");
}

/// Deterministic labelled training/eval windows (64x128, the default
/// extractor geometry).
void makeWindows(int count, std::uint64_t seed,
                 std::vector<vision::Image>& windows,
                 std::vector<int>& labels) {
  vision::SyntheticPersonDataset dataset;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    const bool positive = i % 2 == 0;
    windows.push_back(positive ? dataset.positiveWindow(rng)
                               : dataset.negativeWindow(rng));
    labels.push_back(positive ? 1 : -1);
  }
}

int runPack(const ToolArgs& args) {
  extract::ExtractorOptions options;
  options.seed = args.seed;
  StatusOr<std::shared_ptr<extract::FeatureExtractor>> extractor =
      extract::ExtractorRegistry::instance().tryCreate(args.spec, options);
  if (!extractor.ok()) {
    std::fprintf(stderr, "pack: %s\n",
                 extractor.status().toString().c_str());
    return 1;
  }

  if (extractor.value()->hasTrainedState()) {
    std::printf("stage A: pretraining %s...\n", args.spec.c_str());
    const float loss = extractor.value()->pretrain(1000, 4, 0.01f);
    std::printf("stage A: final loss %.4f\n", static_cast<double>(loss));
  }

  std::vector<vision::Image> windows;
  std::vector<int> labels;
  makeWindows(args.windows, args.seed, windows, labels);

  eedn::EednClassifierConfig config;
  config.inputSize = extractor.value()->featureDim();
  config.hiddenWidths = {32};
  config.outputPopulation = 4;
  config.inputScale = 1.0f / 64.0f;
  config.seed = args.seed;
  core::PartitionedPipeline pipeline(extractor.value(), config);
  std::printf("stage B: training classifier on %d windows...\n",
              args.windows);
  const float loss =
      pipeline.trainClassifier(windows, labels, args.epochs, 0.01f);
  std::printf("stage B: final loss %.4f, train accuracy %.3f\n",
              static_cast<double>(loss),
              pipeline.evalAccuracy(windows, labels));

  // The SVM head rides along in the same bundle (pedestrian_detection's
  // detector scores with it).
  svm::LinearSvm model;
  std::vector<vision::Image> negativeScenes;
  {
    vision::SyntheticPersonDataset dataset;
    Rng rng(args.seed + 1);
    negativeScenes.push_back(dataset.scene(rng, 256, 256, 0).image);
  }
  svm::MiningParams mining;
  mining.scan.strideX = 16;
  mining.scan.strideY = 16;
  mining.scan.pyramid.maxLevels = 2;
  std::vector<vision::Image> positives, negatives;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    (labels[i] > 0 ? positives : negatives).push_back(windows[i]);
  }
  const svm::MiningResult mined = svm::trainWithHardNegatives(
      model, *extractor.value(), positives, negatives, negativeScenes,
      mining);
  std::printf("svm: %d hard negatives mined, train accuracy %.3f\n",
              mined.minedNegatives, mined.finalTrainAccuracy);

  io::Bundle bundle;
  if (Status status = pipeline.packBundle(bundle, options); !status.ok()) {
    std::fprintf(stderr, "pack: %s\n", status.toString().c_str());
    return 1;
  }
  std::ostringstream svmBytes;
  if (Status status = svm::trySaveModel(model, svmBytes); !status.ok()) {
    std::fprintf(stderr, "pack: %s\n", status.toString().c_str());
    return 1;
  }
  bundle.setChunk(io::chunks::kSvmModel, svmBytes.str());

  if (Status status = bundle.trySaveFile(args.path); !status.ok()) {
    std::fprintf(stderr, "pack: %s\n", status.toString().c_str());
    return 1;
  }
  std::printf("packed %s (spec %s, content hash %s)\n", args.path.c_str(),
              args.spec.c_str(), bundle.contentHash().c_str());
  return 0;
}

int runInspect(const ToolArgs& args) {
  StatusOr<io::Bundle> bundle = io::Bundle::tryLoadFile(args.path);
  if (!bundle.ok()) {
    std::fprintf(stderr, "inspect: %s\n",
                 bundle.status().toString().c_str());
    return 1;
  }
  std::printf("manifest:\n");
  for (const auto& [key, value] : bundle.value().manifest().fields()) {
    std::printf("  %-32s %s\n", key.c_str(), value.c_str());
  }
  std::printf("chunks:\n");
  for (const std::string& name : bundle.value().chunkNames()) {
    std::printf("  %-32s %zu bytes\n", name.c_str(),
                bundle.value().chunk(name)->size());
  }
  const Status hash = bundle.value().verifyContentHash();
  std::printf("content hash: %s\n",
              hash.ok() ? "OK" : hash.toString().c_str());
  return hash.ok() ? 0 : 1;
}

int runVerify(const ToolArgs& args) {
  StatusOr<io::Bundle> bundle = io::Bundle::tryLoadFile(args.path);
  if (!bundle.ok()) {
    std::fprintf(stderr, "verify: %s\n",
                 bundle.status().toString().c_str());
    return 1;
  }
  if (Status status = bundle.value().verifyContentHash(); !status.ok()) {
    std::fprintf(stderr, "verify: %s\n", status.toString().c_str());
    return 1;
  }

  // Two independent loads (not one load scored twice): parity across fresh
  // loads is the reproducibility a deployment actually relies on.
  StatusOr<core::PartitionedPipeline> first =
      core::PartitionedPipeline::tryLoadBundle(bundle.value());
  StatusOr<core::PartitionedPipeline> second =
      core::PartitionedPipeline::tryLoadBundle(bundle.value());
  if (!first.ok() || !second.ok()) {
    std::fprintf(stderr, "verify: %s\n",
                 (first.ok() ? second : first).status().toString().c_str());
    return 1;
  }

  std::vector<vision::Image> windows;
  std::vector<int> labels;
  makeWindows(args.windows, args.seed + 99, windows, labels);
  const std::vector<float> a = first.value().scoreAllDegraded(windows);
  const std::vector<float> b = second.value().scoreAllDegraded(windows);
  if (a.size() != b.size()) {
    std::fprintf(stderr, "verify: score count mismatch\n");
    return 1;
  }
  int mismatches = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) ++mismatches;
  }
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "verify: %d of %zu scores differ between two loads\n",
                 mismatches, a.size());
    return 1;
  }
  std::printf("verified %s: %zu windows, bitwise score parity across two "
              "loads\n",
              args.path.c_str(), a.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ToolArgs args;
  if (!parseArgs(argc, argv, args)) {
    usage();
    return 2;
  }
  if (args.command == "pack") return runPack(args);
  if (args.command == "inspect") return runInspect(args);
  if (args.command == "verify") return runVerify(args);
  usage();
  return 2;
}
