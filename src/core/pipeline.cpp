#include "core/pipeline.hpp"

#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "eedn/serialize.hpp"
#include "obs/obs.hpp"
#include "obs/provenance.hpp"
#include "tn/faults.hpp"

namespace pcnn::core {

PartitionedPipeline::PartitionedPipeline(
    std::shared_ptr<extract::FeatureExtractor> extractor,
    const eedn::EednClassifierConfig& classifierConfig)
    : featureExtractor_(std::move(extractor)),
      classifier_(std::make_unique<eedn::EednClassifier>(classifierConfig)) {
  if (!featureExtractor_) {
    throw std::invalid_argument("PartitionedPipeline: null extractor");
  }
}

std::vector<std::vector<float>> PartitionedPipeline::extractAll(
    const std::vector<vision::Image>& windows) const {
  PCNN_SPAN_ARG("pipeline.extract", "windows", windows.size());
  auto features = featureExtractor_->batchFeatures(windows);
  if (features.size() != windows.size()) {
    throw std::logic_error(
        "PartitionedPipeline: batch extractor returned wrong count");
  }
  return features;
}

float PartitionedPipeline::trainClassifier(
    const std::vector<vision::Image>& windows, const std::vector<int>& labels,
    int epochs, float learningRate, float momentum, int batchSize) {
  if (windows.size() != labels.size() || windows.empty()) {
    throw std::invalid_argument("trainClassifier: bad dataset shape");
  }
  eedn::BinaryDataset data;
  data.labels = labels;
  data.features = extractAll(windows);
  PCNN_SPAN_ARG("pipeline.trainClassifier", "epochs", epochs);
  float loss = 0.0f;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    loss = classifier_->trainEpoch(data, learningRate, momentum, batchSize);
  }
  return loss;
}

float PartitionedPipeline::score(const vision::Image& window) const {
  return classifier_->score(featureExtractor_->windowFeatures(window));
}

double PartitionedPipeline::evalAccuracy(
    const std::vector<vision::Image>& windows,
    const std::vector<int>& labels) const {
  if (windows.empty() || windows.size() != labels.size()) return 0.0;
  const auto features = extractAll(windows);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const int predicted = classifier_->score(features[i]) >= 0.0f ? 1 : -1;
    if (predicted == (labels[i] > 0 ? 1 : -1)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(windows.size());
}

std::vector<float> PartitionedPipeline::scoreAllDegraded(
    const std::vector<vision::Image>& windows,
    DegradationReport* report) const {
  PCNN_SPAN_ARG("pipeline.scoreAllDegraded", "windows", windows.size());
  const tn::FaultCounts faultsBefore =
      report != nullptr ? tn::globalFaultCounts() : tn::FaultCounts{};
  constexpr float kLost = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> scores(windows.size(), kLost);
  long lost = 0;
  bool batchOk = false;
  try {
    const auto features = featureExtractor_->batchFeatures(windows);
    if (features.size() == windows.size()) {
      for (std::size_t i = 0; i < windows.size(); ++i) {
        scores[i] = classifier_->score(features[i]);
      }
      batchOk = true;
    }
  } catch (const std::exception&) {
    // Fall through to the per-window path below.
  }
  if (!batchOk) {
    // The batch path failed somewhere; re-run window by window so only the
    // windows that actually fail are lost. Sequential on purpose: the
    // extractor may be stateful, and the fallback is the degraded path.
    for (std::size_t i = 0; i < windows.size(); ++i) {
      StatusOr<std::vector<float>> featuresOr =
          featureExtractor_->tryWindowFeatures(windows[i]);
      if (!featuresOr.ok()) {
        ++lost;
        continue;
      }
      try {
        scores[i] = classifier_->score(*featuresOr);
      } catch (const std::exception&) {
        ++lost;
      }
    }
  }
  if (lost > 0) {
    static obs::Counter& lostWindows =
        obs::counter("pipeline.windows_lost");
    lostWindows.add(lost);
  }
  if (report != nullptr) {
    report->windowsLost += lost;
    report->faults = tn::globalFaultCounts() - faultsBefore;
  }
  return scores;
}

namespace {

/// Manifest keys for the classifier half of a pipeline bundle (the
/// extractor half uses io::keys via recordExtractorManifest).
constexpr const char* kKeyInputSize = "classifier_input_size";
constexpr const char* kKeyGroupInputSize = "classifier_group_input_size";
constexpr const char* kKeyOutputsPerGroup = "classifier_outputs_per_group";
constexpr const char* kKeyHiddenWidths = "classifier_hidden_widths";
constexpr const char* kKeyOutputPopulation = "classifier_output_population";
constexpr const char* kKeyTau = "classifier_tau";
constexpr const char* kKeyInputScale = "classifier_input_scale";
constexpr const char* kKeySeed = "classifier_seed";

/// Shortest float rendering that round-trips through strtod.
std::string floatField(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::string hiddenWidthsField(const std::vector<int>& widths) {
  std::string out;
  for (int w : widths) {
    if (!out.empty()) out += ',';
    out += std::to_string(w);
  }
  return out;
}

StatusOr<std::vector<int>> parseHiddenWidths(const std::string& field) {
  std::vector<int> widths;
  std::string token;
  std::istringstream in(field);
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    int value = 0;
    for (char c : token) {
      if (c < '0' || c > '9') {
        return Status::OutOfRange(
            "bundle manifest: unparsable hidden width \"" + token + "\"");
      }
      value = value * 10 + (c - '0');
      if (value > (1 << 20)) {
        return Status::OutOfRange("bundle manifest: hidden width \"" +
                                  token + "\" implausibly large");
      }
    }
    widths.push_back(value);
  }
  return widths;
}

Status readIntField(const io::Manifest& manifest, const char* key,
                    int& out) {
  if (manifest.find(key) == nullptr) return Status::Ok();
  StatusOr<int> value = manifest.getInt(key);
  if (!value.ok()) return value.status();
  out = value.value();
  return Status::Ok();
}

Status readFloatField(const io::Manifest& manifest, const char* key,
                      float& out) {
  if (manifest.find(key) == nullptr) return Status::Ok();
  StatusOr<double> value = manifest.getFloat(key);
  if (!value.ok()) return value.status();
  out = static_cast<float>(value.value());
  return Status::Ok();
}

}  // namespace

Status PartitionedPipeline::packBundle(
    io::Bundle& bundle, const extract::ExtractorOptions& extractorOptions) {
  if (Status status = extract::ExtractorRegistry::instance().packExtractor(
          bundle, *featureExtractor_, extractorOptions);
      !status.ok()) {
    return status;
  }

  const eedn::EednClassifierConfig& config = classifier_->config();
  io::Manifest& manifest = bundle.manifest();
  manifest.set(kKeyInputSize, std::to_string(config.inputSize));
  manifest.set(kKeyGroupInputSize, std::to_string(config.groupInputSize));
  manifest.set(kKeyOutputsPerGroup, std::to_string(config.outputsPerGroup));
  manifest.set(kKeyHiddenWidths, hiddenWidthsField(config.hiddenWidths));
  manifest.set(kKeyOutputPopulation,
               std::to_string(config.outputPopulation));
  manifest.set(kKeyTau, floatField(config.tau));
  manifest.set(kKeyInputScale, floatField(config.inputScale));
  manifest.set(kKeySeed, std::to_string(config.seed));
  manifest.set(io::keys::kGitSha, obs::provenance().gitSha);

  std::ostringstream net;
  const eedn::EednClassifier& classifier = *classifier_;
  if (Status status = eedn::trySaveNetwork(classifier.net(), net);
      !status.ok()) {
    return status;
  }
  bundle.setChunk(io::chunks::kEednNetwork, net.str());
  return Status::Ok();
}

StatusOr<PartitionedPipeline> PartitionedPipeline::tryLoadBundle(
    const io::Bundle& bundle) {
  StatusOr<std::shared_ptr<extract::FeatureExtractor>> extractor =
      extract::ExtractorRegistry::instance().tryLoadExtractor(bundle);
  if (!extractor.ok()) return extractor.status();

  const io::Manifest& manifest = bundle.manifest();
  eedn::EednClassifierConfig config;
  config.inputSize = extractor.value()->featureDim();
  if (Status s = readIntField(manifest, kKeyInputSize, config.inputSize);
      !s.ok()) {
    return s;
  }
  if (Status s = readIntField(manifest, kKeyGroupInputSize,
                              config.groupInputSize);
      !s.ok()) {
    return s;
  }
  if (Status s = readIntField(manifest, kKeyOutputsPerGroup,
                              config.outputsPerGroup);
      !s.ok()) {
    return s;
  }
  if (Status s = readIntField(manifest, kKeyOutputPopulation,
                              config.outputPopulation);
      !s.ok()) {
    return s;
  }
  if (const std::string* widths = manifest.find(kKeyHiddenWidths)) {
    StatusOr<std::vector<int>> parsed = parseHiddenWidths(*widths);
    if (!parsed.ok()) return parsed.status();
    config.hiddenWidths = std::move(parsed).value();
  }
  if (Status s = readFloatField(manifest, kKeyTau, config.tau); !s.ok()) {
    return s;
  }
  if (Status s = readFloatField(manifest, kKeyInputScale, config.inputScale);
      !s.ok()) {
    return s;
  }
  if (manifest.find(kKeySeed) != nullptr) {
    StatusOr<std::uint64_t> seed = manifest.getUint64(kKeySeed);
    if (!seed.ok()) return seed.status();
    config.seed = seed.value();
  }

  if (config.inputSize != extractor.value()->featureDim()) {
    return Status::FailedPrecondition(
        "bundle manifest: classifier input size " +
        std::to_string(config.inputSize) + " does not match the " +
        extractor.value()->name() + " extractor's feature dimension " +
        std::to_string(extractor.value()->featureDim()));
  }

  try {
    PartitionedPipeline pipeline(std::move(extractor).value(), config);
    if (const std::string* net = bundle.chunk(io::chunks::kEednNetwork)) {
      std::istringstream in(*net);
      if (Status status =
              eedn::tryLoadNetwork(pipeline.classifier_->net(), in);
          !status.ok()) {
        return status;
      }
    }
    return StatusOr<PartitionedPipeline>(std::move(pipeline));
  } catch (const std::invalid_argument& e) {
    return Status::InvalidArgument(std::string("tryLoadBundle: ") + e.what());
  } catch (const std::exception& e) {
    return Status::Internal(std::string("tryLoadBundle: ") + e.what());
  }
}

std::vector<float> rawPixelFeatures(const vision::Image& window) {
  return window.data();
}

ResourceBudget makeResourceBudget(const extract::ExtractorInfo& info,
                                  int classifierCores) {
  ResourceBudget budget;
  budget.classifierCores = classifierCores;
  if (info.paperCoresPerCell > 0) {
    budget.parrotCoresPerCell = info.paperCoresPerCell;
  } else if (info.coresPerCell > 0) {
    budget.parrotCoresPerCell = info.coresPerCell;
  }
  return budget;
}

std::unique_ptr<eedn::EednClassifier> makeAbsorbedClassifier(
    const ResourceBudget& budget, float tau, std::uint64_t seed) {
  // Raw 64x128 grayscale input. Sized so that its core estimate meets or
  // exceeds the partitioned pipeline's combined budget in our accounting
  // (the paper grants the monolithic network the combined 3888-core budget
  // of extractor + classifier; see EXPERIMENTS.md for the mapping between
  // the paper's counts and ours).
  eedn::EednClassifierConfig config;
  config.inputSize =
      budget.windowCellsX * 8 * budget.windowCellsY * 8;  // 8192 pixels
  config.groupInputSize = 126;
  config.outputsPerGroup = 24;
  config.hiddenWidths = {120, 120};
  config.outputPopulation = 8;
  config.tau = tau;
  config.seed = seed;
  return std::make_unique<eedn::EednClassifier>(config);
}

}  // namespace pcnn::core
