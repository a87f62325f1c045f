#include "extract/registry.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "extract/backends.hpp"

namespace pcnn::extract {

namespace {

constexpr int kMaxSpikes = 64;

/// Parses "<N>spike" -> N; returns -1 when the variant has another shape.
/// A count above kMaxSpikes reads as kMaxSpikes + 1 however many digits it
/// has, so a long digit string is rejected by checkSpikeCount rather than
/// wrapping around into an accepted count.
int parseSpikes(const std::string& variant) {
  const std::string suffix = "spike";
  if (variant.size() <= suffix.size() ||
      variant.compare(variant.size() - suffix.size(), suffix.size(),
                      suffix) != 0) {
    return -1;
  }
  const std::string digits = variant.substr(0, variant.size() - suffix.size());
  int value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return -1;
    value = std::min(value * 10 + (c - '0'), kMaxSpikes + 1);
  }
  return digits.empty() ? -1 : value;
}

/// The spec grammar of the built-in backends, appended to every rejection
/// so a typo'd CLI flag tells the user what would have been accepted.
const char* specGrammar() {
  return "known specs: hog, fixedpoint, napprox[:fp|:<N>spike], "
         "parrot[:exact|:<N>spike], with N a power of two in 1..64 "
         "(e.g. \"parrot:32spike\")";
}

[[noreturn]] void badVariant(const std::string& spec) {
  throw std::invalid_argument("ExtractorRegistry: unknown variant in \"" +
                              spec + "\"; " + specGrammar());
}

/// Every spike-coded deployment in the paper uses a power-of-two window
/// (Table 2: 64/32/4/1; Fig. 6: 32..1), and the corelet builders assume
/// one -- so "parrot:9spike" is a malformed spec, not a new operating
/// point.
void checkSpikeCount(const std::string& spec, int spikes) {
  const bool powerOfTwo = spikes > 0 && (spikes & (spikes - 1)) == 0;
  if (!powerOfTwo || spikes > kMaxSpikes) {
    throw std::invalid_argument(
        "ExtractorRegistry: spike count in \"" + spec +
        "\" must be a power of two in 1..64; " + specGrammar());
  }
}

}  // namespace

ExtractorRegistry& ExtractorRegistry::instance() {
  static ExtractorRegistry registry;
  return registry;
}

std::vector<std::string> ExtractorRegistry::names() const {
  return {"fixedpoint", "hog", "napprox", "parrot"};
}

std::shared_ptr<FeatureExtractor> ExtractorRegistry::create(
    const std::string& spec, const ExtractorOptions& options) const {
  const std::size_t colon = spec.find(':');
  const std::string base = spec.substr(0, colon);
  const std::string variant =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  if (base == "hog") {
    if (!variant.empty()) badVariant(spec);
    return std::make_shared<HogBackend>(spec, options.layout,
                                        hog::HogParams{},
                                        options.windowCellsX,
                                        options.windowCellsY);
  }
  if (base == "fixedpoint") {
    if (!variant.empty()) badVariant(spec);
    return std::make_shared<FixedPointBackend>(spec, options.layout,
                                               hog::FixedPointHogParams{},
                                               options.windowCellsX,
                                               options.windowCellsY);
  }
  if (base == "napprox") {
    if (variant.empty() || variant == "fp") {
      return std::make_shared<NApproxBackend>(spec, options.layout,
                                              napprox::NApproxParams{},
                                              options.windowCellsX,
                                              options.windowCellsY);
    }
    const int spikes = parseSpikes(variant);
    if (spikes <= 0) badVariant(spec);
    checkSpikeCount(spec, spikes);
    napprox::QuantizedParams quant;
    quant.spikeWindow = spikes;
    return std::make_shared<QuantizedNApproxBackend>(
        spec, options.layout, napprox::NApproxParams{}, quant,
        options.windowCellsX, options.windowCellsY);
  }
  if (base == "parrot") {
    parrot::ParrotConfig config;
    config.seed = options.seed;
    if (variant.empty() || variant == "exact") {
      config.inputSpikes = 0;
    } else {
      const int spikes = parseSpikes(variant);
      if (spikes <= 0) badVariant(spec);
      checkSpikeCount(spec, spikes);
      config.inputSpikes = spikes;
    }
    return std::make_shared<ParrotBackend>(spec, options.layout, config,
                                           options.windowCellsX,
                                           options.windowCellsY);
  }
  std::string known;
  for (const std::string& name : names()) {
    if (!known.empty()) known += ", ";
    known += name;
  }
  throw std::invalid_argument("ExtractorRegistry: unknown extractor \"" +
                              base + "\" (registered: " + known + "); " +
                              specGrammar());
}

StatusOr<std::shared_ptr<FeatureExtractor>> ExtractorRegistry::tryCreate(
    const std::string& spec, const ExtractorOptions& options) const {
  try {
    return create(spec, options);
  } catch (const std::invalid_argument& e) {
    return Status::InvalidArgument(e.what());
  } catch (const std::exception& e) {
    return Status::Internal(std::string("ExtractorRegistry: ") + e.what());
  }
}

void recordExtractorManifest(io::Manifest& manifest, const std::string& spec,
                             const ExtractorOptions& options) {
  manifest.set(io::keys::kSpec, spec);
  manifest.set(io::keys::kLayout, layoutName(options.layout));
  manifest.set(io::keys::kWindowCellsX,
               std::to_string(options.windowCellsX));
  manifest.set(io::keys::kWindowCellsY,
               std::to_string(options.windowCellsY));
  manifest.set(io::keys::kSeed, std::to_string(options.seed));
}

StatusOr<ExtractorOptions> extractorOptionsFromManifest(
    const io::Manifest& manifest) {
  ExtractorOptions options;
  const std::string layout =
      manifest.get(io::keys::kLayout, layoutName(options.layout));
  if (layout == layoutName(FeatureLayout::kFlatCell)) {
    options.layout = FeatureLayout::kFlatCell;
  } else if (layout == layoutName(FeatureLayout::kBlockNorm)) {
    options.layout = FeatureLayout::kBlockNorm;
  } else {
    return Status::InvalidArgument(
        "bundle manifest: unknown feature layout \"" + layout + "\"");
  }
  // Cell counts and seed default to ExtractorOptions{} when absent -- a
  // minimal manifest with only a spec still reconstructs.
  if (manifest.find(io::keys::kWindowCellsX) != nullptr) {
    StatusOr<int> cells = manifest.getInt(io::keys::kWindowCellsX, 1, 4096);
    if (!cells.ok()) return cells.status();
    options.windowCellsX = cells.value();
  }
  if (manifest.find(io::keys::kWindowCellsY) != nullptr) {
    StatusOr<int> cells = manifest.getInt(io::keys::kWindowCellsY, 1, 4096);
    if (!cells.ok()) return cells.status();
    options.windowCellsY = cells.value();
  }
  if (manifest.find(io::keys::kSeed) != nullptr) {
    StatusOr<std::uint64_t> seed = manifest.getUint64(io::keys::kSeed);
    if (!seed.ok()) return seed.status();
    options.seed = seed.value();
  }
  return options;
}

Status ExtractorRegistry::packExtractor(io::Bundle& bundle,
                                        FeatureExtractor& extractor,
                                        const ExtractorOptions& options) const {
  recordExtractorManifest(bundle.manifest(), extractor.name(), options);
  std::ostringstream state;
  if (Status status = extractor.trySaveState(state); !status.ok()) {
    return status;
  }
  bundle.setChunk(io::chunks::kExtractorState, state.str());
  return Status::Ok();
}

StatusOr<std::shared_ptr<FeatureExtractor>> ExtractorRegistry::tryLoadExtractor(
    const io::Bundle& bundle) const {
  const std::string* spec = bundle.manifest().find(io::keys::kSpec);
  if (spec == nullptr) {
    return Status::DataLoss("bundle manifest: no extractor spec");
  }
  StatusOr<ExtractorOptions> options =
      extractorOptionsFromManifest(bundle.manifest());
  if (!options.ok()) return options.status();
  StatusOr<std::shared_ptr<FeatureExtractor>> extractor =
      tryCreate(*spec, options.value());
  if (!extractor.ok()) return extractor.status();
  if (const std::string* state =
          bundle.chunk(io::chunks::kExtractorState)) {
    std::istringstream in(*state);
    if (Status status = extractor.value()->tryLoadState(in); !status.ok()) {
      return status;
    }
  }
  return extractor;
}

std::shared_ptr<FeatureExtractor> makeExtractor(const std::string& spec,
                                                FeatureLayout layout) {
  ExtractorOptions options;
  options.layout = layout;
  return ExtractorRegistry::instance().create(spec, options);
}

std::shared_ptr<FeatureExtractor> makeExtractor(
    const std::string& spec, const ExtractorOptions& options) {
  return ExtractorRegistry::instance().create(spec, options);
}

const std::vector<std::string>& table2Specs() {
  static const std::vector<std::string> specs = {
      "fixedpoint", "napprox:64spike", "parrot:32spike", "parrot:4spike",
      "parrot:1spike"};
  return specs;
}

std::vector<power::PowerEstimate> table2FromRegistry(
    const power::FullHdWorkload& workload) {
  std::vector<power::PowerEstimate> rows;
  for (const std::string& spec : table2Specs()) {
    const auto extractor = makeExtractor(spec);
    if (const auto row = extractor->powerEstimate(workload)) {
      rows.push_back(*row);
    }
  }
  return rows;
}

}  // namespace pcnn::extract
