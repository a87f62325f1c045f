#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "extract/extractor.hpp"
#include "io/bundle.hpp"

namespace pcnn::extract {

/// Construction-time options shared by every backend. The spec
/// string picks the backend and its precision variant; these pick the
/// downstream-facing geometry and layout.
struct ExtractorOptions {
  FeatureLayout layout = FeatureLayout::kFlatCell;
  int windowCellsX = 8;   ///< 64-pixel-wide window at 8-px cells
  int windowCellsY = 16;  ///< 128-pixel-tall window
  std::uint64_t seed = 21;  ///< RNG seed for trained/stochastic backends
};

/// Spec-string entry point for the feature-extraction backends.
///
/// A spec string is `base` or `base:variant` -- e.g. "hog", "fixedpoint",
/// "napprox", "napprox:64spike", "parrot:4spike". Pipelines, detectors and
/// benches construct extractors from these strings instead of hand-wiring
/// per-backend lambdas.
///
/// Backends:
///   hog         classic float HoG, 9 unsigned bins, weighted voting
///   fixedpoint  FPGA-style integer HoG (the paper's baseline)
///   napprox     NApprox HoG; variants: "fp" (default, float) or
///               "<N>spike" (TrueNorth-precision rate coding, e.g. 64spike)
///   parrot      Parrot HoG cell network; variants: "exact" (default) or
///               "<N>spike" (stochastic input coding, e.g. 32spike).
///               Construct then pretrain() -- stage A of the co-training.
class ExtractorRegistry {
 public:
  static ExtractorRegistry& instance();

  /// Sorted base names of the four backends.
  std::vector<std::string> names() const;

  /// Constructs an extractor from a spec string. Throws
  /// std::invalid_argument for unknown base names or variants.
  std::shared_ptr<FeatureExtractor> create(
      const std::string& spec, const ExtractorOptions& options = {}) const;

  /// Graceful variant of create: a malformed spec ("parrot:9spike" -- the
  /// spike count must be a power of two -- or an unknown base) yields
  /// kInvalidArgument whose message names the offending spec, lists the
  /// registered backends and spells out the accepted grammar, instead of
  /// an exception. Spec strings often arrive from CLI flags and config
  /// files, so this is the validation point for untrusted input.
  StatusOr<std::shared_ptr<FeatureExtractor>> tryCreate(
      const std::string& spec, const ExtractorOptions& options = {}) const;

  /// Packs an extractor into a bundle: the manifest records the spec (the
  /// extractor's name) and construction options, and the extractor's
  /// serialized state lands in chunks::kExtractorState -- everything
  /// tryLoadExtractor needs to rebuild it without stage-A pretraining.
  Status packExtractor(io::Bundle& bundle, FeatureExtractor& extractor,
                       const ExtractorOptions& options) const;

  /// Reconstructs an extractor from a bundle: tryCreate on the manifest's
  /// spec + options, then state restore from chunks::kExtractorState when
  /// present. A bundle whose manifest lacks a spec is kDataLoss; an
  /// unknown spec reports kInvalidArgument exactly like tryCreate.
  StatusOr<std::shared_ptr<FeatureExtractor>> tryLoadExtractor(
      const io::Bundle& bundle) const;

 private:
  ExtractorRegistry() = default;
};

/// Stamps an extractor spec + options into a bundle manifest
/// (keys::kSpec, kLayout, kWindowCellsX/Y, kSeed).
void recordExtractorManifest(io::Manifest& manifest, const std::string& spec,
                             const ExtractorOptions& options);

/// Reconstructs ExtractorOptions from a bundle manifest, validating the
/// layout name and the cell counts before anything is built from them.
StatusOr<ExtractorOptions> extractorOptionsFromManifest(
    const io::Manifest& manifest);

/// Convenience: ExtractorRegistry::instance().create(spec, {layout}).
std::shared_ptr<FeatureExtractor> makeExtractor(
    const std::string& spec, FeatureLayout layout = FeatureLayout::kFlatCell);
std::shared_ptr<FeatureExtractor> makeExtractor(
    const std::string& spec, const ExtractorOptions& options);

/// The spec strings whose deployments form the paper's Table 2, in row
/// order: FPGA baseline, NApprox at 64-spike, Parrot at 32/4/1 spikes.
const std::vector<std::string>& table2Specs();

/// Table-2 power rows derived from registry-constructed extractors (one
/// row per table2Specs() entry, via FeatureExtractor::powerEstimate).
std::vector<power::PowerEstimate> table2FromRegistry(
    const power::FullHdWorkload& workload = {});

}  // namespace pcnn::extract
