// Robustness sweep: how gracefully the two TrueNorth extractor corelets
// degrade under injected hardware faults (see DESIGN.md 5d and
// src/tn/faults.hpp).
//
// The report runs the NApprox HoG corelet and the Parrot Eedn network in
// the tick-accurate simulator under a sweep of fault plans -- several
// spike-drop rates and dead-core counts -- and compares each faulty run
// against the fault-free reference semantics:
//   - NApprox: 18-bin cell histograms vs QuantizedNApproxHog's tick model
//     (exact parity when fault-free);
//   - Parrot: mapped-network output bits vs MappedEedn::referenceForward
//     (exact parity when fault-free).
// Reported per configuration: dominant-bin / output-bit miss rate,
// Pearson correlation of the faulty outputs against the reference, spike
// activity, and the tn.faults.* event tallies attributing the loss.
//
// A final degraded-detection section runs a GridDetector whose backend
// poisons small pyramid levels (the level-skip path: detect.level.degraded
// span + DegradationReport entry) so a configured flight recorder
// (PCNN_FLIGHT) witnesses both fault classes in one process; the report
// then dumps the recorder explicitly so the file holds the full run tail.
//
// The zero-fault row doubles as the acceptance check of the fault layer
// itself: a FaultPlan with nothing to inject is never attached, so its
// outputs must be bitwise-identical to a plain run and its fault counters
// must read exactly zero; the report verifies both and records the result.
//
// Emits BENCH_robustness.json (with provenance) next to a human table.
//
// Usage: robustness_report [outputPath]
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "core/detector.hpp"
#include "eedn/mapper.hpp"
#include "eval/stats.hpp"
#include "extract/extractor.hpp"
#include "hog/hog.hpp"
#include "napprox/corelet.hpp"
#include "napprox/quantized.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"
#include "parrot/parrot.hpp"
#include "tn/faults.hpp"
#include "vision/synth.hpp"

namespace {

using namespace pcnn;

/// One fault configuration of the sweep. The drop axis and the dead-core
/// axis are swept independently so each curve isolates one fault class.
struct FaultConfig {
  double drop = 0.0;
  int deadCores = 0;
};

const FaultConfig kConfigs[] = {
    {0.0, 0},  {0.01, 0}, {0.05, 0}, {0.15, 0},  // spike-drop curve
    {0.0, 1},  {0.0, 2},                          // dead-core curve
};
constexpr std::uint64_t kFaultSeed = 7;

/// The sample cell positions measured in each 64x128 window.
const std::pair<int, int> kSampleCells[] = {
    {8, 16}, {16, 40}, {24, 64}, {32, 88}, {40, 104}, {48, 24}};

/// Degradation of one extractor under one fault configuration.
struct SweepRow {
  FaultConfig config;
  long outputs = 0;       ///< compared scalar outputs (bins or bits)
  long misses = 0;        ///< dominant-bin / output-bit mismatches
  double correlation = 1.0;
  tn::RunResult activity;        ///< aggregated across all runs
  tn::FaultCounts faults;        ///< events injected during this config

  double missRate() const {
    return outputs > 0 ? static_cast<double>(misses) / outputs : 0.0;
  }
};

std::optional<tn::FaultPlan> planFor(const FaultConfig& config) {
  tn::FaultPlan plan;
  plan.spikeDropProb = config.drop;
  plan.deadCores = config.deadCores;
  plan.seed = kFaultSeed;
  if (!plan.any()) return std::nullopt;
  return plan;
}

int argmax(const std::vector<float>& values) {
  int best = 0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] > values[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

/// NApprox sweep: fresh corelet per configuration (weight flips and dead
/// cores corrupt network state, so configurations must not share one),
/// compared against the quantized model's tick-accurate reference.
SweepRow runNApprox(const FaultConfig& config,
                    const std::vector<vision::Image>& windows,
                    std::vector<float>* outputsOut = nullptr) {
  const napprox::QuantizedNApproxHog model(
      {}, {}, napprox::QuantizedMode::kTickAccurate);
  napprox::NApproxCorelet corelet(model);
  if (const auto plan = planFor(config)) {
    corelet.network().setFaultPlan(*plan);
  }

  SweepRow row;
  row.config = config;
  std::vector<float> faulty, reference;
  const tn::FaultCounts before = tn::globalFaultCounts();
  for (const vision::Image& window : windows) {
    for (const auto& [x0, y0] : kSampleCells) {
      const std::vector<float> got = corelet.extract(window, x0, y0);
      const std::vector<float> want = model.cellHistogram(window, x0, y0);
      // Recorded spikes are the aggregate of interest in a fault sweep, so
      // merge them rather than letting accumulate() drop them.
      row.activity.accumulate(corelet.lastRun(), /*mergeOutputSpikes=*/true);
      if (argmax(got) != argmax(want)) ++row.misses;
      ++row.outputs;
      faulty.insert(faulty.end(), got.begin(), got.end());
      reference.insert(reference.end(), want.begin(), want.end());
    }
  }
  row.faults = tn::globalFaultCounts() - before;
  row.correlation = eval::pearsonCorrelation(faulty, reference);
  if (outputsOut != nullptr) *outputsOut = std::move(faulty);
  return row;
}

/// Parrot sweep: the Eedn cell network mapped onto the simulator, compared
/// bit-for-bit against the mapping's plain-C++ reference semantics.
SweepRow runParrot(const FaultConfig& config, parrot::ParrotHog& model,
                   const std::vector<vision::Image>& windows,
                   std::vector<float>* outputsOut = nullptr) {
  const auto mapped = eedn::TnMapper::map(model.net());
  if (const auto plan = planFor(config)) {
    mapped->network().setFaultPlan(*plan);
  }

  SweepRow row;
  row.config = config;
  std::vector<float> faulty, reference;
  std::vector<int> input(static_cast<std::size_t>(mapped->inputSize()), 0);
  const tn::FaultCounts before = tn::globalFaultCounts();
  for (const vision::Image& window : windows) {
    for (const auto& [x0, y0] : kSampleCells) {
      // 10x10 binarized neighbourhood of the cell, as in power_report.
      for (int y = 0; y < 10; ++y) {
        for (int x = 0; x < 10; ++x) {
          const std::size_t i = static_cast<std::size_t>(y) * 10 + x;
          if (i < input.size()) {
            input[i] = window.atClamped(x0 - 1 + x, y0 - 1 + y) > 0.5f;
          }
        }
      }
      const std::vector<int> got = mapped->forwardSpikes(input);
      const std::vector<int> want = mapped->referenceForward(input);
      row.activity.accumulate(mapped->lastRun(), /*mergeOutputSpikes=*/true);
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i] != want[i]) ++row.misses;
        ++row.outputs;
        faulty.push_back(static_cast<float>(got[i]));
        reference.push_back(static_cast<float>(want[i]));
      }
    }
  }
  row.faults = tn::globalFaultCounts() - before;
  row.correlation = eval::pearsonCorrelation(faulty, reference);
  if (outputsOut != nullptr) *outputsOut = std::move(faulty);
  return row;
}

/// HoG-backed extractor whose backend "fails" on small pyramid levels --
/// the deterministic stand-in for a poisoned level or a simulator fault,
/// driving the detector's level-skip (degradation) path.
class FlakyExtractor : public extract::FeatureExtractor {
 public:
  explicit FlakyExtractor(int failBelowWidth)
      : FeatureExtractor("flaky", extract::FeatureLayout::kFlatCell, 9, 2, 2),
        failBelowWidth_(failBelowWidth) {}

  hog::CellGrid cellGrid(const vision::Image& image) override {
    if (image.width() < failBelowWidth_) {
      throw std::runtime_error("flaky backend: level poisoned");
    }
    return hogRef_.computeCells(image);
  }

  extract::ExtractorInfo info() const override { return {}; }

 private:
  int failBelowWidth_;
  hog::HogExtractor hogRef_;
};

void printRow(const char* name, const SweepRow& row) {
  std::printf("%-8s %6.2f %5d %10.4f %12.4f %10ld %8ld %8ld\n", name,
              row.config.drop, row.config.deadCores, row.missRate(),
              row.correlation, row.activity.totalSpikes,
              row.faults.droppedSpikes, row.faults.deadCoreDrops);
}

void writeRowJson(std::FILE* out, const SweepRow& row, bool last) {
  std::fprintf(
      out,
      "    {\"drop\": %.4f, \"dead_cores\": %d, \"miss_rate\": %.6f,\n"
      "     \"histogram_correlation\": %.6f, \"outputs\": %ld,\n"
      "     \"total_spikes\": %ld, \"ticks_run\": %ld,\n"
      "     \"fault_events\": {\"dropped\": %ld, \"dead_core_drops\": %ld,\n"
      "       \"stuck_on\": %ld, \"stuck_off\": %ld, \"weight_flips\": %ld}}"
      "%s\n",
      row.config.drop, row.config.deadCores, row.missRate(), row.correlation,
      row.outputs, row.activity.totalSpikes, row.activity.ticksRun,
      row.faults.droppedSpikes, row.faults.deadCoreDrops,
      row.faults.stuckOnSpikes, row.faults.stuckOffSuppressed,
      row.faults.weightFlips, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string outPath = argc > 1 ? argv[1] : "BENCH_robustness.json";

  vision::SyntheticPersonDataset dataset;
  Rng rng(21);
  std::vector<vision::Image> windows;
  windows.push_back(dataset.positiveWindow(rng));
  windows.push_back(dataset.positiveWindow(rng));
  const std::size_t cellsPerConfig = windows.size() * std::size(kSampleCells);

  const std::string provenance = bench::provenanceJson();
  std::printf("provenance: %s\n", provenance.c_str());
  std::printf("fault sweep: %zu configs, %zu sample cells each, seed %llu\n\n",
              std::size(kConfigs), cellsPerConfig,
              static_cast<unsigned long long>(kFaultSeed));

  // --- Zero-fault acceptance check ----------------------------------------
  // A zero plan must be bitwise-identical to no plan, with zero fault
  // events counted. Compare the zero-config outputs against a run that
  // never touches the fault API at all.
  parrot::ParrotHog parrotModel;
  std::vector<float> zeroPlanOutputs, plainOutputs;
  const tn::FaultCounts zeroBefore = tn::globalFaultCounts();
  const SweepRow zeroNApprox =
      runNApprox(kConfigs[0], windows, &zeroPlanOutputs);
  {
    const napprox::QuantizedNApproxHog model(
        {}, {}, napprox::QuantizedMode::kTickAccurate);
    napprox::NApproxCorelet corelet(model);  // fault API never touched
    for (const vision::Image& window : windows) {
      for (const auto& [x0, y0] : kSampleCells) {
        const std::vector<float> h = corelet.extract(window, x0, y0);
        plainOutputs.insert(plainOutputs.end(), h.begin(), h.end());
      }
    }
  }
  const tn::FaultCounts zeroDelta = tn::globalFaultCounts() - zeroBefore;
  const bool zeroIdentical = zeroPlanOutputs == plainOutputs;
  const bool zeroCounters = zeroDelta.total() == 0;
  // With PCNN_FAULTS set every network -- including the "zero-fault"
  // configs -- gets the env plan, so bitwise identity cannot hold and the
  // check is reported but not enforced in the exit code.
  const bool envFaulted = tn::envFaultPlan().has_value();
  std::printf("zero-fault check: outputs %s fault-free run, %ld fault "
              "events counted%s\n\n",
              zeroIdentical ? "bitwise-identical to" : "DIFFER from",
              zeroDelta.total(),
              envFaulted ? " (PCNN_FAULTS set: check not enforced)" : "");

  // --- Sweep ---------------------------------------------------------------
  std::printf("%-8s %6s %5s %10s %12s %10s %8s %8s\n", "corelet", "drop",
              "dead", "miss rate", "correlation", "spikes", "dropped",
              "deadDrop");
  std::vector<SweepRow> napproxRows, parrotRows;
  for (const FaultConfig& config : kConfigs) {
    const SweepRow row = config.drop == 0.0 && config.deadCores == 0
                             ? zeroNApprox
                             : runNApprox(config, windows);
    napproxRows.push_back(row);
    printRow("napprox", row);
  }
  for (const FaultConfig& config : kConfigs) {
    const SweepRow row = runParrot(config, parrotModel, windows);
    parrotRows.push_back(row);
    printRow("parrot", row);
  }

  // Parrot fault-free parity doubles as a simulator-vs-reference check.
  const bool parrotParity = parrotRows[0].misses == 0;
  if (!parrotParity) {
    std::printf("\nWARNING: fault-free parrot run disagrees with its "
                "reference semantics (%ld/%ld bits)\n",
                parrotRows[0].misses, parrotRows[0].outputs);
  }

  // --- Degraded detection --------------------------------------------------
  // Pyramid levels are 128, ~116, ~105, ~96 px wide; the flaky backend
  // fails the last two, so the detector skips them, records the loss, and
  // keeps scanning -- the detect.level.degraded path end to end.
  core::DegradationReport detReport;
  std::size_t detDetections = 0;
  {
    core::GridDetectorParams dp;
    dp.scoreThreshold = -1e9f;
    dp.pyramid.maxLevels = 4;
    vision::Image scene(128, 128, 0.5f);
    for (int y = 0; y < 128; ++y) {
      for (int x = 0; x < 128; ++x) {
        scene.at(x, y) = static_cast<float>((x + y) % 17) / 17.0f;
      }
    }
    core::GridDetector detector(dp, std::make_shared<FlakyExtractor>(110),
                                [](const std::vector<float>&) { return 1.0f; });
    detDetections = detector.detect(scene, {}, &detReport).size();
  }
  std::printf("\ndegraded detection: %s (%zu detections from surviving "
              "levels)\n",
              detReport.summary().c_str(), detDetections);

  // With PCNN_FLIGHT set, the first fault event above already auto-dumped
  // the recorder; overwrite that with the full run tail so the file holds
  // both the tn.faults.* count events and the degraded detect.level spans.
  if (obs::flightEnabled() && !obs::configuredFlightPath().empty()) {
    obs::dumpFlightRecorder("", "robustness_report.final");
    std::printf("flight recorder dumped to %s\n",
                obs::configuredFlightPath().c_str());
  }

  std::FILE* out = std::fopen(outPath.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", outPath.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"provenance\": %s,\n"
               "  \"fault_seed\": %llu,\n"
               "  \"sample_cells_per_config\": %zu,\n"
               "  \"zero_fault\": {\"bitwise_identical\": %s, "
               "\"fault_events\": %ld},\n"
               "  \"parrot_fault_free_parity\": %s,\n"
               "  \"degraded_detection\": {\"levels_skipped\": %d, "
               "\"windows_lost\": %ld, \"degraded\": %s},\n",
               provenance.c_str(),
               static_cast<unsigned long long>(kFaultSeed), cellsPerConfig,
               zeroIdentical && zeroCounters ? "true" : "false",
               zeroDelta.total(), parrotParity ? "true" : "false",
               detReport.levelsSkipped, detReport.windowsLost,
               detReport.degraded() ? "true" : "false");
  std::fprintf(out, "  \"napprox\": [\n");
  for (std::size_t i = 0; i < napproxRows.size(); ++i) {
    writeRowJson(out, napproxRows[i], i + 1 == napproxRows.size());
  }
  std::fprintf(out, "  ],\n  \"parrot\": [\n");
  for (std::size_t i = 0; i < parrotRows.size(); ++i) {
    writeRowJson(out, parrotRows[i], i + 1 == parrotRows.size());
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", outPath.c_str());

  return envFaulted || (zeroIdentical && zeroCounters) ? 0 : 1;
}
