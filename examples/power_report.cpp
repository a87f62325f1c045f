// Prints the paper's Table 2 power comparison for full-HD pedestrian
// detection at 26 fps, plus the NApprox-vs-Parrot power ratio quoted in
// the abstract (6.5x-208x).
//
// Below the analytic table, the report runs each TrueNorth extractor's
// actual corelet in the tick-accurate simulator on a handful of sample
// cells and prints the *measured* spike activity (tn::RunResult feeds the
// event-driven tn::estimateEnergy model). The measured deployment power
// sits next to the analytic row and deviations above 10% are flagged --
// they arise where our mapped module's core count differs from the paper
// module the analytic model provisions.
//
// Run with PCNN_METRICS=<path> to also capture the tn.spikes / tn.ticks
// counters the simulator feeds into the metrics window line written at
// exit.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "eedn/mapper.hpp"
#include "extract/registry.hpp"
#include "napprox/corelet.hpp"
#include "napprox/quantized.hpp"
#include "obs/obs.hpp"
#include "parrot/parrot.hpp"
#include "power/power.hpp"
#include "tn/energy.hpp"
#include "vision/synth.hpp"

namespace {

using namespace pcnn;

/// Measured activity of one mapped module over several simulated cells.
struct MeasuredRow {
  std::string approach;
  int cores = 0;
  long runs = 0;
  tn::RunResult total;
  tn::EnergyReport energy;
  double modules = 0.0;        ///< from the matching analytic row
  double analyticWatts = 0.0;  ///< from the matching analytic row
  int paperCores = 0;
};

/// The sample cell positions measured in a 64x128 training window.
const std::pair<int, int> kSampleCells[] = {
    {8, 16}, {16, 40}, {24, 64}, {32, 88}, {40, 104}, {48, 24}};

void printMeasuredRow(const MeasuredRow& row) {
  const double cells = static_cast<double>(row.runs);
  const double spikesPerCell = row.total.totalSpikes / cells;
  const double ticksPerCell = row.total.ticksRun / cells;
  // Deployment power if every analytic module shows this measured
  // activity: modules x (measured average module power).
  const double deployedWatts = row.energy.watts * row.modules;
  const double deviation =
      row.analyticWatts > 0.0
          ? (deployedWatts - row.analyticWatts) / row.analyticWatts
          : 0.0;
  std::printf("%-26s %6d %11.1f %12.1f %11.3f %10.2f %10.2f %+7.1f%%\n",
              row.approach.c_str(), row.cores, ticksPerCell, spikesPerCell,
              row.energy.watts * 1e3, deployedWatts, row.analyticWatts,
              deviation * 100.0);
  if (std::fabs(deviation) > 0.10) {
    std::printf("  ^ deviates >10%% from the analytic row: the mapped "
                "module uses %d cores where the paper's uses %d\n",
                row.cores, row.paperCores);
  }
}

/// First analytic row whose approach contains `needle` (e.g. "NApprox").
const power::PowerEstimate* findRow(
    const std::vector<power::PowerEstimate>& rows,
    const std::string& needle) {
  for (const power::PowerEstimate& row : rows) {
    if (row.approach.find(needle) != std::string::npos) return &row;
  }
  return nullptr;
}

}  // namespace

int main() {
  using namespace pcnn::power;
  const FullHdWorkload workload;
  std::printf("full-HD workload: %ld cells/frame @ %d fps = %.3g cells/s\n\n",
              workload.cellsPerFrame(), workload.fps,
              workload.cellsPerSecond());

  // Each row is derived from a registry-constructed extractor's own
  // deployment metadata (see extract::table2Specs).
  const std::vector<PowerEstimate> rows =
      pcnn::extract::table2FromRegistry(workload);
  std::printf("%-32s %-18s %12s %10s %10s\n", "Approach", "Signal resolution",
              "modules", "chips", "power");
  for (const PowerEstimate& row : rows) {
    char power[32];
    if (row.watts >= 1.0) {
      std::snprintf(power, sizeof(power), "%.2f W", row.watts);
    } else {
      std::snprintf(power, sizeof(power), "%.0f mW", row.watts * 1e3);
    }
    if (row.modules > 0) {
      std::printf("%-32s %-18s %12.0f %10.1f %10s\n", row.approach.c_str(),
                  row.signalResolution.c_str(), row.modules, row.chips,
                  power);
    } else {
      std::printf("%-32s %-18s %12s %10s %10s\n", row.approach.c_str(),
                  row.signalResolution.c_str(), "-", "-", power);
    }
  }

  const auto [low, high] = napproxOverParrotRatio(workload);
  std::printf("\nParrot vs NApprox power advantage: %.1fx (32-spike) to "
              "%.0fx (1-spike)\n", low, high);
  std::printf("paper quotes 6.5x-208x\n");

  // --- Measured spike activity ---------------------------------------------
  // Run the actual mapped corelets in the tick-accurate simulator and
  // derive a measured power estimate from their spike traffic, next to
  // the provisioned-core analytic model above.
  vision::SyntheticPersonDataset dataset;
  Rng rng(21);
  const vision::Image sample = dataset.positiveWindow(rng);

  std::printf("\nmeasured spike activity (tick-accurate simulator, %zu "
              "sample cells each):\n",
              std::size(kSampleCells));
  std::printf("%-26s %6s %11s %12s %11s %10s %10s %8s\n", "Approach", "cores",
              "ticks/cell", "spikes/cell", "module mW", "deployed W",
              "analytic W", "dev");

  {
    const napprox::QuantizedNApproxHog model(
        {}, {}, napprox::QuantizedMode::kTickAccurate);
    napprox::NApproxCorelet corelet(model);
    MeasuredRow measured;
    measured.approach = "NApprox HoG (measured)";
    measured.cores = corelet.coreCount();
    for (const auto& [x0, y0] : kSampleCells) {
      (void)corelet.extract(sample, x0, y0);
      measured.total.accumulate(corelet.lastRun());
      ++measured.runs;
    }
    measured.energy = tn::estimateEnergy(corelet.network(), measured.total);
    if (const PowerEstimate* row = findRow(rows, "NApprox")) {
      measured.modules = row->modules;
      measured.analyticWatts = row->watts;
    }
    measured.paperCores = 26;
    printMeasuredRow(measured);
  }

  {
    // The parrot's spike statistics come from its Eedn network mapped onto
    // the simulator (TnMapper). The untrained trinary net carries the same
    // structure and per-tick traffic scale as a trained one, which is what
    // the activity-power estimate depends on.
    parrot::ParrotHog parrotModel;
    const auto mapped = eedn::TnMapper::map(parrotModel.net());
    MeasuredRow measured;
    measured.approach = "Parrot HoG (measured)";
    measured.cores = mapped->coreCount();
    std::vector<int> input(static_cast<std::size_t>(mapped->inputSize()), 0);
    for (const auto& [x0, y0] : kSampleCells) {
      for (int y = 0; y < 10; ++y) {
        for (int x = 0; x < 10; ++x) {
          const std::size_t i = static_cast<std::size_t>(y) * 10 + x;
          if (i < input.size()) {
            input[i] = sample.atClamped(x0 - 1 + x, y0 - 1 + y) > 0.5f;
          }
        }
      }
      (void)mapped->forwardSpikes(input);
      measured.total.accumulate(mapped->lastRun());
      ++measured.runs;
    }
    measured.energy = tn::estimateEnergy(mapped->network(), measured.total);
    if (const PowerEstimate* row = findRow(rows, "Parrot")) {
      measured.modules = row->modules;  // 32-spike row (first Parrot row)
      measured.analyticWatts = row->watts;
    }
    measured.paperCores = 8;
    printMeasuredRow(measured);
  }

  // The simulator also feeds the global tn.* metrics counters; surface
  // them (and write the PCNN_METRICS window, when requested) so the measured
  // numbers above can be cross-checked against the telemetry layer.
  if (pcnn::obs::metricsEnabled()) {
    std::printf("\ntn counters: spikes=%ld ticks=%ld runs=%ld\n",
                pcnn::obs::counter("tn.spikes").value(),
                pcnn::obs::counter("tn.ticks").value(),
                pcnn::obs::counter("tn.runs").value());
  }
  if (!pcnn::obs::configuredMetricsPath().empty() ||
      !pcnn::obs::configuredTracePath().empty()) {
    pcnn::obs::writeConfiguredReports();
  }
  return 0;
}
