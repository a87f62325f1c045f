// tn-sim: an offline hardware-fidelity job on the TrueNorth simulator, in
// whole rounds over fixed seeded 64x128 windows. Lane a runs
// napprox::NApproxCorelet::extract over one fixed cell of every window, one
// cell per op; lane b runs eedn::MappedEedn::forwardSpikesBatch (the parrot
// cell network mapped onto cores) over the binarized cell patches of the
// first kParrotWindows windows, one window per op. Both models come from
// bundles. Every corelet histogram is checked against the tick-accurate
// QuantizedNApproxHog, every mapped output against referenceForward. Spike
// traffic -- and so simulator time -- depends on content, so a round
// spreads over 256 windows rather than a few.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "eedn/mapper.hpp"
#include "extract/backends.hpp"
#include "harness.hpp"
#include "napprox/corelet.hpp"
#include "vision/synth.hpp"

namespace perfbench {
namespace {

using namespace pcnn;

constexpr int kWindows = 256;
/// A round forwards the first kParrotWindows windows (half of them
/// positive) through the mapped parrot network.
constexpr int kParrotWindows = 32;
constexpr int kCell = 8;
constexpr int kPatch = 10;  ///< a cell plus one pixel of context each side

class Tn final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    vision::SyntheticPersonDataset synth;
    Rng rng(seed);
    windows_.clear();
    for (int i = 0; i < kWindows; ++i) {
      windows_.push_back(i % 2 == 0 ? synth.positiveWindow(rng)
                                    : synth.negativeWindow(rng));
    }
    const auto napproxExtractor = loadTimed(
        packBundle("napprox:64spike", extract::FeatureLayout::kFlatCell));
    const napprox::QuantizedNApproxHog& quantized =
        dynamic_cast<const extract::QuantizedNApproxBackend&>(*napproxExtractor)
            .model();
    tick_ = std::make_unique<napprox::QuantizedNApproxHog>(
        quantized.params(), quantized.quant(),
        napprox::QuantizedMode::kTickAccurate);
    corelet_ = std::make_unique<napprox::NApproxCorelet>(*tick_);
    auto parrotExtractor =
        loadTimed(packBundle("parrot", extract::FeatureLayout::kFlatCell));
    const parrot::ParrotHog& parrot =
        dynamic_cast<extract::ParrotBackend&>(*parrotExtractor).parrot();
    mapped_ = eedn::TnMapper::map(parrot.net());

    // The parrot lane's inputs: every cell's 10x10 patch, binarized.
    inputs_.assign(windows_.size(), {});
    for (std::size_t w = 0; w < windows_.size(); ++w) {
      const vision::Image& img = windows_[w];
      for (int cy = 0; cy < img.height() / kCell; ++cy) {
        for (int cx = 0; cx < img.width() / kCell; ++cx) {
          std::vector<int> patch(kPatch * kPatch);
          for (int y = 0; y < kPatch; ++y) {
            for (int x = 0; x < kPatch; ++x) {
              patch[static_cast<std::size_t>(y * kPatch + x)] =
                  img.atClamped(cx * kCell - 1 + x, cy * kCell - 1 + y) > 0.5f;
            }
          }
          inputs_[w].push_back(std::move(patch));
        }
      }
    }
  }

  std::string inputDigest() const override {
    Digest d;
    for (const vision::Image& w : windows_) d.image(w);
    return d.hex();
  }

  void warmup() override {
    // The reference models run once per input here; every timed output is
    // compared with the stored result.
    expectedCells_.clear();
    for (int w = 0; w < kWindows; ++w) {
      const Cell c = cellOf(w);
      expectedCells_.push_back(tick_->cellHistogram(*c.img, c.x0, c.y0));
    }
    expectedWindows_.assign(kParrotWindows, {});
    for (int w = 0; w < kParrotWindows; ++w) {
      for (const std::vector<int>& patch : inputs_[static_cast<std::size_t>(w)]) {
        expectedWindows_[static_cast<std::size_t>(w)].push_back(
            mapped_->referenceForward(patch));
      }
    }
    corelet_->extract(windows_[0], 0, 0);
    mapped_->forwardSpikesBatch(inputs_[0]);
  }

  PassResult run(double seconds, bool traced) override {
    // Whole rounds, each the same cells (one fixed cell of every window)
    // and the same parrot windows in the same order, so every pass and
    // every run of a seed simulates the same spike traffic.
    PassResult r;
    Samples napproxMs, parrotMs, cellsPerS, windowsPerS;
    long ticks = 0, cellSpikes = 0, windowSpikes = 0;
    double timed = 0;
    do {  // at least one round: run(0, ...) is one fixed tn job
      Samples cells;
      for (int w = 0; w < kWindows; ++w) {
        ++r.attempted;
        if (!simulateCell(w, cells, ticks, cellSpikes)) ++r.failed;
      }
      const double cellsMs = cells.sum();
      cellsPerS.add(1000.0 * kWindows / cellsMs);
      napproxMs.append(cells);
      r.laneARounds.push_back(std::move(cells));
      const double windowsBefore = parrotMs.sum();
      for (int w = 0; w < kParrotWindows; ++w) {
        ++r.attempted;
        if (!forwardWindow(w, parrotMs, windowSpikes)) ++r.failed;
      }
      const double windowsMs = parrotMs.sum() - windowsBefore;
      windowsPerS.add(1000.0 * kParrotWindows / windowsMs);
      timed += cellsMs + windowsMs;
    } while (timed < seconds * 1000.0);
    r.laneAMs = napproxMs;
    // The p95 over the 256 cells keeps ~13 cells beyond it.
    r.tailQuantile = 0.95;
    r.laneAPerS = cellsPerS.max();
    r.laneBPerS = windowsPerS.max();
    r.indexPerS = std::sqrt(r.laneAPerS * r.laneBPerS);
    if (traced) {
      r.layer["tn.napprox.ms_per_cell"] = napproxMs.mean();
      r.layer["tn.parrot.ms_per_window"] = parrotMs.mean();
      r.layer["tn.napprox.ticks_per_cell"] =
          static_cast<double>(ticks) / static_cast<double>(napproxMs.size());
      r.layer["tn.napprox.spikes_per_cell"] =
          static_cast<double>(cellSpikes) /
          static_cast<double>(napproxMs.size());
      r.layer["tn.parrot.spikes_per_window"] =
          static_cast<double>(windowSpikes) /
          static_cast<double>(parrotMs.size());
      r.layer["ledger.op_ms"] = napproxMs.mean();
    }
    return r;
  }

 private:
  /// Window w's fixed cell: spread over the window's rows (37 is odd, so
  /// the cells differ).
  struct Cell {
    const vision::Image* img;
    int x0, y0;
  };
  Cell cellOf(int w) const {
    const vision::Image& img = windows_[static_cast<std::size_t>(w)];
    const int cellsX = img.width() / kCell;
    const int cell = (w * 37) % (cellsX * (img.height() / kCell));
    return {&img, cell % cellsX * kCell, cell / cellsX * kCell};
  }

  /// Runs the corelet over window w's fixed cell and checks the histogram
  /// against the tick-accurate model's.
  bool simulateCell(int w, Samples& ms, long& ticks, long& spikes) {
    const Cell c = cellOf(w);
    try {
      const auto t0 = Clock::now();
      const std::vector<float> hist = corelet_->extract(*c.img, c.x0, c.y0);
      ms.add(msBetween(t0, Clock::now()));
      ticks += corelet_->lastRun().ticksRun;
      spikes += corelet_->lastRun().totalSpikes;
      return hist == expectedCells_[static_cast<std::size_t>(w)];
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tn-sim: napprox cell threw: %s\n", e.what());
      return false;
    }
  }

  /// Runs the mapped parrot network over window w's cell patches and
  /// checks every output against referenceForward.
  bool forwardWindow(int w, Samples& ms, long& spikes) {
    const std::vector<std::vector<int>>& inputs =
        inputs_[static_cast<std::size_t>(w)];
    try {
      const auto t0 = Clock::now();
      const std::vector<std::vector<int>> out =
          mapped_->forwardSpikesBatch(inputs);
      ms.add(msBetween(t0, Clock::now()));
      spikes += mapped_->lastRun().totalSpikes;
      return out == expectedWindows_[static_cast<std::size_t>(w)];
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tn-sim: parrot window threw: %s\n", e.what());
      return false;
    }
  }

  std::vector<vision::Image> windows_;
  std::vector<std::vector<std::vector<int>>> inputs_;
  std::unique_ptr<napprox::QuantizedNApproxHog> tick_;
  std::unique_ptr<napprox::NApproxCorelet> corelet_;
  std::unique_ptr<eedn::MappedEedn> mapped_;
  std::vector<std::vector<float>> expectedCells_;  ///< per window
  std::vector<std::vector<std::vector<int>>> expectedWindows_;
};

}  // namespace

std::unique_ptr<Workload> makeTn() { return std::make_unique<Tn>(); }

}  // namespace perfbench
