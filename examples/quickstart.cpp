// Quickstart: extract block-normalized HoG features from a synthetic
// pedestrian window with three registry extractors (classic float HoG, the
// FPGA fixed-point baseline, and the TrueNorth NApprox approximation), run
// the NApprox corelet on the neurosynaptic simulator, and compare the
// results.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "common/rng.hpp"
#include "eval/stats.hpp"
#include "extract/registry.hpp"
#include "napprox/corelet.hpp"
#include "napprox/quantized.hpp"
#include "vision/synth.hpp"

int main() {
  using namespace pcnn;

  // 1. A synthetic 64x128 pedestrian window (the INRIA substitute).
  vision::SyntheticPersonDataset dataset;
  Rng rng(2026);
  const vision::Image window = dataset.positiveWindow(rng);
  std::printf("synthetic window: %dx%d, mean intensity %.3f\n",
              window.width(), window.height(), vision::meanValue(window));

  // 2. Classic Dalal-Triggs HoG (9 unsigned bins, block-normalized).
  const extract::FeatureLayout blocks = extract::FeatureLayout::kBlockNorm;
  const auto classicDesc =
      extract::makeExtractor("hog", blocks)->windowFeatures(window);
  std::printf("classic HoG descriptor: %zu features (expected 3780)\n",
              classicDesc.size());

  // 3. FPGA-style fixed-point HoG (the paper's baseline [1]).
  const auto fpgaDesc =
      extract::makeExtractor("fixedpoint", blocks)->windowFeatures(window);
  std::printf("fixed-point HoG descriptor: %zu features, correlation vs "
              "float: %.4f\n",
              fpgaDesc.size(),
              eval::pearsonCorrelation(fpgaDesc, classicDesc));

  // 4. NApprox HoG: 18 signed bins, count voting (paper Table 1).
  const auto napproxDesc =
      extract::makeExtractor("napprox", blocks)->windowFeatures(window);
  std::printf("NApprox(fp) descriptor: %zu features (expected 7560)\n",
              napproxDesc.size());

  // 5. The TrueNorth-compatible quantized model and the real corelet
  //    running on the neurosynaptic core simulator.
  const napprox::QuantizedNApproxHog quantized(
      {}, {}, napprox::QuantizedMode::kTickAccurate);
  napprox::NApproxCorelet corelet(quantized);
  std::printf("NApprox corelet: %d TrueNorth cores, %d ticks per cell\n",
              corelet.coreCount(), corelet.ticksPerCell());

  const auto histSoftware = quantized.cellHistogram(window, 24, 48);
  const auto histHardware = corelet.extract(window, 24, 48);
  std::printf("cell (24,48) histogram, software vs corelet:\n  bin:");
  for (int k = 0; k < 18; ++k) std::printf(" %4d", k);
  std::printf("\n  sw: ");
  for (float v : histSoftware) std::printf(" %4.0f", v);
  std::printf("\n  hw: ");
  for (float v : histHardware) std::printf(" %4.0f", v);
  std::printf("\n  correlation: %.4f\n",
              eval::pearsonCorrelation(histSoftware, histHardware));
  return 0;
}
