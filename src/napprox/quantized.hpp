#pragma once

#include <cstdint>
#include <vector>

#include "hog/hog.hpp"
#include "napprox/napprox.hpp"
#include "vision/image.hpp"

namespace pcnn::napprox {

/// Quantization parameters for the TrueNorth-compatible NApprox HoG.
struct QuantizedParams {
  /// Input rate-code window in ticks: 64 spikes = the paper's 6-bit
  /// fixed-point input resolution.
  int spikeWindow = 64;
  /// cos/sin projection weights are rounded to integers in
  /// [-weightScale, weightScale]; 64 keeps them well inside the chip's
  /// signed 9-bit synaptic range while resolving the ~6% projection
  /// difference between adjacent 20-degree directions.
  int weightScale = 64;
  /// Vote threshold in accumulated-membrane units: a pixel only votes when
  /// its best projection reaches this. <= 0 derives it from
  /// NApproxParams::minMagnitude as
  /// round(minMagnitude * weightScale * spikeWindow).
  int threshold = 0;
  /// Ramp-race leak (membrane units per tick) used by the readout phase of
  /// the tick-accurate model and the corelet. Smaller = finer argmax
  /// resolution but a longer race. See QuantizedMode::kTickAccurate.
  int rampLeak = 8;
};

/// Evaluation semantics of the quantized model.
enum class QuantizedMode {
  /// Exact semantics of the NApprox corelet's accumulate-then-race scheme
  /// (the paper: "we use clock signals to accumulate the weighted sum for
  /// multiple clock ticks in the membrane potentials, so that we can
  /// provide more precise inner-product results"). Direction neurons carry
  /// a constant positive leak and a threshold high enough that nothing can
  /// fire while the rate-coded inputs accumulate; once the input window
  /// ends, the leak ramp races the accumulated projections to threshold
  /// and the *largest* projection fires first (comparison by timing).
  /// Projections within one leak step of each other land on the same tick
  /// and all pass the winner-take-all latch; a blanking signal ends the
  /// race where the vote threshold falls. Bit-exact vs NApproxCorelet.
  kTickAccurate,
  /// Whole-window totals: strict argmax over the accumulated integer
  /// projections with a total-threshold test (no ramp bucketing, single
  /// vote per pixel). Differs from tick-accurate only in tie granularity.
  kAnalytic,
};

/// Reduced-precision software model of NApprox HoG -- "NApprox" in
/// Figure 4. The paper validated such a software model against the
/// TrueNorth implementation at >99.5 % correlation (Sec. 3.1); here the
/// tick-accurate mode is the software twin of napprox::NApproxCorelet.
class QuantizedNApproxHog {
 public:
  QuantizedNApproxHog(const NApproxParams& params = {},
                      const QuantizedParams& quant = {},
                      QuantizedMode mode = QuantizedMode::kAnalytic);

  const NApproxParams& params() const { return params_; }
  const QuantizedParams& quant() const { return quant_; }
  QuantizedMode mode() const { return mode_; }
  int effectiveThreshold() const { return threshold_; }

  /// Firing threshold of the ramp-race direction neurons:
  /// (2*weightScale + rampLeak) * spikeWindow + 1, chosen so no neuron can
  /// fire during input accumulation.
  int rampThreshold() const { return rampThreshold_; }
  /// Race tick at which a projection exactly at the vote threshold would
  /// fire; the corelet's blanking signal closes the WTA right after it.
  int cutoffBucket() const { return cutoffBucket_; }

  /// Quantized integer projection weights, shared with the corelet builder.
  const std::vector<int>& cosWeights() const { return cosQ_; }
  const std::vector<int>& sinWeights() const { return sinQ_; }

  /// Histogram of one cell with top-left pixel (x0, y0).
  std::vector<float> cellHistogram(const vision::Image& img, int x0,
                                   int y0) const;

  /// Per-cell count histograms over the whole image.
  hog::CellGrid computeCells(const vision::Image& img) const;

  /// Rate-coded spike count for a pixel value (round(v * spikeWindow)).
  int quantizePixel(float value) const;

 private:
  std::vector<float> cellHistogramTick(const vision::Image& img, int x0,
                                       int y0) const;
  std::vector<float> cellHistogramAnalytic(const vision::Image& img, int x0,
                                           int y0) const;
  NApproxParams params_;
  QuantizedParams quant_;
  QuantizedMode mode_;
  int threshold_;
  int rampThreshold_;
  int cutoffBucket_;
  std::vector<int> cosQ_, sinQ_;
};

}  // namespace pcnn::napprox
