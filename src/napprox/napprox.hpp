#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "hog/hog.hpp"
#include "vision/image.hpp"

namespace pcnn::napprox {

/// Configuration shared by every NApprox HoG flavour.
///
/// NApprox re-expresses HoG with TrueNorth-friendly primitives (paper
/// Table 1):
///  - gradient vector by pattern matching with the four filters
///    (-1 0 1), (1 0 -1) and their transposes, yielding Ix, -Ix, Iy, -Iy;
///  - gradient angle as the theta among `bins` evenly spaced directions for
///    which Ix*cos(theta) + Iy*sin(theta) is maximum (comparison);
///  - gradient magnitude as that same inner product at the winning theta;
///  - histogram binned *by count* with 18 bins over 0..360 degrees
///    (vs. magnitude-weighted 9-bin voting in classic HoG), with bin
///    aliasing deliberately ignored (no bilinear interpolation).
struct NApproxParams {
  int cellSize = 8;
  int bins = 18;            ///< directions over 0..360 deg (1..64)
  float minMagnitude = 0.04f;  ///< pixels whose best projection is below
                               ///< this cast no vote (maps to the spiking
                               ///< threshold on hardware)
};

/// Full-precision software model of NApprox HoG -- "NApprox(fp)" in
/// Figure 4: float inputs, float cos/sin projections. Computes cells only;
/// both feature layouts are assembled from them by the extractor layer
/// (extract::NApproxBackend).
class NApproxHog {
 public:
  explicit NApproxHog(const NApproxParams& params = {});

  const NApproxParams& params() const { return params_; }

  /// Per-cell count histograms over the whole image.
  hog::CellGrid computeCells(const vision::Image& img) const;

  /// Histogram of one cell with top-left pixel (x0, y0).
  std::vector<float> cellHistogram(const vision::Image& img, int x0,
                                   int y0) const;

  /// Winning direction of a float gradient, or -1 when no direction's
  /// projection reaches minMagnitude. Strict argmax (first maximum wins);
  /// exposed for tests and Table 1 checks.
  int bestDirection(float ix, float iy) const;

  /// The directions one gradient votes for, in ascending order: a fixed
  /// buffer of kMaxBins entries (the constructor rejects more bins), so
  /// the per-pixel histogram loops allocate nothing.
  struct Votes {
    static constexpr int kMaxBins = 64;
    std::array<std::uint8_t, kMaxBins> directions{};
    int count = 0;
    const std::uint8_t* begin() const { return directions.data(); }
    const std::uint8_t* end() const { return directions.data() + count; }
  };

  /// Directions receiving this gradient's vote: every k whose projection
  /// ties the maximum (within float rounding). Gradients along the axes
  /// fall exactly between two of the 18 directions -- e.g. a vertical
  /// gradient projects identically onto 80 and 100 degrees -- and the
  /// hardware's winner-take-all admits all same-tick ties, so the software
  /// models vote the full tie set to match. Empty when below minMagnitude.
  Votes voteDirections(float ix, float iy) const;

  /// Projection of (ix, iy) onto direction k -- the paper's magnitude
  /// approximation when k is the winner.
  float projection(float ix, float iy, int k) const;

 private:
  NApproxParams params_;
  std::vector<float> cosTable_, sinTable_;
};

}  // namespace pcnn::napprox
