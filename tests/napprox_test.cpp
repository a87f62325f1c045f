#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>

#include "common/rng.hpp"
#include "eval/stats.hpp"
#include "extract/backends.hpp"
#include "napprox/corelet.hpp"
#include "napprox/napprox.hpp"
#include "napprox/quantized.hpp"
#include "vision/synth.hpp"

namespace pcnn::napprox {
namespace {

vision::Image orientedEdge(int size, float angleRad, float lo = 0.1f,
                           float hi = 0.9f) {
  vision::Image img(size, size);
  const float c = std::cos(angleRad);
  const float s = std::sin(angleRad);
  const float half = static_cast<float>(size - 1) / 2.0f;
  for (int y = 0; y < size; ++y) {
    for (int x = 0; x < size; ++x) {
      const float proj = c * (static_cast<float>(x) - half) +
                         s * (static_cast<float>(y) - half);
      img.at(x, y) = proj > 0 ? hi : lo;
    }
  }
  return img;
}

TEST(NApproxHog, BestDirectionMatchesGradientAngle) {
  const NApproxHog hog;
  // Gradient pointing along +x (theta = 0) -> direction 0.
  EXPECT_EQ(hog.bestDirection(1.0f, 0.0f), 0);
}

TEST(NApproxHog, BestDirectionQuarterTurns) {
  const NApproxHog hog;
  // 18 directions at 20-degree spacing: 90 degrees sits exactly between
  // directions 4 (80 deg) and 5 (100 deg); argmax keeps the first maximum.
  EXPECT_EQ(hog.bestDirection(0.0f, 1.0f), 4);
  EXPECT_EQ(hog.bestDirection(-1.0f, 0.0f), 9);   // 180 deg
  EXPECT_EQ(hog.bestDirection(0.0f, -1.0f), 13);  // 270 deg (260/280 tie)
}

TEST(NApproxHog, SignedOrientationDistinguishesPolarity) {
  const NApproxHog hog;
  const int up = hog.bestDirection(0.3f, 0.4f);
  const int down = hog.bestDirection(-0.3f, -0.4f);
  EXPECT_EQ((up + 9) % 18, down);  // opposite gradients differ by 180 deg
}

TEST(NApproxHog, WeakGradientsVoteNothing) {
  const NApproxHog hog;  // minMagnitude 0.08
  EXPECT_EQ(hog.bestDirection(0.01f, 0.01f), -1);
  EXPECT_EQ(hog.bestDirection(0.0f, 0.0f), -1);
}

TEST(NApproxHog, ProjectionIsMagnitudeAtTrueAngle) {
  // Table 1: (Ix cos + Iy sin) at the winning angle approximates the
  // gradient magnitude within the 20-degree bin width (cos(10deg) floor).
  const NApproxHog hog;
  pcnn::Rng rng(3);
  for (int t = 0; t < 500; ++t) {
    const float ix = static_cast<float>(rng.uniform(-1, 1));
    const float iy = static_cast<float>(rng.uniform(-1, 1));
    const float mag = std::sqrt(ix * ix + iy * iy);
    if (mag < 0.2f) continue;
    const int k = hog.bestDirection(ix, iy);
    ASSERT_GE(k, 0);
    const float approx = hog.projection(ix, iy, k);
    EXPECT_LE(approx, mag + 1e-5f);
    EXPECT_GE(approx, mag * std::cos(10.0f * 3.14159f / 180.0f) - 1e-5f);
  }
}

TEST(NApproxHog, CellHistogramCountsVotes) {
  const NApproxHog hog;
  const auto img = orientedEdge(10, 0.0f);
  const auto hist = hog.cellHistogram(img, 1, 1);
  const float total = std::accumulate(hist.begin(), hist.end(), 0.0f);
  EXPECT_GT(total, 0.0f);
  // Votes are counts: every entry is an integer.
  for (float v : hist) EXPECT_FLOAT_EQ(v, std::round(v));
  // The edge is vertical with brighter right side: votes concentrate at
  // direction 0 (gradient +x).
  const int best = static_cast<int>(
      std::max_element(hist.begin(), hist.end()) - hist.begin());
  EXPECT_EQ(best, 0);
}

TEST(NApproxHog, DescriptorShapes) {
  extract::NApproxBackend blocks("napprox", extract::FeatureLayout::kBlockNorm);
  extract::NApproxBackend cells("napprox", extract::FeatureLayout::kFlatCell);
  vision::Image window(64, 128, 0.5f);
  EXPECT_EQ(blocks.windowFeatures(window).size(),
            static_cast<std::size_t>(7560));
  EXPECT_EQ(cells.windowFeatures(window).size(),
            static_cast<std::size_t>(8 * 16 * 18));
}

TEST(NApproxHog, InvalidParamsThrow) {
  NApproxParams params;
  params.bins = 0;
  EXPECT_THROW(NApproxHog{params}, std::invalid_argument);
}

TEST(QuantizedNApprox, ValidatesParams) {
  NApproxParams params;
  QuantizedParams quant;
  quant.spikeWindow = 0;
  EXPECT_THROW(QuantizedNApproxHog(params, quant), std::invalid_argument);
  quant.spikeWindow = 65;
  EXPECT_THROW(QuantizedNApproxHog(params, quant), std::invalid_argument);
  quant = {};
  quant.weightScale = 0;
  EXPECT_THROW(QuantizedNApproxHog(params, quant), std::invalid_argument);
}

TEST(QuantizedNApprox, DerivedThreshold) {
  NApproxParams params;  // minMagnitude = 0.04
  QuantizedParams quant;  // 64 spikes, scale 64, leak 8
  const QuantizedNApproxHog hog(params, quant);
  EXPECT_EQ(hog.effectiveThreshold(), 164);  // round(0.04*64*64)
  // Ramp threshold: (2*64 + 8)*64 + 1 -- unreachable while inputs arrive.
  EXPECT_EQ(hog.rampThreshold(), 8705);
  // Race tick of a threshold-grade projection: ceil((8705-164)/8).
  EXPECT_EQ(hog.cutoffBucket(), 1068);
}

TEST(QuantizedNApprox, RampRaceOrdersByProjection) {
  // Larger accumulated projections must fire strictly earlier whenever
  // they differ by at least one leak step; the winning direction of a
  // strong gradient therefore matches the analytic argmax.
  const QuantizedNApproxHog tick({}, {}, QuantizedMode::kTickAccurate);
  const QuantizedNApproxHog analytic({}, {}, QuantizedMode::kAnalytic);
  vision::Image img = orientedEdge(10, 0.6f, 0.1f, 0.9f);
  const auto ha = tick.cellHistogram(img, 1, 1);
  const auto hb = analytic.cellHistogram(img, 1, 1);
  const int bestTick = static_cast<int>(
      std::max_element(ha.begin(), ha.end()) - ha.begin());
  const int bestAnalytic = static_cast<int>(
      std::max_element(hb.begin(), hb.end()) - hb.begin());
  EXPECT_EQ(bestTick, bestAnalytic);
}

TEST(QuantizedNApprox, WeightsInChipRange) {
  const QuantizedNApproxHog hog;
  for (int w : hog.cosWeights()) {
    EXPECT_GE(w, -255);  // TrueNorth synaptic weights are 9-bit signed
    EXPECT_LE(w, 255);
  }
  EXPECT_EQ(hog.cosWeights()[0], 64);
  EXPECT_EQ(hog.sinWeights()[0], 0);
}

TEST(QuantizedNApprox, AnalyticCloseToFloatModel) {
  // The quantized histogram must correlate strongly with the fp model over
  // realistic cells (this is the NApprox vs NApprox(fp) comparison
  // underlying Figure 4).
  const NApproxHog fp;
  const QuantizedNApproxHog quantized;
  vision::SyntheticPersonDataset dataset;
  pcnn::Rng rng(7);

  std::vector<double> a, b;
  for (int i = 0; i < 30; ++i) {
    const vision::Image window = dataset.positiveWindow(rng);
    for (int cy = 0; cy < 4; ++cy) {
      for (int cx = 0; cx < 4; ++cx) {
        const auto ha = fp.cellHistogram(window, cx * 8, cy * 8 + 32);
        const auto hb = quantized.cellHistogram(window, cx * 8, cy * 8 + 32);
        for (std::size_t k = 0; k < ha.size(); ++k) {
          a.push_back(ha[k]);
          b.push_back(hb[k]);
        }
      }
    }
  }
  EXPECT_GT(eval::pearsonCorrelation(a, b), 0.7);
}

TEST(QuantizedNApprox, ExactOnCleanEdges) {
  // On noise-free oriented edges the quantized and float models agree
  // essentially perfectly -- quantization error only matters for weak
  // texture gradients near the vote threshold.
  const NApproxHog fp;
  const QuantizedNApproxHog quantized;
  const QuantizedNApproxHog tick({}, {}, QuantizedMode::kTickAccurate);
  pcnn::Rng rng(41);
  std::vector<double> a, b, c;
  for (int t = 0; t < 200; ++t) {
    const float angle = static_cast<float>(rng.uniform(0.0, 6.283));
    const float lo = static_cast<float>(rng.uniform(0.05, 0.5));
    const float hi = lo + static_cast<float>(rng.uniform(0.1, 0.45));
    const vision::Image img = orientedEdge(10, angle, lo, hi);
    const auto ha = fp.cellHistogram(img, 1, 1);
    const auto hb = quantized.cellHistogram(img, 1, 1);
    const auto hc = tick.cellHistogram(img, 1, 1);
    for (std::size_t k = 0; k < ha.size(); ++k) {
      a.push_back(ha[k]);
      b.push_back(hb[k]);
      c.push_back(hc[k]);
    }
  }
  EXPECT_GT(eval::pearsonCorrelation(a, b), 0.99);
  EXPECT_GT(eval::pearsonCorrelation(a, c), 0.99);
}

TEST(QuantizedNApprox, TickAccurateAgreesWithAnalyticMostly) {
  const QuantizedNApproxHog tick({}, {}, QuantizedMode::kTickAccurate);
  const QuantizedNApproxHog analytic({}, {}, QuantizedMode::kAnalytic);
  vision::SyntheticPersonDataset dataset;
  pcnn::Rng rng(9);
  std::vector<double> a, b;
  for (int i = 0; i < 10; ++i) {
    const vision::Image window = dataset.positiveWindow(rng);
    for (int cy = 0; cy < 3; ++cy) {
      const auto ha = tick.cellHistogram(window, 8, cy * 8 + 40);
      const auto hb = analytic.cellHistogram(window, 8, cy * 8 + 40);
      for (std::size_t k = 0; k < ha.size(); ++k) {
        a.push_back(ha[k]);
        b.push_back(hb[k]);
      }
    }
  }
  // Ramp-bucket ties vs exact-maximum ties differ only in corner cases.
  EXPECT_GT(eval::pearsonCorrelation(a, b), 0.9);
}

TEST(QuantizedNApprox, FlatCellProducesNoVotes) {
  const QuantizedNApproxHog hog({}, {}, QuantizedMode::kTickAccurate);
  vision::Image img(16, 16, 0.5f);
  const auto hist = hog.cellHistogram(img, 4, 4);
  for (float v : hist) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Corelet, BitExactAgainstTickAccurateModel) {
  // The crucial substrate validation: the corelet running on the TrueNorth
  // simulator reproduces the tick-accurate software model exactly
  // (paper Sec. 3.1 reports >99.5% correlation; an exact architectural
  // simulator lets us demand equality).
  const QuantizedNApproxHog model({}, {}, QuantizedMode::kTickAccurate);
  NApproxCorelet corelet(model);
  EXPECT_EQ(corelet.coreCount(), 20);  // 5 integrate + 10 WTA + 5 histogram

  vision::SyntheticPersonDataset dataset;
  pcnn::Rng rng(11);
  for (int i = 0; i < 4; ++i) {
    const vision::Image window = dataset.positiveWindow(rng);
    for (int cy : {2, 7, 12}) {
      const auto expected = model.cellHistogram(window, 24, cy * 8);
      const auto actual = corelet.extract(window, 24, cy * 8);
      EXPECT_EQ(actual, expected) << "window " << i << " cell row " << cy;
    }
  }
}

TEST(Corelet, OrientedEdgesLandInRightBin) {
  const QuantizedNApproxHog model({}, {}, QuantizedMode::kTickAccurate);
  NApproxCorelet corelet(model);
  // Edge with gradient along +x.
  const auto img = orientedEdge(10, 0.0f);
  const auto hist = corelet.extract(img, 1, 1);
  const int best = static_cast<int>(
      std::max_element(hist.begin(), hist.end()) - hist.begin());
  EXPECT_EQ(best, 0);
}

TEST(Corelet, LastRunStatsPopulated) {
  const QuantizedNApproxHog model({}, {}, QuantizedMode::kTickAccurate);
  NApproxCorelet corelet(model);
  vision::Image img = orientedEdge(10, 0.0f);
  corelet.extract(img, 1, 1);
  EXPECT_EQ(corelet.lastRun().ticksRun, corelet.ticksPerCell());
  // A strong edge must produce activity through all three stages:
  // integration fires, WTA winners, relays, and counters.
  EXPECT_GT(corelet.lastRun().totalSpikes, 0);
  EXPECT_FALSE(corelet.lastRun().outputSpikes.empty());
}

TEST(Corelet, RejectsWrongCellSize) {
  NApproxParams params;
  params.cellSize = 16;
  const QuantizedNApproxHog model(params, {}, QuantizedMode::kTickAccurate);
  EXPECT_THROW(NApproxCorelet{model}, std::invalid_argument);
}

double sweepCorrelation(int window) {
  NApproxParams params;
  QuantizedParams quant;
  quant.spikeWindow = window;
  const NApproxHog fp;
  const QuantizedNApproxHog quantized(params, quant);
  vision::SyntheticPersonDataset dataset;
  pcnn::Rng rng(13);
  std::vector<double> a, b;
  for (int i = 0; i < 12; ++i) {
    const vision::Image win = dataset.positiveWindow(rng);
    for (int cy : {4, 8, 12}) {
      for (int cx : {8, 24, 40}) {
        const auto ha = fp.cellHistogram(win, cx, cy * 8);
        const auto hb = quantized.cellHistogram(win, cx, cy * 8);
        for (std::size_t k = 0; k < ha.size(); ++k) {
          a.push_back(ha[k]);
          b.push_back(hb[k]);
        }
      }
    }
  }
  return eval::pearsonCorrelation(a, b);
}

/// Parameterized hardware-validation sweep: the corelet must stay
/// bit-exact against its software twin at every input precision and race
/// granularity, not just the defaults.
class CoreletExactness
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CoreletExactness, BitExactAcrossQuantizations) {
  const auto [window, leak] = GetParam();
  NApproxParams params;
  QuantizedParams quant;
  quant.spikeWindow = window;
  quant.rampLeak = leak;
  const QuantizedNApproxHog model(params, quant,
                                  QuantizedMode::kTickAccurate);
  NApproxCorelet corelet(model);

  vision::SyntheticPersonDataset dataset;
  pcnn::Rng rng(97);
  const vision::Image win = dataset.positiveWindow(rng);
  for (int cy : {3, 9}) {
    const auto expected = model.cellHistogram(win, 16, cy * 8);
    const auto actual = corelet.extract(win, 16, cy * 8);
    EXPECT_EQ(actual, expected) << "window=" << window << " leak=" << leak;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Quantizations, CoreletExactness,
    ::testing::Combine(::testing::Values(16, 32, 64),
                       ::testing::Values(4, 8, 32)));

TEST(SpikeWindowSweep, QuantizedModelDegradesGracefully) {
  // Coarser input codes must lose fidelity *monotonically*, with the
  // paper's chosen 64-spike (6-bit) code staying strongly correlated with
  // the float model (the quantization study behind the NApprox design).
  // Weak-texture cells are inherently noisy under coarse input codes, so
  // the low-window correlations are small but must still improve with
  // precision.
  const double c8 = sweepCorrelation(8);
  const double c16 = sweepCorrelation(16);
  const double c32 = sweepCorrelation(32);
  const double c64 = sweepCorrelation(64);
  EXPECT_GT(c64, 0.6);
  EXPECT_GT(c64, c32 - 0.02);
  EXPECT_GT(c32, c16 - 0.02);
  EXPECT_GT(c16, c8 - 0.05);
}

}  // namespace
}  // namespace pcnn::napprox
