// Ablation A2: histogram design choices separating classic HoG from the
// NApprox remapping (Table 1's last row): voting by magnitude vs by count,
// and 9 unsigned vs 18 signed orientation bins. Reported as SVM validation
// accuracy per configuration.
#include <cstdio>

#include "bench_common.hpp"
#include "extract/backends.hpp"
#include "svm/linear_svm.hpp"

namespace {

double svmValAccuracy(pcnn::extract::FeatureExtractor& extractor,
                      const pcnn::bench::BenchDataset& data,
                      const std::vector<pcnn::vision::Image>& valWindows,
                      const std::vector<int>& valLabels) {
  using namespace pcnn;
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (const auto& w : data.trainPositives) {
    x.push_back(extractor.windowFeatures(w));
    y.push_back(1);
  }
  for (const auto& w : data.trainNegatives) {
    x.push_back(extractor.windowFeatures(w));
    y.push_back(-1);
  }
  svm::LinearSvm model;
  model.train(x, y);
  std::vector<std::vector<float>> vx;
  for (const auto& w : valWindows) vx.push_back(extractor.windowFeatures(w));
  return model.accuracy(vx, valLabels);
}

}  // namespace

int main() {
  using namespace pcnn;
  std::printf("=== Ablation A2: histogram voting and bin layout ===\n\n");
  const bench::BenchDataset data = bench::makeBenchDataset(140, 0, 0, 0, 0, 88);
  vision::SyntheticPersonDataset synth;
  Rng rng(19);
  std::vector<vision::Image> valWindows;
  std::vector<int> valLabels;
  for (int i = 0; i < 100; ++i) {
    valWindows.push_back(synth.positiveWindow(rng));
    valLabels.push_back(1);
    valWindows.push_back(synth.negativeWindow(rng));
    valLabels.push_back(-1);
  }

  struct Config {
    const char* name;
    int bins;
    bool signedOrientation;
    bool weighted;
    bool bilinear;
  };
  const Config configs[] = {
      {"9 bins, weighted, bilinear (classic)", 9, false, true, true},
      {"9 bins, weighted, no interp", 9, false, true, false},
      {"9 bins, count, no interp", 9, false, false, false},
      {"18 bins, weighted, bilinear", 18, true, true, true},
      {"18 bins, count, no interp (NApprox-like)", 18, true, false, false},
  };

  std::printf("%-42s %12s\n", "configuration", "val accuracy");
  for (const Config& c : configs) {
    hog::HogParams params;
    params.numBins = c.bins;
    params.signedOrientation = c.signedOrientation;
    params.weightedVote = c.weighted;
    params.bilinearBinning = c.bilinear;
    extract::HogBackend extractor("hog", extract::FeatureLayout::kBlockNorm,
                                  params);
    std::printf("%-42s %12.3f\n", c.name,
                svmValAccuracy(extractor, data, valWindows, valLabels));
  }
  std::printf("\nExpected: count voting and dropped interpolation (the "
              "TrueNorth-friendly choices) cost little accuracy -- the basis "
              "of the paper's claim that NApprox features match classic "
              "HoG quality.\n");
  return 0;
}
