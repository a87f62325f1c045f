// Ablation A1: what eliding block normalization costs. Figure 4's HoG
// configurations "exploit contrast normalization over 2x2 cells in a
// block"; the Eedn experiments elide it because normalization is costly on
// TrueNorth (Sec. 5) and feed the flat cell histograms instead. This
// ablation compares exactly those two shipped layouts -- block-norm
// against flat-cell -- by SVM window-classification accuracy, for the
// registry's float HoG and NApprox extractors.
#include <cstdio>

#include "bench_common.hpp"
#include "extract/registry.hpp"
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
  std::printf("=== Ablation A1: block-norm vs flat-cell features ===\n\n");
  const bench::BenchDataset data = bench::makeBenchDataset(140, 0, 0, 0, 0, 77);
  vision::SyntheticPersonDataset synth;
  Rng rng(17);
  std::vector<vision::Image> valWindows;
  std::vector<int> valLabels;
  for (int i = 0; i < 100; ++i) {
    valWindows.push_back(synth.positiveWindow(rng));
    valLabels.push_back(1);
    valWindows.push_back(synth.negativeWindow(rng));
    valLabels.push_back(-1);
  }

  std::printf("%-28s %12s %12s\n", "extractor", "block-norm", "flat-cell");
  const struct {
    const char* spec;
    const char* label;
  } rows[] = {{"hog", "classic HoG (9-bin)"},
              {"napprox", "NApprox (18-bin count)"}};
  for (const auto& row : rows) {
    const auto blocks =
        extract::makeExtractor(row.spec, extract::FeatureLayout::kBlockNorm);
    const auto cells =
        extract::makeExtractor(row.spec, extract::FeatureLayout::kFlatCell);
    std::printf("%-28s %12.3f %12.3f\n", row.label,
                svmValAccuracy(*blocks, data, valWindows, valLabels),
                svmValAccuracy(*cells, data, valWindows, valLabels));
  }
  std::printf("\nBlock normalization is optional in Figure 1; the Eedn path "
              "feeds the flat cells (normalization is costly on "
              "TrueNorth).\n");
  return 0;
}
