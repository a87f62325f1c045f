// Ablation A1: contrast (block) normalization on/off. Figure 4's HoG
// configurations "exploit contrast normalization over 2x2 cells in a
// block"; the Eedn experiments elide it because normalization is costly on
// TrueNorth (Sec. 5). This ablation quantifies what that elision costs:
// SVM window-classification accuracy with and without L2 block
// normalization, for the float HoG and the NApprox extractor.
#include <cstdio>
#include <functional>

#include "bench_common.hpp"
#include "hog/hog.hpp"
#include "napprox/napprox.hpp"
#include "svm/linear_svm.hpp"

namespace {

double svmValAccuracy(
    const std::function<std::vector<float>(const pcnn::vision::Image&)>&
        extract,
    const pcnn::bench::BenchDataset& data,
    const std::vector<pcnn::vision::Image>& valWindows,
    const std::vector<int>& valLabels) {
  using namespace pcnn;
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (const auto& w : data.trainPositives) {
    x.push_back(extract(w));
    y.push_back(1);
  }
  for (const auto& w : data.trainNegatives) {
    x.push_back(extract(w));
    y.push_back(-1);
  }
  svm::LinearSvm model;
  model.train(x, y);
  std::vector<std::vector<float>> vx;
  for (const auto& w : valWindows) vx.push_back(extract(w));
  return model.accuracy(vx, valLabels);
}

}  // namespace

int main() {
  using namespace pcnn;
  std::printf("=== Ablation A1: L2 block normalization on/off ===\n\n");
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

  std::printf("%-28s %12s %12s\n", "extractor", "l2norm", "no norm");

  {
    hog::HogParams on;   // defaults: l2Normalize = true
    hog::HogParams off = on;
    off.l2Normalize = false;
    const hog::HogExtractor hogOn(on), hogOff(off);
    std::printf("%-28s %12.3f %12.3f\n", "classic HoG (9-bin)",
                svmValAccuracy([&](const vision::Image& w) {
                  return hogOn.windowDescriptor(w);
                }, data, valWindows, valLabels),
                svmValAccuracy([&](const vision::Image& w) {
                  return hogOff.windowDescriptor(w);
                }, data, valWindows, valLabels));
  }
  {
    napprox::NApproxParams on;  // l2Normalize = true
    napprox::NApproxParams off = on;
    off.l2Normalize = false;
    const napprox::NApproxHog hogOn(on), hogOff(off);
    std::printf("%-28s %12.3f %12.3f\n", "NApprox (18-bin count)",
                svmValAccuracy([&](const vision::Image& w) {
                  return hogOn.windowDescriptor(w);
                }, data, valWindows, valLabels),
                svmValAccuracy([&](const vision::Image& w) {
                  return hogOff.windowDescriptor(w);
                }, data, valWindows, valLabels));
  }
  std::printf("\nBlock normalization is optional in Figure 1; the Eedn path "
              "elides it (costly on TrueNorth) at a modest accuracy cost.\n");
  return 0;
}
