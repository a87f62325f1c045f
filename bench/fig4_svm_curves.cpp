// Figure 4: miss-rate / false-positive curves with SVM classifiers for the
// three feature extractors -- FPGA-HoG (9-bin weighted voting, fixed-point),
// NApprox(fp) (18-bin count voting, float), and NApprox (TrueNorth-
// compatible reduced precision). All use 2x2-cell L2 block normalization.
// Expected shape (paper): the three curves nearly coincide -- all three
// extractors produce similar-quality features.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "extract/registry.hpp"

namespace {

void runSpec(const std::string& spec, const pcnn::bench::BenchDataset& data) {
  using namespace pcnn;
  const auto extractor =
      extract::makeExtractor(spec, extract::FeatureLayout::kBlockNorm);
  const bench::SvmDetectionRun run = bench::runSvmDetection(extractor, data);
  const auto info = extractor->info();
  std::printf("[%s] %s, %d bins; mined %d hard negatives, train accuracy "
              "%.3f\n",
              spec.c_str(), info.precision.c_str(), extractor->bins(),
              run.mining.minedNegatives, run.mining.finalTrainAccuracy);
  bench::printCurve("miss rate vs FPPI (" + spec + ")", run.curve);
}

}  // namespace

int main() {
  using namespace pcnn;
  std::printf("=== Figure 4: SVM classifiers on FPGA-HoG / NApprox(fp) / "
              "NApprox ===\n\n");
  const bench::BenchDataset data =
      bench::makeBenchDataset(120, 2, 10, 288, 224, 44);

  // Fig. 4's three extractors, as registry specs: the fixed-point FPGA
  // baseline, float NApprox, and TrueNorth-quantized NApprox (64-spike
  // rate-coded inputs). All share the block-normalized SVM feature layout.
  for (const std::string spec :
       {"fixedpoint", "napprox", "napprox:64spike"}) {
    runSpec(spec, data);
  }

  std::printf("Expected shape (paper): the three curves nearly coincide.\n");
  return 0;
}
