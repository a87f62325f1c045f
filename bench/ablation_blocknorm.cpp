// Ablation A1: what eliding block normalization costs. Figure 4's HoG
// configurations "exploit contrast normalization over 2x2 cells in a
// block"; the Eedn experiments elide it because normalization is costly on
// TrueNorth (Sec. 5) and feed the flat cell histograms instead. This
// ablation compares exactly those two shipped layouts -- block-norm
// against flat-cell -- for the registry's float HoG and NApprox
// extractors, each scored on Figure 4's detection path (SVM with one
// hard-negative round, scene scan, log-average miss rate over FPPI).
#include <cstdio>

#include "bench_common.hpp"
#include "extract/registry.hpp"

int main() {
  using namespace pcnn;
  std::printf("=== Ablation A1: block-norm vs flat-cell features ===\n\n");
  const bench::BenchDataset data =
      bench::makeBenchDataset(120, 2, 30, 288, 224, 77);
  std::printf("%zu test scenes, %zu training windows per class\n\n",
              data.testScenes.size(), data.trainPositives.size());

  std::printf("log-average miss rate (lower is better)\n");
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
    std::printf(
        "%-28s %12.3f %12.3f\n", row.label,
        eval::logAverageMissRate(bench::runSvmDetection(blocks, data).curve),
        eval::logAverageMissRate(bench::runSvmDetection(cells, data).curve));
  }
  std::printf("\nBlock normalization is optional in Figure 1; the Eedn path "
              "feeds the flat cells (normalization is costly on "
              "TrueNorth).\n");
  return 0;
}
