// Figure 6: classifier accuracy and miss rate as a function of the Parrot
// HoG input representation, swept from 32-spike stochastic coding down to
// 1-spike. "Accuracy" follows the paper's usage: performance on the
// validation set of the (auto-generated) training data -- here the
// dominant-bin accuracy of the parrot itself plus the downstream Eedn
// window classifier's accuracy; "miss rate" is the window-level miss rate
// of the Eedn classifier at the zero-score operating point.
// Expected shape (paper): graceful degradation down to a few spikes, with
// low-precision codes remaining usable (which is what makes the 192 mW
// 1-spike deployment of Table 2 viable).
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "extract/backends.hpp"
#include "extract/registry.hpp"
#include "parrot/generator.hpp"

int main() {
  using namespace pcnn;
  std::printf("=== Figure 6: Parrot input-precision sweep ===\n\n");

  const bench::BenchDataset data =
      bench::makeBenchDataset(120, 0, 0, 0, 0, 66);
  vision::SyntheticPersonDataset synth;
  Rng rng(9);
  std::vector<vision::Image> valWindows;
  std::vector<int> valLabels;
  for (int i = 0; i < 80; ++i) {
    valWindows.push_back(synth.positiveWindow(rng));
    valLabels.push_back(1);
    valWindows.push_back(synth.negativeWindow(rng));
    valLabels.push_back(-1);
  }

  // Train the parrot once with exact inputs (deployment precision is a
  // representation choice, not a retraining): registry "parrot" is the
  // exact variant, and setInputSpikes re-codes it per sweep step.
  extract::ExtractorOptions options;
  options.layout = extract::FeatureLayout::kFlatCell;
  options.seed = 2017;
  const auto extractor = extract::makeExtractor("parrot", options);
  std::printf("training parrot (exact inputs)...\n\n");
  extractor->pretrain(4000, 16, 0.005f);

  // The parrot-specific dominant-bin diagnostic needs the concrete backend.
  const auto parrotBackend =
      std::dynamic_pointer_cast<extract::ParrotBackend>(extractor);
  const parrot::OrientedSampleGenerator generator;

  std::printf("%8s  %18s  %18s  %12s\n", "spikes", "parrot bin acc",
              "classifier acc", "miss rate");
  for (int spikes : {32, 16, 8, 4, 2, 1}) {
    extractor->setInputSpikes(spikes);

    // Downstream Eedn classifier trained on features at this precision.
    eedn::EednClassifierConfig config;
    config.inputSize = 8 * 16 * 18;
    config.groupInputSize = 126;
    config.outputsPerGroup = 12;
    config.hiddenWidths = {120};
    config.outputPopulation = 8;
    config.inputScale = 1.0f / 64.0f;  // cell votes arrive as spike rates
    config.seed = 5;
    core::PartitionedPipeline pipeline(extractor, config);
    // Each window's code is a pure function of its pixels, so one copy per
    // window carries its one realization; 75 epochs keep the gradient-step
    // budget of the former three copies x 25 epochs.
    std::vector<vision::Image> windows;
    std::vector<int> labels;
    for (const auto& w : data.trainPositives) {
      windows.push_back(w);
      labels.push_back(1);
    }
    for (const auto& w : data.trainNegatives) {
      windows.push_back(w);
      labels.push_back(-1);
    }
    pipeline.trainClassifier(windows, labels, 75, 0.05f);

    int misses = 0, positives = 0;
    int correct = 0;
    for (std::size_t i = 0; i < valWindows.size(); ++i) {
      const int predicted = pipeline.predict(valWindows[i]);
      if (predicted == valLabels[i]) ++correct;
      if (valLabels[i] > 0) {
        ++positives;
        if (predicted < 0) ++misses;
      }
    }
    const double accuracy =
        static_cast<double>(correct) / static_cast<double>(valWindows.size());
    const double missRate =
        positives > 0 ? static_cast<double>(misses) / positives : 0.0;
    std::printf("%8d  %18.3f  %18.3f  %12.3f\n", spikes,
                parrotBackend->parrot().dominantBinAccuracy(generator, 250),
                accuracy, missRate);
  }
  std::printf("\nExpected shape (paper): accuracy degrades gracefully as "
              "spike precision falls. The paper reports even 1-spike coding "
              "as usable; at our (smaller) parrot and classifier scale the "
              "knee sits around 2-4 spikes -- see EXPERIMENTS.md.\n");
  return 0;
}
