// End-to-end integration tests crossing module boundaries: extractor ->
// classifier -> detector -> evaluation, exercising the pipelines that the
// Figure 4 / Figure 5 benches sweep at larger scale.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "core/detector.hpp"
#include "core/pipeline.hpp"
#include "eedn/mapper.hpp"
#include "eval/detection_eval.hpp"
#include "eval/stats.hpp"
#include "extract/registry.hpp"
#include "io/io.hpp"
#include "svm/linear_svm.hpp"
#include "svm/mining.hpp"
#include "vision/synth.hpp"

namespace pcnn {
namespace {

struct Dataset {
  std::vector<vision::Image> positives;
  std::vector<vision::Image> negatives;
  std::vector<vision::Scene> testScenes;
};

Dataset makeDataset(int trainCount, int sceneCount, std::uint64_t seed) {
  Dataset data;
  vision::SyntheticPersonDataset synth;
  Rng rng(seed);
  for (int i = 0; i < trainCount; ++i) {
    data.positives.push_back(synth.positiveWindow(rng));
    data.negatives.push_back(synth.negativeWindow(rng));
  }
  for (int i = 0; i < sceneCount; ++i) {
    data.testScenes.push_back(synth.scene(rng, 256, 256, 1, 96, 140));
  }
  return data;
}

TEST(Integration, SvmOnHogSeparatesSyntheticPeople) {
  const Dataset data = makeDataset(80, 0, 1);
  // Classic 9-bin HoG.
  const auto extractor =
      extract::makeExtractor("hog", extract::FeatureLayout::kBlockNorm);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (const auto& w : data.positives) {
    x.push_back(extractor->windowFeatures(w));
    y.push_back(1);
  }
  for (const auto& w : data.negatives) {
    x.push_back(extractor->windowFeatures(w));
    y.push_back(-1);
  }
  svm::LinearSvm model;
  model.train(x, y);
  EXPECT_GT(model.accuracy(x, y), 0.95);

  // Held-out windows.
  vision::SyntheticPersonDataset synth;
  Rng rng(555);
  int correct = 0;
  const int trials = 40;
  for (int i = 0; i < trials; ++i) {
    const bool positive = i % 2 == 0;
    const vision::Image w =
        positive ? synth.positiveWindow(rng) : synth.negativeWindow(rng);
    if (model.predict(extractor->windowFeatures(w)) == (positive ? 1 : -1)) {
      ++correct;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / trials, 0.75);
}

TEST(Integration, NApproxFeaturesMatchSvmQuality) {
  // NApprox(fp) features should be roughly as separable as classic HoG
  // (the Figure 4 claim, in miniature).
  const Dataset data = makeDataset(60, 0, 2);
  const auto napproxHog =
      extract::makeExtractor("napprox", extract::FeatureLayout::kBlockNorm);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (const auto& w : data.positives) {
    x.push_back(napproxHog->windowFeatures(w));
    y.push_back(1);
  }
  for (const auto& w : data.negatives) {
    x.push_back(napproxHog->windowFeatures(w));
    y.push_back(-1);
  }
  svm::LinearSvm model;
  model.train(x, y);
  EXPECT_GT(model.accuracy(x, y), 0.9);
}

TEST(Integration, DetectorFindsScenePeopleWithSvm) {
  const Dataset data = makeDataset(70, 3, 3);
  const auto featureHog =
      extract::makeExtractor("napprox", extract::FeatureLayout::kFlatCell);

  // Train an SVM on flat cell features (cheap assembly in the detector).
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (const auto& w : data.positives) {
    x.push_back(featureHog->windowFeatures(w));
    y.push_back(1);
  }
  for (const auto& w : data.negatives) {
    x.push_back(featureHog->windowFeatures(w));
    y.push_back(-1);
  }
  svm::LinearSvm model;
  model.train(x, y);

  core::GridDetectorParams params;
  params.scoreThreshold = 0.0f;
  core::GridDetector detector(
      params, featureHog, [&model](const std::vector<float>& f) {
        return static_cast<float>(model.decision(f));
      });

  std::vector<eval::ImageResult> results;
  for (const auto& scene : data.testScenes) {
    eval::ImageResult r;
    r.detections = detector.detect(scene.image);
    r.groundTruth = scene.groundTruth;
    results.push_back(std::move(r));
  }
  const eval::Counts counts = eval::evaluateAtThreshold(results, 0.0f, 0.5f);
  // At least some people found across the scenes.
  EXPECT_GT(counts.truePositives, 0);
}

TEST(Integration, MissRateCurveImprovesWithBetterScores) {
  // Sanity link between classifier quality and the evaluation curve: a
  // random scorer yields a worse log-average miss rate than the SVM.
  const Dataset data = makeDataset(60, 2, 4);
  const auto featureHog =
      extract::makeExtractor("napprox", extract::FeatureLayout::kFlatCell);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (const auto& w : data.positives) {
    x.push_back(featureHog->windowFeatures(w));
    y.push_back(1);
  }
  for (const auto& w : data.negatives) {
    x.push_back(featureHog->windowFeatures(w));
    y.push_back(-1);
  }
  svm::LinearSvm model;
  model.train(x, y);

  auto makeResults = [&](bool random) {
    core::GridDetectorParams params;
    params.scoreThreshold = -1e9f;
    // The detector scores windows on pool threads, so the random score is
    // a pure function of the window's features, not one shared Rng.
    core::GridDetector detector(
        params, featureHog, [&](const std::vector<float>& f) {
          if (!random) return static_cast<float>(model.decision(f));
          const std::string bytes(reinterpret_cast<const char*>(f.data()),
                                  f.size() * sizeof(float));
          return static_cast<float>(Rng(io::fnv1a64(bytes)).uniform(-1, 1));
        });
    std::vector<eval::ImageResult> results;
    for (const auto& scene : data.testScenes) {
      eval::ImageResult r;
      r.detections = detector.detect(scene.image);
      r.groundTruth = scene.groundTruth;
      results.push_back(std::move(r));
    }
    return results;
  };

  const float svmLamr =
      eval::logAverageMissRate(eval::missRateCurve(makeResults(false)));
  const float randomLamr =
      eval::logAverageMissRate(eval::missRateCurve(makeResults(true)));
  EXPECT_LE(svmLamr, randomLamr + 1e-6f);
}

TEST(Integration, TrainedClassifierRunsOnTrueNorthSimulator) {
  // The paper's systems story end-to-end: train an Eedn classifier on
  // (binarized) NApprox features, deploy it onto the neurosynaptic
  // simulator with the mapper, and verify the on-chip classification
  // matches the reference semantics spike for spike.
  vision::SyntheticPersonDataset synth;
  Rng rng(31);
  const auto featureHog =
      extract::makeExtractor("napprox", extract::FeatureLayout::kFlatCell);

  // Binarize cell features (vote count >= 4) so the deployed network
  // consumes single-tick binary inputs; restrict to the first 120 feature
  // dims to keep the mapped fan-in within one core for this test.
  auto binaryFeatures = [&](const vision::Image& w) {
    const auto counts = featureHog->windowFeatures(w);
    std::vector<float> bits(120);
    for (int i = 0; i < 120; ++i) bits[i] = counts[i] >= 4.0f ? 1.0f : 0.0f;
    return bits;
  };

  eedn::EednClassifierConfig config;
  config.inputSize = 120;
  config.groupInputSize = 120;
  config.outputsPerGroup = 16;
  config.hiddenWidths = {};
  config.outputPopulation = 8;
  config.seed = 9;
  eedn::EednClassifier classifier(config);

  eedn::BinaryDataset data;
  for (int i = 0; i < 60; ++i) {
    data.features.push_back(binaryFeatures(synth.positiveWindow(rng)));
    data.labels.push_back(1);
    data.features.push_back(binaryFeatures(synth.negativeWindow(rng)));
    data.labels.push_back(-1);
  }
  for (int epoch = 0; epoch < 25; ++epoch) {
    classifier.trainEpoch(data, 0.05f);
  }

  auto mapped = eedn::TnMapper::map(classifier.net());
  int simMatchesReference = 0;
  int simAgreesWithFloat = 0;
  const int probes = 30;
  for (int i = 0; i < probes; ++i) {
    std::vector<int> bits(120);
    for (int d = 0; d < 120; ++d) {
      bits[d] = data.features[i][d] > 0.5f ? 1 : 0;
    }
    const auto simOut = mapped->forwardSpikes(bits);
    if (simOut == mapped->referenceForward(bits)) ++simMatchesReference;

    // Population vote on simulator spikes vs the float classifier's sign.
    int person = 0, background = 0;
    for (int p = 0; p < config.outputPopulation; ++p) {
      background += simOut[p];
      person += simOut[config.outputPopulation + p];
    }
    const int simPrediction = person >= background ? 1 : -1;
    if (simPrediction == classifier.predict(data.features[i])) {
      ++simAgreesWithFloat;
    }
  }
  EXPECT_EQ(simMatchesReference, probes);  // simulator == integer reference
  // Bias rounding can flip borderline population votes; demand strong but
  // not perfect agreement with the float-bias network.
  EXPECT_GE(simAgreesWithFloat, probes * 3 / 4);
}

TEST(Integration, HardNegativeMiningReducesSceneFalsePositives) {
  vision::SyntheticPersonDataset synth;
  Rng rng(11);
  std::vector<vision::Image> pos, neg, negScenes;
  for (int i = 0; i < 50; ++i) {
    pos.push_back(synth.positiveWindow(rng));
    neg.push_back(synth.negativeWindow(rng));
  }
  // Person-free scenes, each with a person-like decoy pasted on a
  // cell-aligned scan position (cell 4, 4 of the full-resolution level).
  const int decoyX = 32, decoyY = 32;
  for (int i = 0; i < 2; ++i) {
    vision::Image scene = synth.scene(rng, 192, 192, 0).image;
    const vision::Image decoy = synth.positiveWindow(rng);
    for (int y = 0; y < decoy.height(); ++y) {
      for (int x = 0; x < decoy.width(); ++x) {
        scene.at(decoyX + x, decoyY + y) = decoy.at(x, y);
      }
    }
    negScenes.push_back(std::move(scene));
  }
  const auto extractor =
      extract::makeExtractor("hog", extract::FeatureLayout::kBlockNorm);
  svm::MiningParams params;
  params.scan.strideX = 16;
  params.scan.strideY = 16;
  params.scan.pyramid.maxLevels = 2;

  svm::LinearSvm baseline;
  svm::MiningParams noMining = params;
  noMining.rounds = 0;
  trainWithHardNegatives(baseline, *extractor, pos, neg, negScenes, noMining);

  svm::LinearSvm model;
  const auto result =
      trainWithHardNegatives(model, *extractor, pos, neg, negScenes, params);
  EXPECT_GT(result.minedNegatives, 0);
  EXPECT_GT(result.finalTrainAccuracy, 0.9);

  // The decoy window is one of the mined false positives: retraining must
  // push its score down.
  const std::vector<float> decoyFeatures = extractor->windowFromGrid(
      extractor->cellGrid(negScenes[0]), decoyX / 8, decoyY / 8);
  EXPECT_LT(model.decision(decoyFeatures), baseline.decision(decoyFeatures));
}

}  // namespace
}  // namespace pcnn
