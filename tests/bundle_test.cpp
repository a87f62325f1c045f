// Tests for the shared binary I/O layer (io::Writer/io::Reader), the
// io::Bundle container, extractor state serialization, and the
// bundle-backed pipeline reload path: a pipeline trained once and saved
// must reload in a fresh object with bitwise-identical scores, at any
// thread count, with no retraining.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "eedn/serialize.hpp"
#include "eedn/trinary.hpp"
#include "extract/registry.hpp"
#include "io/bundle.hpp"
#include "io/io.hpp"
#include "nn/sequential.hpp"
#include "svm/serialize.hpp"
#include "tn/model_io.hpp"
#include "vision/image.hpp"

namespace pcnn {
namespace {

// --- io::Writer / io::Reader ---------------------------------------------

TEST(Io, PrimitiveRoundTripIsBitwise) {
  std::ostringstream out;
  io::Writer w(out);
  ASSERT_TRUE(w.header("TEST", 3).ok());
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(std::uint64_t{1} << 60);
  w.i32(-123456789);
  w.f32(0.1f);  // not exactly representable: bit pattern must survive
  w.f64(-2.718281828459045);
  w.str("chunky bacon");
  ASSERT_TRUE(w.status().ok());

  std::istringstream in(out.str());
  io::Reader r(in);
  std::uint32_t version = 0;
  ASSERT_TRUE(r.header("TEST", 3, &version).ok());
  EXPECT_EQ(version, 3u);
  std::uint8_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
  std::int32_t d = 0;
  float e = 0.0f;
  double f = 0.0;
  std::string s;
  r.u8(a);
  r.u32(b);
  r.u64(c);
  r.i32(d);
  r.f32(e);
  r.f64(f);
  r.str(s);
  ASSERT_TRUE(r.status().ok());
  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, std::uint64_t{1} << 60);
  EXPECT_EQ(d, -123456789);
  EXPECT_EQ(e, 0.1f);
  EXPECT_EQ(f, -2.718281828459045);
  EXPECT_EQ(s, "chunky bacon");
}

TEST(Io, WriterStatusIsSticky) {
  std::ostringstream out;
  out.setstate(std::ios::badbit);
  io::Writer w(out);
  const Status first = w.u32(1);
  EXPECT_FALSE(first.ok());
  // Later calls no-op and return the latched error.
  const Status second = w.f32(2.0f);
  EXPECT_EQ(second.code(), first.code());
  EXPECT_EQ(w.status().code(), first.code());
}

TEST(Io, ReaderStatusIsSticky) {
  std::istringstream in("");  // empty: every read fails
  io::Reader r(in);
  std::uint32_t v = 0;
  EXPECT_FALSE(r.u32(v).ok());
  std::uint8_t b = 0;
  EXPECT_EQ(r.u8(b).code(), r.status().code());
  EXPECT_FALSE(r.status().ok());
}

TEST(Io, BadMagicIsDataLoss) {
  std::ostringstream out;
  io::Writer w(out);
  ASSERT_TRUE(w.header("TEST", 1).ok());
  std::istringstream in(out.str());
  io::Reader r(in);
  EXPECT_EQ(r.header("NOPE", 1).code(), StatusCode::kDataLoss);
}

TEST(Io, NewerVersionIsOutOfRange) {
  std::ostringstream out;
  io::Writer w(out);
  ASSERT_TRUE(w.header("TEST", 7).ok());
  std::istringstream in(out.str());
  io::Reader r(in);
  EXPECT_EQ(r.header("TEST", 2).code(), StatusCode::kOutOfRange);
}

TEST(Io, ChunkIterationDistinguishesCleanEnd) {
  std::ostringstream out;
  io::Writer w(out);
  w.header("TEST", 1);
  w.chunk("AAAA", "first");
  w.chunk("BBBB", std::string("\x00\xff\x7f", 3));  // binary-safe payload
  ASSERT_TRUE(w.status().ok());

  std::istringstream in(out.str());
  io::Reader r(in);
  ASSERT_TRUE(r.header("TEST", 1).ok());
  io::Reader::Chunk chunk;
  bool end = false;
  ASSERT_TRUE(r.nextChunk(chunk, end).ok());
  ASSERT_FALSE(end);
  EXPECT_EQ(chunk.tag, "AAAA");
  EXPECT_EQ(chunk.payload, "first");
  ASSERT_TRUE(r.nextChunk(chunk, end).ok());
  ASSERT_FALSE(end);
  EXPECT_EQ(chunk.tag, "BBBB");
  EXPECT_EQ(chunk.payload, std::string("\x00\xff\x7f", 3));
  ASSERT_TRUE(r.nextChunk(chunk, end).ok());
  EXPECT_TRUE(end);
}

TEST(Io, OversizedDeclaredChunkLengthIsOutOfRange) {
  // A corrupt length field must be rejected before it drives an
  // allocation: declare kMaxChunkBytes + 1 with no payload behind it.
  std::ostringstream out;
  io::Writer w(out);
  w.header("TEST", 1);
  w.bytes("HUGE", 4);
  w.u64(io::kMaxChunkBytes + 1);
  ASSERT_TRUE(w.status().ok());

  std::istringstream in(out.str());
  io::Reader r(in);
  ASSERT_TRUE(r.header("TEST", 1).ok());
  io::Reader::Chunk chunk;
  bool end = false;
  EXPECT_EQ(r.nextChunk(chunk, end).code(), StatusCode::kOutOfRange);
}

TEST(Io, TruncatedChunkPayloadIsDataLoss) {
  std::ostringstream out;
  io::Writer w(out);
  w.header("TEST", 1);
  w.bytes("TRNC", 4);
  w.u64(100);  // declares 100 bytes ...
  w.bytes("short", 5);  // ... delivers 5
  ASSERT_TRUE(w.status().ok());

  std::istringstream in(out.str());
  io::Reader r(in);
  ASSERT_TRUE(r.header("TEST", 1).ok());
  io::Reader::Chunk chunk;
  bool end = false;
  EXPECT_EQ(r.nextChunk(chunk, end).code(), StatusCode::kDataLoss);
}

TEST(Io, TornChunkHeaderIsDataLoss) {
  // Two bytes of a tag and then end of stream: not a clean end.
  std::ostringstream out;
  io::Writer w(out);
  w.header("TEST", 1);
  w.bytes("AB", 2);
  ASSERT_TRUE(w.status().ok());

  std::istringstream in(out.str());
  io::Reader r(in);
  ASSERT_TRUE(r.header("TEST", 1).ok());
  io::Reader::Chunk chunk;
  bool end = false;
  EXPECT_EQ(r.nextChunk(chunk, end).code(), StatusCode::kDataLoss);
  EXPECT_FALSE(end);
}

TEST(Io, Fnv1a64IsDeterministicAndHexRenders) {
  const std::uint64_t h1 = io::fnv1a64("partitioned");
  EXPECT_EQ(h1, io::fnv1a64("partitioned"));
  EXPECT_NE(h1, io::fnv1a64("Partitioned"));
  EXPECT_EQ(io::hashHex(h1).size(), 16u);
  EXPECT_EQ(io::hashHex(0), "0000000000000000");
}

// --- io::Bundle -----------------------------------------------------------

TEST(Bundle, RoundTripPreservesManifestAndChunksBitwise) {
  io::Bundle bundle;
  bundle.manifest().set(io::keys::kSpec, "parrot:4spike");
  bundle.manifest().set("custom_key", "custom value with spaces");
  bundle.setChunk(io::chunks::kSvmModel, std::string("\x00\x01\xfe\xff", 4));
  bundle.setChunk("zz_last", "payload");

  std::ostringstream out;
  ASSERT_TRUE(bundle.trySave(out).ok());

  std::istringstream in(out.str());
  StatusOr<io::Bundle> loaded = io::Bundle::tryLoad(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
  EXPECT_EQ(loaded.value().manifest().get(io::keys::kSpec), "parrot:4spike");
  EXPECT_EQ(loaded.value().manifest().get("custom_key"),
            "custom value with spaces");
  const std::string* svm = loaded.value().chunk(io::chunks::kSvmModel);
  ASSERT_NE(svm, nullptr);
  EXPECT_EQ(*svm, std::string("\x00\x01\xfe\xff", 4));
  EXPECT_TRUE(loaded.value().hasChunk("zz_last"));
  // The save stamped the content hash; the loaded copy must verify.
  EXPECT_TRUE(loaded.value().verifyContentHash().ok());
  EXPECT_EQ(loaded.value().contentHash(), bundle.contentHash());
}

TEST(Bundle, TamperedChunkFailsHashVerification) {
  io::Bundle bundle;
  bundle.setChunk("weights", "original bytes");
  std::ostringstream out;
  ASSERT_TRUE(bundle.trySave(out).ok());
  std::istringstream in(out.str());
  StatusOr<io::Bundle> loaded = io::Bundle::tryLoad(in);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().verifyContentHash().ok());
  loaded.value().setChunk("weights", "tampered bytes");
  EXPECT_EQ(loaded.value().verifyContentHash().code(), StatusCode::kDataLoss);
}

TEST(Bundle, UnrecordedHashIsFailedPrecondition) {
  io::Bundle bundle;
  bundle.setChunk("weights", "bytes");
  EXPECT_EQ(bundle.verifyContentHash().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Bundle, TruncatedFileIsDataLoss) {
  io::Bundle bundle;
  bundle.manifest().set(io::keys::kSpec, "hog");
  bundle.setChunk("weights", std::string(256, 'x'));
  std::ostringstream out;
  ASSERT_TRUE(bundle.trySave(out).ok());
  const std::string bytes = out.str();
  std::istringstream truncated(bytes.substr(0, bytes.size() / 2));
  StatusOr<io::Bundle> loaded = io::Bundle::tryLoad(truncated);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(Bundle, BadMagicIsDataLoss) {
  std::istringstream in("XXXXnot a bundle at all");
  StatusOr<io::Bundle> loaded = io::Bundle::tryLoad(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(Bundle, ManifestTypedAccessors) {
  io::Manifest manifest;
  manifest.set("count", "42");
  manifest.set("rate", "0.5");
  manifest.set("junk", "not-a-number");
  EXPECT_EQ(manifest.getInt("count").value(), 42);
  EXPECT_DOUBLE_EQ(manifest.getFloat("rate").value(), 0.5);
  EXPECT_EQ(manifest.getInt("absent").status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(manifest.getInt("junk").status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(manifest.get("absent", "fallback"), "fallback");
  EXPECT_EQ(manifest.find("absent"), nullptr);
}

TEST(Bundle, ManifestIntegersAreRangeCheckedBeforeNarrowing) {
  io::Manifest manifest;
  manifest.set("wide", "4294967304");  // 2^32 + 8
  manifest.set("huge", "99999999999999999999999");
  manifest.set("negative", "-1");
  manifest.set("seed", "17293822569102704641");  // 0xF000000000000001
  EXPECT_EQ(manifest.getInt("wide").status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(manifest.getInt("huge").status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(manifest.getInt("negative", 0, 10).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(manifest.getUint64("seed").value(), 0xF000000000000001ull);
  EXPECT_EQ(manifest.getUint64("negative").status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(manifest.getUint64("huge").status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(manifest.getUint64("absent").status().code(),
            StatusCode::kDataLoss);
}

TEST(Bundle, ExtractorManifestRejectsWrappedCellCount) {
  io::Manifest manifest;
  extract::recordExtractorManifest(manifest, "hog", {});
  manifest.set(io::keys::kWindowCellsX, "4294967304");  // would wrap to 8
  EXPECT_EQ(extract::extractorOptionsFromManifest(manifest).status().code(),
            StatusCode::kOutOfRange);
}

TEST(Bundle, ExtractorSeedSurvivesTheManifestAt64Bits) {
  extract::ExtractorOptions options;
  options.seed = 0xF000000000000001ull;
  io::Manifest manifest;
  extract::recordExtractorManifest(manifest, "parrot:4spike", options);
  StatusOr<extract::ExtractorOptions> loaded =
      extract::extractorOptionsFromManifest(manifest);
  ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
  EXPECT_EQ(loaded.value().seed, options.seed);
}

TEST(Bundle, UnopenablePathIsUnavailable) {
  const std::string path = "/nonexistent-pcnn-dir/bundle.pcnb";
  io::Bundle bundle;
  EXPECT_EQ(bundle.trySaveFile(path).code(), StatusCode::kUnavailable);
  EXPECT_EQ(io::Bundle::tryLoadFile(path).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(io::Bundle::tryLoadManifestFile(path).status().code(),
            StatusCode::kUnavailable);
}

TEST(Bundle, WriteThatFailsOnFlushIsDataLoss) {
  // /dev/full opens but fails every write; the bytes sit in the stream
  // buffer until the flush, so only a flushing save can see the loss.
  if (!std::ofstream("/dev/full")) GTEST_SKIP() << "no /dev/full";
  io::Bundle bundle;
  bundle.setChunk("payload", "bytes");
  EXPECT_EQ(bundle.trySaveFile("/dev/full").code(), StatusCode::kDataLoss);
}

// --- Only the v2 binary formats load --------------------------------------

// The retired v1 whitespace-text formats fail the binary header like any
// other foreign stream: kDataLoss naming the expected magic.

TEST(FormatCompat, SvmV1TextIsDataLoss) {
  std::istringstream in("pcnn-svm-v1 2\n1.0 1.0\n0.5\n0.25 -0.75\n");
  const StatusOr<svm::LinearSvm> loaded = svm::tryLoadModel(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("bad magic (expected PSVM)"),
            std::string::npos)
      << loaded.status().toString();
}

TEST(FormatCompat, TnV1TextIsDataLoss) {
  std::istringstream in("pcnn-tn-v1 1\ncore 0\nconn 0 2 3 5\nendcore\n");
  const StatusOr<std::unique_ptr<tn::Network>> loaded = tn::tryLoadModel(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("bad magic (expected PTNM)"),
            std::string::npos)
      << loaded.status().toString();
}

TEST(FormatCompat, EednV1TextIsDataLoss) {
  pcnn::Rng rng(11);
  nn::Sequential net;
  net.add(std::make_unique<eedn::TrinaryDense>(2, 1, rng));
  const auto& layer = dynamic_cast<eedn::TrinaryDense&>(net.layer(0));
  const std::vector<float> weightsBefore = layer.hiddenWeights();
  std::istringstream in("pcnn-eedn-v1 1\nTrinaryDense 2 1\n0.5 -0.5\n0.25\n");
  const Status status = eedn::tryLoadNetwork(net, in);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("bad magic (expected PEDN)"),
            std::string::npos)
      << status.toString();
  // Rejected at the header: no layer was touched.
  EXPECT_EQ(layer.hiddenWeights(), weightsBefore);
}

TEST(FormatCompat, UnknownChunksAreSkipped) {
  // A v2 SVM stream carrying a chunk from the future: the loader must
  // skip it and find SVMW behind it (forward compatibility).
  std::ostringstream payload;
  io::Writer pw(payload);
  pw.u64(1);      // dim
  pw.f64(1.0);    // C
  pw.f64(1.0);    // biasScale
  pw.f64(0.5);    // bias
  pw.f64(2.0);    // weight
  ASSERT_TRUE(pw.status().ok());

  std::ostringstream out;
  io::Writer w(out);
  w.header("PSVM", 2);
  w.chunk("ZZZZ", "from a future format revision");
  w.chunk("SVMW", payload.str());
  ASSERT_TRUE(w.status().ok());

  std::istringstream in(out.str());
  StatusOr<svm::LinearSvm> loaded = svm::tryLoadModel(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
  EXPECT_DOUBLE_EQ(loaded.value().weights()[0], 2.0);
}

// --- extractor state ------------------------------------------------------

extract::ExtractorOptions tinyOptions(std::uint64_t seed = 21) {
  extract::ExtractorOptions options;
  options.windowCellsX = 4;  // 32x32-pixel windows: fast to extract
  options.windowCellsY = 4;
  options.seed = seed;
  return options;
}

TEST(ExtractorState, FixedFunctionRoundTrip) {
  auto& registry = extract::ExtractorRegistry::instance();
  auto hog = registry.create("hog", tinyOptions());
  EXPECT_FALSE(hog->hasTrainedState());
  std::stringstream state;
  ASSERT_TRUE(hog->trySaveState(state).ok());
  auto fresh = registry.create("hog", tinyOptions());
  EXPECT_TRUE(fresh->tryLoadState(state).ok());
}

TEST(ExtractorState, NameMismatchIsFailedPrecondition) {
  auto& registry = extract::ExtractorRegistry::instance();
  auto hog = registry.create("hog", tinyOptions());
  std::stringstream state;
  ASSERT_TRUE(hog->trySaveState(state).ok());
  auto other = registry.create("fixedpoint", tinyOptions());
  const Status status = other->tryLoadState(state);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ExtractorState, GeometryMismatchIsFailedPrecondition) {
  auto& registry = extract::ExtractorRegistry::instance();
  auto small = registry.create("hog", tinyOptions());
  std::stringstream state;
  ASSERT_TRUE(small->trySaveState(state).ok());
  auto big = registry.create("hog");  // default 8x16-cell window
  const Status status = big->tryLoadState(state);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ExtractorState, ParrotStateTransfersTrainedWeights) {
  auto& registry = extract::ExtractorRegistry::instance();
  auto trained = registry.create("parrot:exact", tinyOptions(21));
  EXPECT_TRUE(trained->hasTrainedState());
  trained->pretrain(300, 2, 0.01f);
  std::stringstream state;
  ASSERT_TRUE(trained->trySaveState(state).ok());

  // The target is constructed with a *different* RNG seed, so its initial
  // weights differ from the source's: feature equality below can only come
  // from the state transfer, not from identical initialization.
  auto target = registry.create("parrot:exact", tinyOptions(99));
  ASSERT_TRUE(target->tryLoadState(state).ok());

  vision::Image window(32, 32, 0.3f);
  for (int y = 8; y < 24; ++y) {
    for (int x = 12; x < 20; ++x) window.at(x, y) = 0.9f;
  }
  EXPECT_EQ(trained->windowFeatures(window), target->windowFeatures(window));
}

TEST(ExtractorState, NApproxRoundTripAndQuantizationMismatch) {
  auto& registry = extract::ExtractorRegistry::instance();
  auto coded = registry.create("napprox:4spike", tinyOptions());
  std::stringstream state;
  ASSERT_TRUE(coded->trySaveState(state).ok());

  auto same = registry.create("napprox:4spike", tinyOptions());
  EXPECT_TRUE(same->tryLoadState(state).ok());

  // A different quantization point is a different deployment artifact.
  std::stringstream replay(state.str());
  auto other = registry.create("napprox:64spike", tinyOptions());
  EXPECT_EQ(other->tryLoadState(replay).code(),
            StatusCode::kFailedPrecondition);
}

// --- pipeline bundles: train once, reload by name, score bitwise ----------

std::vector<vision::Image> makeTinyWindows(int count, std::uint64_t seed) {
  pcnn::Rng rng(seed);
  std::vector<vision::Image> windows;
  windows.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    vision::Image img(32, 32, 0.2f);
    if (i % 2 == 0) {  // "positive": bright vertical bar
      for (int y = 8; y < 24; ++y) {
        for (int x = 12; x < 20; ++x) img.at(x, y) = 0.9f;
      }
    }
    for (float& v : img.data()) {
      v += 0.05f * static_cast<float>(rng.normal());
    }
    windows.push_back(std::move(img));
  }
  return windows;
}

std::vector<int> alternatingLabels(int count) {
  std::vector<int> labels(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) labels[static_cast<std::size_t>(i)] =
      i % 2 == 0 ? 1 : -1;
  return labels;
}

std::string bundlePathFor(const std::string& spec) {
  std::string name = spec;
  for (char& c : name) {
    if (c == ':') c = '_';
  }
  return "/tmp/pcnn_test_bundle_" + name + ".pcnb";
}

/// Trains a tiny pipeline on `spec`, saves it as a bundle, reloads it
/// twice in fresh objects and checks the two reloads score a fresh window
/// set bitwise-identically -- one at 1 thread, one at 4 threads, so the
/// parity also covers thread-count invariance. The original in-process
/// pipeline must match too.
void expectBundleReloadParity(const std::string& spec) {
  SCOPED_TRACE(spec);
  const extract::ExtractorOptions options = tinyOptions();
  auto extractor =
      extract::ExtractorRegistry::instance().create(spec, options);
  if (extractor->hasTrainedState()) extractor->pretrain(200, 1, 0.01f);

  eedn::EednClassifierConfig config;
  config.inputSize = extractor->featureDim();
  config.groupInputSize = extractor->featureDim() / 2;
  config.hiddenWidths = {16};
  config.outputPopulation = 2;
  config.inputScale = 1.0f / 64.0f;
  core::PartitionedPipeline pipeline(extractor, config);
  const auto trainWindows = makeTinyWindows(12, 5);
  pipeline.trainClassifier(trainWindows, alternatingLabels(12), 2, 0.05f);

  const std::string path = bundlePathFor(spec);
  io::Bundle packed;
  ASSERT_TRUE(pipeline.packBundle(packed, options).ok());
  ASSERT_TRUE(packed.trySaveFile(path).ok());

  auto loadFromFile = [&] {
    StatusOr<io::Bundle> bundle = io::Bundle::tryLoadFile(path);
    EXPECT_TRUE(bundle.ok()) << bundle.status().toString();
    return bundle.ok() ? core::PartitionedPipeline::tryLoadBundle(bundle.value())
                       : StatusOr<core::PartitionedPipeline>(bundle.status());
  };
  StatusOr<core::PartitionedPipeline> loadedA = loadFromFile();
  ASSERT_TRUE(loadedA.ok()) << loadedA.status().toString();
  StatusOr<core::PartitionedPipeline> loadedB = loadFromFile();
  ASSERT_TRUE(loadedB.ok()) << loadedB.status().toString();

  const auto evalWindows = makeTinyWindows(8, 99);
  setThreadCount(1);
  const std::vector<float> scoresA =
      loadedA.value().scoreAllDegraded(evalWindows);
  setThreadCount(4);
  const std::vector<float> scoresB =
      loadedB.value().scoreAllDegraded(evalWindows);
  setThreadCount(1);

  ASSERT_EQ(scoresA.size(), evalWindows.size());
  ASSERT_EQ(scoresB.size(), evalWindows.size());
  EXPECT_EQ(0, std::memcmp(scoresA.data(), scoresB.data(),
                           scoresA.size() * sizeof(float)));

  const std::vector<float> original = pipeline.scoreAllDegraded(evalWindows);
  ASSERT_EQ(original.size(), scoresA.size());
  EXPECT_EQ(0, std::memcmp(original.data(), scoresA.data(),
                           original.size() * sizeof(float)));
  std::remove(path.c_str());
}

TEST(PipelineBundle, HogReloadsBitwise) { expectBundleReloadParity("hog"); }

TEST(PipelineBundle, FixedpointReloadsBitwise) {
  expectBundleReloadParity("fixedpoint");
}

TEST(PipelineBundle, NApproxSpikeReloadsBitwise) {
  expectBundleReloadParity("napprox:4spike");
}

TEST(PipelineBundle, ParrotExactReloadsBitwise) {
  expectBundleReloadParity("parrot:exact");
}

TEST(PipelineBundle, ParrotStochasticReloadsBitwise) {
  // The 4-spike code is keyed on (seed, pixel position, spike), and the
  // seed travels in the bundle, so the original pipeline and both reloads
  // code every window identically.
  expectBundleReloadParity("parrot:4spike");
}

TEST(PipelineBundle, MissingSpecIsDataLoss) {
  io::Bundle empty;
  StatusOr<core::PartitionedPipeline> loaded =
      core::PartitionedPipeline::tryLoadBundle(empty);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(PipelineBundle, UnknownSpecIsInvalidArgument) {
  io::Bundle bundle;
  bundle.manifest().set(io::keys::kSpec, "warp");
  StatusOr<core::PartitionedPipeline> loaded =
      core::PartitionedPipeline::tryLoadBundle(bundle);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelineBundle, ClassifierInputSizeMismatchIsFailedPrecondition) {
  const extract::ExtractorOptions options = tinyOptions();
  auto extractor = extract::ExtractorRegistry::instance().create("hog", options);
  eedn::EednClassifierConfig config;
  config.inputSize = extractor->featureDim();
  config.groupInputSize = extractor->featureDim() / 2;
  config.hiddenWidths = {16};
  config.outputPopulation = 2;
  core::PartitionedPipeline pipeline(extractor, config);
  pipeline.trainClassifier(makeTinyWindows(4, 5), alternatingLabels(4), 1,
                           0.05f);
  io::Bundle bundle;
  ASSERT_TRUE(pipeline.packBundle(bundle, options).ok());
  bundle.manifest().set("classifier_input_size", "123");
  StatusOr<core::PartitionedPipeline> loaded =
      core::PartitionedPipeline::tryLoadBundle(bundle);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PipelineBundle, WrappedClassifierFieldsAreOutOfRange) {
  const extract::ExtractorOptions options = tinyOptions();
  auto extractor = extract::ExtractorRegistry::instance().create("hog", options);
  eedn::EednClassifierConfig config;
  config.inputSize = extractor->featureDim();
  config.groupInputSize = extractor->featureDim() / 2;
  config.hiddenWidths = {16};
  config.outputPopulation = 2;
  config.seed = 0xF000000000000001ull;
  core::PartitionedPipeline pipeline(extractor, config);
  io::Bundle bundle;
  ASSERT_TRUE(pipeline.packBundle(bundle, options).ok());

  StatusOr<core::PartitionedPipeline> reloaded =
      core::PartitionedPipeline::tryLoadBundle(bundle);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().toString();
  EXPECT_EQ(reloaded.value().classifier().config().seed, config.seed);

  // 2^32 + inputSize: narrowed to int it would equal the true size.
  bundle.manifest().set(
      "classifier_input_size",
      std::to_string((1ll << 32) + extractor->featureDim()));
  StatusOr<core::PartitionedPipeline> wrapped =
      core::PartitionedPipeline::tryLoadBundle(bundle);
  ASSERT_FALSE(wrapped.ok());
  EXPECT_EQ(wrapped.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace pcnn
