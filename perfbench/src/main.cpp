// The repository benchmark. Runs one named workload from a seed and prints,
// as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, measured with the
// benchmark's own timers off; with --trace 1 they are the per-layer ones,
// from a plain, a traced, an obs-armed and a 1-thread pass. The line
// before it carries provenance, the input digest, sample counts and every
// metric's unit and direction.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//        perfbench --workload <name> --seed <n> --digest
//        perfbench --pool-selftest
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/parallel.hpp"
#include "harness.hpp"
#include "obs/obs.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s", "lower"},
    {"lane_a_ms_p50", "ms", "lower"},
    {"lane_a_ms_tail", "ms", "lower"},
    {"lane_a_per_s", "1/s", "higher"},
    {"lane_b_per_s", "1/s", "higher"},
};

const std::vector<MetricDef> kPerLayer = {
    {"ledger.op_ms", "ms", "lower"},
    {"ledger.gap_pct", "%", "lower"},
    {"io.bundle_load_ms", "ms", "lower"},
    {"trace.overhead_pct", "%", "lower"},
    {"obs.armed_overhead_pct", "%", "lower"},
    {"parallel.speedup_a", "x", "higher"},
    {"parallel.speedup_b", "x", "higher"},
    {"pool.busy_frac", "frac", "higher"},
    {"vision.pyramid_pct", "%", "lower"},
    {"vision.nms_pct", "%", "lower"},
    {"vision.nms_candidates", "count", "lower"},
    {"hog.gradient_pct", "%", "lower"},
    {"hog.cell_rows_pct", "%", "lower"},
    {"extract.cell_grid_pct", "%", "lower"},
    {"extract.cells_computed", "count", "lower"},
    {"extract.block_pct", "%", "lower"},
    {"scan.window_pct", "%", "lower"},
    {"scorer.pct", "%", "lower"},
    {"scorer.calls", "count", "lower"},
    {"core.self_pct", "%", "lower"},
    {"core.tile_reuse_frac", "frac", "higher"},
    {"core.windows_rescored_per_frame", "count", "lower"},
    {"core.cold_frame_x", "x", "lower"},
    {"parrot.cell_grid_pct", "%", "lower"},
    {"serve.ok_frac", "frac", "higher"},
    {"serve.shed_frac", "frac", "lower"},
    {"serve.degraded_frac", "frac", "lower"},
    {"serve.queue_pct", "%", "lower"},
    {"serve.rung_full_frac", "frac", "higher"},
    {"serve.rung_coarse_frac", "frac", "lower"},
    {"serve.rung_fallback_frac", "frac", "lower"},
    {"serve.transitions", "count", "lower"},
    {"serve.cells_recomputed_frac", "frac", "lower"},
    {"serve.gen_late_p99_pct", "%", "lower"},
    {"tn.napprox.ms_per_cell", "ms", "lower"},
    {"tn.napprox.ticks_per_cell", "count", "lower"},
    {"tn.napprox.spikes_per_cell", "count", "lower"},
    {"tn.parrot.ms_per_window", "ms", "lower"},
    {"tn.parrot.spikes_per_window", "count", "lower"},
};

/// Setups per end-to-end run; setup_s is their median.
constexpr int kSetups = 7;

/// Back-to-back pool jobs of alternating chunk counts for about a second:
/// the pattern that deadlocks common/parallel.cpp's pool (README, "Known
/// limits") within ~35k jobs at 4 threads. run.py runs this under a
/// timeout and drops to 1 thread if it hangs.
int poolSelftest() {
  const auto start = Clock::now();
  std::atomic<long> sum{0};
  long expected = 0;
  for (long j = 0; msBetween(start, Clock::now()) < 1000.0; ++j) {
    const long chunks = j % 2 == 0 ? 12 : 2;
    pcnn::parallelFor(0, chunks, [&sum](long) {
      sum.fetch_add(1, std::memory_order_relaxed);
    });
    expected += chunks;
  }
  const bool ok = sum.load() == expected;
  std::printf("{\"pool_selftest\": \"%s\", \"threads\": %d, \"chunks\": %ld}\n",
              ok ? "ok" : "miscount", pcnn::threadCount(), expected);
  return ok ? 0 : 1;
}

const std::map<std::string, std::function<std::unique_ptr<Workload>()>>&
workloads() {
  static const std::map<std::string,
                        std::function<std::unique_ptr<Workload>()>>
      table = {{"stills-640", makeStills},
               {"video-1080p", makeVideo},
               {"serve-4stream", makeServe},
               {"tn-sim", makeTn}};
  return table;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool digest = false;
  bool poolSelftest = false;
};

bool parseArgs(int argc, char** argv, Args& args) {
  bool haveWorkload = false, haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--digest" || flag == "--pool-selftest") {
      (flag == "--digest" ? args.digest : args.poolSelftest) = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      haveWorkload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      haveSeed = *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] - '0';
    } else {
      return false;
    }
  }
  return args.poolSelftest || (haveWorkload && haveSeed);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string metricsJson(const std::vector<MetricDef>& defs,
                        const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    const double v = it == values.end() ? 0.0 : it->second;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.size() > 1 ? ", " : "", def.name,
                  std::isfinite(v) ? v : 0.0, def.unit);
    out += buf;
  }
  return out + "}";
}

std::string directionsJson() {
  std::string out = "{";
  for (const auto* defs : {&kEndToEnd, &kPerLayer}) {
    for (const MetricDef& def : *defs) {
      if (out.size() > 1) out += ", ";
      out += std::string("\"") + def.name + "\": {\"unit\": \"" + def.unit +
             "\", \"better\": \"" + def.better + "\"}";
    }
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const bool parsed = parseArgs(argc, argv, args);
  if (parsed && args.poolSelftest) return poolSelftest();
  if (!parsed || !workloads().count(args.workload)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <stills-640|video-1080p|"
                 "serve-4stream|tn-sim> --seed <n> [--seconds <s>] "
                 "[--trace <0|1>] [--digest] | --pool-selftest\n");
    return 2;
  }
  const auto& make = workloads().at(args.workload);
  try {
    std::unique_ptr<Workload> w;
    Samples setupS;
    const int setups = args.trace == 0 && !args.digest ? kSetups : 1;
    for (int i = 0; i < setups; ++i) {
      w.reset();  // the previous instance is torn down outside the timer
      w = make();
      const auto t0 = Clock::now();
      w->setup(args.seed);
      setupS.add(msBetween(t0, Clock::now()) / 1000.0);
    }
    if (args.digest) {
      std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"input_digest\": \"%s\"}\n",
                  args.workload.c_str(),
                  static_cast<unsigned long long>(args.seed),
                  w->inputDigest().c_str());
      return 0;
    }
    w->warmup();

    std::map<std::string, double> values;
    long attempted = 0, failed = 0;
    std::size_t samples = 0;
    double tailQ = 0.0;
    if (args.trace == 0) {
      const PassResult r = w->run(args.seconds, false);
      attempted = r.attempted;
      failed = r.failed;
      samples = r.laneAMs.size();
      tailQ = r.tailQuantile;
      values["setup_s"] = setupS.median();
      values["lane_a_ms_p50"] = r.laneAQuantile(0.5);
      values["lane_a_ms_tail"] = r.laneAQuantile(r.tailQuantile);
      values["lane_a_per_s"] = r.laneAPerS;
      values["lane_b_per_s"] = r.laneBPerS;
    } else {
      // The traced pass gets half the budget, the three comparison passes
      // a quarter each.
      const double slice = args.seconds / 4.0;
      const int threads = pcnn::threadCount();
      const PassResult plain = w->run(slice, false);
      const PassResult traced = w->run(2.0 * slice, true);

      pcnn::obs::setMetricsEnabled(true);
      pcnn::obs::setFlightEnabled(true);
      pcnn::obs::Counter& busyUs = pcnn::obs::counter("pool.busy_us");
      const long busyBefore = busyUs.value();
      const auto t0 = Clock::now();
      const PassResult armed = w->run(slice, false);
      const double armedWallMs = msBetween(t0, Clock::now());
      const long busy = busyUs.value() - busyBefore;
      pcnn::obs::setFlightEnabled(false);
      pcnn::obs::setMetricsEnabled(false);

      pcnn::setThreadCount(1);
      const PassResult single = w->run(slice, false);
      pcnn::setThreadCount(threads);

      values = traced.layer;
      values["io.bundle_load_ms"] = w->bundleLoadMs();
      values["trace.overhead_pct"] =
          100.0 * (ratio(plain.indexPerS, traced.indexPerS) - 1.0);
      values["obs.armed_overhead_pct"] =
          100.0 * (ratio(plain.indexPerS, armed.indexPerS) - 1.0);
      values["parallel.speedup_a"] = ratio(plain.laneAPerS, single.laneAPerS);
      values["parallel.speedup_b"] = ratio(plain.laneBPerS, single.laneBPerS);
      values["pool.busy_frac"] =
          ratio(static_cast<double>(busy) * 1e-3, armedWallMs * threads);
      for (const PassResult* p : {&plain, &traced, &armed, &single}) {
        attempted += p->attempted;
        failed += p->failed;
      }
      if (args.workload != "tn-sim") {
        // tn sits on no detection path, and tn-sim is not among the
        // benchmark's workloads (README.md, "Steadiness"): one fixed round
        // of it gives every traced run the tn.* metrics.
        const std::unique_ptr<Workload> tn = makeTn();
        tn->setup(args.seed);
        tn->warmup();
        const PassResult job = tn->run(0.0, true);
        for (const auto& [name, value] : job.layer) {
          if (name.rfind("tn.", 0) == 0) values[name] = value;
        }
        attempted += job.attempted;
        failed += job.failed;
      }
      samples = traced.laneAMs.size();
      tailQ = traced.tailQuantile;
    }

    std::printf(
        "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
        "\"input_digest\": \"%s\", \"lane_a_samples\": %zu, "
        "\"lane_a_tail_quantile\": %g, \"pool_threads\": %d, "
        "\"setup_samples\": %zu, \"provenance\": %s, \"metric_defs\": %s}\n",
        args.workload.c_str(), static_cast<unsigned long long>(args.seed),
        args.seconds, args.trace, w->inputDigest().c_str(), samples, tailQ,
        pcnn::threadCount(),
        setupS.size(), pcnn::bench::provenanceJson().c_str(),
        directionsJson().c_str());
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": %s}\n",
                failed == 0 && attempted > 0 ? "true" : "false", attempted,
                failed, metricsJson(args.trace == 0 ? kEndToEnd : kPerLayer,
                                    values)
                            .c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
}
