#!/usr/bin/env bash
# Tier-1 verification: configure with src/ warnings promoted to errors,
# build everything, and run the full test suite.
#
# Usage: ./ci.sh [builddir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")"

BUILD_DIR="${1:-build}"

# No deprecation shims: a retired API is deleted, not kept behind
# [[deprecated]] with its callers silenced by diagnostic pragmas or flags.
# PCNN_WERROR promotes warnings only in src/, so this grep guards the
# tests, benches and examples as well.
if grep -rnE '\[\[deprecated|deprecated-declarations' \
    src tests bench examples; then
  echo "ci.sh: deprecation shim found (delete the API instead)"
  exit 1
fi

cmake -B "$BUILD_DIR" -S . -DPCNN_WERROR=ON
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

# ASan + UBSan tree over the fast, bundle, and video labels
# (PCNN_SANITIZE=ON skippable for quick local iterations: PCNN_SANITIZE=OFF
# ./ci.sh). The fault-injection, corrupt-file and corrupt-bundle regression
# tests are in these labels on purpose -- they feed the deserializers and
# the simulator deliberately hostile input, so they run memory- and
# UB-checked on every CI pass; the video label adds the temporal-reuse
# cache (persistent grids spliced in place, parallel rescoring) to the same
# scrutiny.
if [[ "${PCNN_SANITIZE:-ON}" == "ON" ]]; then
  cmake -B "$BUILD_DIR-asan" -S . -DPCNN_WERROR=ON -DPCNN_SANITIZE=ON
  cmake --build "$BUILD_DIR-asan" -j"$(nproc)"
  ctest --test-dir "$BUILD_DIR-asan" -L 'fast|bundle|video|serve' \
    --output-on-failure -j"$(nproc)"

  # ThreadSanitizer tree over the fast + serve + video labels at 4 pool
  # threads: the serving layer hands frames, promises, and ladder state
  # between the admission threads and the worker, and the pool hands
  # chunks of back-to-back jobs between its workers (test_parallel's
  # alternating-size job loop, in the fast label), so data races there
  # must fail CI, not surface as corrupted responses under production
  # load. The thread count is pinned so the pool interleaves on every
  # host, not only on those that report several cores.
  cmake -B "$BUILD_DIR-tsan" -S . -DPCNN_WERROR=ON -DPCNN_SANITIZE=thread
  cmake --build "$BUILD_DIR-tsan" -j"$(nproc)"
  PCNN_NUM_THREADS=4 ctest --test-dir "$BUILD_DIR-tsan" -L 'fast|serve|video' \
    --output-on-failure -j"$(nproc)"
fi

# Observability smoke: a traced detection run must produce valid, non-empty
# Chrome-trace and metrics JSON with the spans/counters the layer promises,
# and a run without the env vars must produce no report files at all. The
# exit-time metrics report is one NDJSON window line covering the run, in
# the same schema as the periodic stream below.
# detect() and detectBatch run one scan, so both traces (this detect() run
# and the bench_video run below) must carry the same scan span schema. The
# example trains on flat-cell features, which have no block grid, so
# detect.blockGrid is required only of the block-norm bench_video trace.
export SCAN_SPANS="detect.pyramid detect.level detect.cellGrid detect.scan detect.nms"
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR"' EXIT
PD_BIN="$(cd "$BUILD_DIR" && pwd)/examples/pedestrian_detection"
PR_BIN="$(cd "$BUILD_DIR" && pwd)/examples/power_report"
PCNN_TRACE="$OBS_DIR/trace.json" PCNN_METRICS="$OBS_DIR/metrics.json" \
  "$PD_BIN" 1 7 hog >/dev/null
python3 - "$OBS_DIR/trace.json" "$OBS_DIR/metrics.json" <<'EOF'
import json, os, sys
trace = json.load(open(sys.argv[1]))
events = {e["name"] for e in trace["traceEvents"]}
assert trace["traceEvents"], "trace has no events"
for name in ("detect.scene", *os.environ["SCAN_SPANS"].split()):
    assert name in events, f"missing span {name}: {sorted(events)}"
lines = open(sys.argv[2]).read().splitlines()
assert len(lines) == 1, f"expected one window line, got {len(lines)}"
metrics = json.loads(lines[0])
for key in ("seq", "window_start_us", "window_end_us"):
    assert key in metrics, f"missing {key}: {sorted(metrics)}"
assert metrics["counters"].get("windows_scanned", 0) > 0, metrics["counters"]
assert metrics["histograms"], "no histograms in the exit window"
for name, hist in metrics["histograms"].items():
    assert "p50_us" in hist, (name, hist)
print("obs smoke: trace+metrics JSON valid "
      f"({len(trace['traceEvents'])} events, "
      f"{metrics['counters']['windows_scanned']} windows scanned)")
EOF
PCNN_METRICS="$OBS_DIR/tn_metrics.json" "$PR_BIN" >/dev/null
python3 - "$OBS_DIR/tn_metrics.json" <<'EOF'
import json, sys
counters = json.load(open(sys.argv[1]))["counters"]
assert counters.get("tn.spikes", 0) > 0, counters
assert counters.get("tn.ticks", 0) > 0, counters
print(f"obs smoke: tn counters non-zero (spikes={counters['tn.spikes']})")
EOF
# Disabled mode: no report env vars -> no report files may appear, even
# with a streaming period configured (a period without PCNN_METRICS must
# not start the exporter or touch the filesystem).
(cd "$OBS_DIR" && PCNN_METRICS_PERIOD_MS=25 "$PD_BIN" 1 7 hog >/dev/null)
LEFTOVER="$(find "$OBS_DIR" -name '*.json' ! -name trace.json \
  ! -name metrics.json ! -name tn_metrics.json)"
test -z "$LEFTOVER" || { echo "unexpected obs output: $LEFTOVER"; exit 1; }

# Streaming smoke: a periodic export over a real detection run must write
# multiple independently parseable NDJSON window lines with increasing seq
# and per-window deltas, and the exit-time flush must not add a second
# final line. The second run goes into the path the first one used: it
# must replace that stream, so seq starts at 1 and stays unique.
for scenes in 1 2; do
  PCNN_METRICS="$OBS_DIR/stream.ndjson" PCNN_METRICS_PERIOD_MS=25 \
    "$PD_BIN" "$scenes" 7 hog >/dev/null
done
python3 - "$OBS_DIR/stream.ndjson" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert len(lines) >= 2, f"expected >=2 windows, got {len(lines)}"
windows = [json.loads(l) for l in lines]
seqs = [w["seq"] for w in windows]
assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs), seqs
assert seqs[0] == 1, f"stream kept an earlier run's lines: {seqs}"
assert all("counters" in w or "gauges" in w for w in windows), windows[0]
scanned = sum(w.get("counters", {}).get("windows_scanned", 0)
              for w in windows)
assert scanned > 0, "no windows_scanned deltas streamed"
print(f"stream smoke: {len(lines)} NDJSON windows, seq {seqs[0]}..{seqs[-1]}, "
      f"{scanned} windows_scanned streamed")
EOF

# Fault + flight smoke: a fault-injected robustness run with the flight
# recorder armed must leave a dump whose ring tail holds both the
# tn.faults.* count events and the degraded detect.level spans -- the
# incident-capture path end to end. (Under PCNN_FAULTS the report's
# zero-fault bitwise check is reported but not enforced in its exit
# code; the env plan reaches every network including the baseline.)
RR_BIN="$(cd "$BUILD_DIR" && pwd)/examples/robustness_report"
PCNN_FAULTS="drop=0.05,seed=7" PCNN_FLIGHT="$OBS_DIR/flight.json" \
  "$RR_BIN" "$OBS_DIR/robustness.json" >/dev/null
python3 - "$OBS_DIR/flight.json" "$OBS_DIR/robustness.json" <<'EOF'
import json, sys
dump = json.load(open(sys.argv[1]))
events = dump["events"]
assert events, "flight dump has no events"
faults = [e for e in events
          if e["kind"] == "count" and e["name"].startswith("tn.faults.")]
assert faults, sorted({e["name"] for e in events})
degraded = [e for e in events if e["kind"] == "begin"
            and e["name"] in ("detect.level", "detect.level.degraded")]
assert degraded, sorted({e["name"] for e in events})
ts = [e["ts_us"] for e in events]
assert ts == sorted(ts), "flight events not time-ordered"
rob = json.load(open(sys.argv[2]))
assert rob["degraded_detection"]["levels_skipped"] > 0, rob
print(f"flight smoke: {len(events)} events ({len(faults)} tn fault counts, "
      f"{len(degraded)} degraded-path spans), reason={dump['reason']}")
EOF

# Bundle smoke: train a tiny pipeline, pack it into a model bundle, verify
# its content hash and score parity across two independent loads, then run
# the detection example against it (the deployment path -- no in-process
# training). The whole train-once/reload-by-name contract, end to end.
BUNDLE="$OBS_DIR/smoke.pcnb"
BT_BIN="$(cd "$BUILD_DIR" && pwd)/examples/bundle_tool"
"$BT_BIN" pack "$BUNDLE" hog --windows 30 >/dev/null
"$BT_BIN" inspect "$BUNDLE" >/dev/null
"$BT_BIN" verify "$BUNDLE"
PCNN_BUNDLE="$BUNDLE" "$PD_BIN" 1 7 >/dev/null
echo "bundle smoke: pack + verify + bundle-loaded detection passed"

# Video smoke: bench_video on a tiny burst (8 frames at 320x240) must emit
# per-frame detect.frame spans over the same scan spans as the detect()
# smoke above plus the warm frames' detect.resize, and actually reuse
# tiles (nonzero detect.tiles_reused counter), refresh level pixels
# (nonzero detect.resize_px) and keep cached window scores (nonzero
# detect.windows_reused, so a regression that silently rescores every
# window fails) -- the temporal path working end to end, not just
# compiling. Each frame scores its windows in one job over every pyramid
# level, so a frame holds at most one detect.scan span (a return to
# per-level scoring jobs fails here).
BV_BIN="$(cd "$BUILD_DIR" && pwd)/bench/bench_video"
PCNN_TRACE="$OBS_DIR/video_trace.json" \
  PCNN_METRICS="$OBS_DIR/video_metrics.json" \
  "$BV_BIN" "$OBS_DIR/video_bench.json" 8 320 240 1 >/dev/null
python3 - "$OBS_DIR/video_trace.json" "$OBS_DIR/video_metrics.json" \
  "$OBS_DIR/video_bench.json" <<'EOF'
import json, os, sys
trace = json.load(open(sys.argv[1]))
events = {e["name"] for e in trace["traceEvents"]}
for name in ("detect.batch", "detect.frame", "detect.blockGrid",
             "detect.resize", *os.environ["SCAN_SPANS"].split()):
    assert name in events, f"missing span {name}: {sorted(events)}"
scans = [e for e in trace["traceEvents"] if e["name"] == "detect.scan"]
assert scans, "no detect.scan span"
for frame in (e for e in trace["traceEvents"] if e["name"] == "detect.frame"):
    inside = [e for e in scans if e["tid"] == frame["tid"]
              and frame["ts"] <= e["ts"]
              and e["ts"] + e["dur"] <= frame["ts"] + frame["dur"]]
    assert len(inside) <= 1, f"{len(inside)} detect.scan spans in {frame}"
counters = json.load(open(sys.argv[2]))["counters"]
assert counters.get("detect.frames", 0) > 0, counters
assert counters.get("detect.tiles_reused", 0) > 0, counters
assert counters.get("detect.tiles_recomputed", 0) > 0, counters
assert counters.get("detect.resize_px", 0) > 0, counters
assert counters.get("detect.windows_reused", 0) > 0, counters
bench = json.load(open(sys.argv[3]))
assert bench["backends"], bench
for name, row in bench["backends"].items():
    assert row["temporal_fps"] > 0, (name, row)
print("video smoke: detect.frame spans + tile reuse counters present "
      f"(reused={counters['detect.tiles_reused']}, "
      f"recomputed={counters['detect.tiles_recomputed']}, "
      f"windows reused={counters['detect.windows_reused']})")
EOF

# Doc-number check: every figure the docs quote from a BENCH file must
# equal the file's value rounded to two decimals, so a regenerated benchmark
# cannot leave the quoted numbers behind. Checked: EXPERIMENTS.md's full-HD
# video table (fps, reuse speedup, tile hit rate) against BENCH_video.json,
# and the Throughput tables of EXPERIMENTS.md and README (1/2/4-thread ms
# and speedups, README's per-backend 320x240 rows) against
# BENCH_detect.json.
python3 - EXPERIMENTS.md README.md BENCH_video.json BENCH_detect.json <<'EOF'
import json, sys
experiments, readme = (open(p).read().splitlines() for p in sys.argv[1:3])
video = json.load(open(sys.argv[3]))["backends"]
detect = json.load(open(sys.argv[4]))
checked = 0

def table(lines, header):
    start = next(i for i, l in enumerate(lines) if l.startswith(header))
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows[cells[0]] = cells[1:]
    return rows

def expect(where, quoted, measured):
    global checked
    assert quoted == measured, f"{where}: quoted {quoted} != {measured}"
    checked += len(measured)

rows = table(experiments, "| Backend | Off (fps) | Temporal (fps) |")
assert sorted(rows) == sorted(video), (sorted(rows), sorted(video))
for name, cells in rows.items():
    v = video[name]
    expect(f"EXPERIMENTS.md video {name}", cells,
           [f"{v['off_fps']:.2f}", f"{v['temporal_fps']:.2f}",
            f"{v['reuse_speedup']:.2f}×", f"{v['tile_hit_rate']:.2f}"])

rows = table(experiments, "| Path | Time | vs 1 thread |")
readme_rows = table(readme, "| path | time |")
for n in (1, 2, 4):
    label = f"cached grid + block grid, {n} thread" + ("s" if n > 1 else "")
    ms = f"{detect[f'cached_grid_{n}t_ms']:.2f} ms"
    speedup = f"{detect[f'speedup_{n}t']:.2f}×" if n > 1 else "1×"
    expect(f"EXPERIMENTS.md {label}", rows[label], [ms, speedup])
    expect(f"README {label}", readme_rows[label],
           [ms if n == 1 else f"{ms} ({speedup})"])
backends = detect["extractors"]
quoted = {label.split("`")[1]: cells for label, cells in readme_rows.items()
          if label.endswith("320×240 registry scan, 1 thread")}
assert sorted(quoted) == sorted(backends), (sorted(quoted), sorted(backends))
for name, cells in quoted.items():
    expect(f"README {name} 320x240 scan", cells,
           [f"{backends[name]['cached_grid_1t_ms']:.2f} ms"])
print(f"doc numbers: {checked} quoted cells in EXPERIMENTS.md and README match "
      "BENCH_video.json and BENCH_detect.json")
EOF

# Serve smoke: bench_serve at a heavily overloaded point with the metrics
# stream on must show the admission ladder actually working -- rejected
# requests, a serve.level transition observable in the streamed windows --
# and write a well-formed BENCH_serve.json on the shared provenance schema.
BS_BIN="$(cd "$BUILD_DIR" && pwd)/bench/bench_serve"
PCNN_METRICS="$OBS_DIR/serve_stream.ndjson" PCNN_METRICS_PERIOD_MS=25 \
  "$BS_BIN" "$OBS_DIR/serve_bench.json" 40 320 240 smoke >/dev/null
python3 - "$OBS_DIR/serve_stream.ndjson" "$OBS_DIR/serve_bench.json" <<'EOF'
import json, sys
windows = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert windows, "no metrics windows streamed"
rejected = sum(w.get("counters", {}).get("serve.rejected", 0)
               for w in windows)
assert rejected > 0, "overloaded run never rejected at admission"
transitions = sum(w.get("counters", {}).get("serve.level.transitions", 0)
                  for w in windows)
assert transitions > 0, "no serve.level transition in the metrics windows"
levels = [w["gauges"]["serve.level"] for w in windows
          if "serve.level" in w.get("gauges", {})]
assert levels and max(levels) >= 1, f"ladder never left full quality: {levels}"
bench = json.load(open(sys.argv[2]))
assert bench["bench"] == "serve" and "provenance" in bench, bench.keys()
assert bench["points"], "no offered-load points"
overloaded = bench["points"][-1]
assert overloaded["rejected"] > 0 and overloaded["degraded"] > 0, overloaded
print(f"serve smoke: {rejected} rejected, {transitions} ladder transitions "
      f"(max level {max(levels):.0f}) across {len(windows)} windows; "
      f"overloaded point shed {overloaded['shed_rate']:.0%}")
EOF

echo "ci.sh: deprecation guard + build + tests (once; then asan fast|bundle|video|serve and 4-thread tsan fast|serve|video re-runs + obs, stream, flight, bundle, video & serve smoke + doc-number check) passed"
