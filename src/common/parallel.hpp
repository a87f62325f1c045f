#pragma once

#include <functional>

namespace pcnn {

/// Minimal shared thread pool for the library's embarrassingly parallel hot
/// loops (pyramid scanning, convolution channels, TrueNorth core ticks,
/// batch feature extraction).
///
/// Determinism contract: work is split into chunks whose boundaries depend
/// only on the iteration range and the grain -- never on the thread count
/// or on scheduling -- so any body that writes disjoint outputs per index
/// produces bit-identical results whether the pool runs 1 thread or 64.
///
/// The pool size is taken from the PCNN_NUM_THREADS environment variable at
/// first use (falling back to std::thread::hardware_concurrency) and can be
/// changed at runtime with setThreadCount. A value of 1 disables threading
/// entirely; every parallelFor then runs inline on the calling thread.
///
/// The pool runs one job at a time. A parallelFor issued from inside a
/// body, or from another thread while a job is in flight, runs inline on
/// its calling thread; a one-chunk range never touches the pool. A pool
/// job costs tens of microseconds to dispatch, so callers size their
/// chunks to carry more work than that.

/// Current pool size (calling threads + workers).
int threadCount();

/// Resizes the global pool. Values < 1 are clamped to 1. Not safe to call
/// concurrently with an in-flight parallelFor.
void setThreadCount(int n);

/// Runs body(i) for every i in [begin, end). Iterations must be
/// independent; the order in which they run is unspecified.
void parallelFor(long begin, long end, const std::function<void(long)>& body);

/// Chunked form: body(chunkBegin, chunkEnd) over [begin, end) in chunks of
/// `grain` indices (the final chunk may be shorter). Chunk boundaries are a
/// pure function of (begin, end, grain). Use this form when per-index
/// dispatch would dominate, or when the body accumulates floats and the
/// accumulation order within a chunk must be fixed.
void parallelForChunked(long begin, long end, long grain,
                        const std::function<void(long, long)>& body);

/// Work-sized grain for parallelForChunked: splits `items` into about four
/// chunks per pool thread (enough slack for load balancing without paying
/// per-index dispatch), and collapses to a single chunk on a 1-thread pool
/// so the inline path runs with zero pool overhead.
///
/// The returned grain depends on the pool size, so chunk *boundaries* vary
/// with the thread count. That is safe exactly when every index writes its
/// own disjoint output (the library's hot loops all do); a body whose
/// within-chunk accumulation order matters must pass an explicit grain to
/// keep results thread-count-independent.
long suggestedGrain(long items);

}  // namespace pcnn
