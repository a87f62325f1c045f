#include "common/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "obs/obs.hpp"

namespace pcnn {
namespace {

/// Pool instruments, registered once. Counters cost one relaxed branch
/// when metrics are off; the clock is only read while they are on.
struct PoolMetrics {
  obs::Counter& jobs = obs::counter("pool.jobs");
  obs::Counter& inlineJobs = obs::counter("pool.inline_jobs");
  obs::Counter& chunks = obs::counter("pool.chunks");
  obs::Counter& busyUs = obs::counter("pool.busy_us");
  obs::LatencyHistogram& jobUs = obs::histogram("pool.job_us");
  obs::LatencyHistogram& queueUs = obs::histogram("pool.queue_us");
  /// Unclaimed chunks of the in-flight job; 0 between jobs. Sampled by
  /// the streaming exporter as a load signal.
  obs::Gauge& queueDepth = obs::gauge("pool.queue_depth");
  static PoolMetrics& instance() {
    static PoolMetrics m;
    return m;
  }
};

/// Most chunks one job can have: a claim keeps the chunk index in the low
/// 32 bits of a word (ThreadPool::claim_).
constexpr long kMaxChunks = 0xffffffffL;

int defaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int hwThreads = hw > 0 ? static_cast<int>(hw) : 1;
  return env::intValue("PCNN_NUM_THREADS", hwThreads, 1, 1024);
}

/// A worker claims chunk indices of the shared job; the caller
/// participates too, so a pool of size N holds N-1 threads.
///
/// Every claim is tagged with its job's generation: `claim_` packs the
/// generation (high 32 bits) and the next unclaimed index (low 32 bits)
/// into one word that only a compare-exchange advances. A worker still
/// draining job N holds N's tag, so once job N+1 is published its claims
/// fail instead of running one of N+1's chunks with N's bounds -- each
/// chunk of a job runs exactly once, and run() returns only after all of
/// them have finished.
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  ThreadPool() { resize(defaultThreadCount()); }

  ~ThreadPool() { stopWorkers(); }

  int size() {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int>(workers_.size()) + 1;
  }

  void resize(int n) {
    if (n < 1) n = 1;
    stopWorkers();
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = false;
    for (int i = 0; i < n - 1; ++i) {
      workers_.emplace_back([this] { workerLoop(); });
    }
  }

  /// Runs every chunk on the calling thread.
  template <typename Chunk>
  static void runInline(long numChunks, const Chunk& chunk) {
    PoolMetrics& metrics = PoolMetrics::instance();
    metrics.inlineJobs.add();
    metrics.chunks.add(numChunks);
    if (obs::metricsEnabled()) {
      const double t0 = obs::nowMicros();
      for (long c = 0; c < numChunks; ++c) chunk(c);
      const double elapsed = obs::nowMicros() - t0;
      metrics.jobUs.record(elapsed);
      metrics.busyUs.add(static_cast<long>(elapsed));
    } else {
      for (long c = 0; c < numChunks; ++c) chunk(c);
    }
  }

  void run(long numChunks, const std::function<void(long)>& chunk) {
    if (numChunks <= 0) return;
    // Nested parallelFor (a body that itself calls parallelFor), the
    // single-threaded configuration, and a second thread calling in while
    // another thread's job holds the pool all run inline: correct,
    // deterministic and deadlock-free.
    std::unique_lock<std::mutex> slot(jobSlot_, std::defer_lock);
    if (insideJob_ || workers_.empty() || !slot.try_lock()) {
      runInline(numChunks, chunk);
      return;
    }
    PoolMetrics& metrics = PoolMetrics::instance();
    metrics.jobs.add();
    metrics.chunks.add(numChunks);
    const bool measure = obs::metricsEnabled();
    const double t0 = measure ? obs::nowMicros() : 0.0;
    PCNN_SPAN_ARG("pool.job", "chunks", numChunks);
    std::exception_ptr firstError;
    Job job;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job = {&chunk, &firstError, ++generation_, numChunks,
             measure ? static_cast<long>(t0) : -1};
      job_ = job;
      pending_.store(numChunks, std::memory_order_relaxed);
      claim_.store(tagOf(job.generation), std::memory_order_release);
    }
    metrics.queueDepth.set(static_cast<double>(numChunks));
    wake_.notify_all();
    insideJob_ = true;
    drainChunks(job);
    insideJob_ = false;
    {
      // Wait until every chunk has finished (not merely been claimed).
      std::unique_lock<std::mutex> lock(mutex_);
      done_.wait(lock, [this] {
        return pending_.load(std::memory_order_acquire) == 0;
      });
    }
    if (measure) metrics.jobUs.record(obs::nowMicros() - t0);
    if (firstError) std::rethrow_exception(firstError);
  }

 private:
  /// A published job, copied by each worker under mutex_ when it wakes.
  struct Job {
    const std::function<void(long)>* chunk = nullptr;
    std::exception_ptr* error = nullptr;
    std::uint32_t generation = 0;
    long size = 0;
    /// Publish time in whole microseconds (-1 = unmeasured).
    long startUs = -1;
  };

  static std::uint64_t tagOf(std::uint32_t generation) {
    return static_cast<std::uint64_t>(generation) << 32;
  }

  static thread_local bool insideJob_;

  void workerLoop() {
    insideJob_ = true;  // workers never re-dispatch to the pool
    std::uint32_t seenGeneration = 0;
    while (true) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] {
          return stopping_ || generation_ != seenGeneration;
        });
        if (stopping_) return;
        seenGeneration = generation_;
        job = job_;
      }
      drainChunks(job);
    }
  }

  /// Claims and runs chunks of `job` until none is left or a newer job
  /// has replaced it.
  void drainChunks(const Job& job) {
    const std::uint64_t tag = tagOf(job.generation);
    const auto size = static_cast<std::uint64_t>(job.size);
    bool firstClaim = true;
    std::uint64_t word = claim_.load(std::memory_order_acquire);
    while (true) {
      if ((word & ~kIndexMask) != tag || (word & kIndexMask) >= size) return;
      if (!claim_.compare_exchange_weak(word, word + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        continue;  // `word` now holds the current value
      }
      const long c = static_cast<long>(word & kIndexMask);
      PoolMetrics::instance().queueDepth.set(
          static_cast<double>(job.size - (c + 1)));
      // Queue latency (job publish -> this thread's first claim) and busy
      // time per chunk; both only measured while metrics are on, and the
      // job-start stamp doubles as the job's measurement flag so a toggle
      // mid-job cannot record a nonsense latency.
      const bool measure = job.startUs >= 0 && obs::metricsEnabled();
      double claimUs = 0.0;
      if (measure) {
        claimUs = obs::nowMicros();
        if (firstClaim) {
          PoolMetrics::instance().queueUs.record(
              claimUs - static_cast<double>(job.startUs));
          firstClaim = false;
        }
      }
      try {
        (*job.chunk)(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!*job.error) *job.error = std::current_exception();
      }
      if (measure) {
        PoolMetrics::instance().busyUs.add(
            static_cast<long>(obs::nowMicros() - claimUs));
      }
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last chunk: release the caller blocked in run().
        std::lock_guard<std::mutex> lock(mutex_);
        done_.notify_all();
      }
      word = claim_.load(std::memory_order_acquire);
    }
  }

  void stopWorkers() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
  }

  static constexpr auto kIndexMask = static_cast<std::uint64_t>(kMaxChunks);

  /// Held by the thread whose job owns the pool.
  std::mutex jobSlot_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
  std::uint32_t generation_ = 0;
  Job job_;
  /// Current job's generation (high 32 bits) | next unclaimed chunk.
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<long> pending_{0};
};

thread_local bool ThreadPool::insideJob_ = false;

}  // namespace

int threadCount() { return ThreadPool::instance().size(); }

void setThreadCount(int n) { ThreadPool::instance().resize(n); }

void parallelForChunked(long begin, long end, long grain,
                        const std::function<void(long, long)>& body) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  // Widen the grain of a range that would need more than kMaxChunks
  // chunks (boundaries stay a function of the range and the grain).
  if ((end - begin - 1) / grain >= kMaxChunks) {
    grain = (end - begin - 1) / kMaxChunks + 1;
  }
  const long numChunks = (end - begin + grain - 1) / grain;
  if (numChunks == 1) {
    // One chunk never reaches the pool; skip wrapping the body.
    ThreadPool::runInline(1, [&](long) { body(begin, end); });
    return;
  }
  ThreadPool::instance().run(numChunks, [&](long c) {
    const long lo = begin + c * grain;
    const long hi = lo + grain < end ? lo + grain : end;
    body(lo, hi);
  });
}

void parallelFor(long begin, long end,
                 const std::function<void(long)>& body) {
  parallelForChunked(begin, end, 1, [&](long lo, long hi) {
    for (long i = lo; i < hi; ++i) body(i);
  });
}

long suggestedGrain(long items) {
  if (items < 1) return 1;
  const long threads = threadCount();
  if (threads <= 1) return items;  // one chunk, dispatched inline
  constexpr long kChunksPerThread = 4;
  const long grain = items / (threads * kChunksPerThread);
  return grain < 1 ? 1 : grain;
}

}  // namespace pcnn
