#include "parallel/pool.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace mn::parallel {
namespace {

constexpr int kMaxWorkers = 255;  // workers beyond the caller

thread_local bool tl_in_region = false;

struct RegionGuard {
  bool prev;
  RegionGuard() : prev(tl_in_region) { tl_in_region = true; }
  ~RegionGuard() { tl_in_region = prev; }
};

std::atomic<int> g_override{0};

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(std::min<unsigned>(hw, kMaxWorkers + 1))
                 : 1;
}

int env_threads() {
  static const int v = threads_from_env();
  return v;
}

// One in-flight parallel region. Heap-allocated and shared with every worker
// that wakes for it, so a straggler waking after the region completed (and a
// new one started) still only touches this job's exhausted counter — never
// the next job's state or the caller's dead stack frame.
struct Job {
  std::function<void(int64_t)> fn;
  int64_t total = 0;
  std::atomic<int64_t> next{0};
  int64_t completed = 0;        // guarded by Pool::m_
  std::exception_ptr error;     // guarded by Pool::m_ (first one wins)
};

class Pool {
 public:
  static Pool& instance() {
    static Pool* p = new Pool();  // leaked: workers may outlive static dtors
    return *p;
  }

  void run(int64_t n, const std::function<void(int64_t)>& fn) {
    if (n <= 0) return;
    obs::counter_add(obs::Counter::kPoolRegions, 1);
    obs::gauge_set_max(obs::Gauge::kPoolRegionChunksMax, n);
    // Serial fallback: same chunk schedule, executed inline. Covers
    // threads=1, a degenerate single-chunk region, and nested calls.
    if (n == 1 || tl_in_region || max_threads() <= 1) {
      RegionGuard guard;
      for (int64_t i = 0; i < n; ++i) fn(i);
      obs::counter_add(obs::Counter::kPoolChunks, n);
      return;
    }
    // One region at a time; concurrent top-level callers queue here.
    std::lock_guard<std::mutex> serialize(run_m_);
    obs::SpanScope span("parallel_region", obs::Cat::kParallel, "chunks", n);
    auto job = std::make_shared<Job>();
    job->fn = fn;
    job->total = n;
    const int want =
        static_cast<int>(std::min<int64_t>(max_threads() - 1, n - 1));
    {
      std::lock_guard<std::mutex> lk(m_);
      ensure_workers_locked(want);
      obs::gauge_set_max(obs::Gauge::kPoolWorkers,
                         static_cast<int64_t>(workers_.size()));
      job_ = job;
      ++job_id_;
    }
    cv_.notify_all();
    execute(*job, /*is_caller=*/true);  // the caller claims chunks too
    {
      std::unique_lock<std::mutex> lk(m_);
      done_cv_.wait(lk, [&] { return job->completed == job->total; });
      job_.reset();
    }
    if (job->error) std::rethrow_exception(job->error);
  }

 private:
  Pool() = default;

  void ensure_workers_locked(int want) {
    want = std::min(want, kMaxWorkers);
    while (static_cast<int>(workers_.size()) < want)
      workers_.emplace_back([this] { worker_loop(); });
  }

  void worker_loop() {
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
      cv_.wait(lk, [&] { return shutdown_ || (job_ && job_id_ != seen); });
      if (shutdown_) return;
      seen = job_id_;
      std::shared_ptr<Job> job = job_;
      lk.unlock();
      execute(*job, /*is_caller=*/false);
      lk.lock();
    }
  }

  void execute(Job& job, bool is_caller) {
    RegionGuard guard;
    int64_t done = 0;
    for (;;) {
      const int64_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.total) break;
      try {
        job.fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(m_);
        if (!job.error) job.error = std::current_exception();
      }
      ++done;
    }
    if (done > 0) {
      obs::counter_add(obs::Counter::kPoolChunks, done);
      if (!is_caller) obs::counter_add(obs::Counter::kPoolStolenChunks, done);
      std::lock_guard<std::mutex> lk(m_);
      job.completed += done;
      if (job.completed == job.total) done_cv_.notify_all();
    }
  }

  std::mutex run_m_;  // serializes top-level regions
  std::mutex m_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> job_;  // guarded by m_; null when idle
  uint64_t job_id_ = 0;       // guarded by m_
  bool shutdown_ = false;     // guarded by m_ (never set; pool is leaked)
};

}  // namespace

int threads_from_env() {
  const char* env = std::getenv("MN_THREADS");
  if (env == nullptr || env[0] == '\0') return hardware_threads();
  char* end = nullptr;
  errno = 0;
  const long n = std::strtol(env, &end, 10);
  if (errno == 0 && end != env && *end == '\0' && n >= 1)
    return static_cast<int>(std::min<long>(n, kMaxWorkers + 1));
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true))
    std::fprintf(stderr,
                 "mn: MN_THREADS='%s' is not a positive integer; using %d "
                 "hardware threads\n",
                 env, hardware_threads());
  return hardware_threads();
}

int max_threads() {
  const int o = g_override.load(std::memory_order_relaxed);
  return o > 0 ? o : env_threads();
}

void set_threads(int n) {
  g_override.store(n > 0 ? std::min(n, kMaxWorkers + 1) : 0,
                   std::memory_order_relaxed);
}

bool in_parallel_region() { return tl_in_region; }

PoolStats pool_stats() {
  PoolStats s;
  s.regions = obs::counter_value(obs::Counter::kPoolRegions);
  s.chunks = obs::counter_value(obs::Counter::kPoolChunks);
  s.stolen_chunks = obs::counter_value(obs::Counter::kPoolStolenChunks);
  s.max_region_chunks = obs::gauge_value(obs::Gauge::kPoolRegionChunksMax);
  s.workers = obs::gauge_value(obs::Gauge::kPoolWorkers);
  return s;
}

int64_t num_chunks(int64_t n, int64_t grain) {
  if (n <= 0) return 0;
  if (grain < 1) grain = 1;
  return std::min((n + grain - 1) / grain, kMaxChunks);
}

Range chunk_range(int64_t n, int64_t chunks, int64_t index) {
  return {index * n / chunks, (index + 1) * n / chunks};
}

void for_chunks(int64_t chunks, const std::function<void(int64_t)>& fn) {
  Pool::instance().run(chunks, fn);
}

void parallel_for(int64_t begin, int64_t end,
                  const std::function<void(int64_t, int64_t)>& body,
                  int64_t grain) {
  const int64_t n = end - begin;
  const int64_t chunks = num_chunks(n, grain);
  if (chunks <= 0) return;
  Pool::instance().run(chunks, [&](int64_t i) {
    const Range r = chunk_range(n, chunks, i);
    body(begin + r.begin, begin + r.end);
  });
}

void tree_reduce(int64_t parts,
                 const std::function<void(int64_t, int64_t)>& combine) {
  for (int64_t stride = 1; stride < parts; stride *= 2)
    for (int64_t i = 0; i + stride < parts; i += 2 * stride)
      combine(i, i + stride);
}

}  // namespace mn::parallel
