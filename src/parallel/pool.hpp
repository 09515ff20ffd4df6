// Deterministic host-side parallel execution (PR 3).
//
// A small persistent worker pool with *static deterministic chunking*: the
// number of chunks and every chunk boundary depend only on the problem size
// (and a caller-chosen grain), never on the number of threads. Threads claim
// chunk indices from a shared atomic counter (work stealing), so load
// balances dynamically, but because each chunk's arithmetic is self-contained
// and any cross-chunk combination goes through the fixed-order tree_reduce()
// below, results are bit-identical at every thread count — including the
// serial fallback at threads=1, which executes the exact same chunk schedule
// inline. This is what lets the trainer and DNAS keep their bitwise
// resume-equivalence guarantee while running multi-threaded, and serving fan
// whole requests out without changing a fingerprint. (Inference kernels are
// serial and never open a region.)
//
// Thread count resolution: set_threads(n) override if set, else the
// MN_THREADS environment variable, else std::thread::hardware_concurrency().
//
// Nested parallelism is rejected: a parallel_for issued from inside a worker
// (or from the caller while it participates in a region) runs serially inline
// on that thread. The chunk schedule is unchanged, so determinism holds; it
// just does not fan out twice. This keeps composition safe when e.g. a bench
// shards model evaluations whose training loops themselves call parallel_for.
#pragma once

#include <cstdint>
#include <functional>

namespace mn::parallel {

// Upper bound on chunks per parallel_for: enough slots to keep tens of
// threads busy, small enough that per-chunk state (scratch buffers, gradient
// partials) stays cheap. Part of the determinism contract: never derived
// from the thread count.
inline constexpr int64_t kMaxChunks = 64;

// Resolved worker count (>= 1). Override > MN_THREADS > hardware.
int max_threads();

// Parses MN_THREADS strictly: a positive integer (capped at 256) is the
// default worker count; unset or empty means hardware concurrency. Anything
// else — garbage, trailing characters, 0, a negative or out-of-range value —
// warns once on stderr and falls back to hardware concurrency. Reads the
// environment on every call; max_threads() resolves it once per process.
int threads_from_env();

// Programmatic override for tests and benches; n <= 0 restores the
// environment/hardware default.
void set_threads(int n);

// True on a thread currently executing pool work (used to reject nesting).
bool in_parallel_region();

struct Range {
  int64_t begin = 0;
  int64_t end = 0;
};

// Number of chunks for n items with the given minimum grain per chunk.
// Depends only on (n, grain): min(ceil(n/grain), kMaxChunks).
int64_t num_chunks(int64_t n, int64_t grain);

// Half-open item range of chunk `index` out of `chunks` over n items.
// Boundaries are i*n/chunks — contiguous, exhaustive, near-equal.
Range chunk_range(int64_t n, int64_t chunks, int64_t index);

// Runs body(lo, hi) over [begin, end) split into num_chunks(end-begin, grain)
// statically-bounded chunks, distributed across the pool. Blocks until all
// chunks finish; the first exception thrown by any chunk is rethrown in the
// caller (remaining chunks still run, so the schedule stays deterministic).
void parallel_for(int64_t begin, int64_t end,
                  const std::function<void(int64_t, int64_t)>& body,
                  int64_t grain = 1);

// Runs fn(i) for i in [0, chunks) across the pool — the low-level form for
// call sites that manage their own per-chunk state (gradient partials,
// unpack buffers). Same blocking/exception semantics as parallel_for.
void for_chunks(int64_t chunks, const std::function<void(int64_t)>& fn);

// Execution statistics, accumulated into the obs:: counter registry since
// process start (or the last obs::reset_counters()). Always-zero in
// MN_OBS=OFF builds. "Stolen" chunks ran on a pool worker rather than the
// calling thread — stolen/chunks is the load-sharing ratio, and
// max_region_chunks is the widest fan-out (peak queue depth) seen.
struct PoolStats {
  int64_t regions = 0;           // parallel regions (incl. serial fallback)
  int64_t chunks = 0;            // chunks executed, all regions and threads
  int64_t stolen_chunks = 0;     // chunks executed by non-caller workers
  int64_t max_region_chunks = 0; // widest single region
  int64_t workers = 0;           // worker threads spawned (excludes caller)

  double stolen_fraction() const {
    return chunks > 0 ? static_cast<double>(stolen_chunks) /
                            static_cast<double>(chunks)
                      : 0.0;
  }
};
PoolStats pool_stats();

// Combines `parts` partial results with a fixed stride-doubling tree:
//   stride 1: combine(0,1) combine(2,3) ...
//   stride 2: combine(0,2) combine(4,6) ...
// leaving the total in part 0. Executes serially (parts is small — at most
// kMaxChunks), so the floating-point association depends only on `parts`,
// never on thread arrival order. This is the reduction the trainer uses for
// per-sample weight gradients.
void tree_reduce(int64_t parts,
                 const std::function<void(int64_t dst, int64_t src)>& combine);

}  // namespace mn::parallel
