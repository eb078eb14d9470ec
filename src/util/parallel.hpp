#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "util/error.hpp"

#if defined(TEALEAF_HAVE_OPENMP)
#include <omp.h>
#endif

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace tealeaf {

/// Number of worker threads the kernels will use.
inline int num_threads() {
#if defined(TEALEAF_HAVE_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// True while executing inside an active parallel region (a
/// `parallel_region` body or any OpenMP parallel construct).
inline bool in_parallel_region() {
#if defined(TEALEAF_HAVE_OPENMP)
  return omp_in_parallel() != 0;
#else
  return false;
#endif
}

/// CPU spin-wait hint: tells the core a busy-wait iteration is in flight
/// (frees execution resources for the sibling hyperthread and softens the
/// memory-order flush when the awaited line finally changes).  `pause` on
/// x86, `yield` on ARM, nothing elsewhere — purely a hint, never required
/// for correctness.
inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Scoped subnormal flushing for the calling thread.  Constructed with
/// `true` on x86-64 it saves MXCSR and sets FTZ (bit 15: subnormal
/// results become zero) and DAZ (bit 6: subnormal inputs read as zero);
/// the destructor restores the saved register.  The FP control register
/// belongs to one thread, so a parallel region that wants flushing must
/// hold one guard on every thread of the region.  On every other target
/// the guard is a no-op and gradual underflow stays on (`kActive` is
/// false there).
class SubnormalFlush {
 public:
#if defined(__x86_64__)
  static constexpr bool kActive = true;
#else
  static constexpr bool kActive = false;
#endif

  explicit SubnormalFlush(bool on) {
#if defined(__x86_64__)
    if (on) {
      saved_ = _mm_getcsr();
      _mm_setcsr(saved_ | kFtz | kDaz);
      held_ = true;
    }
#else
    (void)on;
#endif
  }
  ~SubnormalFlush() {
#if defined(__x86_64__)
    if (held_) _mm_setcsr(saved_);
#endif
  }
  SubnormalFlush(const SubnormalFlush&) = delete;
  SubnormalFlush& operator=(const SubnormalFlush&) = delete;

 private:
#if defined(__x86_64__)
  static constexpr unsigned kFtz = 1u << 15;
  static constexpr unsigned kDaz = 1u << 6;
  unsigned saved_ = 0;
  bool held_ = false;
#endif
};

/// Sense-reversing spin barrier: the synchronisation primitive behind
/// sub-teams.  An orphaned `#pragma omp barrier` always binds to the
/// innermost enclosing parallel region — EVERY thread of the region must
/// arrive — so a subset of the region's threads (a batch sub-team, each
/// solving its own request) cannot use it without deadlocking against the
/// other sub-teams' independent control flow.  Classic sense reversal
/// instead: the last of `nthreads` arrivals resets the count and flips
/// the shared sense; earlier arrivals spin until they observe the flip.
/// Each thread keeps its local sense in its Team handle, so one barrier
/// object serves an unbounded sequence of episodes.
class SpinBarrier {
 public:
  explicit SpinBarrier(int nthreads) : nthreads_(nthreads) {}

  /// Block until all `nthreads` threads of the sub-team have arrived.
  /// `local_sense` is the calling thread's episode parity (owned by its
  /// Team); release/acquire on the shared sense makes every write before
  /// the barrier visible to every thread after it.
  void arrive_and_wait(bool& local_sense) {
    const bool waiting_for = !local_sense;
    local_sense = waiting_for;
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == nthreads_) {
      count_.store(0, std::memory_order_relaxed);
      sense_.store(waiting_for, std::memory_order_release);
      return;
    }
    int spins = 0;
    while (sense_.load(std::memory_order_acquire) != waiting_for) {
      // Busy-wait is right when threads == cores (the fused engine's
      // normal mode); yield periodically so oversubscribed runs (CI
      // containers, sanitizer jobs) still make progress.
      cpu_pause();
      if (++spins >= 4096) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }

  [[nodiscard]] int num_threads() const { return nthreads_; }

 private:
  // The counter absorbs one fetch_add per arrival while the earlier
  // arrivals poll the sense flag; padding each to its own cache line
  // keeps every arrival's read-modify-write from invalidating the line
  // the spinners are polling.
  alignas(64) std::atomic<int> count_{0};
  alignas(64) std::atomic<bool> sense_{false};
  int nthreads_;
};

/// Handle to one thread of a hoisted parallel region (the fused kernel
/// execution engine).  A `parallel_region` body receives one Team per
/// thread; worksharing and synchronisation go through it so a whole
/// solver iteration — halo exchange, operator sweeps, reductions — runs
/// inside a single fork/join instead of paying one per kernel.
///
/// Worksharing contract: `for_range` partitions [begin, end) into
/// contiguous blocks, thread t owning block t.  The mapping is a pure
/// function of (range, num_threads), so repeated calls over the same
/// range land on the same thread — this is what makes NUMA first-touch
/// placement stick (the thread that first touched a chunk's fields keeps
/// processing that chunk).  There is NO implied barrier; call `barrier()`
/// when a later phase reads what an earlier phase wrote.
///
/// A Team may also represent a SUB-TEAM: a contiguous slice of the
/// region's threads with its own SpinBarrier (see `sub_team_slot`).  The
/// solve-server's batch engine partitions one region into sub-teams, one
/// per in-flight request; all worksharing below is a pure function of
/// (thread_id, num_threads), so a sub-team behaves exactly like a small
/// region and every Team-parameterised kernel runs unchanged on it.
class Team {
 public:
  Team(int thread_id, int nthreads)
      : tid_(thread_id), nthreads_(nthreads) {}

  /// Sub-team form: `barrier()` goes through `spin` instead of the
  /// region-wide OpenMP barrier.  `thread_id` is the LOCAL id within the
  /// sub-team; `nthreads` its size (== spin->num_threads()).
  Team(int thread_id, int nthreads, SpinBarrier* spin)
      : tid_(thread_id), nthreads_(nthreads), spin_(spin) {}

  [[nodiscard]] int thread_id() const { return tid_; }
  [[nodiscard]] int num_threads() const { return nthreads_; }

  /// Workshare [begin, end): this thread runs its contiguous block.
  /// Balanced partition (the first n % threads blocks get one extra
  /// iteration — the same split mainstream OpenMP runtimes use for
  /// schedule(static)), so tail threads are never left idle.  No implied
  /// barrier.
  template <class Body>
  void for_range(std::int64_t begin, std::int64_t end,
                 const Body& body) const {
    const std::int64_t n = end - begin;
    if (n <= 0) return;
    const std::int64_t q = n / nthreads_;
    const std::int64_t rem = n % nthreads_;
    const std::int64_t tid = tid_;
    const std::int64_t lo = begin + q * tid + std::min<std::int64_t>(tid, rem);
    const std::int64_t hi = lo + q + (tid < rem ? 1 : 0);
    for (std::int64_t i = lo; i < hi; ++i) body(i);
  }

  /// 2-D worksharing over (outer, inner) pairs — the tiled execution
  /// engine's scheduler.  The iteration space is the concatenation of
  /// `count_of(o)` inner items for each outer index o in [0, nouter);
  /// the flattened pairs are partitioned contiguously over the team with
  /// the same balanced split as `for_range`, so when the inner counts
  /// are row-blocks of simulated ranks, chunks larger than the rank
  /// count spread across the whole thread team instead of pinning one
  /// thread per rank.  `count_of(o)` must be uniform across the team (a
  /// pure function of o).  No implied barrier.
  template <class CountFn, class Body>
  void for_range_2d(std::int64_t nouter, const CountFn& count_of,
                    const Body& body) const {
    std::int64_t total = 0;
    for (std::int64_t o = 0; o < nouter; ++o) total += count_of(o);
    if (total <= 0) return;
    const std::int64_t q = total / nthreads_;
    const std::int64_t rem = total % nthreads_;
    const std::int64_t tid = tid_;
    const std::int64_t lo = q * tid + std::min<std::int64_t>(tid, rem);
    const std::int64_t hi = lo + q + (tid < rem ? 1 : 0);
    std::int64_t base = 0;
    for (std::int64_t o = 0; o < nouter && base < hi; ++o) {
      const std::int64_t n = count_of(o);
      const std::int64_t s = std::max(base, lo);
      const std::int64_t e = std::min(base + n, hi);
      for (std::int64_t f = s; f < e; ++f) body(o, f - base);
      base += n;
    }
  }

  /// Team-wide barrier.  A full-region Team uses the orphaned OpenMP
  /// barrier (binds to the innermost enclosing parallel region, so it
  /// works from any call depth); a sub-team synchronises only its own
  /// threads through its SpinBarrier.
  void barrier() const {
    if (spin_ != nullptr) {
      spin_->arrive_and_wait(sense_);
      return;
    }
#if defined(TEALEAF_HAVE_OPENMP)
#pragma omp barrier
#endif
  }

  /// Run `body` on thread 0 only (stats accounting, result publication).
  /// No implied barrier — pair with `barrier()` if other threads read
  /// the result.
  template <class Body>
  void single(const Body& body) const {
    if (tid_ == 0) body();
  }

 private:
  int tid_ = 0;
  int nthreads_ = 1;
  SpinBarrier* spin_ = nullptr;
  mutable bool sense_ = false;  ///< this thread's SpinBarrier episode parity
};

/// Placement of one region thread in a partition of the region into
/// `ngroups` contiguous sub-teams (the batch engine's thread split).
struct SubTeamSlot {
  int group = 0;     ///< which sub-team this thread belongs to
  int local_id = 0;  ///< thread id within the sub-team
  int size = 1;      ///< sub-team thread count
};

/// Balanced contiguous split of `nthreads` region threads into `ngroups`
/// sub-teams — the same split Team::for_range applies to iteration
/// ranges (first nthreads % ngroups groups get one extra thread), so the
/// mapping is a pure function of (tid, nthreads, ngroups) and identical
/// on every thread.  Requires 1 <= ngroups <= nthreads.
inline SubTeamSlot sub_team_slot(int tid, int nthreads, int ngroups) {
  TEA_ASSERT(ngroups >= 1 && ngroups <= nthreads,
             "sub_team_slot: need 1 <= ngroups <= nthreads");
  const int q = nthreads / ngroups;
  const int rem = nthreads % ngroups;
  SubTeamSlot slot;
  if (tid < rem * (q + 1)) {
    slot.group = tid / (q + 1);
    slot.local_id = tid - slot.group * (q + 1);
    slot.size = q + 1;
  } else {
    const int t = tid - rem * (q + 1);
    slot.group = rem + t / q;
    slot.local_id = t - (slot.group - rem) * q;
    slot.size = q;
  }
  return slot;
}

/// Open ONE parallel region and run `body(team)` on every thread.  This
/// is the one fork/join of every solve: kernels and exchanges inside the
/// body workshare through the Team instead of each opening (and paying
/// for) their own region.
///
/// `body` must be region-safe: all threads must take the same control
/// path through barriers, and values derived from team reductions are
/// computed identically on every thread (the reductions are rank-ordered
/// and deterministic).  Exceptions must not escape `body` — an exception
/// crossing an OpenMP region boundary terminates the process, which is
/// why the solvers report numerical breakdown via flags, not throws.
///
/// Nesting is a contract violation: a region inside a region would either
/// oversubscribe or silently serialise depending on the OpenMP runtime.
template <class Body>
void parallel_region(const Body& body) {
  TEA_ASSERT(!in_parallel_region(),
             "parallel_region must not nest inside an active region");
#if defined(TEALEAF_HAVE_OPENMP)
#pragma omp parallel
  {
    Team team(omp_get_thread_num(), omp_get_num_threads());
    body(team);
  }
#else
  Team team(0, 1);
  body(team);
#endif
}

/// RAII override of the thread count later regions run with (no-op when
/// threads == 0 or without OpenMP); the previous count is restored on
/// scope exit.
class ThreadScope {
 public:
  explicit ThreadScope(int threads) {
#if defined(TEALEAF_HAVE_OPENMP)
    if (threads > 0) {
      saved_ = omp_get_max_threads();
      omp_set_num_threads(threads);
    }
#else
    (void)threads;
#endif
  }
  ~ThreadScope() {
#if defined(TEALEAF_HAVE_OPENMP)
    if (saved_ > 0) omp_set_num_threads(saved_);
#endif
  }
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  int saved_ = 0;
};

/// Parallel loop over [begin, end).  `body(i)` must be safe to run
/// concurrently for distinct i.  Falls back to serial without OpenMP.
///
/// Explicitly single-level: when called from inside an active parallel
/// region (where a nested `omp parallel for` would oversubscribe or
/// silently serialise depending on OMP_NESTED), the `if` clause forces a
/// deterministic serial loop on the calling thread.  Code running inside
/// a `parallel_region` should workshare through Team::for_range instead.
template <class Body>
void parallel_for(std::int64_t begin, std::int64_t end, const Body& body) {
#if defined(TEALEAF_HAVE_OPENMP)
#pragma omp parallel for schedule(static) if (!omp_in_parallel())
  for (std::int64_t i = begin; i < end; ++i) body(i);
#else
  for (std::int64_t i = begin; i < end; ++i) body(i);
#endif
}

}  // namespace tealeaf
