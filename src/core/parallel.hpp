// catalyst/core -- the shared worker-pool helper.
//
// Every thread-parallel loop in catalyst follows the same discipline (first
// written for vpapi::collect, now shared): a fixed work list whose units each
// write a disjoint slice of the output, workers claiming units through an
// atomic cursor, and the first worker exception captured and rethrown after
// the join.  Determinism comes from the discipline, not the scheduler: a
// unit's result must be a pure function of its own index, so any thread
// count -- including the serial threads <= 1 fast path, which spawns
// nothing -- produces bit-identical output (the `core/campaign` argument).
//
// catalyst-lint's raw-thread-spawn rule enforces that this header is the
// ONLY place in src/ that constructs std::thread; its raw-sync-primitive
// rule keeps the error slot below on the annotated sync::Mutex.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

#include "sync/annotations.hpp"
#include "sync/mutex.hpp"

namespace catalyst::core {

/// First-exception capture slot shared by a worker pool: keeps the earliest
/// exception a worker threw, drops the rest, and exposes a lock-free `armed`
/// flag workers poll to abandon remaining units.  The slot is the annotated
/// pattern every parallel merge in the tree follows -- data under
/// CATALYST_GUARDED_BY, locked-context helpers under CATALYST_REQUIRES.
class FirstError {
 public:
  /// Records `error` unless one is already held (first throw wins).
  void capture(std::exception_ptr error) CATALYST_EXCLUDES(mutex_) {
    const sync::LockGuard lock(mutex_);
    set_locked(std::move(error));
  }

  /// True once any worker has captured; one relaxed load (polled per unit).
  bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Rethrows the captured exception, if any (called after the join).
  void rethrow_if_set() CATALYST_EXCLUDES(mutex_) {
    std::exception_ptr error;
    {
      const sync::LockGuard lock(mutex_);
      error = error_;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  // Deliberately REQUIRES-annotated: removing this annotation must make the
  // `check.sh thread_safety` stage fail (the body touches `error_`, which
  // is GUARDED_BY the mutex the annotation promises is held).
  void set_locked(std::exception_ptr error) CATALYST_REQUIRES(mutex_) {
    if (!error_) error_ = std::move(error);
    armed_.store(true, std::memory_order_relaxed);
  }

  sync::Mutex mutex_{"core.parallel.first_error"};
  std::exception_ptr error_ CATALYST_GUARDED_BY(mutex_);
  std::atomic<bool> armed_{false};
};

/// Workers for `units` independent units: min(units, hardware threads),
/// at least 1.
inline int hardware_workers(std::size_t units) noexcept {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::max<std::size_t>(1, std::min(units, hw)));
}

/// Runs body(unit) for every unit in [0, total), on up to `threads` workers.
/// threads <= 1 (or total < 2) runs inline on the calling thread with no
/// spawn at all.  Units are claimed dynamically, so the assignment of units
/// to threads is NOT deterministic -- the body must write only to
/// unit-indexed slots (or merge under a lock into an order-independent
/// accumulator) for the overall result to be.
///
/// A throw from a worker reaches the caller, not std::terminate: the first
/// exception is captured, the remaining units are abandoned, and the
/// exception is rethrown after the join.  Callers that must not leak partial
/// output catch, discard, and rethrow.
template <typename Body>
void parallel_for(std::size_t total, int threads, Body&& body) {
  if (total == 0) return;
  if (threads <= 1 || total < 2) {
    for (std::size_t unit = 0; unit < total; ++unit) body(unit);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  FirstError first_error;
  const int nt = threads < static_cast<int>(total)
                     ? threads
                     : static_cast<int>(total);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(nt));
  for (int t = 0; t < nt; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t unit = cursor.fetch_add(1);
        if (unit >= total || first_error.armed()) {
          break;
        }
        try {
          body(unit);
        } catch (...) {
          first_error.capture(std::current_exception());
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  first_error.rethrow_if_set();
}

/// Splits [0, total) into chunks of `grain` consecutive indices (the last
/// one possibly shorter) and runs body(begin, end) once per chunk.  Chunk
/// boundaries depend only on (total, grain) -- never on the thread count --
/// so per-chunk partial results merged in chunk order are bit-identical for
/// any number of workers.
template <typename Body>
void parallel_for_chunks(std::size_t total, int threads, std::size_t grain,
                         Body&& body) {
  if (total == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t n_chunks = (total + grain - 1) / grain;
  parallel_for(n_chunks, threads, [&](std::size_t c) {
    const std::size_t begin = c * grain;
    const std::size_t end = begin + grain < total ? begin + grain : total;
    body(begin, end);
  });
}

}  // namespace catalyst::core
