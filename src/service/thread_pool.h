// A minimal fixed-size worker pool for the optimizer service.
//
// Deliberately tiny: the service's unit of work is one whole subsumption
// batch (milliseconds), so a mutex-guarded queue is nowhere near the
// bottleneck and keeps the pool auditable under TSan.
#ifndef OODB_SERVICE_THREAD_POOL_H_
#define OODB_SERVICE_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "base/sync.h"

namespace oodb::service {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (at least 1). The pool is fixed for its
  // lifetime.
  explicit ThreadPool(size_t num_threads);
  // Drains outstanding work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  // Enqueues one task. Tasks must not throw. Returns false (and drops
  // the task) once Drain() has been called — the pool no longer accepts
  // work.
  bool Submit(std::function<void()> task) EXCLUDES(mu_);

  // Blocks until every submitted task has finished. Multiple threads may
  // Submit concurrently, but Wait assumes no new Submits race with it
  // (callers coordinate one batch at a time, as ParallelFor does).
  void Wait() EXCLUDES(mu_);

  // Graceful shutdown, distinct from the destructor's stop: rejects all
  // further Submits, then blocks until the queued and in-flight work has
  // finished. The workers stay alive (the destructor still joins them);
  // Drain is idempotent and safe to call from any non-worker thread.
  void Drain() EXCLUDES(mu_);

  // Tasks accepted but not yet finished (queued + running). A snapshot:
  // concurrent Submits/completions may change it immediately.
  size_t pending() const EXCLUDES(mu_);

  // Runs body(0..n-1) across the pool and blocks until all n calls have
  // returned. Work is claimed dynamically, one index at a time. Must not
  // be called after Drain() (its tasks would be rejected).
  void ParallelFor(size_t n, const std::function<void(size_t)>& body)
      EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  mutable base::Mutex mu_;
  base::CondVar work_ready_;
  base::CondVar idle_;
  std::queue<std::function<void()>> queue_ GUARDED_BY(mu_);
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  bool draining_ GUARDED_BY(mu_) = false;
  bool shutdown_ GUARDED_BY(mu_) = false;
};

}  // namespace oodb::service

#endif  // OODB_SERVICE_THREAD_POOL_H_
