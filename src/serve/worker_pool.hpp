// Persistent FIFO run pool for the serve daemon.
//
// sim::ThreadPool is a fork-join pool: parallel_for blocks its caller
// until the whole range drains, which is exactly wrong for a daemon
// where many connections submit jobs concurrently and each streams its
// own results as they land. ServePool is the long-lived counterpart:
// workers live for the daemon's lifetime, each with a RunWorkspace
// reused across every run it ever takes (the same warm-heap property
// the campaign runner gets per sweep, extended across sweeps).
//
// Scheduling is one FIFO queue of run tasks. Submission appends a job's
// runs in plan order and a free worker takes the oldest task, so jobs
// start in arrival order and each job's slots start in plan order (with
// one worker they also finish in it). That is the fair order for this
// daemon: a connection streams its reply in plan order, so a reply
// waits for its slowest slot, and under LIFO scheduling a newer
// request's runs would overtake an older request's. A task is a whole
// simulation run, so one shared queue under one mutex costs nothing
// measurable.
//
// Results are deterministic by construction, not by scheduling: every
// run writes its metrics into its plan slot in the job, so whichever
// worker executes it — in whatever order — the job's result vector is
// identical, and a reader consuming slots in plan order sees a
// byte-stable stream.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"

namespace ssmwn::serve {

/// One submitted spec: the expanded plan plus per-slot completion
/// tracking. Workers fill `results` and flip `done` flags; readers
/// block on wait_slot(i) for slots in plan order. `failed[i]` carries a
/// run's error message instead of metrics (the connection reports it
/// and keeps serving).
struct ServeJob {
  campaign::CampaignPlan plan;
  std::vector<campaign::RunMetrics> results;
  std::vector<char> done;
  std::vector<std::string> failed;  // empty string = run succeeded

  std::mutex mutex;
  std::condition_variable cv;

  explicit ServeJob(campaign::CampaignPlan p)
      : plan(std::move(p)),
        results(plan.runs.size()),
        done(plan.runs.size(), 0),
        failed(plan.runs.size()) {}

  /// Blocks until run slot `i` completes.
  void wait_slot(std::size_t i) {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return done[i] != 0; });
  }
};

class ServePool {
 public:
  /// `threads` = 0 means hardware concurrency. `exec` carries the
  /// result-neutral engine knobs (shards) every run shares.
  explicit ServePool(unsigned threads,
                     const campaign::ExecutionOptions& exec = {});
  ~ServePool();  // drains: queued work finishes before workers exit

  ServePool(const ServePool&) = delete;
  ServePool& operator=(const ServePool&) = delete;

  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Appends every run of the job to the queue in plan order. The job
  /// must outlive its runs — hence shared_ptr; the pool drops its
  /// references as runs complete.
  void submit(const std::shared_ptr<ServeJob>& job);

  /// Graceful drain: stop accepting work, finish everything queued,
  /// join the workers. Idempotent; the destructor calls it.
  void drain();

 private:
  struct Task {
    std::shared_ptr<ServeJob> job;
    std::size_t run_index = 0;
  };

  void worker_main();

  campaign::ExecutionOptions exec_;
  std::mutex mutex_;  // guards queue_ and stopping_
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ssmwn::serve
