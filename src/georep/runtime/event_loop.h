// A single-threaded timer/task loop: the real-world stand-in for the
// discrete-event simulator's one-at-a-time event execution.
//
// Each real datacenter node (geo_node.h) owns one EventLoop and routes
// every runtime interaction through it — timers, client operations,
// messages arriving from transport threads — which is how the real binding
// honours the Environment contract that all DatacenterRuntime calls are
// serialized and never reentrant.
//
// Three queues feed the loop thread:
//   - local: Post/ScheduleAfter(0) called *by a loop task* appends to an
//     unlocked FIFO only the loop thread touches (no mutex, no clock read);
//   - foreign: Post from any other thread appends to a mutex-guarded
//     vector the loop swaps out whole once per round;
//   - timers: ScheduleAfter(delay > 0) from any thread goes into a
//     mutex-guarded (due time, submission order) map.
// Each round runs the timers due at its start, then the swapped-out
// foreign posts, then only the local tasks queued when the round began —
// so a task that reposts itself forever cannot starve a timer or a
// foreign post. A poster wakes the loop only when it is asleep.
//
// Ordering contract: posts from one thread run in post order; a task
// posted by a loop task runs after the posting task returns, never inline;
// a timer never fires before its delay, and timers fire in (due time,
// submission) order. Stop() discards pending tasks and joins the thread,
// so after Stop returns no task is running or will run — state owned by
// loop tasks may then be inspected from any thread — and later posts do
// nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/sync.h"

namespace eunomia::geo::rt {

class EventLoop {
 public:
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  void Start();
  void Stop();

  // Monotonic microseconds since a process-wide epoch shared by every
  // EventLoop. Sharing matters for crash/restart: a node restarted on a
  // fresh loop must keep issuing hybrid-clock timestamps strictly ahead of
  // its previous incarnation's, or peers' duplicate suppression would drop
  // its post-restart updates.
  std::uint64_t Now() const;

  // Runs fn on the loop thread no earlier than delay_us from now. Safe from
  // any thread, including loop tasks themselves. A no-op after Stop.
  void ScheduleAfter(std::uint64_t delay_us, std::function<void()> fn);
  void Post(std::function<void()> fn) { ScheduleAfter(0, std::move(fn)); }

  // Runs fn on the loop thread and blocks until it completed — the safe way
  // to inspect runtime state while the loop is live. Executes fn inline
  // when the loop is not running (then the caller is the only thread).
  void RunBlocking(std::function<void()> fn);

  bool InLoopThread() const {
    return std::this_thread::get_id() ==
           loop_thread_id_.load(std::memory_order_acquire);
  }

 private:
  using Task = std::function<void()>;

  void RunLoop();

  const std::chrono::steady_clock::time_point epoch_;
  mutable sync::Mutex mu_{"rt::EventLoop::mu_", sync::kRankEventLoop};
  sync::CondVar cv_;
  std::vector<Task> foreign_ GUARDED_BY(mu_);
  // (due time us, submission seq) -> task; iteration order is firing order.
  std::multimap<std::pair<std::uint64_t, std::uint64_t>, Task> timers_
      GUARDED_BY(mu_);
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  bool running_ GUARDED_BY(mu_) = false;
  bool sleeping_ GUARDED_BY(mu_) = false;
  // Written under mu_ (so posters checking it under mu_ never enqueue
  // after Stop's final clear), read lock-free between tasks.
  std::atomic<bool> stopped_{false};
  // Touched only by the loop thread while it runs, and by Stop after the
  // join.
  std::deque<Task> local_;
  std::thread thread_;
  // Atomic rather than mu_-guarded: InLoopThread is called from loop tasks
  // and from the lock-free local post path.
  std::atomic<std::thread::id> loop_thread_id_{};
};

}  // namespace eunomia::geo::rt
