#include "src/georep/runtime/event_loop.h"

#include <future>

namespace eunomia::geo::rt {

namespace {

// One epoch for the whole process: every EventLoop reads the same monotonic
// timeline, so timestamps survive an owner's crash/restart (see Now()).
std::chrono::steady_clock::time_point ProcessEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

EventLoop::EventLoop() : epoch_(ProcessEpoch()) {}

EventLoop::~EventLoop() { Stop(); }

std::uint64_t EventLoop::Now() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void EventLoop::Start() {
  sync::MutexLock lock(mu_);
  if (running_ || stopped_) {
    return;
  }
  running_ = true;
  thread_ = std::thread([this] { RunLoop(); });
}

void EventLoop::Stop() {
  {
    sync::MutexLock lock(mu_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
    cv_.NotifyOne();
  }
  if (thread_.joinable()) {
    thread_.join();
  }
  local_.clear();
  sync::MutexLock lock(mu_);
  running_ = false;
  foreign_.clear();
  timers_.clear();
}

void EventLoop::ScheduleAfter(std::uint64_t delay_us,
                              std::function<void()> fn) {
  if (delay_us == 0 && InLoopThread()) {
    if (!stopped_) {
      local_.push_back(std::move(fn));
    }
    return;
  }
  sync::MutexLock lock(mu_);
  if (stopped_) {
    return;
  }
  if (delay_us == 0) {
    foreign_.push_back(std::move(fn));
  } else {
    timers_.emplace(std::make_pair(Now() + delay_us, next_seq_++),
                    std::move(fn));
  }
  // A running loop finds the task at its next round; a sleeping one is
  // woken once, not once per post.
  if (sleeping_) {
    sleeping_ = false;
    cv_.NotifyOne();
  }
}

void EventLoop::RunBlocking(std::function<void()> fn) {
  {
    sync::MutexLock lock(mu_);
    if (!running_ || stopped_) {
      fn();  // loop not live: the caller is the only executor
      return;
    }
  }
  if (InLoopThread()) {
    fn();
    return;
  }
  auto done = std::make_shared<std::promise<void>>();
  auto future = done->get_future();
  Post([&fn, done] {
    fn();
    done->set_value();
  });
  // Wait, but survive a concurrent Stop(): Stop discards queued tasks, so
  // once the loop is down and our task did not run, execute inline — the
  // joined loop thread can no longer touch runtime state.
  while (future.wait_for(std::chrono::milliseconds(20)) !=
         std::future_status::ready) {
    sync::MutexLock lock(mu_);
    if (stopped_ && !running_) {
      if (future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        fn();
      }
      return;
    }
  }
}

void EventLoop::RunLoop() {
  // Published from the loop thread itself, so the very first task already
  // takes the local-post path.
  loop_thread_id_.store(std::this_thread::get_id(), std::memory_order_release);
  std::vector<Task> due;
  std::vector<Task> foreign;
  while (true) {
    {
      sync::MutexLock lock(mu_);
      // Sleep until something is runnable: a local or foreign post, or the
      // earliest timer's due time.
      while (!stopped_ && local_.empty() && foreign_.empty()) {
        if (timers_.empty()) {
          sleeping_ = true;
          cv_.Wait(mu_);
        } else {
          const std::uint64_t next = timers_.begin()->first.first;
          if (next <= Now()) {
            break;
          }
          sleeping_ = true;
          cv_.WaitUntil(mu_, epoch_ + std::chrono::microseconds(next));
        }
        sleeping_ = false;
      }
      if (stopped_) {
        return;
      }
      if (!timers_.empty()) {
        const std::uint64_t now = Now();
        while (!timers_.empty() && timers_.begin()->first.first <= now) {
          due.push_back(std::move(timers_.begin()->second));
          timers_.erase(timers_.begin());
        }
      }
      foreign.swap(foreign_);
    }
    // Local tasks posted from here on wait for the next round.
    std::size_t local_count = local_.size();
    for (std::vector<Task>* group : {&due, &foreign}) {
      for (Task& slot : *group) {
        if (stopped_) {
          return;
        }
        Task fn = std::move(slot);  // destroyed right after it ran
        fn();
      }
      group->clear();
    }
    for (; local_count > 0 && !stopped_; --local_count) {
      Task fn = std::move(local_.front());
      local_.pop_front();
      fn();
    }
  }
}

}  // namespace eunomia::geo::rt
