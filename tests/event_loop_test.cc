// Tests for rt::EventLoop (src/georep/runtime/event_loop.h): the ordering
// contract the geo runtime's Environment binding relies on — per-thread
// post order, loop-task posts deferred past the posting task, timers in due
// order and never early, no starvation by a self-reposting chain — plus
// RunBlocking from both sides of the loop and Stop's discard semantics.

#include "src/georep/runtime/event_loop.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace eunomia::geo::rt {
namespace {

constexpr auto kWait = std::chrono::seconds(10);

TEST(EventLoopTest, ForeignPostsRunInPostOrder) {
  EventLoop loop;
  loop.Start();
  std::vector<int> seen;  // touched only by loop tasks
  std::thread poster([&] {
    for (int i = 0; i < 1000; ++i) {
      loop.Post([&seen, i] { seen.push_back(i); });
    }
  });
  poster.join();
  std::vector<int> snapshot;
  loop.RunBlocking([&] { snapshot = seen; });
  ASSERT_EQ(snapshot.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(snapshot[i], i);
  }
}

TEST(EventLoopTest, LoopTaskPostsRunAfterThePosterReturnsInPostOrder) {
  EventLoop loop;
  loop.Start();
  std::vector<std::string> seen;  // touched only by loop tasks
  std::promise<void> done;
  loop.Post([&] {
    loop.Post([&] { seen.push_back("a"); });
    loop.ScheduleAfter(0, [&] { seen.push_back("b"); });
    loop.Post([&] {
      seen.push_back("c");
      done.set_value();
    });
    seen.push_back("poster returns");
  });
  ASSERT_EQ(done.get_future().wait_for(kWait), std::future_status::ready);
  loop.Stop();
  EXPECT_EQ(seen, (std::vector<std::string>{"poster returns", "a", "b", "c"}));
}

TEST(EventLoopTest, TimersFireInDueOrderAndNeverEarly) {
  EventLoop loop;
  loop.Start();
  struct Fired {
    int id;
    std::uint64_t earliest;
    std::uint64_t at;
  };
  std::vector<Fired> fired;  // touched only by loop tasks
  std::promise<void> done;
  // A self-reposting chain keeps rounds turning over while the timers are
  // pending, so every round start is a chance to fire one early.
  std::atomic<bool> spin{true};
  std::function<void()> chain = [&] {
    if (spin.load()) {
      loop.Post(chain);
    }
  };
  loop.Post(chain);
  const std::uint64_t delays[] = {30'000, 10'000, 20'000, 10'000};
  for (int id = 0; id < 4; ++id) {
    const std::uint64_t earliest = loop.Now() + delays[id];
    loop.ScheduleAfter(delays[id], [&, id, earliest] {
      fired.push_back({id, earliest, loop.Now()});
      if (fired.size() == 4) {
        done.set_value();
      }
    });
  }
  const bool all_fired =
      done.get_future().wait_for(kWait) == std::future_status::ready;
  spin.store(false);
  loop.Stop();
  ASSERT_TRUE(all_fired);
  // Equal due times fire in submission order: 1 (10 ms) before 3 (10 ms,
  // scheduled later).
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_EQ(fired[0].id, 1);
  EXPECT_EQ(fired[1].id, 3);
  EXPECT_EQ(fired[2].id, 2);
  EXPECT_EQ(fired[3].id, 0);
  for (const Fired& f : fired) {
    EXPECT_GE(f.at, f.earliest) << "timer " << f.id << " fired early";
  }
}

TEST(EventLoopTest, SelfRepostingTaskStarvesNeitherTimersNorForeignPosts) {
  EventLoop loop;
  loop.Start();
  std::atomic<bool> spin{true};
  std::atomic<std::uint64_t> spins{0};
  std::function<void()> chain = [&] {
    spins.fetch_add(1, std::memory_order_relaxed);
    if (spin.load()) {
      loop.Post(chain);
    }
  };
  loop.Post(chain);
  while (spins.load() < 100) {
    std::this_thread::yield();
  }
  std::promise<void> timer;
  std::promise<void> foreign;
  loop.ScheduleAfter(2'000, [&] { timer.set_value(); });
  loop.Post([&] { foreign.set_value(); });
  const bool timer_ran =
      timer.get_future().wait_for(kWait) == std::future_status::ready;
  const bool foreign_ran =
      foreign.get_future().wait_for(kWait) == std::future_status::ready;
  spin.store(false);
  loop.Stop();
  EXPECT_TRUE(timer_ran);
  EXPECT_TRUE(foreign_ran);
}

TEST(EventLoopTest, RunBlockingFromForeignAndLoopThread) {
  EventLoop loop;
  loop.Start();
  bool on_loop = false;
  loop.RunBlocking([&] { on_loop = loop.InLoopThread(); });
  EXPECT_TRUE(on_loop);
  EXPECT_FALSE(loop.InLoopThread());

  // From a loop task, RunBlocking must run fn inline — posting and waiting
  // would deadlock the loop on itself.
  std::promise<bool> inline_ran;
  loop.Post([&] {
    bool ran = false;
    loop.RunBlocking([&] { ran = true; });
    inline_ran.set_value(ran);
  });
  auto result = inline_ran.get_future();
  ASSERT_EQ(result.wait_for(kWait), std::future_status::ready);
  EXPECT_TRUE(result.get());
}

// A loop task that reports it is running, then holds the loop until *open.
std::function<void()> Blocker(std::promise<void>* running,
                              std::atomic<bool>* open) {
  return [running, open] {
    running->set_value();
    while (!open->load()) {
      std::this_thread::yield();
    }
  };
}

// Calls Stop while a Blocker holds the loop and opens it only once Stop is
// in effect: a post is then discarded on the spot, so the loop no longer
// holds the closure and its captures are released at once. Returns whether
// that was observed.
bool StopWhileBlocked(EventLoop& loop, std::atomic<bool>* open) {
  std::thread stopper([&loop] { loop.Stop(); });
  bool discarded = false;
  const auto deadline = std::chrono::steady_clock::now() + kWait;
  while (!discarded && std::chrono::steady_clock::now() < deadline) {
    auto token = std::make_shared<int>(0);
    loop.Post([token] {});
    discarded = token.use_count() == 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  open->store(true);
  stopper.join();
  return discarded;
}

TEST(EventLoopTest, StopDiscardsPendingTasks) {
  std::atomic<int> ran{0};
  const auto count = [&ran] { ran.fetch_add(1); };
  {
    // The blocker is a local task with another local task behind it in the
    // same round; a foreign post and a due timer wait for the next round.
    EventLoop loop;
    loop.Start();
    std::promise<void> running;
    std::atomic<bool> open{false};
    loop.Post([&] {
      loop.Post(Blocker(&running, &open));
      loop.Post(count);
    });
    ASSERT_EQ(running.get_future().wait_for(kWait), std::future_status::ready);
    loop.Post(count);
    loop.ScheduleAfter(1, count);
    EXPECT_TRUE(StopWhileBlocked(loop, &open));
  }
  EXPECT_EQ(ran.load(), 0);
  {
    // The blocker is a foreign post with another foreign post behind it in
    // the same swapped-out group: gate a holds the loop while both queue.
    EventLoop loop;
    loop.Start();
    std::promise<void> running_a;
    std::promise<void> running_b;
    std::atomic<bool> open_a{false};
    std::atomic<bool> open_b{false};
    loop.Post(Blocker(&running_a, &open_a));
    ASSERT_EQ(running_a.get_future().wait_for(kWait),
              std::future_status::ready);
    loop.Post(Blocker(&running_b, &open_b));
    loop.Post(count);
    open_a.store(true);
    ASSERT_EQ(running_b.get_future().wait_for(kWait),
              std::future_status::ready);
    EXPECT_TRUE(StopWhileBlocked(loop, &open_b));
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST(EventLoopTest, AfterStopPostsDoNothingAndRunBlockingRunsInline) {
  EventLoop loop;
  loop.Start();
  loop.Stop();
  int ran = 0;
  loop.Post([&] { ++ran; });
  loop.ScheduleAfter(0, [&] { ++ran; });
  loop.ScheduleAfter(1, [&] { ++ran; });
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id runner;
  loop.RunBlocking([&] { runner = std::this_thread::get_id(); });
  EXPECT_EQ(runner, caller);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(ran, 0);
}

TEST(EventLoopTest, PostsBeforeStartRunOnceStarted) {
  EventLoop loop;
  std::vector<int> seen;
  std::promise<void> done;
  loop.Post([&] { seen.push_back(1); });
  loop.Post([&] {
    seen.push_back(2);
    done.set_value();
  });
  loop.Start();
  ASSERT_EQ(done.get_future().wait_for(kWait), std::future_status::ready);
  loop.Stop();
  EXPECT_EQ(seen, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace eunomia::geo::rt
