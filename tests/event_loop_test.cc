#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace rafiki::net {
namespace {

/// A connected fd pair; both ends are readable once the other writes.
struct FdPair {
  int a = -1;
  int b = -1;
  FdPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~FdPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  void MakeReadable(int fd) const {
    int other = fd == a ? b : a;
    char byte = 'x';
    EXPECT_EQ(::send(other, &byte, 1, 0), 1);
  }
};

/// EventLoop on a hand-cranked clock: PollOnce(0) never sleeps and timers
/// fire exactly when the test advances `now`.
struct FakeClockLoop {
  double now = 0.0;
  EventLoop loop;
  FakeClockLoop()
      : loop([this] {
          EventLoop::Options options;
          options.clock = [this] { return now; };
          return options;
        }()) {}
};

TEST(EventLoopTest, DispatchesReadableFd) {
  FdPair fds;
  EventLoop loop;
  int reads = 0;
  ASSERT_TRUE(loop.AddFd(fds.a, true, false, [&](uint32_t events) {
    EXPECT_NE(events & EPOLLIN, 0u);
    char buf[8];
    EXPECT_EQ(::recv(fds.a, buf, sizeof(buf), 0), 1);
    ++reads;
  }).ok());
  EXPECT_EQ(loop.PollOnce(0), 0);  // nothing pending
  fds.MakeReadable(fds.a);
  EXPECT_EQ(loop.PollOnce(0.5), 1);
  EXPECT_EQ(reads, 1);
  EXPECT_EQ(loop.watcher_count(), 1u);
}

TEST(EventLoopTest, AddFdRejectsDuplicatesAndBadArgs) {
  FdPair fds;
  EventLoop loop;
  ASSERT_TRUE(loop.AddFd(fds.a, true, false, [](uint32_t) {}).ok());
  EXPECT_FALSE(loop.AddFd(fds.a, true, false, [](uint32_t) {}).ok());
  EXPECT_FALSE(loop.AddFd(-1, true, false, [](uint32_t) {}).ok());
  EXPECT_FALSE(loop.ModifyFd(fds.b, true, false).ok());
  EXPECT_FALSE(loop.RemoveFd(fds.b).ok());
  EXPECT_TRUE(loop.RemoveFd(fds.a).ok());
  EXPECT_FALSE(loop.WatchingFd(fds.a));
}

TEST(EventLoopTest, CallbackRemovesOwnFdDuringDispatch) {
  FdPair fds;
  EventLoop loop;
  int calls = 0;
  ASSERT_TRUE(loop.AddFd(fds.a, true, false, [&](uint32_t) {
    ++calls;
    EXPECT_TRUE(loop.RemoveFd(fds.a).ok());
  }).ok());
  fds.MakeReadable(fds.a);
  loop.PollOnce(0.5);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(loop.WatchingFd(fds.a));
  // The byte was never drained but the watcher is gone: no further events.
  EXPECT_EQ(loop.PollOnce(0), 0);
}

TEST(EventLoopTest, CallbackRemovesSiblingDuringDispatch) {
  // Both fds readable in the same batch; whichever dispatches first
  // removes the other. The removed watcher's event must be discarded
  // (generation tag), so exactly one callback runs.
  FdPair fds;
  EventLoop loop;
  int calls = 0;
  ASSERT_TRUE(loop.AddFd(fds.a, true, false, [&](uint32_t) {
    ++calls;
    (void)loop.RemoveFd(fds.b);
  }).ok());
  ASSERT_TRUE(loop.AddFd(fds.b, true, false, [&](uint32_t) {
    ++calls;
    (void)loop.RemoveFd(fds.a);
  }).ok());
  fds.MakeReadable(fds.a);
  fds.MakeReadable(fds.b);
  loop.PollOnce(0.5);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(loop.watcher_count(), 1u);
}

TEST(EventLoopTest, CallbackAddsFdDuringDispatch) {
  // Adding a watcher mid-dispatch may grow the watcher table while one of
  // its callbacks is executing; the new fd joins the next tick.
  FdPair first;
  FdPair second;
  EventLoop loop;
  int second_reads = 0;
  ASSERT_TRUE(loop.AddFd(first.a, true, false, [&](uint32_t) {
    char buf[8];
    (void)::recv(first.a, buf, sizeof(buf), 0);
    if (!loop.WatchingFd(second.a)) {
      EXPECT_TRUE(loop.AddFd(second.a, true, false, [&](uint32_t) {
        char inner[8];
        (void)::recv(second.a, inner, sizeof(inner), 0);
        ++second_reads;
      }).ok());
    }
  }).ok());
  second.MakeReadable(second.a);  // readable before it is even watched
  first.MakeReadable(first.a);
  loop.PollOnce(0.5);
  EXPECT_EQ(second_reads, 0);  // registered mid-tick, fires next tick
  loop.PollOnce(0.5);
  EXPECT_EQ(second_reads, 1);
}

TEST(EventLoopTest, ReaddAfterRemoveGetsFreshEvents) {
  FdPair fds;
  EventLoop loop;
  int old_calls = 0;
  int new_calls = 0;
  ASSERT_TRUE(loop.AddFd(fds.a, true, false, [&](uint32_t) {
    ++old_calls;
    // Swap registrations mid-dispatch: remove + re-add with a new
    // callback. Events already harvested for the old registration die.
    EXPECT_TRUE(loop.RemoveFd(fds.a).ok());
    EXPECT_TRUE(loop.AddFd(fds.a, true, false, [&](uint32_t) {
      char buf[8];
      (void)::recv(fds.a, buf, sizeof(buf), 0);
      ++new_calls;
    }).ok());
  }).ok());
  fds.MakeReadable(fds.a);
  loop.PollOnce(0.5);
  EXPECT_EQ(old_calls, 1);
  loop.PollOnce(0.5);
  EXPECT_EQ(old_calls, 1);
  EXPECT_EQ(new_calls, 1);
}

TEST(EventLoopTest, ModifyFdTogglesWriteInterest) {
  FdPair fds;
  EventLoop loop;
  bool got_write = false;
  ASSERT_TRUE(loop.AddFd(fds.a, true, false, [&](uint32_t events) {
    if (events & EPOLLOUT) got_write = true;
  }).ok());
  EXPECT_EQ(loop.PollOnce(0), 0);  // read-only interest: no events
  ASSERT_TRUE(loop.ModifyFd(fds.a, true, true).ok());
  EXPECT_EQ(loop.PollOnce(0.5), 1);  // socket buffer empty => writable
  EXPECT_TRUE(got_write);
  got_write = false;
  ASSERT_TRUE(loop.ModifyFd(fds.a, true, false).ok());
  EXPECT_EQ(loop.PollOnce(0), 0);
  EXPECT_FALSE(got_write);
}

TEST(EventLoopTest, PostFromAnotherThreadWakesRun) {
  EventLoop loop;
  std::thread::id ran_on{};
  std::thread runner([&] { loop.Run(); });
  std::thread::id runner_id = runner.get_id();
  loop.Post([&] {
    ran_on = std::this_thread::get_id();
    loop.Stop();
  });
  runner.join();
  EXPECT_EQ(ran_on, runner_id);
}

TEST(EventLoopTest, TimerAccuracyWithinTenMillisecondsFakeClock) {
  // The deadline contract the idle-timeout and reconnect paths rely on:
  // observed against a fake clock stepped at 1 ms, a timer fires no
  // earlier than its deadline and no more than 10 ms after it.
  FakeClockLoop fake;
  const double kDeadline = 0.1234;
  double fired_at = -1.0;
  fake.loop.RunAfter(kDeadline, [&] { fired_at = fake.now; });
  while (fake.now < kDeadline + 0.020 && fired_at < 0) {
    fake.now += 0.001;
    fake.loop.PollOnce(0);
  }
  ASSERT_GE(fired_at, 0.0) << "timer never fired";
  EXPECT_GE(fired_at, kDeadline - 1e-9);
  EXPECT_LE(fired_at - kDeadline, 0.010);
}

TEST(EventLoopTest, TimerFiresAtItsDeadlineNotTheNextTick) {
  // No tick rounding: a 10.5 ms timer fires on the poll whose clock reads
  // 10.5 ms, not on the next whole millisecond.
  FakeClockLoop fake;
  double fired_at = -1.0;
  fake.loop.RunAfter(0.0105, [&] { fired_at = fake.now; });
  fake.now = 0.0104;
  fake.loop.PollOnce(0);
  EXPECT_LT(fired_at, 0.0) << "fired before its deadline";
  fake.now = 0.0105;
  fake.loop.PollOnce(0);
  EXPECT_EQ(fired_at, 0.0105);
}

TEST(EventLoopTest, TimersFireInDeadlineOrderThenArmOrder) {
  // 200 timers on 20 distinct deadlines (1..20 ms, ten each), armed in a
  // scrambled order and polled every millisecond: they fire sorted by
  // deadline, same-deadline timers in arm order, each on the first poll
  // that reaches its deadline.
  FakeClockLoop fake;
  constexpr int kTimers = 200;
  std::vector<int> delay_ms(kTimers);
  std::vector<int> fired;
  std::vector<int> fired_ms;
  int poll_ms = 0;
  for (int i = 0; i < kTimers; ++i) {
    delay_ms[i] = (i * 37) % 20 + 1;
    fake.loop.RunAfter(delay_ms[i] / 1000.0, [&, i] {
      fired.push_back(i);
      fired_ms.push_back(poll_ms);
    });
  }
  for (poll_ms = 1; poll_ms <= 25; ++poll_ms) {
    fake.now = poll_ms / 1000.0;
    fake.loop.PollOnce(0);
  }
  std::vector<int> expected(kTimers);
  std::iota(expected.begin(), expected.end(), 0);
  std::stable_sort(expected.begin(), expected.end(),
                   [&](int x, int y) { return delay_ms[x] < delay_ms[y]; });
  EXPECT_EQ(fired, expected);
  ASSERT_EQ(fired_ms.size(), fired.size());
  for (size_t k = 0; k < fired.size(); ++k) {
    EXPECT_EQ(fired_ms[k], delay_ms[fired[k]]) << "timer " << fired[k];
  }
}

TEST(EventLoopTest, CallbackCancelsSiblingsDueOnTheSameTick) {
  // All three are due on the poll at 20 ms. The first to fire cancels the
  // other two, one on the same deadline and one on a later one, before
  // either runs.
  FakeClockLoop fake;
  int sibling_fires = 0;
  TimerId same_deadline;
  TimerId later_deadline;
  fake.loop.RunAfter(0.010, [&] {
    EXPECT_TRUE(fake.loop.CancelTimer(same_deadline));
    EXPECT_TRUE(fake.loop.CancelTimer(later_deadline));
  });
  same_deadline = fake.loop.RunAfter(0.010, [&] { ++sibling_fires; });
  later_deadline = fake.loop.RunAfter(0.015, [&] { ++sibling_fires; });
  fake.now = 0.020;
  fake.loop.PollOnce(0);
  fake.now = 0.100;
  fake.loop.PollOnce(0);
  EXPECT_EQ(sibling_fires, 0);
}

TEST(EventLoopTest, TimerArmedByATimerFiresOnTheNextPoll) {
  // The inner timer is due at once, but it was armed while timers were
  // firing: it waits for the next poll, even on an unchanged clock.
  FakeClockLoop fake;
  int poll = 0;
  int inner_fired_on = -1;
  fake.loop.RunAfter(0.010, [&] {
    fake.loop.RunAfter(0, [&] { inner_fired_on = poll; });
  });
  fake.now = 0.010;
  poll = 1;
  fake.loop.PollOnce(0);
  EXPECT_EQ(inner_fired_on, -1);
  poll = 2;
  fake.loop.PollOnce(0);
  EXPECT_EQ(inner_fired_on, 2);
}

TEST(EventLoopTest, ChainedTimersFireOnTheirDeadlines) {
  // Five 10 ms re-arms, each from the previous callback, on a clock polled
  // every 0.1 ms: nothing rounds a hop up, so none lags the 10 ms grid.
  FakeClockLoop fake;
  std::vector<double> fires;
  std::function<void()> hop = [&] {
    fires.push_back(fake.now);
    if (fires.size() < 5) fake.loop.RunAfter(0.010, hop);
  };
  fake.loop.RunAfter(0.010, hop);
  for (int step = 1; step <= 600; ++step) {
    fake.now = step / 10000.0;
    fake.loop.PollOnce(0);
  }
  EXPECT_EQ(fires, (std::vector<double>{0.010, 0.020, 0.030, 0.040, 0.050}));
}

TEST(EventLoopTest, PastDeadlineFiresOnNextPoll) {
  // One deadline passed while the loop was not polling; the other was in
  // the past when it was armed (a negative delay counts as 0).
  FakeClockLoop fake;
  bool slept_through = false;
  bool negative_delay = false;
  fake.loop.RunAfter(0.010, [&] { slept_through = true; });
  fake.now = 1.0;
  fake.loop.RunAfter(-0.5, [&] { negative_delay = true; });
  fake.loop.PollOnce(0);
  EXPECT_TRUE(slept_through);
  EXPECT_TRUE(negative_delay);
}

TEST(EventLoopTest, CancelTimerStopsPendingFire) {
  FakeClockLoop fake;
  bool fired = false;
  TimerId id = fake.loop.RunAfter(0.030, [&] { fired = true; });
  EXPECT_TRUE(fake.loop.CancelTimer(id));
  EXPECT_FALSE(fake.loop.CancelTimer(id));         // already gone
  EXPECT_FALSE(fake.loop.CancelTimer(TimerId{}));  // names no timer
  fake.now = 0.100;
  fake.loop.PollOnce(0);
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, PollOnceSleepsUntilTheEarliestLiveDeadline) {
  // Real clock. The 10 ms timer is cancelled, so the first poll sleeps
  // until the 20 ms one and fires it; a cancelled timer left behind would
  // end that poll at 10 ms with nothing fired. The 5 s timer never caps it.
  EventLoop loop;
  bool fired = false;
  loop.RunAfter(5.0, [] {});
  TimerId cancelled = loop.RunAfter(0.010, [] {});
  loop.RunAfter(0.020, [&] { fired = true; });
  ASSERT_TRUE(loop.CancelTimer(cancelled));
  auto start = std::chrono::steady_clock::now();
  loop.PollOnce(10.0);
  std::chrono::duration<double> waited =
      std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(fired);
  EXPECT_GE(waited.count(), 0.015);
  EXPECT_LT(waited.count(), 4.0);
}

TEST(EventLoopTest, TickHooksBracketDispatch) {
  FdPair fds;
  EventLoop loop;
  std::vector<std::string> trace;
  loop.SetTickEndHook([&] { trace.push_back("end"); });
  ASSERT_TRUE(loop.AddFd(fds.a, true, false, [&](uint32_t) {
    char buf[8];
    (void)::recv(fds.a, buf, sizeof(buf), 0);
    trace.push_back("fd");
  }).ok());
  fds.MakeReadable(fds.a);
  loop.PollOnce(0.5);
  EXPECT_EQ(trace, (std::vector<std::string>{"fd", "end"}));
}

TEST(EventLoopTest, PostFromPostedTaskWakesNextPoll) {
  // A task posted after the tick has swapped the mailbox out must still
  // wake the next wait. A posted task's own Post() stands in for a producer
  // on another thread that hands work over at that moment.
  EventLoop loop;
  int runs = 0;
  loop.Post([&] {
    ++runs;
    loop.Post([&] { ++runs; });
  });
  loop.PollOnce(0.5);
  EXPECT_EQ(runs, 1);
  auto start = std::chrono::steady_clock::now();
  loop.PollOnce(10.0);
  std::chrono::duration<double> waited =
      std::chrono::steady_clock::now() - start;
  EXPECT_EQ(runs, 2);
  EXPECT_LT(waited.count(), 5.0) << "the second Post() did not wake the loop";
}

TEST(EventLoopTest, SubMillisecondWaitIsNotRoundedUp) {
  // The wait is a timespec, not whole milliseconds: 50 idle 200 us polls
  // take about 10 ms, where millisecond rounding would take 50 ms or more.
  EventLoop loop;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) loop.PollOnce(200e-6);
  std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(took.count(), 0.050);
}

TEST(EventLoopTest, StopFromTimerEndsRun) {
  EventLoop loop;
  bool fired = false;
  loop.RunAfter(0.010, [&] {
    fired = true;
    EXPECT_TRUE(loop.IsInLoopThread());
    loop.Stop();
  });
  loop.Run();  // returns once the timer stops it
  EXPECT_TRUE(fired);
  // Run() released its thread: a later thread that reuses the id must not
  // pass for the owner.
  EXPECT_FALSE(loop.IsInLoopThread());
}

}  // namespace
}  // namespace rafiki::net
