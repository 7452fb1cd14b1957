#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
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

TEST(EventLoopTest, PostDelayedFiresAfterDelay) {
  FakeClockLoop fake;
  bool fired = false;
  fake.loop.PollOnce(0);  // claim the loop thread
  fake.loop.PostDelayed(0.050, [&] { fired = true; });
  fake.now = 0.049;
  fake.loop.PollOnce(0);
  EXPECT_FALSE(fired);
  fake.now = 0.051;
  fake.loop.PollOnce(0);
  EXPECT_TRUE(fired);
}

TEST(EventLoopTest, TimerAccuracyWithinTenMillisecondsFakeClock) {
  // The wheel-driven deadline contract the idle-timeout and reconnect
  // paths rely on: observed against a fake clock stepped at 1 ms, a timer
  // fires no earlier than its deadline and no more than 10 ms after it.
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

TEST(EventLoopTest, CancelTimerStopsPendingFire) {
  FakeClockLoop fake;
  bool fired = false;
  TimerId id = fake.loop.RunAfter(0.030, [&] { fired = true; });
  EXPECT_TRUE(fake.loop.CancelTimer(id));
  fake.now = 0.100;
  fake.loop.PollOnce(0);
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, RunEveryRepeatsUntilCancelled) {
  FakeClockLoop fake;
  int fires = 0;
  TimerId id = 0;
  id = fake.loop.RunEvery(0.010, [&] {
    if (++fires == 4) fake.loop.CancelTimer(id);
  });
  for (int step = 0; step < 100; ++step) {
    fake.now += 0.001;
    fake.loop.PollOnce(0);
  }
  EXPECT_EQ(fires, 4);
}

TEST(EventLoopTest, TickHooksBracketDispatch) {
  FdPair fds;
  EventLoop loop;
  std::vector<std::string> trace;
  loop.SetTickBeginHook([&] { trace.push_back("begin"); });
  loop.SetTickEndHook([&] { trace.push_back("end"); });
  ASSERT_TRUE(loop.AddFd(fds.a, true, false, [&](uint32_t) {
    char buf[8];
    (void)::recv(fds.a, buf, sizeof(buf), 0);
    trace.push_back("fd");
  }).ok());
  fds.MakeReadable(fds.a);
  loop.PollOnce(0.5);
  EXPECT_EQ(trace, (std::vector<std::string>{"begin", "fd", "end"}));
}

TEST(EventLoopTest, WakeDuringTickBeginHookWakesNextPoll) {
  // A producer that hands work to the begin hook's mailbox and calls Wake()
  // just after the hook has looked must still wake the next wait. The
  // hook's own Wake() stands in for that producer.
  EventLoop loop;
  int ticks = 0;
  loop.SetTickBeginHook([&] {
    if (++ticks == 1) loop.Wake();
  });
  loop.Wake();
  loop.PollOnce(0.5);
  auto start = std::chrono::steady_clock::now();
  loop.PollOnce(10.0);
  std::chrono::duration<double> waited =
      std::chrono::steady_clock::now() - start;
  EXPECT_EQ(ticks, 2);
  EXPECT_LT(waited.count(), 5.0) << "the hook-window Wake() was consumed";
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
