#ifndef RAFIKI_NET_EVENT_LOOP_H_
#define RAFIKI_NET_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/timer_wheel.h"

struct epoll_event;

namespace rafiki::net {

/// The one reactor under the HTTP server, the RPC bus, and the load
/// generator. An EventLoop owns:
///
///   * an epoll instance with fd watchers (read and/or write interest,
///     modify/remove safe during dispatch via a per-slot generation tag);
///   * a hierarchical TimerWheel, so every deadline in the process fires
///     at its exact tick instead of being noticed by a safety poll;
///   * a cross-thread task mailbox (eventfd wake + scratch-swap vectors),
///     so other threads Post() work instead of sharing state;
///   * a tick-end hook that runs after fd dispatch and timer expiry —
///     clients park their end-of-tick gather-flush there.
///
/// Each wait is an epoll_pwait2 with a nanosecond timeout, so a caller's
/// sub-millisecond cap (the load generator's next scheduled arrival) is
/// honoured rather than rounded up to the next millisecond.
///
/// Threading: one thread owns the loop (the one inside Run(), or whoever
/// calls PollOnce()). Watchers, timers, and the hook are owner-thread-only.
/// Post(), PostDelayed(), Wake(), and Stop() are safe from any thread.
///
/// The steady-state tick is allocation-free: the event array, mailbox
/// scratch, watcher table, and wheel nodes are all reused.
class EventLoop {
 public:
  using Task = std::function<void()>;
  /// `events` is the raw epoll bitmask (EPOLLIN/EPOLLOUT/EPOLLERR/...).
  using IoCallback = std::function<void(uint32_t events)>;

  struct Options {
    /// Timer granularity; deadlines round up to the next tick.
    double tick_seconds = 1e-3;
    /// Time source for Now() and the wheel. Defaults to a monotonic clock
    /// with epoch at loop construction. Tests inject a fake clock here and
    /// drive PollOnce() for deterministic timer firing.
    std::function<double()> clock;
  };

  EventLoop() : EventLoop(Options{}) {}
  explicit EventLoop(Options options);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // --- fd watchers (owner thread) ---

  /// Registers `fd` with the given interest. The callback may add, modify,
  /// or remove any watcher — including its own fd — during dispatch.
  Status AddFd(int fd, bool want_read, bool want_write, IoCallback callback);
  /// Updates read/write interest; no-op syscall-wise if unchanged.
  Status ModifyFd(int fd, bool want_read, bool want_write);
  /// Deregisters `fd`. Pending events already pulled from epoll for it are
  /// discarded (generation tag), and the callback object is kept alive
  /// until the end of the tick, so a callback may remove its own fd; the
  /// caller may close the fd immediately after.
  Status RemoveFd(int fd);
  bool WatchingFd(int fd) const;
  size_t watcher_count() const { return active_watchers_; }

  // --- timers (owner thread) ---

  TimerId RunAfter(double delay, Task task) {
    return wheel_.Schedule(delay, std::move(task));
  }
  TimerId RunAt(double when, Task task) {
    return wheel_.ScheduleAt(when, std::move(task));
  }
  TimerId RunEvery(double interval, Task task) {
    return wheel_.SchedulePeriodic(interval, std::move(task));
  }
  bool CancelTimer(TimerId id) { return wheel_.Cancel(id); }
  TimerWheel& wheel() { return wheel_; }

  // --- cross-thread ---

  /// Enqueues `task` to run on the loop thread at the start of its next
  /// tick (before fd dispatch) and wakes the loop.
  void Post(Task task);
  /// Post() + RunAfter() from any thread: the delay is measured from when
  /// the loop thread processes the post, i.e. one wakeup after now.
  void PostDelayed(double delay, Task task);
  /// Forces the current/next epoll wait to return immediately.
  void Wake();
  /// Makes Run() return after finishing the current tick.
  void Stop();

  // --- hook (owner thread; set before the loop runs) ---

  void SetTickEndHook(Task hook) { tick_end_hook_ = std::move(hook); }

  // --- running ---

  /// Ticks until Stop(). Claims the calling thread as owner until it
  /// returns.
  void Run();
  /// One tick: sleep at most `max_wait_seconds` (capped by the next timer
  /// deadline; pass 0 to poll), then drain mailbox, dispatch fd events,
  /// expire timers, and run the end hook. Returns the number of fd events
  /// dispatched. This is the deterministic-test entry point.
  int PollOnce(double max_wait_seconds);

  double Now() const { return clock_(); }
  bool IsInLoopThread() const {
    return owner_.load(std::memory_order_relaxed) == std::this_thread::get_id();
  }

 private:
  struct Watcher {
    uint32_t gen = 0;
    bool active = false;
    bool want_read = false;
    bool want_write = false;
    /// Behind a pointer so the function object never relocates: the
    /// watcher table may grow (vector resize) while this very callback is
    /// executing, and a callback may RemoveFd itself — the pointer moves
    /// to `retired_callbacks_` and dies at end of tick, not mid-call.
    std::unique_ptr<IoCallback> callback;
  };

  static constexpr int kEpollBatch = 256;

  void DrainPosted();
  Status EpollCtl(int op, int fd, const Watcher& w);

  std::function<double()> clock_;
  TimerWheel wheel_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  /// Indexed by fd (small dense ints on Linux); grown on demand, never
  /// shrunk, so dispatch is an array index, not a hash lookup.
  std::vector<Watcher> watchers_;
  size_t active_watchers_ = 0;
  /// Callbacks of fds removed this tick; destroyed once dispatch, timers,
  /// and the end hook have all returned.
  std::vector<std::unique_ptr<IoCallback>> retired_callbacks_;

  std::vector<epoll_event> events_;  // reused every tick

  std::mutex post_mu_;
  std::vector<Task> posted_;
  std::vector<Task> posted_scratch_;  // swap target: drain without realloc
  std::atomic<bool> has_posted_{false};

  Task tick_end_hook_;

  std::atomic<bool> stop_{false};
  std::atomic<std::thread::id> owner_{};
};

}  // namespace rafiki::net

#endif  // RAFIKI_NET_EVENT_LOOP_H_
