#ifndef RAFIKI_NET_EVENT_LOOP_H_
#define RAFIKI_NET_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <compare>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

struct epoll_event;

namespace rafiki::net {

/// Names one pending timer by its deadline and the order it was armed in,
/// which is also its key in the loop's timer map. The default value names
/// no timer, so cancelling it is a harmless no-op.
struct TimerId {
  double deadline = 0.0;
  uint64_t seq = 0;
  auto operator<=>(const TimerId&) const = default;
};

/// The one reactor under the HTTP server, the RPC bus, and the load
/// generator. An EventLoop owns:
///
///   * an epoll instance with fd watchers (read and/or write interest,
///     modify/remove safe during dispatch via a per-slot generation tag);
///   * one-shot timers ordered by (deadline, arm order), so every deadline
///     in the process fires on the first tick that reaches it instead of
///     being noticed by a safety poll;
///   * a cross-thread task mailbox (eventfd wake + scratch-swap vectors),
///     so other threads Post() work instead of sharing state;
///   * a tick-end hook that runs after fd dispatch and timer expiry —
///     clients park their end-of-tick gather-flush there.
///
/// Each wait is an epoll_pwait2 with a nanosecond timeout, capped at the
/// earliest timer deadline, so neither a timer nor a caller's
/// sub-millisecond cap (the load generator's next scheduled arrival) is
/// rounded up to the next millisecond.
///
/// Threading: one thread owns the loop (the one inside Run(), or whoever
/// calls PollOnce()). Watchers, timers, and the hook are owner-thread-only.
/// Post(), Wake(), and Stop() are safe from any thread.
///
/// A tick that arms no timer is allocation-free: the event array, mailbox
/// scratch and watcher table are all reused.
class EventLoop {
 public:
  using Task = std::function<void()>;
  /// `events` is the raw epoll bitmask (EPOLLIN/EPOLLOUT/EPOLLERR/...).
  using IoCallback = std::function<void(uint32_t events)>;

  struct Options {
    /// Time source for Now() and the timers. Defaults to a monotonic clock
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

  /// Runs `task` once, on the first tick whose clock reading is at or past
  /// Now() + `delay` (a negative delay counts as 0). Timers due on one tick
  /// fire in deadline order, and timers with the same deadline in the
  /// order they were armed. A timer armed by a timer callback fires on a
  /// later tick, never the current one.
  TimerId RunAfter(double delay, Task task);
  /// O(log n). Returns false when `id` already fired, was cancelled, or
  /// names no timer. Safe from inside any timer callback.
  bool CancelTimer(TimerId id) { return timers_.erase(id) > 0; }

  // --- cross-thread ---

  /// Enqueues `task` to run on the loop thread at the start of its next
  /// tick (before fd dispatch) and wakes the loop.
  void Post(Task task);
  /// Sizes the mailbox for `n` tasks posted between two ticks, so posting
  /// that many allocates nothing. Call before the loop runs.
  void ReservePosted(size_t n);
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
  /// One tick: sleep at most `max_wait_seconds` (capped by the earliest
  /// timer deadline; pass 0 to poll), then drain mailbox, dispatch fd
  /// events, fire due timers, and run the end hook. Returns the number of
  /// fd events dispatched. This is the deterministic-test entry point.
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
  /// Fires, in key order, every timer due at `now` that was armed before
  /// this call.
  void FireTimers(double now);

  std::function<double()> clock_;

  /// Pending timers in firing order; the first key is the next deadline.
  std::map<TimerId, Task> timers_;
  uint64_t next_timer_seq_ = 1;  // seq 0 is the default, "no timer", id

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
