#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <limits>

#include "common/logging.h"

namespace rafiki::net {

namespace {

/// epoll user data for the wake eventfd. Watcher tokens are
/// (gen << 32) | fd with fd a non-negative int, so the top fd bit pattern
/// 0xffffffff can never collide.
constexpr uint64_t kWakeToken = ~0ull;

/// Waits at least this long are treated as unbounded (a timespec of that
/// size would still fit, but nobody needs a 30-year timeout).
constexpr double kMaxFiniteWaitSeconds = 1e9;

uint64_t MakeToken(uint32_t gen, int fd) {
  return (static_cast<uint64_t>(gen) << 32) | static_cast<uint32_t>(fd);
}

}  // namespace

EventLoop::EventLoop(Options options)
    : clock_(std::move(options.clock)), events_(kEpollBatch) {
  if (!clock_) {
    auto epoch = std::chrono::steady_clock::now();
    clock_ = [epoch] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           epoch)
          .count();
    };
  }
  epoll_fd_ = ::epoll_create1(0);
  RAFIKI_CHECK_GE(epoll_fd_, 0) << "epoll_create1: " << std::strerror(errno);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  RAFIKI_CHECK_GE(wake_fd_, 0) << "eventfd: " << std::strerror(errno);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeToken;
  RAFIKI_CHECK_EQ(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev), 0)
      << "epoll_ctl(wake): " << std::strerror(errno);
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EventLoop::EpollCtl(int op, int fd, const Watcher& w) {
  epoll_event ev{};
  ev.events = (w.want_read ? EPOLLIN : 0u) | (w.want_write ? EPOLLOUT : 0u);
  ev.data.u64 = MakeToken(w.gen, fd);
  if (::epoll_ctl(epoll_fd_, op, fd, &ev) < 0) {
    return Status::Internal(std::string("epoll_ctl: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status EventLoop::AddFd(int fd, bool want_read, bool want_write,
                        IoCallback callback) {
  if (fd < 0) return Status::InvalidArgument("AddFd: negative fd");
  if (callback == nullptr) return Status::InvalidArgument("AddFd: no callback");
  if (static_cast<size_t>(fd) >= watchers_.size()) {
    watchers_.resize(static_cast<size_t>(fd) + 1);
  }
  Watcher& w = watchers_[fd];
  if (w.active) return Status::FailedPrecondition("AddFd: fd already watched");
  // The generation was bumped at RemoveFd time, so events already pulled
  // for a prior registration of this fd stay dead.
  w.want_read = want_read;
  w.want_write = want_write;
  w.callback = std::make_unique<IoCallback>(std::move(callback));
  RAFIKI_RETURN_IF_ERROR(EpollCtl(EPOLL_CTL_ADD, fd, w));
  w.active = true;
  ++active_watchers_;
  return Status::OK();
}

Status EventLoop::ModifyFd(int fd, bool want_read, bool want_write) {
  if (fd < 0 || static_cast<size_t>(fd) >= watchers_.size() ||
      !watchers_[fd].active) {
    return Status::NotFound("ModifyFd: fd not watched");
  }
  Watcher& w = watchers_[fd];
  if (w.want_read == want_read && w.want_write == want_write) {
    return Status::OK();
  }
  w.want_read = want_read;
  w.want_write = want_write;
  return EpollCtl(EPOLL_CTL_MOD, fd, w);
}

Status EventLoop::RemoveFd(int fd) {
  if (fd < 0 || static_cast<size_t>(fd) >= watchers_.size() ||
      !watchers_[fd].active) {
    return Status::NotFound("RemoveFd: fd not watched");
  }
  Watcher& w = watchers_[fd];
  w.active = false;
  ++w.gen;  // kills events for this registration still queued in events_
  retired_callbacks_.push_back(std::move(w.callback));
  --active_watchers_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr) < 0) {
    return Status::Internal(std::string("epoll_ctl(DEL): ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

bool EventLoop::WatchingFd(int fd) const {
  return fd >= 0 && static_cast<size_t>(fd) < watchers_.size() &&
         watchers_[fd].active;
}

void EventLoop::Post(Task task) {
  bool need_wake;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    need_wake = posted_.empty();
    posted_.push_back(std::move(task));
  }
  has_posted_.store(true, std::memory_order_release);
  // Only the poster that found the mailbox empty wakes: one eventfd write
  // per batch, not per task.
  if (need_wake) Wake();
}

TimerId EventLoop::RunAfter(double delay, Task task) {
  TimerId id{clock_() + std::max(delay, 0.0), next_timer_seq_++};
  timers_.emplace(id, std::move(task));
  return id;
}

void EventLoop::FireTimers(double now) {
  // A timer armed by a callback below has a seq of at least `armed_before`
  // and, as delays are clamped at 0 and the clock does not go back, a
  // deadline of at least `now`. It sorts after every timer that was armed
  // before this call and is due now, so stopping at it skips none of them.
  const uint64_t armed_before = next_timer_seq_;
  while (!timers_.empty()) {
    auto it = timers_.begin();
    if (it->first.deadline > now || it->first.seq >= armed_before) break;
    // Unlinked before it runs, so the callback may cancel it (a no-op),
    // cancel a sibling due on this tick, or arm new timers.
    Task task = std::move(it->second);
    timers_.erase(it);
    task();
  }
}

void EventLoop::Wake() {
  uint64_t one = 1;
  ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  (void)n;  // EAGAIN means the counter is already hot: wakeup is pending
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  Wake();
}

void EventLoop::DrainPosted() {
  if (!has_posted_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.swap(posted_scratch_);
    has_posted_.store(false, std::memory_order_relaxed);
  }
  for (Task& task : posted_scratch_) {
    task();
    task = nullptr;
  }
  posted_scratch_.clear();  // keeps capacity: no realloc next tick
}

int EventLoop::PollOnce(double max_wait_seconds) {
  owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);

  // Sleep exactly until the earliest timer deadline (or the caller's cap),
  // never a safety tick. The timeout is a timespec, so a sub-millisecond
  // wait is not rounded up to a whole millisecond.
  double wait = max_wait_seconds;
  if (!timers_.empty()) {
    wait = std::min(wait, timers_.begin()->first.deadline - clock_());
  }
  if (has_posted_.load(std::memory_order_acquire) ||
      stop_.load(std::memory_order_acquire)) {
    wait = 0.0;
  }
  timespec timeout{};
  timespec* timeout_ptr = nullptr;  // no deadline: block until an event
  if (wait < kMaxFiniteWaitSeconds) {
    wait = std::max(wait, 0.0);
    timeout.tv_sec = static_cast<time_t>(wait);
    timeout.tv_nsec = static_cast<long>(
        (wait - static_cast<double>(timeout.tv_sec)) * 1e9);
    timeout_ptr = &timeout;
  }

  int n = ::epoll_pwait2(epoll_fd_, events_.data(), kEpollBatch, timeout_ptr,
                         nullptr);
  if (n < 0) {
    if (errno != EINTR) {
      RAFIKI_LOG(ERROR) << "epoll_pwait2: " << std::strerror(errno);
    }
    n = 0;
  }

  // Drain the wake eventfd before the mailbox. A Post() that lands after
  // DrainPosted has swapped the mailbox keeps its eventfd tick for the next
  // wait instead of having it consumed here.
  for (int i = 0; i < n; ++i) {
    if (events_[i].data.u64 != kWakeToken) continue;
    uint64_t drain;
    while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
    }
  }
  DrainPosted();

  int dispatched = 0;
  for (int i = 0; i < n; ++i) {
    uint64_t token = events_[i].data.u64;
    if (token == kWakeToken) continue;
    int fd = static_cast<int>(token & 0xffffffffu);
    auto gen = static_cast<uint32_t>(token >> 32);
    if (static_cast<size_t>(fd) >= watchers_.size()) continue;
    Watcher& w = watchers_[fd];
    // A callback earlier in this batch may have removed (or removed and
    // re-added) this fd; the generation tag makes those events inert.
    if (!w.active || w.gen != gen) continue;
    ++dispatched;
    // Invoke through a stable pointer: the callback may AddFd (growing
    // watchers_, invalidating `w`) or RemoveFd itself (retiring the
    // unique_ptr) — the function object stays put either way.
    IoCallback* cb = w.callback.get();
    (*cb)(events_[i].events);
  }

  FireTimers(clock_());

  if (tick_end_hook_) tick_end_hook_();
  retired_callbacks_.clear();
  return dispatched;
}

void EventLoop::Run() {
  owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  while (!stop_.load(std::memory_order_acquire)) {
    PollOnce(std::numeric_limits<double>::infinity());
  }
  stop_.store(false, std::memory_order_release);  // allow re-Run
  // Release the thread: once it exits, a new thread may reuse its id.
  owner_.store(std::thread::id(), std::memory_order_relaxed);
}

}  // namespace rafiki::net
