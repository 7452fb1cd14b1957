#include "net/loadgen.h"

#include <sys/epoll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <limits>
#include <optional>

#include "common/logging.h"
#include "common/ring_deque.h"
#include "common/string_util.h"
#include "net/event_loop.h"
#include "net/http.h"
#include "net/socket.h"
#include "serving/sine_arrival.h"

namespace rafiki::net {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// The open-loop arrival schedule: walks the run in 5 ms ticks, asks the
/// sine process (Equations 8-9 + Gaussian noise) or the constant rate how
/// many requests arrive in each tick, and spreads them uniformly inside it.
/// A tick is generated only once the previous one is used up, so the
/// schedule holds one tick of arrivals at a time.
class ArrivalSchedule {
 public:
  explicit ArrivalSchedule(const LoadGenOptions& opts)
      : opts_(opts),
        sine_(opts.target_rate,
              opts.sine_period > 0 ? opts.sine_period : opts.duration_seconds,
              opts.seed, opts.sine_period > 0 ? opts.noise_stddev : 0.0),
        spread_(Rng::Mix(opts.seed + 17)) {}

  /// The earliest arrival not yet taken; +infinity once the run's ticks are
  /// exhausted.
  double Next() {
    while (next_ == times_.size()) {
      if (t_ >= opts_.duration_seconds) return kInfinity;
      EmitTick(std::min(kTickSeconds, opts_.duration_seconds - t_));
    }
    return times_[next_];
  }
  void Pop() { ++next_; }

 private:
  static constexpr double kTickSeconds = 0.005;

  /// Books the arrivals of [t, t + dt) and advances t.
  void EmitTick(double dt) {
    int64_t n;
    if (opts_.sine_period > 0) {
      n = sine_.Arrivals(t_, dt);
    } else {
      constant_residual_ += opts_.target_rate * dt;
      n = static_cast<int64_t>(constant_residual_);
      constant_residual_ -= static_cast<double>(n);
    }
    times_.clear();
    next_ = 0;
    for (int64_t i = 0; i < n; ++i) {
      times_.push_back(t_ + spread_.Uniform(0.0, dt));
    }
    std::sort(times_.begin(), times_.end());
    t_ += dt;
  }

  const LoadGenOptions& opts_;
  serving::SineArrivalProcess sine_;
  Rng spread_;
  double constant_residual_ = 0.0;
  double t_ = 0.0;
  std::vector<double> times_;  // the current tick's arrivals, sorted
  size_t next_ = 0;
};

/// Drives every connection of a run from one reactor on the calling thread.
/// A connection has room while it carries fewer than `pipeline` requests.
/// Closed loop fills that room and refills it on each answer. Open loop
/// sends each due arrival to a connection with room (round-robin);
/// otherwise the arrival waits in the backlog, and past `max_backlog` it is
/// dropped. The reactor's wait is capped by the next scheduled arrival.
///
/// Connections dial on the reactor too: a dial completes on EPOLLOUT, and a
/// loop timer fails it after `timeout_seconds`. Requests routed to a
/// connection that is still dialing queue on it, as on a full send buffer.
///
/// The request's wire bytes are serialized once and replayed verbatim, and
/// each connection reuses one response parser, so the generator does no
/// per-request formatting or heap work.
class LoadGenMux {
 public:
  LoadGenMux(const LoadGenOptions& opts, LoadGenReport& report)
      : opts_(opts),
        report_(report),
        depth_(static_cast<uint32_t>(std::max(opts.pipeline, 1))) {
    // Closed loop has no schedule, and its target_rate need not be valid.
    if (opts.open_loop) schedule_.emplace(opts);
  }

  /// Runs to completion and returns the elapsed job-clock time.
  double Run() {
    SerializeRequestTo(opts_.method, opts_.target,
                       opts_.host + ":" + std::to_string(opts_.port),
                       opts_.body, /*keep_alive=*/true, &wire_);
    conns_.resize(static_cast<size_t>(opts_.connections));
    for (Conn& c : conns_) c.starts.assign(depth_, 0.0);
    if (!opts_.open_loop) {
      // A closed-loop connection whose dial fails stays out of the run.
      for (size_t i = 0; i < conns_.size(); ++i) Connect(i);
    }
    // Bounds a run whose last answers never arrive.
    const double hard_stop =
        opts_.duration_seconds +
        (opts_.timeout_seconds > 0 ? opts_.timeout_seconds : 5.0);
    for (;;) {
      double now = loop_.Now();
      double next_arrival = opts_.open_loop ? Release(now) : kInfinity;
      if (inflight_ == 0 && dials_ == 0 && backlog_.empty() &&
          next_arrival == kInfinity) {
        break;
      }
      if (now >= hard_stop) break;
      loop_.PollOnce(std::min(next_arrival, hard_stop) - now);
    }
    // Whatever is still outstanding never got an answer: record it as an
    // error so every arrival stays accounted for.
    for (size_t i = 0; i < conns_.size(); ++i) {
      while (conns_[i].carried() > 0) Complete(i, 0, false);
    }
    double now = loop_.Now();
    for (; !backlog_.empty(); backlog_.pop_front()) {
      Record(backlog_.front(), now - backlog_.front(), 0, false);
    }
    return now;
  }

 private:
  struct Conn {
    /// Valid exactly while dialing or connected, and registered with the
    /// reactor.
    Socket sock;
    /// From Connect until the dial completes or fails; `dial_timer` fails
    /// it after `timeout_seconds` (no timer when there is no timeout).
    bool dialing = false;
    TimerId dial_timer;
    HttpResponseParser parser;
    /// Start timestamps of carried requests, indexed by seq % depth. HTTP
    /// pipelining answers in order, so done_seq walks behind issue_seq and
    /// issue_seq - done_seq <= depth always holds.
    std::vector<double> starts;
    uint32_t issue_seq = 0;
    uint32_t done_seq = 0;
    /// Whole requests queued for transmission but not yet fully sent,
    /// and the byte offset inside the first of them.
    uint32_t to_send = 0;
    size_t send_off = 0;
    bool want_write = false;

    uint32_t carried() const { return issue_seq - done_seq; }
  };

  LoadGenWindow& WindowAt(double t) {
    auto i = static_cast<size_t>(std::max(t, 0.0) / opts_.window_seconds);
    return report_.windows[std::min(i, report_.windows.size() - 1)];
  }

  void Record(double arrival, double latency, int status, bool ok) {
    LoadGenWindow& w = WindowAt(arrival);
    // 503 (shed) and 504 (queue deadline) are well-formed server answers
    // under load, not transport errors; they are counted separately.
    if (!ok || (status / 100 != 2 && status != 503 && status != 504)) {
      ++report_.errors;
      ++w.errors;
      return;
    }
    ++report_.completed;
    ++w.completed;
    report_.latency.Add(latency);
    if (latency > opts_.tau) {
      ++report_.overdue;
      ++w.overdue;
    }
    if (status == 503) {
      ++report_.rejected;
      ++w.rejected;
    }
    if (status == 504) {
      ++report_.deadline;
      ++w.deadline;
    }
  }

  /// Open loop: moves backlogged arrivals into any room, then routes every
  /// arrival that has come due. Latency is charged from the scheduled time,
  /// so a wait in the backlog counts against the server (no coordinated
  /// omission). Returns the next scheduled arrival.
  double Release(double now) {
    while (!backlog_.empty() && HasRoom()) {
      double at = backlog_.front();
      backlog_.pop_front();
      Send(at);
    }
    for (double at = schedule_->Next(); at <= now; at = schedule_->Next()) {
      schedule_->Pop();
      LoadGenWindow& w = WindowAt(at);
      ++w.arrived;
      if (backlog_.empty() && HasRoom()) {
        Send(at);
      } else if (backlog_.size() < opts_.max_backlog) {
        backlog_.push_back(double{at});
      } else {
        ++w.dropped;
        ++report_.dropped;
      }
    }
    return schedule_->Next();
  }

  bool HasRoom() const {
    return inflight_ < static_cast<int64_t>(conns_.size() * depth_);
  }

  /// Open loop: sends arrival `at` on the next connection with room,
  /// dialing it first if it is down; a dial that cannot start charges the
  /// arrival as an error. Call only when HasRoom().
  void Send(double at) {
    size_t i = cursor_;
    while (conns_[i].carried() >= depth_) i = (i + 1) % conns_.size();
    cursor_ = (i + 1) % conns_.size();
    if (!conns_[i].sock.valid() && !Connect(i)) {
      Record(at, loop_.Now() - at, 0, false);
      return;
    }
    Queue(i, at);
    if (!conns_[i].dialing) ContinueSend(i);
  }

  /// Closed loop: while the run lasts, books new arrivals on connection `i`
  /// until it is full. Then sends what it carries in one gather write.
  void Fill(size_t i) {
    double now = loop_.Now();
    if (!opts_.open_loop && now < opts_.duration_seconds) {
      while (conns_[i].carried() < depth_) {
        ++WindowAt(now).arrived;
        Queue(i, now);
      }
    }
    ContinueSend(i);
  }

  /// Starts connection `i`'s dial and watches it; OnDialed finishes it.
  /// Returns false when the dial could not start.
  bool Connect(size_t i) {
    Conn& c = conns_[i];
    Result<Socket> sock = DialTcp(opts_.host, opts_.port);
    if (!sock.ok() ||
        !loop_
             .AddFd(sock->fd(), /*want_read=*/true, /*want_write=*/true,
                    [this, i](uint32_t events) { OnEvent(i, events); })
             .ok()) {
      return false;
    }
    c.sock = std::move(*sock);
    c.want_write = true;
    c.dialing = true;
    ++dials_;
    if (opts_.timeout_seconds > 0) {
      c.dial_timer = loop_.RunAfter(opts_.timeout_seconds,
                                    [this, i] { FailConnection(i); });
    }
    return true;
  }

  /// Stops watching the dial of `c`, which completed or failed.
  void EndDial(Conn& c) {
    loop_.CancelTimer(c.dial_timer);
    c.dial_timer = {};
    c.dialing = false;
    --dials_;
  }

  /// The dial of `i` is over. A failed one charges what the connection
  /// carries. A connected one sends what queued on it meanwhile, or, in
  /// closed loop, fills it now, so a latency starts after the connect.
  void OnDialed(size_t i) {
    if (!FinishDial(conns_[i].sock.fd()).ok()) {
      FailConnection(i);
      return;
    }
    EndDial(conns_[i]);
    Fill(i);
  }

  void OnEvent(size_t i, uint32_t events) {
    if (conns_[i].dialing) {
      OnDialed(i);
      return;
    }
    if ((events & EPOLLOUT) != 0) ContinueSend(i);
    // ContinueSend may have failed the connection, and closed loop may have
    // started a redial; these events are not the new socket's.
    if (conns_[i].sock.valid() && !conns_[i].dialing &&
        (events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
      OnReadable(i);
    }
  }

  void Disconnect(size_t i) {
    Conn& c = conns_[i];
    if (c.dialing) EndDial(c);
    if (c.sock.valid()) {
      (void)loop_.RemoveFd(c.sock.fd());
      c.sock.Close();
    }
    c.to_send = 0;
    c.send_off = 0;
  }

  void SetWantWrite(size_t i, bool on) {
    Conn& c = conns_[i];
    if (c.want_write == on) return;
    c.want_write = on;
    (void)loop_.ModifyFd(c.sock.fd(), /*want_read=*/true, on);
  }

  /// Books a request started at `start` on connection `i` and queues its
  /// wire bytes; follow with ContinueSend (batched so several queued
  /// requests share one syscall).
  void Queue(size_t i, double start) {
    Conn& c = conns_[i];
    c.starts[c.issue_seq % depth_] = start;
    ++c.issue_seq;
    ++c.to_send;
    ++inflight_;
  }

  /// Charges the oldest request carried by `i` with the given outcome.
  void Complete(size_t i, int status, bool ok) {
    Conn& c = conns_[i];
    double start = c.starts[c.done_seq % depth_];
    Record(start, loop_.Now() - start, status, ok);
    ++c.done_seq;
    --inflight_;
  }

  /// Flushes queued requests with scatter-gather: every iovec points at
  /// the one serialized request, so a burst of N pipelined requests is a
  /// single sendmsg of N*|wire| bytes with zero copies.
  void ContinueSend(size_t i) {
    Conn& c = conns_[i];
    while (c.to_send > 0) {
      iovec iov[kMaxSendIov];
      uint32_t cnt = std::min(c.to_send, kMaxSendIov);
      iov[0].iov_base = const_cast<char*>(wire_.data()) + c.send_off;
      iov[0].iov_len = wire_.size() - c.send_off;
      for (uint32_t k = 1; k < cnt; ++k) {
        iov[k].iov_base = const_cast<char*>(wire_.data());
        iov[k].iov_len = wire_.size();
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = cnt;
      ssize_t n = ::sendmsg(c.sock.fd(), &msg, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        SetWantWrite(i, true);
        return;
      }
      if (n < 0) {
        FailConnection(i);
        return;
      }
      auto sent = static_cast<size_t>(n);
      while (sent > 0) {
        size_t first = wire_.size() - c.send_off;
        if (sent >= first) {
          sent -= first;
          c.send_off = 0;
          --c.to_send;
        } else {
          c.send_off += sent;
          sent = 0;
        }
      }
    }
    SetWantWrite(i, false);
  }

  void OnReadable(size_t i) {
    Conn& c = conns_[i];
    char buf[65536];
    for (;;) {
      ssize_t n = ::recv(c.sock.fd(), buf, sizeof(buf), 0);
      if (n > 0) {
        size_t off = 0;
        while (off < static_cast<size_t>(n)) {
          off += c.parser.Feed(buf + off, static_cast<size_t>(n) - off);
          if (c.parser.failed()) {
            FailConnection(i);
            return;
          }
          if (!c.parser.done()) continue;
          if (c.carried() == 0) {
            // An answer to no request: the stream is out of step.
            FailConnection(i);
            return;
          }
          // One pipelined response completed; more may follow in `buf`.
          Complete(i, c.parser.status(), true);
          bool reuse = c.parser.keep_alive();
          c.parser.Reset();
          if (!reuse) {
            // The server is closing after this response; everything still
            // carried on this connection is lost.
            FailConnection(i);
            return;
          }
        }
        // Level-style short read: less than the buffer means the socket
        // is drained; a full buffer may have more behind it.
        if (static_cast<size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // EOF or transport error. An EOF can legitimately terminate a
      // read-until-close body; anything else kills what is in flight.
      if (n == 0 && c.carried() > 0 &&
          c.parser.state() == HttpResponseParser::State::kBodyUntilClose) {
        c.parser.FinishEof();
        Complete(i, c.parser.status(), true);
        c.parser.Reset();
      }
      FailConnection(i);
      return;
    }
    if (!opts_.open_loop) Fill(i);
  }

  /// Records everything carried by `i` as transport errors and disconnects.
  /// Closed loop redials at once while the run lasts, unless the dial is
  /// what failed; open loop redials when its next arrival is routed here.
  void FailConnection(size_t i) {
    bool redial = !conns_[i].dialing && !opts_.open_loop &&
                  loop_.Now() < opts_.duration_seconds;
    while (conns_[i].carried() > 0) Complete(i, 0, false);
    conns_[i].parser.Reset();
    Disconnect(i);
    if (redial) Connect(i);
  }

  static constexpr uint32_t kMaxSendIov = 64;

  const LoadGenOptions& opts_;
  LoadGenReport& report_;
  const uint32_t depth_;
  /// The job clock: Now() counts from the loop's construction.
  EventLoop loop_;
  std::string wire_;
  std::vector<Conn> conns_;
  int64_t inflight_ = 0;  // requests carried across all connections
  int dials_ = 0;         // connections dialing
  std::optional<ArrivalSchedule> schedule_;  // open loop only
  RingDeque<double> backlog_;  // due arrivals waiting for room, oldest first
  size_t cursor_ = 0;          // where Send starts looking for room
};

}  // namespace

LoadGenReport RunLoadGen(const LoadGenOptions& opts) {
  RAFIKI_CHECK_GT(opts.duration_seconds, 0.0);
  RAFIKI_CHECK_GT(opts.window_seconds, 0.0);
  RAFIKI_CHECK_GT(opts.connections, 0);

  auto num_windows = static_cast<size_t>(
      std::ceil(opts.duration_seconds / opts.window_seconds));
  num_windows = std::max<size_t>(num_windows, 1);

  LoadGenReport report;
  report.windows.assign(num_windows, LoadGenWindow{});
  for (size_t i = 0; i < num_windows; ++i) {
    report.windows[i].t_begin = static_cast<double>(i) * opts.window_seconds;
  }
  double elapsed = LoadGenMux(opts, report).Run();
  for (const LoadGenWindow& w : report.windows) report.arrived += w.arrived;
  report.duration_seconds = elapsed;
  report.achieved_rps =
      elapsed > 0 ? static_cast<double>(report.completed) / elapsed : 0.0;
  return report;
}

std::string LoadGenReport::ToString() const {
  std::string out;
  for (const LoadGenWindow& w : windows) {
    out += StrFormat(
        "window t=%.1f arrived=%lld completed=%lld overdue=%lld "
        "rejected=%lld deadline=%lld dropped=%lld errors=%lld\n",
        w.t_begin, static_cast<long long>(w.arrived),
        static_cast<long long>(w.completed),
        static_cast<long long>(w.overdue),
        static_cast<long long>(w.rejected),
        static_cast<long long>(w.deadline),
        static_cast<long long>(w.dropped),
        static_cast<long long>(w.errors));
  }
  out += StrFormat(
      "total arrived=%lld completed=%lld overdue=%lld rejected=%lld "
      "deadline=%lld dropped=%lld errors=%lld rps=%.1f\n",
      static_cast<long long>(arrived), static_cast<long long>(completed),
      static_cast<long long>(overdue), static_cast<long long>(rejected),
      static_cast<long long>(deadline), static_cast<long long>(dropped),
      static_cast<long long>(errors), achieved_rps);
  out += StrFormat(
      "latency mean=%.6f p50=%.6f p95=%.6f p99=%.6f max=%.6f\n",
      latency.mean(), latency.P50(), latency.P95(), latency.P99(),
      latency.max());
  return out;
}

}  // namespace rafiki::net
