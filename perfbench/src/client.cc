#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <numeric>
#include <random>

#include "serving/sine_arrival.h"
#include "trace.h"

namespace perfbench {
namespace {

/// During the drain, a connection that still waits for replies but has read
/// nothing for this long is sent a blank line, which HTTP/1.1 servers skip
/// before a request line. The bytes wake the server's event loop for that
/// connection, so a reply stranded by the reactor's lost cross-thread wakeup
/// goes out instead of waiting for traffic that no longer comes. Its latency
/// still counts the wait. The delay is five times tau (50 ms in every
/// serving workload): by then the runtime has flushed every batch it was
/// filling, so only stranded replies are still missing.
constexpr int64_t kNudgeAfterNs = 250'000'000;

struct Outstanding {
  uint32_t row = 0;
  uint16_t slot = 0;
  uint64_t rid = 0;
  int64_t start_ns = 0;  // scheduled send (open) or actual send (closed)
  int64_t send_ns = 0;
};

struct Conn {
  int fd = -1;
  bool dead = false;
  bool want_write = false;
  bool nudged = false;
  int64_t last_read_ns = 0;
  int64_t last_nudge_ns = 0;
  std::string out;
  size_t out_off = 0;
  std::string in;
  size_t in_off = 0;
  std::deque<Outstanding> fifo;
};

int Connect(const std::string& host, uint16_t port, std::string* error) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Parses "label=K&votes=a,b,c" (trailing newline allowed).
bool ParseAnswer(const char* p, const char* end, int64_t* label,
                 int64_t votes[], int* num_votes) {
  static constexpr char kLabel[] = "label=";
  static constexpr char kVotes[] = "&votes=";
  if (end - p < 6 || std::memcmp(p, kLabel, 6) != 0) return false;
  char* next = nullptr;
  *label = std::strtoll(p + 6, &next, 10);
  if (next == p + 6 || end - next < 7 || std::memcmp(next, kVotes, 7) != 0) {
    return false;
  }
  p = next + 7;
  *num_votes = 0;
  while (p < end && *p != '\n' && *num_votes < 8) {
    votes[(*num_votes)++] = std::strtoll(p, &next, 10);
    if (next == p) return false;
    p = next;
    if (p < end && *p == ',') ++p;
  }
  return *num_votes > 0;
}

bool Verify(const QueryRow& row, const AnswerRule& rule, int64_t label,
            const int64_t votes[], int num_votes) {
  const uint32_t full = (1u << rule.num_models) - 1;
  for (uint32_t mask = rule.any_subset ? 1 : full; mask <= full; ++mask) {
    if (__builtin_popcount(mask) != num_votes) continue;
    int v = 0;
    bool match = true;
    for (int m = 0; m < rule.num_models && match; ++m) {
      if ((mask & (1u << m)) == 0) continue;
      match = row.model_labels[static_cast<size_t>(m)] == votes[v++];
    }
    if (match && row.mask_label[mask] == label) return true;
  }
  return false;
}

/// Case-insensitive search for "content-length:" inside [p, end).
bool ContentLength(const char* p, const char* end, size_t* length) {
  static constexpr char kName[] = "content-length:";
  constexpr size_t kLen = sizeof(kName) - 1;
  for (; p + kLen <= end; ++p) {
    if (::strncasecmp(p, kName, kLen) == 0) {
      *length = std::strtoull(p + kLen, nullptr, 10);
      return true;
    }
  }
  return false;
}

class Client {
 public:
  Client(const LoadSpec& spec, const std::vector<QueryRow>& rows,
         const AnswerRule& rule, LoadResult* result)
      : spec_(spec), rows_(rows), rule_(rule), r_(result) {
    prefixes_.reserve(rows.size());
    for (const QueryRow& row : rows) {
      prefixes_.push_back("POST " + spec.path +
                          " HTTP/1.1\r\nHost: bench\r\nContent-Length: " +
                          std::to_string(row.body.size()) + "\r\nx-rid: ");
    }
    order_.resize(rows.size());
    std::iota(order_.begin(), order_.end(), 0u);
    std::mt19937_64 rng(spec.seed);
    std::shuffle(order_.begin(), order_.end(), rng);
    next_rid_ = spec.first_rid;
  }

  ~Client() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (ep_ >= 0) ::close(ep_);
  }

  bool Open(std::string* error) {
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (ep_ < 0) {
      *error = std::string("epoll_create1: ") + std::strerror(errno);
      return false;
    }
    conns_.resize(static_cast<size_t>(spec_.connections));
    for (size_t i = 0; i < conns_.size(); ++i) {
      conns_[i].fd = Connect(spec_.host, spec_.port, error);
      if (conns_[i].fd < 0) return false;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = i;
      ::epoll_ctl(ep_, EPOLL_CTL_ADD, conns_[i].fd, &ev);
    }
    return true;
  }

  void Run() {
    const int64_t t0 = NowNs();
    const auto window_ns = static_cast<int64_t>(spec_.window_s * 1e9);
    const int64_t window_end = t0 + window_ns;
    const int64_t drain_end =
        window_end + static_cast<int64_t>(spec_.drain_s * 1e9);
    const std::vector<int64_t>& sched = spec_.send_offsets_ns;
    t0_ = t0;
    double slot_s = spec_.slot_s > 0.0 ? spec_.slot_s : spec_.window_s;
    slot_ns_ = static_cast<int64_t>(slot_s * 1e9);
    auto slots = static_cast<size_t>(
        std::max<int64_t>(1, (window_ns + slot_ns_ - 1) / slot_ns_));
    r_->slot_s = slot_s;
    r_->slot_sent.assign(slots, 0);
    r_->slot_correct.assign(slots, 0);
    r_->slot_in_tau.assign(slots, 0);
    r_->slot_latency.assign(slots, LatencySeconds());
    size_t next = 0;
    epoll_event events[16];
    for (;;) {
      int64_t now = NowNs();
      if (now < window_end) {
        if (spec_.open_loop) {
          while (next < sched.size() && t0 + sched[next] <= now) {
            Conn* c = LeastLoaded();
            if (c == nullptr) break;
            Issue(*c, t0 + sched[next], now);
            r_->lag.Add(static_cast<double>(now - (t0 + sched[next])) / 1e9);
            ++next;
          }
        } else {
          for (Conn& c : conns_) {
            while (!c.dead &&
                   c.fifo.size() < static_cast<size_t>(spec_.depth) &&
                   (spec_.max_requests == 0 ||
                    r_->sent < spec_.max_requests)) {
              Issue(c, now, now);
            }
          }
        }
      } else {
        Nudge(now);
      }
      for (Conn& c : conns_) Flush(c);
      bool idle = std::all_of(conns_.begin(), conns_.end(),
                              [](const Conn& c) { return c.fifo.empty(); });
      bool alive = std::any_of(conns_.begin(), conns_.end(),
                               [](const Conn& c) { return !c.dead; });
      bool probed = spec_.stop_after_answers > 0 &&
                    r_->answered_200 >= spec_.stop_after_answers;
      if ((now >= window_end && idle) || now >= drain_end || !alive ||
          probed) {
        break;
      }

      int64_t wake = now < window_end
                         ? window_end
                         : std::min(drain_end, now + kNudgeAfterNs);
      if (spec_.open_loop && now < window_end && next < sched.size()) {
        wake = std::min(wake, t0 + sched[next]);
      }
      int64_t wait_ns = std::max<int64_t>(0, wake - now);
      timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                  static_cast<long>(wait_ns % 1'000'000'000)};
      int n = ::epoll_pwait2(ep_, events, 16, &ts, nullptr);
      for (int i = 0; i < n; ++i) {
        Conn& c = conns_[events[i].data.u64];
        if (c.dead) continue;
        if (events[i].events & EPOLLOUT) Flush(c);
        if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) Read(c);
      }
    }
    for (Conn& c : conns_) {
      r_->unanswered += static_cast<int64_t>(c.fifo.size());
    }
    r_->window_s = spec_.window_s;
    r_->next_rid = next_rid_;
  }

 private:
  Conn* LeastLoaded() {
    Conn* best = nullptr;
    for (Conn& c : conns_) {
      if (!c.dead && (best == nullptr || c.fifo.size() < best->fifo.size())) {
        best = &c;
      }
    }
    return best;
  }

  void Issue(Conn& c, int64_t start_ns, int64_t now) {
    uint32_t row = order_[cursor_];
    cursor_ = cursor_ + 1 == order_.size() ? 0 : cursor_ + 1;
    uint64_t rid = next_rid_++;
    auto slot = static_cast<uint16_t>(std::min<int64_t>(
        (start_ns - t0_) / slot_ns_,
        static_cast<int64_t>(r_->slot_sent.size()) - 1));
    ++r_->slot_sent[slot];
    c.out += prefixes_[row];
    char digits[24];
    int len = std::snprintf(digits, sizeof(digits), "%llu\r\n\r\n",
                            static_cast<unsigned long long>(rid));
    c.out.append(digits, static_cast<size_t>(len));
    c.out += rows_[row].body;
    c.fifo.push_back(Outstanding{row, slot, rid, start_ns, now});
    ++r_->sent;
  }

  void Nudge(int64_t now) {
    for (Conn& c : conns_) {
      if (c.dead || c.fifo.empty() ||
          now - std::max(c.last_read_ns, c.last_nudge_ns) < kNudgeAfterNs) {
        continue;
      }
      c.out += "\r\n";
      c.nudged = true;
      c.last_nudge_ns = now;
      ++r_->drain_nudges;
    }
  }

  void Flush(Conn& c) {
    while (!c.dead && c.out_off < c.out.size()) {
      ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                         c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        SetWantWrite(c, true);
        return;
      }
      Kill(c);
      return;
    }
    c.out.clear();
    c.out_off = 0;
    SetWantWrite(c, false);
  }

  void SetWantWrite(Conn& c, bool on) {
    if (c.want_write == on || c.dead) return;
    c.want_write = on;
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.u64 = static_cast<uint64_t>(&c - conns_.data());
    ::epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd, &ev);
  }

  void Kill(Conn& c) {
    if (c.dead) return;
    r_->transport_errors += static_cast<int64_t>(c.fifo.size());
    c.fifo.clear();
    c.dead = true;
    ::epoll_ctl(ep_, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    c.fd = -1;
  }

  void Read(Conn& c) {
    char buf[65536];
    for (;;) {
      ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.append(buf, static_cast<size_t>(n));
        c.last_read_ns = NowNs();
        if (static_cast<size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      Parse(c, NowNs());
      Kill(c);
      return;
    }
    Parse(c, NowNs());
  }

  void Parse(Conn& c, int64_t now) {
    for (;;) {
      const char* base = c.in.data() + c.in_off;
      const char* end = c.in.data() + c.in.size();
      const char* hdr_end = nullptr;
      for (const char* p = base; p + 4 <= end; ++p) {
        if (p[0] == '\r' && p[1] == '\n' && p[2] == '\r' && p[3] == '\n') {
          hdr_end = p + 4;
          break;
        }
      }
      if (hdr_end == nullptr) break;
      size_t body_len = 0;
      bool framed = ContentLength(base, hdr_end, &body_len);
      if (!framed || end - hdr_end < static_cast<ptrdiff_t>(body_len)) {
        if (!framed) Kill(c);
        break;
      }
      int status = 0;
      if (end - base > 12) status = std::atoi(base + 9);  // "HTTP/1.1 200"
      OnResponse(c, status, hdr_end, hdr_end + body_len, now);
      c.in_off = static_cast<size_t>(hdr_end + body_len - c.in.data());
      if (c.dead) return;
    }
    if (c.in_off == c.in.size()) {
      c.in.clear();
      c.in_off = 0;
    } else if (c.in_off > 65536) {
      c.in.erase(0, c.in_off);
      c.in_off = 0;
    }
  }

  void OnResponse(Conn& c, int status, const char* body, const char* end,
                  int64_t now) {
    if (c.fifo.empty()) {  // a reply nobody asked for
      ++r_->other_status;
      return;
    }
    Outstanding o = c.fifo.front();
    c.fifo.pop_front();
    if (c.nudged) ++r_->answers_after_nudge;
    Tracer& tracer = GlobalTracer();
    if (spec_.trace_every != 0 && o.rid % spec_.trace_every == 0) {
      tracer.Record(SpanName::kClientRequest, o.start_ns, now, o.rid, 0,
                    static_cast<double>(o.send_ns - o.start_ns), o.rid);
    }
    if (status == 503) {
      ++r_->status_503;
      return;
    }
    if (status == 504) {
      ++r_->status_504;
      return;
    }
    if (status != 200) {
      ++r_->other_status;
      return;
    }
    ++r_->answered_200;
    int64_t latency_ns = now - o.start_ns;
    r_->latency.Add(static_cast<double>(latency_ns) / 1e9);
    r_->slot_latency[o.slot].Add(static_cast<double>(latency_ns) / 1e9);
    int64_t label = -1;
    int64_t votes[8];
    int num_votes = 0;
    const QueryRow& row = rows_[o.row];
    if (ParseAnswer(body, end, &label, votes, &num_votes) &&
        Verify(row, rule_, label, votes, num_votes)) {
      ++r_->correct;
      ++r_->slot_correct[o.slot];
      if (latency_ns <= static_cast<int64_t>(spec_.tau_s * 1e9)) {
        ++r_->correct_in_tau;
        ++r_->slot_in_tau[o.slot];
      }
    } else {
      ++r_->wrong;
    }
    if (label == row.truth) ++r_->truth_hits;
  }

  const LoadSpec& spec_;
  const std::vector<QueryRow>& rows_;
  const AnswerRule& rule_;
  LoadResult* r_;
  std::vector<std::string> prefixes_;
  std::vector<uint32_t> order_;
  size_t cursor_ = 0;
  uint64_t next_rid_ = 1;
  int64_t t0_ = 0;
  int64_t slot_ns_ = 1;
  int ep_ = -1;
  std::vector<Conn> conns_;
};

}  // namespace

bool RunLoad(const LoadSpec& spec, const std::vector<QueryRow>& rows,
             const AnswerRule& rule, LoadResult* result, std::string* error) {
  if (rows.empty() || spec.connections < 1) {
    *error = "no rows or connections";
    return false;
  }
  Client client(spec, rows, rule, result);
  if (!client.Open(error)) return false;
  client.Run();
  return true;
}

std::vector<int64_t> SineSchedule(double target_rate, double period_s,
                                  double window_s, uint64_t seed) {
  rafiki::serving::SineArrivalProcess arrivals(target_rate, period_s, seed);
  constexpr double kSlot = 1e-3;
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(target_rate * 1.2 * window_s) + 16);
  for (double t = 0.0; t < window_s; t += kSlot) {
    int64_t n = arrivals.Arrivals(t, kSlot);
    for (int64_t i = 0; i < n; ++i) {
      double at = t + kSlot * (static_cast<double>(i) + 0.5) /
                          static_cast<double>(n);
      out.push_back(static_cast<int64_t>(at * 1e9));
    }
  }
  return out;
}

}  // namespace perfbench
