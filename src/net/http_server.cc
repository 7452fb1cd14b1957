#include "net/http_server.h"

#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <new>

#include "common/logging.h"

namespace rafiki::net {
namespace {

/// While requests are in flight we keep reading (so we notice resets) but
/// cap how much pipelined input we buffer; past this we drop interest in
/// EPOLLIN and TCP backpressure reaches the client.
constexpr size_t kMaxBufferedInput = 64 * 1024;

/// iovec entries per sendmsg: up to 32 responses (header + body each) per
/// flush syscall.
constexpr int kMaxIov = 64;

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

void FillOverload(HttpServer::ResponseSlot* slot, const char* why) {
  slot->response.status = 503;
  slot->response.body.assign("error=");
  slot->response.body.append(why);
  slot->response.headers.emplace_back("Retry-After", "1");
}

/// The synchronous Handler is a thin adapter: the returned response
/// completes the writer inline, on the event loop that ran the handler.
HttpServer::AsyncHandler WrapSyncHandler(HttpServer::Handler handler) {
  RAFIKI_CHECK(handler != nullptr);
  return [handler = std::move(handler)](const HttpRequest& request,
                                        HttpServer::ResponseWriter writer) {
    writer.Complete(handler(request));
  };
}

/// Allocator with per-thread free lists of single-object blocks, used to
/// recycle the allocate_shared node behind every WriterState. A block is
/// cached on whichever thread drops the last reference; the steady state
/// (handler allocates, completes inline, releases on the same loop) hits
/// the cache every time and never touches the heap.
template <typename T>
class FreeListAllocator {
 public:
  using value_type = T;

  FreeListAllocator() = default;
  template <typename U>
  FreeListAllocator(const FreeListAllocator<U>&) {}  // NOLINT

  T* allocate(size_t n) {
    if (n == 1) {
      auto& cache = Cache();
      if (!cache.empty()) {
        void* p = cache.back();
        cache.pop_back();
        return static_cast<T*>(p);
      }
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, size_t n) {
    if (n == 1) {
      auto& cache = Cache();
      if (cache.size() < kMaxCached) {
        cache.push_back(p);
        return;
      }
    }
    ::operator delete(p);
  }

  template <typename U>
  bool operator==(const FreeListAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const FreeListAllocator<U>&) const {
    return false;
  }

 private:
  static constexpr size_t kMaxCached = 256;

  struct CacheHolder {
    std::vector<void*> blocks;
    ~CacheHolder() {
      for (void* p : blocks) ::operator delete(p);
    }
  };

  static std::vector<void*>& Cache() {
    static thread_local CacheHolder holder;
    return holder.blocks;
  }
};

/// Copies a response into the slot's arena, reusing string capacities.
void CopyResponseInto(const HttpResponse& from, HttpResponse* to) {
  to->status = from.status;
  to->body = from.body;
  to->content_type = from.content_type;
  to->headers = from.headers;
}

}  // namespace

void HttpServer::ResponseWriter::Complete(const HttpResponse& response) {
  if (state_ != nullptr) state_->Complete(response);
}

HttpResponse& HttpServer::ResponseWriter::response() const {
  return state_->slot->response;
}

bool HttpServer::ResponseWriter::completed() const {
  return state_ != nullptr &&
         (state_->flags.load(std::memory_order_acquire) &
          WriterState::kCompleted) != 0;
}

void HttpServer::WriterState::Complete(const HttpResponse& response) {
  int old = flags.fetch_or(kCompleted, std::memory_order_acq_rel);
  if (old & kCompleted) return;  // one-shot: first completion wins
  ResponseSlot* s = slot;
  slot = nullptr;
  // Build and serialize in the slot's arena before taking the core lock.
  // Completing with the slot's own response() skips the copy entirely.
  if (&response != &s->response) CopyResponseInto(response, &s->response);
  SerializeResponseHeadersTo(s->response, s->keep_alive, &s->head);
  std::lock_guard<std::mutex> lock(core->mu);
  HttpServer* server = core->server;
  if (server == nullptr) {
    // Stop() severed the core: no worker will apply this completion.
    delete s;
    return;
  }
  // Completion is where the request stops being "in flight": the admission
  // slot frees here, not when the handler returned.
  server->inflight_.fetch_sub(1, std::memory_order_acq_rel);
  server->handled_.fetch_add(1, std::memory_order_relaxed);
  server->responses_.fetch_add(1, std::memory_order_relaxed);
  if (old & kHandlerReturned) {
    server->async_pending_.fetch_sub(1, std::memory_order_relaxed);
  }
  Worker& w = *server->workers_[static_cast<size_t>(s->worker)];
  if (w.loop->IsInLoopThread()) {
    // Completed on the owning worker's own thread: applied at the end of
    // this tick, after the handler has returned.
    w.inline_completions.push_back(std::move(s));
    return;
  }
  // Two pointers fit std::function's in-place buffer: no allocation. The
  // core lock held here orders this post before Stop() severs the core.
  w.loop->Post([server, s] {
    server->ApplyCompletion(*server->workers_[static_cast<size_t>(s->worker)],
                            s);
  });
}

HttpServer::WriterState::~WriterState() {
  if ((flags.load(std::memory_order_acquire) & kCompleted) != 0) return;
  // Every copy of the writer was dropped without completing: answer 500 so
  // neither the connection nor the admission slot leaks.
  HttpResponse resp;
  resp.status = 500;
  resp.body = "error=handler dropped the response";
  Complete(resp);
}

HttpServer::HttpServer(AsyncHandler handler, HttpServerOptions options)
    : async_handler_(std::move(handler)), opts_(options) {
  RAFIKI_CHECK(async_handler_ != nullptr);
  opts_.num_workers = std::max(opts_.num_workers, 1);
  opts_.max_inflight = std::max<size_t>(opts_.max_inflight, 1);
  opts_.max_pipeline = std::max<size_t>(opts_.max_pipeline, 1);
}

HttpServer::HttpServer(Handler handler, HttpServerOptions options)
    : HttpServer(WrapSyncHandler(std::move(handler)), options) {}

HttpServer::~HttpServer() { Stop(); }

double HttpServer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

Status HttpServer::Start() {
  if (running_) return Status::FailedPrecondition("server already running");
  epoch_ = std::chrono::steady_clock::now();
  RAFIKI_ASSIGN_OR_RETURN(listener_,
                          ListenTcp(opts_.port, opts_.listen_backlog, &port_));

  workers_.clear();
  for (int i = 0; i < opts_.num_workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->index = i;
    w->loop = std::make_unique<EventLoop>();
    workers_.push_back(std::move(w));
  }

  // Fresh completion core: writers from a previous (force-stopped) run
  // keep their old core, whose server pointer is already null.
  core_ = std::make_shared<AsyncCore>();
  core_->server = this;

  phase_ = Phase::kRunning;
  stop_accepting_ = false;
  inflight_ = 0;
  async_pending_ = 0;
  running_ = true;
  for (int i = 0; i < opts_.num_workers; ++i) {
    workers_[static_cast<size_t>(i)]->thread =
        std::thread([this, i] { WorkerLoop(i); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_) return;

  // 1. Stop accepting; close the listener so clients see refusals.
  stop_accepting_ = true;
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();

  // 2. Drain: new requests are answered 503, workers run until every
  //    connection has neither a pending response (parked elsewhere) nor
  //    unwritten output. Completions keep arriving by Post during this
  //    phase.
  phase_ = Phase::kDraining;
  for (auto& w : workers_) w->loop->Wake();
  double deadline = Now() + opts_.drain_timeout_seconds;
  for (;;) {
    bool all_exited = true;
    for (auto& w : workers_) all_exited = all_exited && w->exited.load();
    if (all_exited) break;
    if (Now() >= deadline) {
      phase_ = Phase::kForceStop;
      for (auto& w : workers_) w->loop->Wake();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }

  // 3. Cut the completion core: ResponseWriters still alive (continuations
  //    parked in other subsystems) now delete their slot instead of posting
  //    to a dead worker.
  {
    std::lock_guard<std::mutex> lock(core_->mu);
    core_->server = nullptr;
  }

  // 4. Nothing posts any more. Run what was posted to loops that had
  //    already exited (new fds, completions for closed connections), close
  //    what that opened, and free the arenas.
  for (auto& w : workers_) {
    w->loop->PollOnce(0.0);
    CloseAllConnections(*w);
    for (ResponseSlot* s : w->slot_pool) delete s;
    w->slot_pool.clear();
  }
  workers_.clear();
  running_ = false;
}

HttpServerStats HttpServer::stats() const {
  HttpServerStats s;
  s.accepted_connections = accepted_.load();
  s.requests_total = requests_.load();
  s.responses_total = responses_.load();
  s.handled = handled_.load();
  s.rejected_overload = rejected_overload_.load();
  s.rejected_draining = rejected_draining_.load();
  s.parse_errors = parse_errors_.load();
  s.timed_out_connections = timed_out_.load();
  s.inflight = inflight_.load();
  s.inflight_peak = inflight_peak_.load();
  s.async_pending = static_cast<size_t>(std::max<int64_t>(
      async_pending_.load(std::memory_order_relaxed), 0));
  return s;
}

void HttpServer::AcceptLoop() {
  size_t next_worker = 0;
  while (!stop_accepting_.load()) {
    pollfd p{listener_.fd(), POLLIN, 0};
    int rc = ::poll(&p, 1, /*timeout_ms=*/50);
    if (rc <= 0) continue;
    for (;;) {
      int fd = ::accept4(listener_.fd(), nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) break;  // EAGAIN / transient error: back to poll
      (void)SetNoDelay(fd);
      if (opts_.send_buffer_bytes > 0) {
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts_.send_buffer_bytes,
                     sizeof(opts_.send_buffer_bytes));
      }
      accepted_.fetch_add(1, std::memory_order_relaxed);
      Worker& w = *workers_[next_worker];
      next_worker = (next_worker + 1) % workers_.size();
      w.loop->Post([this, &w, fd] { AddConnection(w, fd); });
    }
  }
}

HttpServer::ResponseSlot* HttpServer::AcquireSlot(Worker& w) {
  if (!w.slot_pool.empty()) {
    ResponseSlot* s = w.slot_pool.back();
    w.slot_pool.pop_back();
    return s;
  }
  return new ResponseSlot();
}

void HttpServer::RecycleSlot(Worker& w, ResponseSlot* slot) {
  // Reset to defaults while keeping every string/vector capacity (that IS
  // the arena). The request is fully overwritten at the next parse.
  slot->response.status = 200;
  slot->response.body.clear();
  slot->response.content_type = "text/plain";
  slot->response.headers.clear();
  slot->head.clear();
  // Bound the pool by the worst simultaneous demand this worker can see.
  if (w.slot_pool.size() <
      opts_.max_inflight + 2 * opts_.max_pipeline + 16) {
    w.slot_pool.push_back(slot);
  } else {
    delete slot;
  }
}

void HttpServer::ApplyCompletion(Worker& w, ResponseSlot* slot) {
  const uint64_t conn_id = slot->conn_id;
  auto it = w.conns.find(conn_id);
  if (it == w.conns.end()) {
    // Connection died mid-request; drop the response.
    RecycleSlot(w, slot);
    return;
  }
  Connection& c = *it->second;
  c.last_activity = Now();
  c.window[slot->seq & c.window_mask] = slot;
  PumpResponses(w, c);
  // Defensive re-lookup: nothing above should drop the connection today
  // (the flush that could is deferred to end of tick), but TryParse below
  // can, so the id-based discipline stays uniform.
  auto again = w.conns.find(conn_id);
  if (again == w.conns.end()) return;
  Connection& alive = *again->second;
  if (!alive.want_read && !alive.peer_closed &&
      alive.inbuf.size() - alive.in_off < kMaxBufferedInput) {
    alive.want_read = true;
    UpdateInterest(w, alive);
  }
  // Pipelined requests already buffered: parse the next one now.
  if (!alive.close_after_write) TryParse(w, alive);
  auto fin = w.conns.find(conn_id);
  if (fin != w.conns.end() && fin->second->peer_closed &&
      !fin->second->busy()) {
    CloseConnection(w, *fin->second);
  }
}

void HttpServer::DrainInlineCompletions(Worker& w) {
  // ApplyCompletion may parse further pipelined requests, whose handlers
  // append here — keep going until the queue is genuinely dry.
  while (!w.inline_completions.empty()) {
    ResponseSlot* slot = w.inline_completions.front();
    w.inline_completions.pop_front();
    ApplyCompletion(w, slot);
  }
}

void HttpServer::AddConnection(Worker& w, int fd) {
  uint64_t id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  auto conn = std::make_unique<Connection>(opts_.limits,
                                           RoundUpPow2(opts_.max_pipeline));
  conn->fd = fd;
  conn->id = id;
  conn->last_activity = Now();
  Status st = w.loop->AddFd(
      fd, /*want_read=*/true, /*want_write=*/false,
      [this, &w, id](uint32_t events) { OnConnEvent(w, id, events); });
  if (!st.ok()) {
    ::close(fd);
    return;
  }
  conn->idle_timer = w.loop->RunAfter(
      opts_.idle_timeout_seconds, [this, &w, id] { OnIdleTimer(w, id); });
  w.conns.emplace(id, std::move(conn));
}

void HttpServer::OnConnEvent(Worker& w, uint64_t conn_id, uint32_t events) {
  auto it = w.conns.find(conn_id);
  if (it == w.conns.end()) return;  // closed earlier this tick
  if (events & EPOLLOUT) {
    FlushWrite(w, *it->second);
    it = w.conns.find(conn_id);  // FlushWrite may close (destroy) it
    if (it == w.conns.end()) return;
  }
  if (events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
    OnReadable(w, *it->second);
  }
}

void HttpServer::OnIdleTimer(Worker& w, uint64_t conn_id) {
  auto it = w.conns.find(conn_id);
  if (it == w.conns.end()) return;
  Connection& c = *it->second;
  double idle = Now() - c.last_activity;
  if (!c.busy() && idle >= opts_.idle_timeout_seconds) {
    timed_out_.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(w, c);
    return;
  }
  // Activity moved the deadline since this timer was armed (the hot path
  // only writes last_activity — it never touches the wheel): re-arm for
  // exactly the remaining window.
  double remaining = std::max(opts_.idle_timeout_seconds - idle,
                              w.loop->wheel().tick_seconds());
  c.idle_timer = w.loop->RunAfter(remaining, [this, &w, conn_id] {
    OnIdleTimer(w, conn_id);
  });
}

void HttpServer::CloseConnection(Worker& w, Connection& c) {
  // Recycle every response this connection owns. A request whose writer is
  // still out keeps its slot; the completion recycles it on arrival.
  for (ResponseSlot*& slot : c.window) {
    if (slot != nullptr) {
      RecycleSlot(w, slot);
      slot = nullptr;
    }
  }
  while (!c.outq.empty()) {
    RecycleSlot(w, c.outq.front().slot);
    c.outq.pop_front();
  }
  w.loop->CancelTimer(c.idle_timer);
  (void)w.loop->RemoveFd(c.fd);
  ::close(c.fd);
  w.conns.erase(c.id);  // destroys c
}

void HttpServer::CloseAllConnections(Worker& w) {
  while (!w.conns.empty()) CloseConnection(w, *w.conns.begin()->second);
}

void HttpServer::UpdateInterest(Worker& w, Connection& c) {
  (void)w.loop->ModifyFd(c.fd, c.want_read, c.want_write);
}

void HttpServer::OnReadable(Worker& w, Connection& c) {
  // TryParse below may close (destroy) the connection; keep the id so the
  // re-lookup never touches freed memory.
  const uint64_t conn_id = c.id;
  char buf[16 * 1024];
  for (;;) {
    ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.inbuf.append(buf, static_cast<size_t>(n));
      c.last_activity = Now();
      if (c.pending() > 0 &&
          c.inbuf.size() - c.in_off >= kMaxBufferedInput) {
        // Pipelining backpressure: stop reading until responses go out.
        c.want_read = false;
        UpdateInterest(w, c);
        break;
      }
      // A short read means the socket buffer is (almost certainly) empty;
      // skip the EAGAIN confirmation recv. Epoll is level-triggered, so
      // any bytes that race in are reported again on the next tick.
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(w, c);  // ECONNRESET and friends
      return;
    }
    // n == 0: orderly shutdown from the peer.
    c.peer_closed = true;
    c.want_read = false;
    UpdateInterest(w, c);
    break;
  }
  TryParse(w, c);
  // Peer gone and nothing left to answer: drop the connection.
  auto it = w.conns.find(conn_id);
  if (it != w.conns.end()) {
    Connection& alive = *it->second;
    if (alive.peer_closed && !alive.busy()) CloseConnection(w, alive);
  }
}

void HttpServer::TryParse(Worker& w, Connection& c) {
  const uint64_t conn_id = c.id;  // survives a close inside QueueSlotResponse
  while (!c.parse_done && c.pending() < opts_.max_pipeline &&
         c.in_off < c.inbuf.size()) {
    size_t consumed =
        c.parser.Feed(c.inbuf.data() + c.in_off, c.inbuf.size() - c.in_off);
    c.in_off += consumed;
    if (c.in_off == c.inbuf.size()) {
      // Fully consumed: reset the buffer (capacity kept) so the offset
      // never grows without bound.
      c.inbuf.clear();
      c.in_off = 0;
    }
    if (c.parser.failed()) {
      parse_errors_.fetch_add(1, std::memory_order_relaxed);
      ResponseSlot* slot = AcquireSlot(w);
      slot->response.status = c.parser.error_status();
      slot->response.body.assign("error=");
      slot->response.body.append(c.parser.error());
      c.inbuf.clear();  // framing is lost; discard and close after reply
      c.in_off = 0;
      c.parse_done = true;
      QueueSlotResponse(w, c, c.next_seq++, slot, /*keep_alive=*/false);
      return;
    }
    if (!c.parser.done()) return;  // need more bytes

    requests_.fetch_add(1, std::memory_order_relaxed);
    // Claim an arena and swap the parsed request into it; the parser gets
    // the slot's retired strings (and their capacities) back.
    ResponseSlot* slot = AcquireSlot(w);
    slot->request.swap(c.parser.request());
    c.parser.Reset();
    c.last_activity = Now();
    uint64_t seq = c.next_seq++;
    bool keep_alive = slot->request.keep_alive;
    // After "Connection: close" no further request may be answered on
    // this connection; stop parsing so pipelined bytes are not consumed.
    if (!keep_alive) c.parse_done = true;

    if (phase_.load() != Phase::kRunning) {
      rejected_draining_.fetch_add(1, std::memory_order_relaxed);
      c.parse_done = true;
      FillOverload(slot, "server shutting down");
      QueueSlotResponse(w, c, seq, slot, /*keep_alive=*/false);
      return;
    }
    // Admission control: bounded in-flight (admitted, not yet completed)
    // requests across all workers.
    if (inflight_.fetch_add(1, std::memory_order_acq_rel) >=
        opts_.max_inflight) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      rejected_overload_.fetch_add(1, std::memory_order_relaxed);
      FillOverload(slot, "server overloaded");
      QueueSlotResponse(w, c, seq, slot, keep_alive);
      if (w.conns.find(conn_id) == w.conns.end()) return;  // write error
      continue;  // connection stays usable; try the next pipelined request
    }
    // Track the concurrency high-watermark (the async path's headline
    // number: it can far exceed the event-loop count).
    uint64_t cur = static_cast<uint64_t>(inflight_.load());
    uint64_t peak = inflight_peak_.load(std::memory_order_relaxed);
    while (cur > peak && !inflight_peak_.compare_exchange_weak(
                             peak, cur, std::memory_order_relaxed)) {
    }
    slot->worker = w.index;
    slot->conn_id = c.id;
    slot->seq = seq;
    slot->keep_alive = keep_alive;
    // Run the handler right here. Its completion (if inline) lands in
    // w.inline_completions and is applied at the end of the tick — never
    // mid-parse, so `c` stays valid.
    RunHandler(slot);
    // Keep parsing: pipelined requests proceed concurrently (bounded by
    // max_pipeline) and responses are re-ordered to request order on
    // completion.
  }
}

void HttpServer::RunHandler(ResponseSlot* slot) {
  auto state =
      std::allocate_shared<WriterState>(FreeListAllocator<WriterState>());
  state->core = core_;
  state->slot = slot;
  async_handler_(slot->request, ResponseWriter(state));
  // Handler returned without completing: the continuation is parked
  // elsewhere (async_pending until its owner completes the writer). The
  // two flag bits keep the gauge exact when completion races the return.
  int old = state->flags.fetch_or(WriterState::kHandlerReturned,
                                  std::memory_order_acq_rel);
  if (!(old & WriterState::kCompleted)) {
    async_pending_.fetch_add(1, std::memory_order_relaxed);
  }
  // `state` drops here: if the handler kept no copy and never completed,
  // ~WriterState answers 500 so the connection is not wedged.
}

void HttpServer::QueueSlotResponse(Worker& w, Connection& c, uint64_t seq,
                                   ResponseSlot* slot, bool keep_alive) {
  responses_.fetch_add(1, std::memory_order_relaxed);
  slot->seq = seq;
  slot->keep_alive = keep_alive;
  SerializeResponseHeadersTo(slot->response, keep_alive, &slot->head);
  c.window[seq & c.window_mask] = slot;
  PumpResponses(w, c);
}

void HttpServer::PumpResponses(Worker& w, Connection& c) {
  while (!c.close_after_write) {
    ResponseSlot*& next = c.window[c.next_send & c.window_mask];
    if (next == nullptr) break;  // next-in-order not completed yet
    ResponseSlot* slot = next;
    next = nullptr;
    c.outq.push_back(OutItem{slot, 0});
    ++c.next_send;
    // Responses queued behind a close die with the connection.
    if (!slot->keep_alive) c.close_after_write = true;
  }
  // Defer the socket write to the end of the loop tick: every response
  // completed this tick rides the same gather flush (one sendmsg per
  // connection per tick instead of one per response).
  if (!c.outq.empty() && !c.flush_pending) {
    c.flush_pending = true;
    w.flush_queue.push_back(c.id);
  }
}

void HttpServer::FlushPendingWrites(Worker& w) {
  // FlushWrite never stages new flushes and may only erase connections,
  // so a plain index walk over the tick's list is safe.
  for (size_t i = 0; i < w.flush_queue.size(); ++i) {
    auto it = w.conns.find(w.flush_queue[i]);
    if (it == w.conns.end()) continue;  // closed earlier this tick
    Connection& c = *it->second;
    c.flush_pending = false;
    FlushWrite(w, c);
  }
  w.flush_queue.clear();
}

void HttpServer::FlushWrite(Worker& w, Connection& c) {
  while (!c.outq.empty()) {
    // Gather up to kMaxIov segments across the queued responses: header
    // block and body each contribute one iovec, no concatenation copy.
    iovec iov[kMaxIov];
    int iov_count = 0;
    size_t n_items = c.outq.size();
    for (size_t i = 0; i < n_items && iov_count + 2 <= kMaxIov; ++i) {
      OutItem& item = c.outq[i];
      const std::string& head = item.slot->head;
      const std::string& body = item.slot->response.body;
      size_t off = item.off;  // nonzero only for the front item
      if (off < head.size()) {
        iov[iov_count].iov_base = const_cast<char*>(head.data()) + off;
        iov[iov_count].iov_len = head.size() - off;
        ++iov_count;
        off = 0;
      } else {
        off -= head.size();
      }
      if (off < body.size()) {
        iov[iov_count].iov_base = const_cast<char*>(body.data()) + off;
        iov[iov_count].iov_len = body.size() - off;
        ++iov_count;
      }
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iov_count);
    ssize_t n = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      size_t left = static_cast<size_t>(n);
      while (left > 0) {
        OutItem& front = c.outq.front();
        size_t total =
            front.slot->head.size() + front.slot->response.body.size();
        size_t remain = total - front.off;
        if (left < remain) {
          front.off += left;
          break;
        }
        left -= remain;
        bool close_now = !front.slot->keep_alive;
        RecycleSlot(w, front.slot);
        c.outq.pop_front();
        if (close_now) {
          CloseConnection(w, c);
          return;
        }
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!c.want_write) {
        c.want_write = true;
        UpdateInterest(w, c);
      }
      return;
    }
    CloseConnection(w, c);  // broken pipe / reset
    return;
  }
  if (c.want_write) {
    c.want_write = false;
    UpdateInterest(w, c);
  }
}

void HttpServer::WorkerLoop(int index) {
  Worker& w = *workers_[static_cast<size_t>(index)];
  EventLoop& loop = *w.loop;
  // New fds and off-thread completions arrive as posted tasks, which run
  // at the top of every tick, before fd dispatch. Connection events arrive
  // through the per-fd callbacks registered in AddConnection; idle
  // deadlines through wheel timers. No safety timeout remains: every
  // wakeup is an event, a posted task, or an exact timer deadline.
  loop.SetTickEndHook([this, &w, &loop] {
    // Handlers that completed inline during this tick: file their
    // responses before the tick's single gather flush below.
    DrainInlineCompletions(w);
    FlushPendingWrites(w);
    Phase phase = phase_.load();
    if (phase == Phase::kRunning) return;
    if (phase == Phase::kForceStop) {
      loop.Stop();
      return;
    }
    // Draining: leave once nothing on this worker is mid-request (which
    // includes async responses not yet completed) or mid-write. Idle
    // keep-alive connections are simply closed. Completions and phase
    // flips both wake the loop, so this re-checks exactly when the answer
    // can change.
    bool busy = false;
    for (auto& [id, conn] : w.conns) busy = busy || conn->busy();
    if (!busy) loop.Stop();
  });
  loop.Run();
  // The tick-end hook drained every inline completion before it stopped
  // the loop.
  CloseAllConnections(w);
  w.exited.store(true);
}

}  // namespace rafiki::net
