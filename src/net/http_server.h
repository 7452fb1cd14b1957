#ifndef RAFIKI_NET_HTTP_SERVER_H_
#define RAFIKI_NET_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/ring_deque.h"
#include "common/result.h"
#include "net/event_loop.h"
#include "net/http.h"
#include "net/socket.h"

namespace rafiki::net {

struct HttpServerOptions {
  /// Listening port; 0 asks the kernel for an ephemeral port (read it back
  /// with port()).
  uint16_t port = 0;
  /// Event-loop threads; each owns an epoll instance and a share of the
  /// connections.
  int num_workers = 2;
  /// Threads invoking the request handler. With the async handler API a
  /// handler thread is only occupied while the handler *runs* (it may hand
  /// its ResponseWriter to another subsystem and return immediately), so
  /// in-flight requests are bounded by `max_inflight`, not by this.
  int num_handler_threads = 4;
  /// Requests admitted (response not yet completed) before new ones are
  /// answered 503 directly from the event loop. This is the true
  /// concurrency bound of the async path: an admitted request holds its
  /// slot until its ResponseWriter completes, not until the handler
  /// returns.
  size_t max_inflight = 256;
  /// Pipelined requests admitted per connection before parsing pauses
  /// (responses are still written in request order; this bounds the
  /// per-connection reorder buffer).
  size_t max_pipeline = 16;
  /// Connections idle longer than this (no request in flight, nothing
  /// buffered) are closed.
  double idle_timeout_seconds = 60.0;
  /// Stop() waits this long for in-flight requests — including async
  /// responses not yet completed — and buffered output to drain before
  /// force-closing connections.
  double drain_timeout_seconds = 5.0;
  HttpParserLimits limits;
  int listen_backlog = 128;
  /// When > 0, shrink each accepted socket's SO_SNDBUF (tests use this to
  /// force partial writes through the EPOLLOUT path).
  int send_buffer_bytes = 0;
  /// Run-to-completion mode: handlers are invoked directly on the owning
  /// event-loop thread instead of the handler pool, and completions that
  /// happen inline skip the mailbox + eventfd wakeup entirely. This
  /// removes two thread handoffs per request — the dominant per-request
  /// cost on small machines — but is only safe when every handler is
  /// non-blocking: it must either complete its writer immediately or park
  /// it elsewhere and return. A handler that blocks (e.g. synchronous
  /// inference) stalls the whole event loop.
  bool inline_handlers = false;
};

/// Monotonic counters plus stage-occupancy gauges. Conservation invariant
/// once quiet:
///   requests_total == responses_total, and
///   responses_total == handled + rejected_overload + parse_errors +
///                      rejected_draining.
struct HttpServerStats {
  uint64_t accepted_connections = 0;
  uint64_t requests_total = 0;    // complete requests parsed
  uint64_t responses_total = 0;   // responses produced (any status)
  uint64_t handled = 0;           // completed through a ResponseWriter
  uint64_t rejected_overload = 0; // 503 at the in-flight cap
  uint64_t rejected_draining = 0; // 503 while stopping
  uint64_t parse_errors = 0;      // 4xx/5xx straight from the parser
  uint64_t timed_out_connections = 0;

  /// Gauges (sampled at stats() time) separating the stages of the async
  /// path, so saturation of each is observable independently:
  ///   admission (inflight) -> handler queue -> handler execution
  ///   (handler_busy) -> async completion wait (async_pending).
  size_t inflight = 0;        // admitted, response not yet completed
  uint64_t inflight_peak = 0; // high-watermark of `inflight` since Start()
  size_t handler_queue = 0;   // parsed requests waiting for a handler thread
  size_t handler_busy = 0;    // threads currently inside the handler
  /// Requests whose handler has returned but whose ResponseWriter has not
  /// completed yet — the continuation is parked in another subsystem (e.g.
  /// an inference batch queue).
  size_t async_pending = 0;
};

/// From-scratch epoll HTTP/1.1 server (the Figure 2/18 front door):
///
///   * one acceptor thread accepts and hands sockets round-robin to
///     `num_workers` event-loop threads;
///   * each worker owns its connections exclusively — nonblocking reads
///     into a per-connection buffer, an incremental HttpParser, and a
///     per-connection scatter-gather output queue flushed via EPOLLOUT on
///     partial writes;
///   * complete requests are admitted against `max_inflight` (overflow
///     answered 503 inline) and dispatched to a handler pool; the handler
///     receives a ResponseWriter it may complete later from any thread —
///     the response is posted back to the owning worker through a mailbox
///     + eventfd;
///   * keep-alive and pipelining: up to `max_pipeline` requests per
///     connection may be in flight at once; completions arriving out of
///     order are buffered and written strictly in request order;
///   * Stop() drains: accepting ends, new requests get 503, in-flight
///     requests — including async responses whose handler already
///     returned — are completed and written out, then connections close.
///
/// Data-plane memory model: every request rides in a pooled ResponseSlot
/// (request + response + serialized header block). Slots are recycled
/// through per-worker free lists, responses are serialized in place and
/// written with sendmsg scatter-gather (header iovec + body iovec), so a
/// steady-state keep-alive round trip performs no heap allocations.
///
/// Handlers run concurrently on the pool; they must be thread-safe.
class HttpServer {
 public:
  struct ResponseSlot;

  /// Synchronous handler: the returned response completes the request.
  /// Runs as a thin adapter over the async API.
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct WriterState;

  /// Completion handle for one request. Copyable (copies share the same
  /// one-shot state — the first Complete() wins, later calls are no-ops)
  /// so it can be captured in std::function continuations. Thread-safe:
  /// Complete() may be called from any thread, including after the server
  /// started draining (the response is still delivered) or after Stop()
  /// finished (the completion is dropped safely). If every copy is
  /// destroyed without completing, a 500 is generated so the connection
  /// and the admission slot are not leaked.
  class ResponseWriter {
   public:
    ResponseWriter() = default;

    /// Completes the request; one-shot, thread-safe.
    void Complete(const HttpResponse& response);

    /// The request's pooled response object, for filling in place (avoids
    /// copying the body into the slot at completion). Only valid on a
    /// writer that has not completed; passing it to Complete() is detected
    /// and skips the copy.
    HttpResponse& response() const;

    bool completed() const;
    bool valid() const { return state_ != nullptr; }

   private:
    friend class HttpServer;
    explicit ResponseWriter(std::shared_ptr<WriterState> state)
        : state_(std::move(state)) {}
    std::shared_ptr<WriterState> state_;
  };

  /// Asynchronous handler: may complete the writer inline or hand it to
  /// another thread and return. Returning without completing parks the
  /// request (counted in the async_pending gauge) until some owner of the
  /// writer completes it.
  using AsyncHandler = std::function<void(const HttpRequest&, ResponseWriter)>;

  HttpServer(Handler handler, HttpServerOptions options = {});
  HttpServer(AsyncHandler handler, HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts the acceptor/worker/handler threads.
  Status Start();

  /// Graceful drain-then-stop; idempotent. Safe to call from any thread
  /// except a handler.
  void Stop();

  /// Bound port (valid after Start()).
  uint16_t port() const { return port_; }

  bool running() const { return running_; }

  HttpServerStats stats() const;

  /// One pooled request/response arena. The request is parsed into it, the
  /// response is built and serialized in it, and its bytes are written to
  /// the socket straight from it; afterwards it returns to a per-worker
  /// free list with all string capacities intact.
  ///
  /// `holds` counts outstanding users: the handler (reading `request`
  /// until it returns) and the response path (WriterState -> completion
  /// mailbox -> in-order window -> output queue -> flushed). Whoever
  /// releases the last hold recycles (or deletes) the slot; this is what
  /// makes it safe for a completion to race the handler's return.
  struct ResponseSlot {
    HttpRequest request;
    HttpResponse response;
    std::string head;  // serialized status line + headers (wire form)
    std::atomic<int> holds{0};
  };

 private:
  enum class Phase { kRunning, kDraining, kForceStop };

  /// One response ready to be written; `seq` orders it among its
  /// connection's pipelined requests. The slot travels by raw pointer —
  /// ownership is tracked by ResponseSlot::holds.
  struct Completion {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    ResponseSlot* slot = nullptr;
    bool keep_alive = true;
  };

  /// A response waiting its turn in the per-connection in-order window,
  /// indexed by seq & (window size - 1).
  struct WindowEntry {
    ResponseSlot* slot = nullptr;
    bool keep_alive = true;
  };

  /// A response being written: `off` is the byte offset already sent of
  /// head + body viewed as one contiguous stream.
  struct OutItem {
    ResponseSlot* slot = nullptr;
    size_t off = 0;
    bool close_after = false;
  };

  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    /// Raw input; consumed bytes are tracked by `in_off` (no memmove) and
    /// the buffer is reset once fully parsed.
    std::string inbuf;
    size_t in_off = 0;
    HttpParser parser;
    uint64_t next_seq = 0;   // sequence assigned to the next parsed request
    uint64_t next_send = 0;  // sequence of the next response to emit
    /// Responses completed out of request order, direct-indexed by
    /// sequence (valid because parsing pauses at max_pipeline pending).
    std::vector<WindowEntry> window;
    uint64_t window_mask = 0;
    /// In-order responses being flushed, front partially written first.
    RingDeque<OutItem> outq;
    /// No further requests will be parsed (parse error, Connection: close,
    /// or a drain rejection); pending responses still go out in order.
    bool parse_done = false;
    bool close_after_write = false;
    bool peer_closed = false;
    bool want_read = true;
    bool want_write = false;
    /// Queued in the worker's flush list for this loop tick. Responses
    /// completed within one tick accumulate in `outq` and go out in a
    /// single gather write at the end of the tick, instead of one
    /// sendmsg per completion.
    bool flush_pending = false;
    double last_activity = 0.0;
    /// One-shot idle timer on the worker's wheel. The hot path only
    /// refreshes `last_activity`; when the timer fires it either closes a
    /// truly idle connection or re-arms itself for the remaining window
    /// (lazy re-arm: zero timer churn per request).
    TimerId idle_timer = 0;

    Connection(HttpParserLimits limits, size_t window_size)
        : parser(limits), window(window_size), window_mask(window_size - 1) {}
    /// Requests parsed whose responses have not been emitted yet.
    size_t pending() const { return next_seq - next_send; }
    bool busy() const { return pending() > 0 || !outq.empty(); }
  };

  struct Work {
    int worker = 0;
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    bool keep_alive = true;
    ResponseSlot* slot = nullptr;
  };

  struct Worker {
    int index = 0;
    /// The worker's reactor: fd watchers for its connections, the timer
    /// wheel carrying their idle deadlines, and the wake eventfd behind
    /// Wake(). Mailbox drain runs as the loop's tick-begin hook; the
    /// gather flush, work-batch handoff, and drain-phase check run as the
    /// tick-end hook.
    std::unique_ptr<EventLoop> loop;
    std::thread thread;
    std::mutex mu;  // guards the three mailboxes below
    std::vector<int> pending_fds;
    std::vector<Completion> completions;
    /// Slots whose last hold was released off-worker; recycled here.
    std::vector<ResponseSlot*> returned;
    /// Everything below is owned exclusively by the worker thread.
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
    /// Free list of recycled slots (capacity-warm arenas).
    std::vector<ResponseSlot*> slot_pool;
    /// Admitted work gathered during one event-loop tick, pushed to the
    /// handler queue with a single lock + notify.
    std::vector<Work> work_batch;
    // Drain scratch: swapped with the mailboxes so both sides keep their
    // vector capacity (no per-tick allocation).
    std::vector<int> fds_scratch;
    std::vector<Completion> completions_scratch;
    std::vector<ResponseSlot*> returned_scratch;
    /// Completions produced on this worker's own thread (inline_handlers
    /// fast path); never locked — only the owning thread touches it.
    RingDeque<Completion> inline_completions;
    /// Connections (by id) with staged responses awaiting the end-of-tick
    /// gather flush; guarded by the owning thread only.
    std::vector<uint64_t> flush_queue;
    std::atomic<bool> exited{false};
  };

 public:
  /// Shared between the server and every outstanding ResponseWriter; the
  /// server pointer is nulled under `mu` during Stop(), after which late
  /// completions are dropped instead of touching freed workers.
  struct AsyncCore {
    std::mutex mu;
    HttpServer* server = nullptr;
  };

  /// One-shot completion state behind ResponseWriter. `flags` bit 0 is
  /// "completed", bit 1 is "handler returned" (used to keep the
  /// async_pending gauge exact under the completion/return race). Holds
  /// the response-path reference on `slot` until Complete() posts it.
  struct WriterState {
    static constexpr int kCompleted = 1;
    static constexpr int kHandlerReturned = 2;

    std::shared_ptr<AsyncCore> core;
    ResponseSlot* slot = nullptr;
    int worker = 0;
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    bool keep_alive = true;
    std::atomic<int> flags{0};

    void Complete(const HttpResponse& response);
    ~WriterState();  // completes with 500 if nobody ever completed
  };

 private:
  void AcceptLoop();
  void WorkerLoop(int index);
  void HandlerLoop();

  void Wake(Worker& w);
  void DrainMailbox(Worker& w);
  /// Applies one completed response: files it in its connection's in-order
  /// window, pumps output, and resumes reading/parsing. May close the
  /// connection.
  void ApplyCompletion(Worker& w, const Completion& done);
  /// Applies completions produced on this worker's own thread (the
  /// inline_handlers fast path) until none remain.
  void DrainInlineCompletions(Worker& w);
  /// Runs the handler for one admitted request on the calling (worker)
  /// thread; inline completions land in w.inline_completions.
  void RunHandlerInline(Worker& w, const Work& work);
  void AddConnection(Worker& w, int fd);
  void CloseConnection(Worker& w, Connection& c);
  /// Pushes the connection's current read/write interest to the reactor.
  void UpdateInterest(Worker& w, Connection& c);
  /// Reactor callback for one connection's readiness events.
  void OnConnEvent(Worker& w, uint64_t conn_id, uint32_t events);
  /// Idle deadline fired: close if genuinely idle, else re-arm for the
  /// time remaining since `last_activity`.
  void OnIdleTimer(Worker& w, uint64_t conn_id);
  void OnReadable(Worker& w, Connection& c);
  void TryParse(Worker& w, Connection& c);

  ResponseSlot* AcquireSlot(Worker& w);
  /// Returns a slot to the worker's free list with capacities intact.
  void RecycleSlot(Worker& w, ResponseSlot* slot);
  /// Drops one hold; recycles on the last release (worker thread only).
  void ReleaseSlotHold(Worker& w, ResponseSlot* slot);
  /// Flushes the tick's admitted work to the handler queue in one lock.
  void FlushWorkBatch(Worker& w);

  /// Queues the response already built in `slot` as the completion of
  /// sequence `seq` (event-loop responses: parse errors, 503s) and pumps
  /// in-order output. Takes over the slot's single hold.
  void QueueSlotResponse(Worker& w, Connection& c, uint64_t seq,
                         ResponseSlot* slot, bool keep_alive);
  /// Moves consecutive ready completions into the output queue and
  /// flushes. May close (destroy) the connection.
  void PumpResponses(Worker& w, Connection& c);
  void FlushPendingWrites(Worker& w);
  void FlushWrite(Worker& w, Connection& c);
  double Now() const;

  AsyncHandler async_handler_;
  HttpServerOptions opts_;
  Socket listener_;
  uint16_t port_ = 0;
  bool running_ = false;

  std::shared_ptr<AsyncCore> core_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread acceptor_;
  std::vector<std::thread> handler_threads_;

  mutable std::mutex work_mu_;
  std::condition_variable work_cv_;
  RingDeque<Work> work_;
  bool stop_handlers_ = false;  // guarded by work_mu_

  std::atomic<Phase> phase_{Phase::kRunning};
  std::atomic<bool> stop_accepting_{false};
  std::atomic<size_t> inflight_{0};
  std::atomic<uint64_t> inflight_peak_{0};
  std::atomic<size_t> handler_busy_{0};
  std::atomic<int64_t> async_pending_{0};
  std::atomic<uint64_t> next_conn_id_{1};

  // Stats counters.
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> responses_{0};
  std::atomic<uint64_t> handled_{0};
  std::atomic<uint64_t> rejected_overload_{0};
  std::atomic<uint64_t> rejected_draining_{0};
  std::atomic<uint64_t> parse_errors_{0};
  std::atomic<uint64_t> timed_out_{0};

  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace rafiki::net

#endif  // RAFIKI_NET_HTTP_SERVER_H_
