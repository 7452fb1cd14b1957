#ifndef RAFIKI_NET_HTTP_SERVER_H_
#define RAFIKI_NET_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
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
  /// connections, and runs the handler for every request they carry.
  int num_workers = 2;
  /// Read by nothing: handlers run on the event loops.
  int num_handler_threads = 4;
  /// Requests admitted (response not yet completed) before new ones are
  /// answered 503 directly from the event loop. An admitted request holds
  /// its slot until its ResponseWriter completes, not until the handler
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
  /// Read by nothing: handlers always run on the event loops.
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

  /// Gauges sampled at stats() time.
  size_t inflight = 0;        // admitted, response not yet completed
  uint64_t inflight_peak = 0; // high-watermark of `inflight` since Start()
  /// Requests whose handler has returned but whose ResponseWriter has not
  /// completed yet — the continuation is parked in another subsystem (e.g.
  /// an inference batch queue).
  size_t async_pending = 0;
};

/// From-scratch epoll HTTP/1.1 server (the Figure 2/18 front door):
///
///   * `num_workers` event-loop threads and no other: worker 0's loop also
///     watches the listener and hands accepted sockets round-robin to the
///     workers (itself included);
///   * each worker owns its connections exclusively — nonblocking reads
///     into a per-connection buffer, an incremental HttpParser, and a
///     per-connection scatter-gather output queue flushed via EPOLLOUT on
///     partial writes;
///   * complete requests are admitted against `max_inflight` (overflow
///     answered 503 inline) and handed to the handler on the worker's own
///     loop; the handler receives a ResponseWriter it may complete inline
///     or later from any thread — an off-loop completion reaches the
///     owning worker through EventLoop::Post;
///   * keep-alive and pipelining: up to `max_pipeline` requests per
///     connection may be in flight at once; completions arriving out of
///     order are buffered and written strictly in request order;
///   * Stop() drains: worker 0 closes the listener, new requests get 503,
///     in-flight requests — including async responses whose handler already
///     returned — are completed and written out, then connections close.
///     Each worker leaves once it is idle or its drain timer fires.
///
/// Data-plane memory model: every request rides in a pooled ResponseSlot
/// (request + response + serialized header block). Slots are recycled
/// through per-worker free lists, responses are serialized in place and
/// written with sendmsg scatter-gather (header iovec + body iovec), so a
/// steady-state keep-alive round trip performs no heap allocations.
///
/// Handlers run on the event-loop threads, so several may run at once; they
/// must be thread-safe and must not block.
class HttpServer {
 public:
  struct ResponseSlot;

  /// Synchronous handler: the returned response completes the request
  /// inline. A thin adapter over the async API; a handler that blocks
  /// stalls its event loop.
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

  /// Binds, listens, and starts the `num_workers` event-loop threads.
  Status Start();

  /// Graceful drain-then-stop; idempotent. Safe to call from any thread
  /// except a handler. Returns once every worker has left its loop: at
  /// once for idle workers, else when their in-flight requests are written
  /// out or `drain_timeout_seconds` has passed.
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
  /// A slot has one owner at a time: its worker while the handler runs,
  /// then the WriterState, then the completion on its way back to the
  /// worker, the in-order window, the output queue, and the free list. The
  /// handler returns before its worker can apply the completion (inline
  /// completions are applied at the end of the tick, posted ones at a later
  /// tick), so the request stays readable for the handler's whole run.
  struct ResponseSlot {
    HttpRequest request;
    HttpResponse response;
    std::string head;  // serialized status line + headers (wire form)
    /// Routing of the response back to its connection: the owning worker,
    /// the connection, and the request's place among its pipelined
    /// requests.
    int worker = 0;
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    bool keep_alive = true;
  };

 private:
  /// A response being written: `off` is the byte offset already sent of
  /// head + body viewed as one contiguous stream.
  struct OutItem {
    ResponseSlot* slot = nullptr;
    size_t off = 0;
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
    /// seq & window_mask (valid because parsing pauses at max_pipeline
    /// pending).
    std::vector<ResponseSlot*> window;
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
    /// One-shot idle timer on the worker's loop. The hot path only
    /// refreshes `last_activity`; when the timer fires it either closes a
    /// truly idle connection or re-arms itself for the remaining window
    /// (lazy re-arm: zero timer churn per request).
    TimerId idle_timer;

    Connection(HttpParserLimits limits, size_t window_size)
        : parser(limits),
          window(window_size, nullptr),
          window_mask(window_size - 1) {}
    /// Requests parsed whose responses have not been emitted yet.
    size_t pending() const { return next_seq - next_send; }
    bool busy() const { return pending() > 0 || !outq.empty(); }
  };

  struct Worker {
    int index = 0;
    /// The worker's reactor: fd watchers for its connections (and, on
    /// worker 0, the listener), the timers carrying their idle and drain
    /// deadlines, and the Post() mailbox through which worker 0 hands
    /// over new fds and other threads hand back completions. The gather
    /// flush and the drain-phase check run as the tick-end hook.
    std::unique_ptr<EventLoop> loop;
    std::thread thread;
    /// Everything below is owned exclusively by the worker thread.
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
    /// Free list of recycled slots (capacity-warm arenas).
    std::vector<ResponseSlot*> slot_pool;
    /// Responses completed on this worker's own thread (a handler that
    /// completed inline), applied at the end of the tick.
    RingDeque<ResponseSlot*> inline_completions;
    /// Connections (by id) with staged responses awaiting the end-of-tick
    /// gather flush.
    std::vector<uint64_t> flush_queue;
    /// Set on the first tick that sees the drain: the listener (worker 0)
    /// is closed and the drain timer armed.
    bool drain_armed = false;
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
  /// async_pending gauge exact under the completion/return race). Owns
  /// `slot` until Complete() hands it back to the worker.
  struct WriterState {
    static constexpr int kCompleted = 1;
    static constexpr int kHandlerReturned = 2;

    std::shared_ptr<AsyncCore> core;
    ResponseSlot* slot = nullptr;
    std::atomic<int> flags{0};

    void Complete(const HttpResponse& response);
    ~WriterState();  // completes with 500 if nobody ever completed
  };

 private:
  /// Listener readiness on worker 0's loop: accepts until EAGAIN and posts
  /// each socket to the next worker in round-robin order.
  void OnAcceptable();
  void WorkerLoop(int index);

  /// Applies one completed response: files it in its connection's in-order
  /// window, pumps output, and resumes reading/parsing. May close the
  /// connection.
  void ApplyCompletion(Worker& w, ResponseSlot* slot);
  /// Applies completions produced on this worker's own thread until none
  /// remain.
  void DrainInlineCompletions(Worker& w);
  /// Runs the handler for one admitted request on the worker's thread;
  /// inline completions land in w.inline_completions.
  void RunHandler(ResponseSlot* slot);
  void AddConnection(Worker& w, int fd);
  void CloseConnection(Worker& w, Connection& c);
  void CloseAllConnections(Worker& w);
  /// Pushes the connection's current read/write interest to the reactor.
  void UpdateInterest(Worker& w, Connection& c);
  /// Reactor callback for one connection's readiness events.
  void OnConnEvent(Worker& w, uint64_t conn_id, uint32_t events);
  /// Idle deadline fired: close if genuinely idle, else re-arm for the
  /// time remaining since `last_activity`, or a whole window when busy.
  void OnIdleTimer(Worker& w, uint64_t conn_id);
  void OnReadable(Worker& w, Connection& c);
  void TryParse(Worker& w, Connection& c);

  ResponseSlot* AcquireSlot(Worker& w);
  /// Returns a slot to the worker's free list with capacities intact.
  void RecycleSlot(Worker& w, ResponseSlot* slot);

  /// Queues the response already built in `slot` as the completion of
  /// sequence `seq` (event-loop responses: parse errors, 503s) and pumps
  /// in-order output.
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
  /// Round-robin cursor over workers_; touched only by worker 0's loop.
  size_t next_worker_ = 0;

  /// Set by Stop(): new requests are answered 503 and workers leave once
  /// idle.
  std::atomic<bool> draining_{false};
  std::atomic<size_t> inflight_{0};
  std::atomic<uint64_t> inflight_peak_{0};
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
