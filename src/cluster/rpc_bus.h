#ifndef RAFIKI_CLUSTER_RPC_BUS_H_
#define RAFIKI_CLUSTER_RPC_BUS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cluster/bus.h"
#include "cluster/frame.h"
#include "cluster/message.h"
#include "common/blocking_queue.h"
#include "common/result.h"
#include "net/event_loop.h"
#include "net/socket.h"

namespace rafiki::cluster {

struct RpcBusOptions {
  /// Hub: port to listen on (0 = ephemeral). Leaf: port of the hub.
  uint16_t port = 0;
  /// Leaf only: address of the hub.
  std::string connect_host = "127.0.0.1";
  /// Per-mailbox capacity, matching MessageBus semantics.
  size_t mailbox_capacity = 4096;
  /// Per-connection outbox cap; a peer that stops reading eventually makes
  /// sends fail ResourceExhausted instead of buffering without bound.
  size_t outbox_capacity_bytes = 256u << 20;
  /// Leaf reconnect backoff: first delay, doubling up to the cap.
  std::chrono::milliseconds reconnect_initial{50};
  std::chrono::milliseconds reconnect_max{2000};
};

/// TCP implementation of `Bus`: length-prefixed binary frames (see
/// frame.h) over a `net::EventLoop`, in a hub-and-leaves topology that
/// mirrors the master-worker star of the tuning protocol.
///
///  * The hub (`RpcBus::Listen`) accepts leaf connections and routes
///    kMessage envelopes by destination endpoint. Leaves announce their
///    local endpoints on connect (kAnnounce) and the hub records
///    endpoint -> connection routes; when a leaf's socket dies every route
///    through it is dropped, so later sends fail NotFound — exactly the
///    dropped-RPC signal the in-process bus gives for a dead worker.
///  * A leaf (`RpcBus::Connect`) delivers locally when the destination is
///    one of its own endpoints and forwards everything else upstream to
///    the hub. While the upstream link is down, sends fail NotFound and a
///    background capped exponential backoff re-dials the hub, re-announcing
///    the leaf's endpoints on success.
///  * The hub gossips its routing table downstream: every leaf learns the
///    full endpoint set (hub locals plus other leaves') and withdraws, so a
///    leaf send to an endpoint the cluster does not know fails NotFound at
///    the leaf instead of being silently dropped at the hub.
///
/// All Bus methods are thread-safe; the reactor runs on one internal
/// thread woken when senders enqueue outbound frames (outboxes flush in
/// the loop's end-of-tick hook). Reconnect backoff is a one-shot loop
/// timer, so a downed hub is re-dialed at the exact deadline — there is no
/// safety polling tick. A dial never blocks that thread: it completes on
/// EPOLLOUT, bounded by the kernel's SYN retries, and Shutdown() closes a
/// dial still in progress.
class RpcBus : public Bus {
 public:
  /// Starts a hub listening on options.port (0 = ephemeral; see `port()`).
  static Result<std::unique_ptr<RpcBus>> Listen(const RpcBusOptions& options);

  /// Starts a leaf dialing the hub at connect_host:port. Returns at once:
  /// the dial completes on the bus's loop thread, and `connected()` turns
  /// true once it does. A failed dial is not fatal: the bus stays
  /// disconnected and the backoff loop keeps retrying, so workers may start
  /// before the master listens.
  static Result<std::unique_ptr<RpcBus>> Connect(const RpcBusOptions& options);

  ~RpcBus() override;

  Status RegisterEndpoint(const std::string& name) override;
  Status RemoveEndpoint(const std::string& name) override;
  Status Send(const std::string& to, Message message) override;
  std::optional<Message> Receive(const std::string& name) override;
  std::optional<Message> ReceiveFor(const std::string& name,
                                    std::chrono::milliseconds timeout) override;
  std::optional<Message> TryReceive(const std::string& name) override;
  void CloseAll() override;
  bool HasEndpoint(const std::string& name) const override;
  bool EndpointClosed(const std::string& name) const override;
  size_t QueueDepth(const std::string& name) const override;
  BusStats Stats() const override;

  /// Hub: the bound listening port. Leaf: the hub port it dials.
  uint16_t port() const { return port_; }

  /// Leaf: true while the upstream link is established.
  bool connected() const;

  /// Stops the event loop and closes every connection and local mailbox.
  /// Idempotent; the destructor calls it.
  void Shutdown();

 private:
  using Mailbox = BlockingQueue<Message>;
  using Clock = std::chrono::steady_clock;

  struct Conn {
    net::Socket sock;
    FrameDecoder decoder;           // loop thread only
    std::string outbox;             // guarded by mu_
    size_t outbox_pos = 0;          // guarded by mu_
    bool want_write = false;        // loop thread only
    std::set<std::string> routes;   // endpoints announced via this conn
  };

  RpcBus(const RpcBusOptions& options, bool is_hub);

  Status Init();  // reactor + (hub) listen socket; starts the loop thread
  void HandleAccept();
  void HandleReadable(int fd);
  bool HandleFrame(int fd, Frame frame);  // false: the connection was closed
  void DeliverLocal(const std::string& to, Message message);
  void FlushOutboxes();
  void CloseConn(int fd);
  /// Leaf, loop thread only: arms the one-shot reconnect timer.
  void ScheduleReconnect(std::chrono::milliseconds delay);
  /// Leaf, loop thread (or Init, before the loop starts): starts one
  /// nonblocking dial of the hub, which OnDialed finishes on EPOLLOUT. A
  /// re-dial (`redial`) that connects counts in `reconnects`.
  void TryDial(bool redial);
  /// Leaf, loop thread: the dial's fd reported writable or an error. Adopts
  /// the socket as the upstream link, or backs off.
  void OnDialed(bool redial);
  /// Leaf, loop thread: after a failed dial, doubles the backoff (capped)
  /// and re-arms the reconnect timer.
  void BackOff();
  void AdoptConn(net::Socket sock, bool is_upstream)
      /* requires loop thread or pre-loop init */;
  Status EnqueueFrameLocked(Conn* conn, FrameType type,
                            std::string_view payload)
      /* requires mu_ */;
  void Wake();
  std::shared_ptr<Mailbox> FindMailbox(const std::string& name) const;
  std::vector<std::string> LocalEndpointsLocked() const /* requires mu_ */;

  const RpcBusOptions options_;
  const bool is_hub_;
  uint16_t port_ = 0;

  net::Socket listen_sock_;  // hub only
  /// The bus's reactor: conn/listen fd watchers plus the reconnect timer.
  std::unique_ptr<net::EventLoop> loop_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Mailbox>> endpoints_;
  std::unordered_map<std::string, int> routes_;  // hub: endpoint -> conn fd
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  int upstream_fd_ = -1;  // leaf: fd of the hub link, -1 while down

  // Reconnect state, loop thread only.
  std::chrono::milliseconds backoff_{0};
  net::Socket dial_sock_;  // the hub dial in progress, if any

  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> sent_{0};
  std::atomic<uint64_t> delivered_{0};
  std::atomic<uint64_t> send_errors_{0};
  std::atomic<uint64_t> frames_sent_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> reconnects_{0};

  std::thread loop_thread_;
};

}  // namespace rafiki::cluster

#endif  // RAFIKI_CLUSTER_RPC_BUS_H_
