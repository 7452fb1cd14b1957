#include "cluster/rpc_bus.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"

namespace rafiki::cluster {
namespace {

/// Once this much of an outbox has been flushed, reclaim the prefix.
constexpr size_t kOutboxCompactBytes = 1u << 20;

}  // namespace

Result<std::unique_ptr<RpcBus>> RpcBus::Listen(const RpcBusOptions& options) {
  std::unique_ptr<RpcBus> bus(new RpcBus(options, /*is_hub=*/true));
  Status status = bus->Init();
  if (!status.ok()) return status;
  return bus;
}

Result<std::unique_ptr<RpcBus>> RpcBus::Connect(const RpcBusOptions& options) {
  std::unique_ptr<RpcBus> bus(new RpcBus(options, /*is_hub=*/false));
  Status status = bus->Init();
  if (!status.ok()) return status;
  return bus;
}

RpcBus::RpcBus(const RpcBusOptions& options, bool is_hub)
    : options_(options), is_hub_(is_hub) {}

RpcBus::~RpcBus() { Shutdown(); }

Status RpcBus::Init() {
  loop_ = std::make_unique<net::EventLoop>();
  // Outboxes flush in the end-of-tick hook: every wakeup — readable
  // socket, EPOLLOUT readiness, or a sender's Wake() — ends with one drain
  // pass, exactly as each iteration of the old hand-rolled loop did.
  loop_->SetTickEndHook([this] { FlushOutboxes(); });

  if (is_hub_) {
    auto listening = net::ListenTcp(options_.port, /*backlog=*/128, &port_);
    if (!listening.ok()) return listening.status();
    listen_sock_ = std::move(listening).value();
    Status added = loop_->AddFd(listen_sock_.fd(), /*want_read=*/true,
                                /*want_write=*/false,
                                [this](uint32_t) { HandleAccept(); });
    if (!added.ok()) return added;
  } else {
    port_ = options_.port;
    // The dial finishes on the loop thread. A failure is not fatal: the
    // reconnect timer keeps dialing with backoff, so a worker may start
    // before the master listens.
    TryDial(/*redial=*/false);
  }

  loop_thread_ = std::thread([this] { loop_->Run(); });
  return Status::OK();
}

void RpcBus::HandleAccept() {
  while (true) {
    int fd = accept(listen_sock_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or a transient accept error: try again next wakeup
    }
    AdoptConn(net::Socket(fd), /*is_upstream=*/false);
  }
}

void RpcBus::AdoptConn(net::Socket sock, bool is_upstream) {
  int fd = sock.fd();
  if (!net::SetNonBlocking(fd, true).ok()) return;
  (void)net::SetNoDelay(fd);  // best-effort: latency, not correctness
  Status added =
      loop_->AddFd(fd, /*want_read=*/true, /*want_write=*/false,
                   [this, fd](uint32_t events) {
                     if (events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
                       HandleReadable(fd);
                     }
                     // EPOLLOUT needs no per-event work: the end-of-tick
                     // FlushOutboxes drains every pending outbox.
                   });
  if (!added.ok()) {
    RAFIKI_LOG(WARNING) << "rpc bus watch add failed: " << added.ToString();
    return;  // sock closes on scope exit
  }
  auto conn = std::make_unique<Conn>();
  conn->sock = std::move(sock);
  std::lock_guard<std::mutex> lock(mu_);
  Conn* raw = (conns_[fd] = std::move(conn)).get();
  if (is_upstream) {
    upstream_fd_ = fd;
    std::vector<std::string> locals = LocalEndpointsLocked();
    if (!locals.empty()) {
      (void)EnqueueFrameLocked(raw, FrameType::kAnnounce,
                               EncodeEndpointList(locals));
    }
  } else {
    // Hub: seed the new leaf with every endpoint the cluster knows — hub
    // locals plus routes learned from other leaves.
    std::vector<std::string> known = LocalEndpointsLocked();
    for (const auto& [endpoint, via] : routes_) known.push_back(endpoint);
    if (!known.empty()) {
      (void)EnqueueFrameLocked(raw, FrameType::kAnnounce,
                               EncodeEndpointList(known));
    }
  }
}

void RpcBus::HandleReadable(int fd) {
  Conn* conn = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    conn = it->second.get();  // only the loop thread erases conns_
  }
  char buf[65536];
  while (true) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->decoder.Feed(buf, static_cast<size_t>(n));
      while (true) {
        auto next = conn->decoder.Next();
        if (!next.ok()) {
          RAFIKI_LOG(WARNING) << "rpc bus dropping peer (fd " << fd
                              << "): " << next.status().ToString();
          CloseConn(fd);
          return;
        }
        if (!next.value().has_value()) break;
        frames_received_.fetch_add(1, std::memory_order_relaxed);
        if (!HandleFrame(fd, std::move(*next.value()))) return;
      }
      if (n < static_cast<ssize_t>(sizeof(buf))) return;  // drained
      continue;
    }
    if (n == 0) {
      CloseConn(fd);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConn(fd);
    return;
  }
}

bool RpcBus::HandleFrame(int fd, Frame frame) {
  switch (frame.type) {
    case FrameType::kAnnounce:
    case FrameType::kWithdraw: {
      auto decoded = DecodeEndpointList(frame.payload);
      if (!decoded.ok()) {
        RAFIKI_LOG(WARNING) << "rpc bus bad endpoint list: "
                            << decoded.status().ToString();
        CloseConn(fd);
        return false;
      }
      const bool add = frame.type == FrameType::kAnnounce;
      std::lock_guard<std::mutex> lock(mu_);
      auto it = conns_.find(fd);
      if (it == conns_.end()) return false;
      Conn* conn = it->second.get();
      for (const std::string& endpoint : decoded.value()) {
        if (add) {
          routes_[endpoint] = fd;
          conn->routes.insert(endpoint);
        } else {
          auto rit = routes_.find(endpoint);
          if (rit != routes_.end() && rit->second == fd) routes_.erase(rit);
          conn->routes.erase(endpoint);
        }
      }
      if (is_hub_) {
        // Re-gossip so every leaf sees the full cluster routing table.
        for (auto& [other_fd, other] : conns_) {
          if (other_fd == fd) continue;
          (void)EnqueueFrameLocked(other.get(), frame.type, frame.payload);
        }
      }
      return true;
    }
    case FrameType::kMessage: {
      auto decoded = DecodeEnvelope(frame.payload);
      if (!decoded.ok()) {
        RAFIKI_LOG(WARNING) << "rpc bus bad envelope: "
                            << decoded.status().ToString();
        CloseConn(fd);
        return false;
      }
      std::string& to = decoded.value().first;
      Message& message = decoded.value().second;
      if (std::shared_ptr<Mailbox> box = FindMailbox(to)) {
        DeliverLocal(to, std::move(message));
        return true;
      }
      if (!is_hub_) {
        // A leaf received a message for an endpoint it no longer owns
        // (removed after the hub forwarded). Count the drop.
        send_errors_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      std::lock_guard<std::mutex> lock(mu_);
      auto rit = routes_.find(to);
      if (rit == routes_.end()) {
        send_errors_.fetch_add(1, std::memory_order_relaxed);
        RAFIKI_LOG(WARNING) << "rpc bus dropping message for unroutable '"
                            << to << "'";
        return true;
      }
      auto cit = conns_.find(rit->second);
      if (cit == conns_.end() ||
          !EnqueueFrameLocked(cit->second.get(), FrameType::kMessage,
                              frame.payload)
               .ok()) {
        send_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      return true;
    }
  }
  return true;  // unreachable: the decoder rejects unknown types
}

void RpcBus::DeliverLocal(const std::string& to, Message message) {
  std::shared_ptr<Mailbox> box = FindMailbox(to);
  // Counted before the push: a receiver that wakes on the push must see
  // the delivery in Stats(). A failed push rolls the count back.
  delivered_.fetch_add(1, std::memory_order_relaxed);
  if (box == nullptr || !box->TryPush(std::move(message))) {
    delivered_.fetch_sub(1, std::memory_order_relaxed);
    send_errors_.fetch_add(1, std::memory_order_relaxed);
    RAFIKI_LOG(WARNING) << "rpc bus dropping wire message for '" << to
                        << "' (mailbox missing or full)";
    return;
  }
}

void RpcBus::FlushOutboxes() {
  std::vector<int> dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [fd, conn] : conns_) {
      bool fatal = false;
      while (conn->outbox_pos < conn->outbox.size()) {
        ssize_t n = send(fd, conn->outbox.data() + conn->outbox_pos,
                         conn->outbox.size() - conn->outbox_pos,
                         MSG_NOSIGNAL);
        if (n > 0) {
          conn->outbox_pos += static_cast<size_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        fatal = true;
        break;
      }
      if (fatal) {
        dead.push_back(fd);
        continue;
      }
      if (conn->outbox_pos >= conn->outbox.size()) {
        conn->outbox.clear();
        conn->outbox_pos = 0;
        if (conn->want_write) {
          (void)loop_->ModifyFd(fd, /*want_read=*/true,
                                /*want_write=*/false);
          conn->want_write = false;
        }
      } else {
        if (conn->outbox_pos > kOutboxCompactBytes &&
            conn->outbox_pos > conn->outbox.size() / 2) {
          conn->outbox.erase(0, conn->outbox_pos);
          conn->outbox_pos = 0;
        }
        if (!conn->want_write) {
          (void)loop_->ModifyFd(fd, /*want_read=*/true,
                                /*want_write=*/true);
          conn->want_write = true;
        }
      }
    }
  }
  for (int fd : dead) CloseConn(fd);
}

void RpcBus::CloseConn(int fd) {
  std::unique_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    conn = std::move(it->second);
    conns_.erase(it);
    (void)loop_->RemoveFd(fd);
    // Only endpoints still routed through this fd are lost: a restarted
    // peer may have re-announced the same names over a newer connection,
    // and those routes (and the gossip about them) must survive.
    std::vector<std::string> lost;
    for (const std::string& endpoint : conn->routes) {
      auto rit = routes_.find(endpoint);
      if (rit != routes_.end() && rit->second == fd) {
        routes_.erase(rit);
        lost.push_back(endpoint);
      }
    }
    if (is_hub_ && !lost.empty()) {
      // Withdraw the dead leaf's endpoints from every surviving leaf.
      std::string payload = EncodeEndpointList(lost);
      for (auto& [other_fd, other] : conns_) {
        (void)EnqueueFrameLocked(other.get(), FrameType::kWithdraw, payload);
      }
    }
    if (!is_hub_ && fd == upstream_fd_) {
      upstream_fd_ = -1;
      routes_.clear();  // everything we knew came from the dead hub
    }
  }
  if (!is_hub_) {
    // Loop-thread-only state: retry without delay, then back off. The loop
    // timer IS the deadline — no polling tick rounds it up.
    backoff_ = options_.reconnect_initial;
    ScheduleReconnect(std::chrono::milliseconds(0));
  }
  // `conn` destructs here: the socket closes after the watcher removal.
}

void RpcBus::ScheduleReconnect(std::chrono::milliseconds delay) {
  loop_->RunAfter(std::chrono::duration<double>(delay).count(),
                  [this] { TryDial(/*redial=*/true); });
}

void RpcBus::TryDial(bool redial) {
  if (is_hub_ || stopping_.load(std::memory_order_acquire)) return;
  if (connected()) return;
  auto sock = net::DialTcp(options_.connect_host, port_);
  if (sock.ok() &&
      loop_
          ->AddFd(sock->fd(), /*want_read=*/false, /*want_write=*/true,
                  [this, redial](uint32_t) { OnDialed(redial); })
          .ok()) {
    dial_sock_ = std::move(sock).value();
    return;
  }
  BackOff();
}

void RpcBus::OnDialed(bool redial) {
  net::Socket sock = std::move(dial_sock_);
  (void)loop_->RemoveFd(sock.fd());
  if (!net::FinishDial(sock.fd()).ok()) {
    BackOff();
    return;  // sock closes on scope exit
  }
  AdoptConn(std::move(sock), /*is_upstream=*/true);
  backoff_ = options_.reconnect_initial;
  if (redial) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    RAFIKI_LOG(INFO) << "rpc bus reconnected to " << options_.connect_host
                     << ":" << port_;
  }
}

void RpcBus::BackOff() {
  backoff_ = backoff_.count() == 0
                 ? options_.reconnect_initial
                 : std::min(backoff_ * 2, options_.reconnect_max);
  ScheduleReconnect(backoff_);
}

Status RpcBus::EnqueueFrameLocked(Conn* conn, FrameType type,
                                  std::string_view payload) {
  size_t pending = conn->outbox.size() - conn->outbox_pos;
  if (pending + kFrameHeaderBytes + payload.size() >
      options_.outbox_capacity_bytes) {
    return Status::ResourceExhausted(
        StrFormat("peer outbox full (%zu bytes pending)", pending));
  }
  AppendFrame(type, payload, &conn->outbox);
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void RpcBus::Wake() { loop_->Wake(); }

Status RpcBus::RegisterEndpoint(const std::string& name) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = endpoints_.try_emplace(name, nullptr);
    if (!inserted) {
      return Status::AlreadyExists(
          StrFormat("endpoint '%s' exists", name.c_str()));
    }
    it->second = std::make_shared<Mailbox>(options_.mailbox_capacity);
    std::string payload = EncodeEndpointList({name});
    if (is_hub_) {
      for (auto& [fd, conn] : conns_) {
        (void)EnqueueFrameLocked(conn.get(), FrameType::kAnnounce, payload);
        wake = true;
      }
    } else if (upstream_fd_ >= 0) {
      auto cit = conns_.find(upstream_fd_);
      if (cit != conns_.end()) {
        (void)EnqueueFrameLocked(cit->second.get(), FrameType::kAnnounce,
                                 payload);
        wake = true;
      }
    }
  }
  if (wake) Wake();
  return Status::OK();
}

Status RpcBus::RemoveEndpoint(const std::string& name) {
  std::shared_ptr<Mailbox> box;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = endpoints_.find(name);
    if (it == endpoints_.end()) {
      return Status::NotFound(StrFormat("no endpoint '%s'", name.c_str()));
    }
    box = it->second;
    endpoints_.erase(it);
    std::string payload = EncodeEndpointList({name});
    if (is_hub_) {
      for (auto& [fd, conn] : conns_) {
        (void)EnqueueFrameLocked(conn.get(), FrameType::kWithdraw, payload);
        wake = true;
      }
    } else if (upstream_fd_ >= 0) {
      auto cit = conns_.find(upstream_fd_);
      if (cit != conns_.end()) {
        (void)EnqueueFrameLocked(cit->second.get(), FrameType::kWithdraw,
                                 payload);
        wake = true;
      }
    }
  }
  box->Close();
  if (wake) Wake();
  return Status::OK();
}

Status RpcBus::Send(const std::string& to, Message message) {
  if (std::shared_ptr<Mailbox> box = FindMailbox(to)) {
    // Same ordering as DeliverLocal: the counters lead the push so a
    // receiver woken by it can never read a stale Stats().
    sent_.fetch_add(1, std::memory_order_relaxed);
    delivered_.fetch_add(1, std::memory_order_relaxed);
    if (!box->TryPush(std::move(message))) {
      sent_.fetch_sub(1, std::memory_order_relaxed);
      delivered_.fetch_sub(1, std::memory_order_relaxed);
      send_errors_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          StrFormat("mailbox '%s' full (%zu messages)", to.c_str(),
                    box->capacity()));
    }
    return Status::OK();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    int fd = -1;
    if (is_hub_) {
      auto rit = routes_.find(to);
      if (rit == routes_.end()) {
        send_errors_.fetch_add(1, std::memory_order_relaxed);
        return Status::NotFound(
            StrFormat("no route to endpoint '%s'", to.c_str()));
      }
      fd = rit->second;
    } else {
      if (upstream_fd_ < 0) {
        send_errors_.fetch_add(1, std::memory_order_relaxed);
        return Status::NotFound(StrFormat(
            "hub link down; endpoint '%s' unreachable", to.c_str()));
      }
      if (routes_.count(to) == 0) {
        send_errors_.fetch_add(1, std::memory_order_relaxed);
        return Status::NotFound(
            StrFormat("no route to endpoint '%s'", to.c_str()));
      }
      fd = upstream_fd_;
    }
    auto cit = conns_.find(fd);
    if (cit == conns_.end()) {
      send_errors_.fetch_add(1, std::memory_order_relaxed);
      return Status::NotFound(
          StrFormat("connection for '%s' is gone", to.c_str()));
    }
    Status status = EnqueueFrameLocked(cit->second.get(), FrameType::kMessage,
                                       EncodeEnvelope(to, message));
    if (!status.ok()) {
      send_errors_.fetch_add(1, std::memory_order_relaxed);
      return status;
    }
    sent_.fetch_add(1, std::memory_order_relaxed);
  }
  Wake();
  return Status::OK();
}

std::optional<Message> RpcBus::Receive(const std::string& name) {
  std::shared_ptr<Mailbox> box = FindMailbox(name);
  if (box == nullptr) return std::nullopt;
  return box->Pop();
}

std::optional<Message> RpcBus::ReceiveFor(const std::string& name,
                                          std::chrono::milliseconds timeout) {
  std::shared_ptr<Mailbox> box = FindMailbox(name);
  if (box == nullptr) return std::nullopt;
  return box->PopFor(timeout);
}

std::optional<Message> RpcBus::TryReceive(const std::string& name) {
  std::shared_ptr<Mailbox> box = FindMailbox(name);
  if (box == nullptr) return std::nullopt;
  return box->TryPop();
}

void RpcBus::CloseAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, box] : endpoints_) box->Close();
}

bool RpcBus::EndpointClosed(const std::string& name) const {
  std::shared_ptr<Mailbox> box = FindMailbox(name);
  return box == nullptr || box->closed();
}

bool RpcBus::HasEndpoint(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return endpoints_.count(name) > 0 || routes_.count(name) > 0;
}

size_t RpcBus::QueueDepth(const std::string& name) const {
  std::shared_ptr<Mailbox> box = FindMailbox(name);
  return box == nullptr ? 0 : box->size();
}

BusStats RpcBus::Stats() const {
  BusStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.endpoints = endpoints_.size();
    for (const auto& [name, box] : endpoints_) stats.queued += box->size();
  }
  stats.messages_sent = sent_.load(std::memory_order_relaxed);
  stats.messages_delivered = delivered_.load(std::memory_order_relaxed);
  stats.send_errors = send_errors_.load(std::memory_order_relaxed);
  stats.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  stats.frames_received = frames_received_.load(std::memory_order_relaxed);
  stats.reconnects = reconnects_.load(std::memory_order_relaxed);
  return stats;
}

bool RpcBus::connected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return upstream_fd_ >= 0;
}

void RpcBus::Shutdown() {
  stopping_.store(true, std::memory_order_release);
  if (loop_ != nullptr) loop_->Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  dial_sock_.Close();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, box] : endpoints_) box->Close();
  conns_.clear();
  routes_.clear();
  upstream_fd_ = -1;
  // Release the listening port now, not at destruction: a restarted hub
  // must be able to bind the same port, and a leaf redialing a shut-down
  // hub must get ECONNREFUSED instead of landing in a dead backlog.
  listen_sock_.Close();
  loop_.reset();
}

std::shared_ptr<RpcBus::Mailbox> RpcBus::FindMailbox(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = endpoints_.find(name);
  return it == endpoints_.end() ? nullptr : it->second;
}

std::vector<std::string> RpcBus::LocalEndpointsLocked() const {
  std::vector<std::string> names;
  names.reserve(endpoints_.size());
  for (const auto& [name, box] : endpoints_) names.push_back(name);
  return names;
}

}  // namespace rafiki::cluster
