#include "cluster/rpc_bus.h"

#include <chrono>
#include <string>
#include <thread>

#include "cluster/message_bus.h"
#include "gtest/gtest.h"
#include "support/blocking_socket.h"

namespace rafiki::cluster {
namespace {

using namespace std::chrono_literals;

Message Msg(MessageType type, const std::string& from, int64_t id = -1) {
  Message m;
  m.type = type;
  m.from = from;
  m.trial_id = id;
  return m;
}

/// Polls until `pred` holds or ~5s pass. The TCP bus is asynchronous:
/// announces/withdraws propagate through the event loop, so route-table
/// assertions must wait instead of racing it.
template <typename Pred>
bool Eventually(Pred pred, std::chrono::milliseconds budget = 5000ms) {
  auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

TEST(RpcBusTest, LeafToHubDelivery) {
  auto hub = RpcBus::Listen({});
  ASSERT_TRUE(hub.ok()) << hub.status().ToString();
  ASSERT_TRUE(hub.value()->RegisterEndpoint("master").ok());

  RpcBusOptions opts;
  opts.port = hub.value()->port();
  auto leaf = RpcBus::Connect(opts);
  ASSERT_TRUE(leaf.ok());
  ASSERT_TRUE(Eventually([&] { return leaf.value()->connected(); }));
  ASSERT_TRUE(Eventually([&] { return leaf.value()->HasEndpoint("master"); }));

  ASSERT_TRUE(leaf.value()->Send("master", Msg(MessageType::kRequest, "w0", 5))
                  .ok());
  auto got = hub.value()->ReceiveFor("master", 5000ms);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, MessageType::kRequest);
  EXPECT_EQ(got->from, "w0");
  EXPECT_EQ(got->trial_id, 5);
}

TEST(RpcBusTest, HubToLeafDelivery) {
  auto hub = RpcBus::Listen({});
  ASSERT_TRUE(hub.ok());
  RpcBusOptions opts;
  opts.port = hub.value()->port();
  auto leaf = RpcBus::Connect(opts);
  ASSERT_TRUE(leaf.ok());
  ASSERT_TRUE(leaf.value()->RegisterEndpoint("worker").ok());
  // Announce must reach the hub before a send can route.
  ASSERT_TRUE(Eventually([&] { return hub.value()->HasEndpoint("worker"); }));

  ASSERT_TRUE(
      hub.value()->Send("worker", Msg(MessageType::kTrial, "master", 1)).ok());
  auto got = leaf.value()->ReceiveFor("worker", 5000ms);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, MessageType::kTrial);
}

TEST(RpcBusTest, LeafToLeafThroughGossipedRoutes) {
  auto hub = RpcBus::Listen({});
  ASSERT_TRUE(hub.ok());
  RpcBusOptions opts;
  opts.port = hub.value()->port();
  auto a = RpcBus::Connect(opts);
  auto b = RpcBus::Connect(opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b.value()->RegisterEndpoint("peer-b").ok());
  // The hub gossips b's announce to a.
  ASSERT_TRUE(Eventually([&] { return a.value()->HasEndpoint("peer-b"); }));

  ASSERT_TRUE(
      a.value()->Send("peer-b", Msg(MessageType::kReport, "peer-a", 9)).ok());
  auto got = b.value()->ReceiveFor("peer-b", 5000ms);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->from, "peer-a");
  EXPECT_EQ(got->trial_id, 9);
}

TEST(RpcBusTest, SendToUnknownEndpointFailsNotFound) {
  auto hub = RpcBus::Listen({});
  ASSERT_TRUE(hub.ok());
  EXPECT_TRUE(
      hub.value()->Send("ghost", Msg(MessageType::kRequest, "x")).IsNotFound());

  RpcBusOptions opts;
  opts.port = hub.value()->port();
  auto leaf = RpcBus::Connect(opts);
  ASSERT_TRUE(leaf.ok());
  ASSERT_TRUE(Eventually([&] { return leaf.value()->connected(); }));
  EXPECT_TRUE(
      leaf.value()->Send("ghost", Msg(MessageType::kRequest, "x")).IsNotFound());
}

TEST(RpcBusTest, DeadPeerRoutesAreWithdrawn) {
  auto hub = RpcBus::Listen({});
  ASSERT_TRUE(hub.ok());
  RpcBusOptions opts;
  opts.port = hub.value()->port();
  auto doomed = RpcBus::Connect(opts);
  auto watcher = RpcBus::Connect(opts);
  ASSERT_TRUE(doomed.ok());
  ASSERT_TRUE(watcher.ok());
  ASSERT_TRUE(doomed.value()->RegisterEndpoint("victim").ok());
  ASSERT_TRUE(Eventually([&] { return hub.value()->HasEndpoint("victim"); }));
  ASSERT_TRUE(
      Eventually([&] { return watcher.value()->HasEndpoint("victim"); }));

  // Kill the peer: the hub drops its routes and broadcasts the withdraw.
  doomed.value()->Shutdown();
  ASSERT_TRUE(Eventually([&] { return !hub.value()->HasEndpoint("victim"); }));
  ASSERT_TRUE(
      Eventually([&] { return !watcher.value()->HasEndpoint("victim"); }));
  EXPECT_TRUE(hub.value()
                  ->Send("victim", Msg(MessageType::kRequest, "x"))
                  .IsNotFound());
  EXPECT_TRUE(watcher.value()
                  ->Send("victim", Msg(MessageType::kRequest, "x"))
                  .IsNotFound());
}

TEST(RpcBusTest, LeafReconnectsAfterHubRestart) {
  RpcBusOptions hub_opts;
  auto hub = RpcBus::Listen(hub_opts);
  ASSERT_TRUE(hub.ok());
  uint16_t port = hub.value()->port();

  RpcBusOptions opts;
  opts.port = port;
  opts.reconnect_initial = 10ms;
  opts.reconnect_max = 50ms;
  auto leaf = RpcBus::Connect(opts);
  ASSERT_TRUE(leaf.ok());
  ASSERT_TRUE(leaf.value()->RegisterEndpoint("w").ok());
  ASSERT_TRUE(Eventually([&] { return leaf.value()->connected(); }));

  // Hub dies; the leaf notices and keeps redialing with backoff.
  hub.value()->Shutdown();
  ASSERT_TRUE(Eventually([&] { return !leaf.value()->connected(); }));

  // New hub on the same port: the leaf reconnects and re-announces, so
  // hub-side sends route again without any leaf-side intervention.
  hub_opts.port = port;
  auto hub2 = RpcBus::Listen(hub_opts);
  ASSERT_TRUE(hub2.ok()) << hub2.status().ToString();
  ASSERT_TRUE(Eventually([&] { return leaf.value()->connected(); }));
  ASSERT_TRUE(Eventually([&] { return hub2.value()->HasEndpoint("w"); }));
  ASSERT_TRUE(
      hub2.value()->Send("w", Msg(MessageType::kTrial, "master", 3)).ok());
  auto got = leaf.value()->ReceiveFor("w", 5000ms);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->trial_id, 3);
  EXPECT_GE(leaf.value()->Stats().reconnects, 1u);
}

TEST(RpcBusTest, DialToABlackHoledHubBlocksNeitherConnectNorShutdown) {
  // The leaf's SYNs are dropped, so its dial stays in progress. It runs on
  // the bus's loop: Connect returns at once, and the destructor closes the
  // pending dial instead of waiting out the kernel's SYN retries.
  auto hole = net::MakeFullAcceptQueue();
  ASSERT_TRUE(hole.ok()) << hole.status().ToString();
  RpcBusOptions opts;
  opts.port = hole->port;
  auto start = std::chrono::steady_clock::now();
  {
    auto leaf = RpcBus::Connect(opts);
    ASSERT_TRUE(leaf.ok()) << leaf.status().ToString();
    EXPECT_FALSE(leaf.value()->connected());
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1s);
}

TEST(RpcBusTest, LocalMailboxIsBounded) {
  RpcBusOptions opts;
  opts.mailbox_capacity = 2;
  auto hub = RpcBus::Listen(opts);
  ASSERT_TRUE(hub.ok());
  ASSERT_TRUE(hub.value()->RegisterEndpoint("box").ok());
  EXPECT_TRUE(hub.value()->Send("box", Msg(MessageType::kRequest, "a")).ok());
  EXPECT_TRUE(hub.value()->Send("box", Msg(MessageType::kRequest, "a")).ok());
  Status overflow = hub.value()->Send("box", Msg(MessageType::kRequest, "a"));
  EXPECT_EQ(overflow.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(hub.value()->QueueDepth("box"), 2u);
}

TEST(RpcBusTest, StatsCountFramesOnTheWire) {
  auto hub = RpcBus::Listen({});
  ASSERT_TRUE(hub.ok());
  ASSERT_TRUE(hub.value()->RegisterEndpoint("sink").ok());
  RpcBusOptions opts;
  opts.port = hub.value()->port();
  auto leaf = RpcBus::Connect(opts);
  ASSERT_TRUE(leaf.ok());
  ASSERT_TRUE(Eventually([&] { return leaf.value()->HasEndpoint("sink"); }));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        leaf.value()->Send("sink", Msg(MessageType::kReport, "w", i)).ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(hub.value()->ReceiveFor("sink", 5000ms).has_value());
  }
  EXPECT_GE(leaf.value()->Stats().frames_sent, 10u);
  EXPECT_GE(hub.value()->Stats().frames_received, 10u);
  EXPECT_EQ(hub.value()->Stats().messages_delivered, 10u);
}

TEST(RpcBusTest, ReceiveForTimesOutCleanly) {
  auto hub = RpcBus::Listen({});
  ASSERT_TRUE(hub.ok());
  ASSERT_TRUE(hub.value()->RegisterEndpoint("idle").ok());
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(hub.value()->ReceiveFor("idle", 30ms).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start, 25ms);
}

// Regression for the bounded-mailbox satellite: the in-process loopback bus
// must reject sends into a full mailbox with ResourceExhausted, matching
// the TCP bus's backpressure semantics.
TEST(MessageBusBoundedTest, OverflowFailsResourceExhausted) {
  MessageBus bus(/*mailbox_capacity=*/3);
  ASSERT_TRUE(bus.RegisterEndpoint("q").ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(bus.Send("q", Msg(MessageType::kRequest, "p", i)).ok());
  }
  Status overflow = bus.Send("q", Msg(MessageType::kRequest, "p", 3));
  EXPECT_EQ(overflow.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(bus.Stats().send_errors, 1u);
  // Draining one slot makes room again.
  ASSERT_TRUE(bus.TryReceive("q").has_value());
  EXPECT_TRUE(bus.Send("q", Msg(MessageType::kRequest, "p", 4)).ok());
}

}  // namespace
}  // namespace rafiki::cluster
