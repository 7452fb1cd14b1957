#include <atomic>
#include <chrono>
#include <thread>

#include "cluster/message_bus.h"
#include "cluster/node_manager.h"
#include "gtest/gtest.h"

namespace rafiki::cluster {
namespace {

TEST(MessageTest, DebugStringIncludesType) {
  Message m;
  m.type = MessageType::kReport;
  m.from = "w0";
  m.trial_id = 3;
  m.performance = 0.5;
  EXPECT_NE(m.DebugString().find("kReport"), std::string::npos);
  EXPECT_STREQ(MessageTypeToString(MessageType::kPut), "kPut");
  EXPECT_STREQ(MessageTypeToString(MessageType::kContinue), "kContinue");
}

TEST(MessageBusTest, SendReceive) {
  MessageBus bus;
  ASSERT_TRUE(bus.RegisterEndpoint("a").ok());
  Message m;
  m.type = MessageType::kRequest;
  m.from = "b";
  ASSERT_TRUE(bus.Send("a", m).ok());
  auto got = bus.Receive("a");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, MessageType::kRequest);
  EXPECT_EQ(got->from, "b");
}

TEST(MessageBusTest, SendToMissingEndpointFails) {
  MessageBus bus;
  Message m;
  EXPECT_TRUE(bus.Send("ghost", m).IsNotFound());
}

TEST(MessageBusTest, DuplicateRegistrationFails) {
  MessageBus bus;
  ASSERT_TRUE(bus.RegisterEndpoint("a").ok());
  EXPECT_EQ(bus.RegisterEndpoint("a").code(), StatusCode::kAlreadyExists);
}

TEST(MessageBusTest, RemoveEndpointWakesReceiver) {
  MessageBus bus;
  ASSERT_TRUE(bus.RegisterEndpoint("a").ok());
  std::atomic<bool> woke{false};
  std::thread receiver([&] {
    auto got = bus.Receive("a");
    EXPECT_FALSE(got.has_value());
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(bus.RemoveEndpoint("a").ok());
  receiver.join();
  EXPECT_TRUE(woke);
}

TEST(MessageBusTest, TryReceiveNonBlocking) {
  MessageBus bus;
  ASSERT_TRUE(bus.RegisterEndpoint("a").ok());
  EXPECT_FALSE(bus.TryReceive("a").has_value());
  Message m;
  ASSERT_TRUE(bus.Send("a", m).ok());
  EXPECT_TRUE(bus.TryReceive("a").has_value());
}

TEST(MessageBusTest, QueueDepthTracksBacklog) {
  MessageBus bus;
  ASSERT_TRUE(bus.RegisterEndpoint("a").ok());
  Message m;
  bus.Send("a", m);
  bus.Send("a", m);
  EXPECT_EQ(bus.QueueDepth("a"), 2u);
  bus.TryReceive("a");
  EXPECT_EQ(bus.QueueDepth("a"), 1u);
}

TEST(MessageBusTest, FieldsSurviveTransport) {
  MessageBus bus;
  ASSERT_TRUE(bus.RegisterEndpoint("a").ok());
  Message m;
  m.type = MessageType::kReport;
  m.performance = 0.875;
  m.num_fields["epoch"] = 7;
  m.str_fields["trial"] = "1|lr:f:0.5";
  ASSERT_TRUE(bus.Send("a", std::move(m)).ok());
  auto got = bus.Receive("a");
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->performance, 0.875);
  EXPECT_DOUBLE_EQ(got->num_fields.at("epoch"), 7);
  EXPECT_EQ(got->str_fields.at("trial"), "1|lr:f:0.5");
}

TEST(NodeManagerTest, ContainerRunsToCompletion) {
  NodeManager manager;
  std::atomic<int> counter{0};
  ASSERT_TRUE(manager
                  .StartContainer("job",
                                  [&](CancelToken& token) { counter = 42; })
                  .ok());
  ASSERT_TRUE(manager.WaitContainer("job").ok());
  EXPECT_EQ(counter, 42);
  EXPECT_FALSE(manager.IsRunning("job"));
}

TEST(NodeManagerTest, DuplicateNameRejected) {
  NodeManager manager;
  ASSERT_TRUE(
      manager.StartContainer("x", [](CancelToken&) {}).ok());
  EXPECT_EQ(manager.StartContainer("x", [](CancelToken&) {}).code(),
            StatusCode::kAlreadyExists);
}

TEST(NodeManagerTest, KillCancelsLongRunningBody) {
  NodeManager manager;
  std::atomic<bool> saw_cancel{false};
  ASSERT_TRUE(manager
                  .StartContainer("loop",
                                  [&](CancelToken& token) {
                                    while (!token.cancelled()) {
                                      std::this_thread::sleep_for(
                                          std::chrono::milliseconds(1));
                                    }
                                    saw_cancel = true;
                                  })
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(manager.KillContainer("loop").ok());
  EXPECT_TRUE(saw_cancel);
  EXPECT_TRUE(manager.KillContainer("loop").IsNotFound());
}

TEST(NodeManagerTest, RestartRunsBodyAgainAndCounts) {
  NodeManager manager;
  std::atomic<int> runs{0};
  ASSERT_TRUE(manager
                  .StartContainer("worker",
                                  [&](CancelToken& token) { ++runs; })
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(manager.RestartContainer("worker").ok());
  ASSERT_TRUE(manager.WaitContainer("worker").ok());
  EXPECT_EQ(runs, 2);
}

TEST(NodeManagerTest, ShutdownCancelsEverything) {
  auto manager = std::make_unique<NodeManager>();
  std::atomic<int> cancelled{0};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(manager
                    ->StartContainer("c" + std::to_string(i),
                                     [&](CancelToken& token) {
                                       while (!token.cancelled()) {
                                         std::this_thread::sleep_for(
                                             std::chrono::milliseconds(1));
                                       }
                                       ++cancelled;
                                     })
                    .ok());
  }
  manager->Shutdown();
  EXPECT_EQ(cancelled, 3);
  EXPECT_TRUE(manager->ListContainers().empty());
}

TEST(NodeManagerTest, ListContainers) {
  NodeManager manager;
  ASSERT_TRUE(manager.StartContainer("a", [](CancelToken&) {}).ok());
  ASSERT_TRUE(manager.StartContainer("b", [](CancelToken&) {}).ok());
  auto names = manager.ListContainers();
  EXPECT_EQ(names.size(), 2u);
}

}  // namespace
}  // namespace rafiki::cluster
