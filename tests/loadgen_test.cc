#include "net/loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <thread>

#include "gtest/gtest.h"
#include "net/http_server.h"
#include "support/blocking_socket.h"

namespace rafiki::net {
namespace {

/// Threads in this process, one /proc/self/task entry each.
size_t ThreadCount() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(LoadGenTest, OpenLoopConservesAndMeasures) {
  std::atomic<int> hits{0};
  HttpServer server([&](const HttpRequest&) {
    ++hits;
    HttpResponse resp;
    resp.body = "ok";
    return resp;
  });
  ASSERT_TRUE(server.Start().ok());

  LoadGenOptions opts;
  opts.port = server.port();
  opts.duration_seconds = 1.0;
  opts.target_rate = 200.0;
  opts.sine_period = 0.0;  // constant rate: deterministic arrival count
  opts.connections = 2;
  opts.window_seconds = 0.25;
  LoadGenReport report = RunLoadGen(opts);
  server.Stop();

  // Constant 200 req/s over 1 s schedules ~200 arrivals (the final partial
  // tick may round one off).
  EXPECT_GE(report.arrived, 195);
  EXPECT_LE(report.arrived, 201);
  EXPECT_EQ(report.errors, 0) << report.ToString();
  // Conservation: every arrival was either answered, errored, or dropped.
  EXPECT_EQ(report.arrived,
            report.completed + report.errors + report.dropped);
  EXPECT_EQ(hits.load(), static_cast<int>(report.completed));
  // Window sums match the totals.
  int64_t win_arrived = 0, win_completed = 0;
  for (const LoadGenWindow& w : report.windows) {
    win_arrived += w.arrived;
    win_completed += w.completed;
  }
  EXPECT_EQ(win_arrived, report.arrived);
  EXPECT_EQ(win_completed, report.completed);
  // Latencies were recorded for every completion.
  EXPECT_EQ(report.latency.count(), static_cast<size_t>(report.completed));
  EXPECT_GT(report.latency.P50(), 0.0);
  EXPECT_GE(report.latency.P99(), report.latency.P50());
  EXPECT_GT(report.achieved_rps, 0.0);
}

TEST(LoadGenTest, SineArrivalsFollowThePaperProcess) {
  HttpServer server([](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());

  LoadGenOptions opts;
  opts.port = server.port();
  opts.duration_seconds = 1.0;
  opts.target_rate = 150.0;
  opts.sine_period = 1.0;  // one full sine cycle within the run
  opts.noise_stddev = 0.0;
  opts.connections = 2;
  opts.window_seconds = 0.25;
  LoadGenReport report = RunLoadGen(opts);
  server.Stop();

  EXPECT_GT(report.arrived, 0);
  EXPECT_EQ(report.arrived,
            report.completed + report.errors + report.dropped);
  EXPECT_EQ(report.errors, 0) << report.ToString();
  // The sine modulates the rate across windows: not all equal.
  int64_t lo = report.windows[0].arrived, hi = report.windows[0].arrived;
  for (const LoadGenWindow& w : report.windows) {
    lo = std::min(lo, w.arrived);
    hi = std::max(hi, w.arrived);
  }
  EXPECT_GT(hi, lo);
}

TEST(LoadGenTest, ClosedLoopRunsBackToBack) {
  HttpServer server([](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.Start().ok());

  LoadGenOptions opts;
  opts.port = server.port();
  opts.open_loop = false;
  opts.target_rate = 0.0;  // closed loop has no schedule to read it
  opts.duration_seconds = 0.5;
  opts.connections = 2;
  opts.window_seconds = 0.25;
  LoadGenReport report = RunLoadGen(opts);
  server.Stop();

  EXPECT_GT(report.completed, 0);
  EXPECT_EQ(report.arrived,
            report.completed + report.errors + report.dropped);
  EXPECT_EQ(report.dropped, 0);  // closed loop never drops
  EXPECT_EQ(report.errors, 0) << report.ToString();
}

TEST(LoadGenTest, CountsRejectionsSeparatelyFromErrors) {
  // A server that always sheds: 503s count as completed+rejected, not
  // errors (the loadgen models overload as a valid server answer).
  HttpServer server([](const HttpRequest&) {
    HttpResponse resp;
    resp.status = 503;
    return resp;
  });
  ASSERT_TRUE(server.Start().ok());

  LoadGenOptions opts;
  opts.port = server.port();
  opts.duration_seconds = 0.5;
  opts.target_rate = 100.0;
  opts.sine_period = 0.0;
  opts.connections = 1;
  LoadGenReport report = RunLoadGen(opts);
  server.Stop();

  EXPECT_EQ(report.errors, 0) << report.ToString();
  EXPECT_EQ(report.rejected, report.completed);
  EXPECT_GT(report.rejected, 0);
}

TEST(LoadGenTest, FullConnectionBacklogsThenDropsAndChargesTheWait) {
  // One connection carrying one request at a time, and a server that parks
  // each answer and completes it kHold later. Arrivals every 2.5 ms find
  // the connection full and wait in the backlog; past max_backlog they are
  // dropped. Every request that went out is answered, and the backlog wait
  // counts: latency runs from the scheduled arrival, not from the send.
  constexpr auto kHold = std::chrono::milliseconds(20);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<HttpServer::ResponseWriter> parked;
  bool done = false;
  std::atomic<size_t> threads_seen{0};
  HttpServer server([&](const HttpRequest&, HttpServer::ResponseWriter writer) {
    size_t n = ThreadCount();
    size_t seen = threads_seen.load();
    while (n > seen && !threads_seen.compare_exchange_weak(seen, n)) {
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      parked.push_back(std::move(writer));
    }
    cv.notify_one();
  });
  ASSERT_TRUE(server.Start().ok());
  std::thread releaser([&] {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return done || !parked.empty(); });
      if (parked.empty()) return;
      HttpServer::ResponseWriter writer = std::move(parked.front());
      parked.pop_front();
      lock.unlock();
      std::this_thread::sleep_for(kHold);  // the server's service time
      HttpResponse resp;
      resp.body = "ok";
      writer.Complete(resp);
      lock.lock();
    }
  });
  const size_t threads_before = ThreadCount();

  LoadGenOptions opts;
  opts.port = server.port();
  opts.duration_seconds = 0.5;
  opts.target_rate = 400.0;
  opts.sine_period = 0.0;
  opts.connections = 1;
  opts.max_backlog = 4;
  opts.window_seconds = 0.25;
  LoadGenReport report = RunLoadGen(opts);
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  releaser.join();
  server.Stop();

  EXPECT_GT(report.dropped, 0) << report.ToString();
  EXPECT_EQ(report.errors, 0) << report.ToString();
  EXPECT_EQ(report.arrived,
            report.completed + report.errors + report.dropped);
  int64_t win_dropped = 0;
  for (const LoadGenWindow& w : report.windows) win_dropped += w.dropped;
  EXPECT_EQ(win_dropped, report.dropped);
  // A request that waited behind a full backlog of 4 spent about four
  // holds there before its own; measured from the send it would read
  // about one hold.
  EXPECT_GT(report.latency.P50(),
            2 * std::chrono::duration<double>(kHold).count())
      << report.ToString();
  // The generator ran on the calling thread and started none.
  EXPECT_EQ(threads_seen.load(), threads_before);
}

TEST(LoadGenTest, ReactorEmitsTheFullScheduleAtEightyThousandPerSecond) {
  // The reactor pacer's contract: at high rates the *schedule* is emitted
  // in full — arrived tracks rate * duration even when nothing answers
  // (the port is dead: every dial the reactor starts fails, and the
  // arrivals queued on it count as errors). That dial work, on the one
  // reactor thread, must not silently depress the arrival rate.
  LoadGenOptions opts;
  opts.port = 1;  // no listener: every dial is refused
  opts.duration_seconds = 0.5;
  opts.target_rate = 80e3;
  opts.sine_period = 0.0;
  opts.connections = 2;
  opts.max_backlog = 1u << 20;  // count the full schedule, don't drop it
  LoadGenReport report = RunLoadGen(opts);

  EXPECT_GE(report.arrived + report.dropped,
            static_cast<int64_t>(0.95 * 80e3 * opts.duration_seconds))
      << report.ToString();
  EXPECT_GE(report.arrived, static_cast<int64_t>(50e3 * opts.duration_seconds))
      << report.ToString();
}

TEST(LoadGenTest, DialsToABlackHoledPeerTimeOutOnTheReactor) {
  // Every dial stays in progress, so each fails on its own loop timer
  // while the schedule runs on: the run lasts duration + timeout, not one
  // timeout per arrival, and every arrival is accounted for.
  auto hole = MakeFullAcceptQueue();
  ASSERT_TRUE(hole.ok()) << hole.status().ToString();
  LoadGenOptions opts;
  opts.port = hole->port;
  opts.connections = 2;
  opts.target_rate = 50.0;
  opts.sine_period = 0.0;
  opts.duration_seconds = 0.5;
  opts.timeout_seconds = 0.2;
  auto start = std::chrono::steady_clock::now();
  LoadGenReport report = RunLoadGen(opts);
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_LT(elapsed, 1.0) << report.ToString();
  EXPECT_GT(report.arrived, 0) << report.ToString();
  EXPECT_EQ(report.completed, 0) << report.ToString();
  EXPECT_EQ(report.arrived,
            report.completed + report.errors + report.dropped)
      << report.ToString();
}

TEST(LoadGenTest, ClosedLoopDoesNotRedialAFailedDial) {
  // A closed-loop connection whose dial fails stays out of the run, so a
  // run against a dead port ends before its duration, having sent nothing.
  LoadGenOptions opts;
  opts.port = 1;  // no listener: every dial is refused
  opts.open_loop = false;
  opts.connections = 2;
  opts.duration_seconds = 2.0;
  auto start = std::chrono::steady_clock::now();
  LoadGenReport report = RunLoadGen(opts);
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_LT(elapsed, 1.0) << report.ToString();
  EXPECT_EQ(report.arrived, 0) << report.ToString();
  EXPECT_EQ(report.errors, 0) << report.ToString();
}

}  // namespace
}  // namespace rafiki::net
