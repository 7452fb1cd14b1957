#include <cmath>
#include <random>
#include <thread>
#include <vector>

#include "common/blocking_queue.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/string_util.h"
#include "gtest/gtest.h"

namespace rafiki {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
  EXPECT_FALSE(Status::Internal("x") == Status::Cancelled("x"));
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = [] { return Status::InvalidArgument("boom"); };
  auto wrapper = [&]() -> Status {
    RAFIKI_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto makes = []() -> Result<int> { return 5; };
  auto fails = []() -> Result<int> { return Status::Internal("x"); };
  auto user = [&](bool fail) -> Result<int> {
    RAFIKI_ASSIGN_OR_RETURN(int v, fail ? fails() : makes());
    return v + 1;
  };
  EXPECT_EQ(*user(false), 6);
  EXPECT_EQ(user(true).status().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    saw_lo |= v == 1;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, LogUniformStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.LogUniform(1e-4, 1.0);
    EXPECT_GE(v, 1e-4);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  constexpr int kSamples = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    double x = rng.Gaussian(1.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / kSamples;
  double variance = (sum_sq - kSamples * mean * mean) / (kSamples - 1);
  EXPECT_NEAR(mean, 1.0, 0.08);
  EXPECT_NEAR(std::sqrt(variance), 2.0, 0.08);
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(42);
  Rng child1 = parent.Fork();
  Rng child2 = parent.Fork();
  // Different forks should produce different streams.
  EXPECT_NE(child1.Next64(), child2.Next64());
}

TEST(RngTest, MatchesStdMt19937_64) {
  // Rng carries its own MT19937-64. Its raw stream, and every draw built on
  // it, must equal std::mt19937_64's and the std distributions' over it, so
  // no seeded stream, test threshold or figure depends on which engine
  // implementation runs.
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{5489},
                        uint64_t{2018}, ~uint64_t{0}}) {
    SCOPED_TRACE(seed);
    {
      Rng rng(seed);
      std::mt19937_64 ref(seed);
      int64_t first_mismatch = -1;
      for (int64_t i = 0; i < 1000000 && first_mismatch < 0; ++i) {
        if (rng.Next64() != ref()) first_mismatch = i;
      }
      EXPECT_EQ(first_mismatch, -1);
    }
    Rng rng(seed);
    std::mt19937_64 ref(seed);
    // About 15 draws a round, so the rounds cross many 312-word twists.
    for (int round = 0; round < 400; ++round) {
      SCOPED_TRACE(round);
      ASSERT_EQ(rng.Uniform(-2.0, 3.0),
                std::uniform_real_distribution<double>(-2.0, 3.0)(ref));
      ASSERT_EQ(rng.UniformInt(-5, 1000),
                std::uniform_int_distribution<int64_t>(-5, 1000)(ref));
      ASSERT_EQ(rng.Gaussian(1.0, 2.0),
                std::normal_distribution<double>(1.0, 2.0)(ref));
      ASSERT_EQ(rng.Bernoulli(0.3), std::bernoulli_distribution(0.3)(ref));
      std::vector<int> got(10);
      for (size_t i = 0; i < got.size(); ++i) got[i] = static_cast<int>(i);
      std::vector<int> want = got;
      rng.Shuffle(got);
      for (size_t i = want.size(); i > 1; --i) {
        auto j = std::uniform_int_distribution<int64_t>(
            0, static_cast<int64_t>(i) - 1)(ref);
        std::swap(want[i - 1], want[static_cast<size_t>(j)]);
      }
      ASSERT_EQ(got, want);
      Rng child = rng.Fork();
      std::mt19937_64 ref_child(Rng::Mix(ref()));
      ASSERT_EQ(child.Next64(), ref_child());
    }
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_EQ(q.Pop().value(), 3);
}

TEST(BlockingQueueTest, CloseDrainsThenEnds) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Close();
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_FALSE(q.Pop().has_value());
  q.Push(9);  // push after close is dropped
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BlockingQueueTest, CrossThreadHandoff) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) q.Push(i);
    q.Close();
  });
  int count = 0;
  while (auto v = q.Pop()) ++count;
  producer.join();
  EXPECT_EQ(count, 100);
}

TEST(HistogramTest, BucketsAndClamping) {
  Histogram h(0.0, 1.0, 10);
  h.Add(0.05);
  h.Add(0.15);
  h.Add(0.15);
  h.Add(-5.0);  // clamps to first bucket
  h.Add(5.0);   // clamps to last
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(9), 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.CountAtLeast(0.15), 3u);
}

TEST(HistogramTest, CountAtLeastQuantizesToBucketEdges) {
  Histogram h(0.0, 1.0, 10);
  h.Add(0.05);
  h.Add(0.15);
  h.Add(0.25);
  // Thresholds are floored to the containing bucket's lower edge, so any
  // threshold inside (0.1, 0.2] counts everything from bucket 1 on.
  EXPECT_EQ(h.CountAtLeast(0.19), 2u);
  EXPECT_EQ(h.CountAtLeast(0.11), 2u);
  // Below the range counts all; at/above the top counts none.
  EXPECT_EQ(h.CountAtLeast(-3.0), 3u);
  EXPECT_EQ(h.CountAtLeast(1.0), 0u);
  EXPECT_EQ(h.CountAtLeast(7.0), 0u);
}

TEST(LatencyHistogramTest, QuantilesWithinBucketError) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(static_cast<double>(i) * 1e-3);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean(), 0.5005, 1e-9);
  // Log-bucketed with growth 1.1: values are exact to within 10%.
  EXPECT_NEAR(h.P50(), 0.5, 0.5 * 0.11);
  EXPECT_NEAR(h.P95(), 0.95, 0.95 * 0.11);
  EXPECT_NEAR(h.P99(), 0.99, 0.99 * 0.11);
  EXPECT_DOUBLE_EQ(h.min(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
  // Quantiles never leave the observed range.
  EXPECT_GE(h.Quantile(0.0), h.min());
  EXPECT_LE(h.Quantile(1.0), h.max());
}

TEST(LatencyHistogramTest, SingleSampleAndMerge) {
  LatencyHistogram a;
  a.Add(0.02);
  // One sample: every quantile is that sample (clamped to [min, max]).
  EXPECT_DOUBLE_EQ(a.P50(), 0.02);
  EXPECT_DOUBLE_EQ(a.P99(), 0.02);

  LatencyHistogram b;
  for (int i = 0; i < 99; ++i) b.Add(1.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_DOUBLE_EQ(a.min(), 0.02);
  EXPECT_DOUBLE_EQ(a.max(), 1.0);
  // 99 of 100 samples at 1.0: p99 lands in the 1.0 bucket.
  EXPECT_NEAR(a.P99(), 1.0, 1.0 * 0.11);

  LatencyHistogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.P50(), 0.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 100u);
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
}

TEST(StringUtilTest, SplitAndJoin) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Join({"a", "b", "c"}, "/"), "a/b/c");
  EXPECT_EQ(Join({}, "/"), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("study/x/master", "study/"));
  EXPECT_FALSE(StartsWith("stu", "study"));
}

}  // namespace
}  // namespace rafiki
