// Cross-cutting edge-case coverage that the per-module suites do not
// exercise: encoding corner cases, NULL semantics, SLO sweeps, and
// numerical boundaries.

#include <cmath>

#include "common/string_util.h"
#include "gtest/gtest.h"
#include "model/profile.h"
#include "serving/greedy_batch.h"
#include "sql/query.h"
#include "storage/serialize.h"
#include "trainer/surrogate.h"
#include "tuning/hyperspace.h"

namespace rafiki {
namespace {

TEST(TrialEncodingEdgeTest, StringValuesWithColonsSurvive) {
  tuning::Trial t(3);
  t.Set("schedule", tuning::KnobValue(std::string("warmup:linear:5")));
  Result<tuning::Trial> back = tuning::Trial::Decode(t.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->GetString("schedule"), "warmup:linear:5");
}

TEST(TrialEncodingEdgeTest, ExtremeDoublesRoundTrip) {
  tuning::Trial t(4);
  t.Set("tiny", tuning::KnobValue(1e-12));
  t.Set("negative", tuning::KnobValue(-0.5));
  t.Set("big_int", tuning::KnobValue(static_cast<int64_t>(1) << 40));
  Result<tuning::Trial> back = tuning::Trial::Decode(t.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_NEAR(back->GetDouble("tiny"), 1e-12, 1e-18);
  EXPECT_DOUBLE_EQ(back->GetDouble("negative"), -0.5);
  EXPECT_EQ(back->GetInt("big_int"), static_cast<int64_t>(1) << 40);
}

TEST(TrialEncodingEdgeTest, EmptyTrialRoundTrips) {
  tuning::Trial t(9);
  Result<tuning::Trial> back = tuning::Trial::Decode(t.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->id(), 9);
  EXPECT_TRUE(back->values().empty());
}

TEST(SqlNullEdgeTest, NullsNeverSatisfyComparisons) {
  sql::Table t("x", {{"a", sql::ColumnType::kInteger, false}});
  ASSERT_TRUE(t.Insert(sql::Row{sql::Value{}}).ok());
  ASSERT_TRUE(t.Insert(sql::Row{sql::Value{int64_t{5}}}).ok());
  for (const char* op : {"<", "<=", ">", ">=", "=", "!="}) {
    sql::Query q(&t);
    q.Select({.column = "a"})
        .Where(sql::ColumnCompare(t, "a", op, sql::Value{int64_t{5}}));
    auto rs = q.Execute();
    ASSERT_TRUE(rs.ok());
    for (const sql::Row& row : rs->rows) {
      EXPECT_FALSE(sql::ValueIsNull(row[0]))
          << "NULL row passed op " << op;
    }
  }
}

TEST(SqlNullEdgeTest, UdfReturningNullGroupsUnderNull) {
  sql::Table t("x", {{"a", sql::ColumnType::kInteger, true}});
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(t.Insert(sql::Row{sql::Value{i}}).ok());
  }
  sql::ScalarUdf flaky = [](const sql::Value& v) -> sql::Value {
    int64_t x = std::get<int64_t>(v);
    if (x % 2 == 0) return sql::Value{};  // model unavailable
    return sql::Value{std::string("ok")};
  };
  sql::Query q(&t);
  q.Select({.column = "a", .udf = flaky, .alias = "r"}).GroupByCount(0);
  auto rs = q.Execute();
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 2u);  // NULL group + "ok" group
  EXPECT_EQ(sql::ValueToString(rs->rows[0][0]), "NULL");
  EXPECT_EQ(std::get<int64_t>(rs->rows[0][1]), 2);
}

class TauSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(TauSweepTest, GreedyDeadlineRuleConsistentAcrossSlos) {
  // Algorithm 3's flush condition must scale with tau: with a fresh queue
  // of 20 requests, the policy waits when slack exists and flushes when
  // the oldest request is within c(b) + delta of the SLO.
  double tau = GetParam();
  static std::vector<int64_t> batches{16, 32, 48, 64};
  static std::vector<model::ModelProfile> models{
      model::FindProfile("inception_v3").value()};
  serving::GreedyBatchPolicy policy(0);
  serving::ServingObs obs;
  obs.tau = tau;
  obs.batch_sizes = &batches;
  obs.models = &models;
  obs.queue_len = 20;
  obs.busy_remaining = {0.0};

  double c16 = models[0].BatchLatency(16);
  double delta = 0.1 * tau;
  // Just inside the deadline window: must flush.
  obs.queue_waits = {tau - c16 - delta + 1e-6};
  EXPECT_TRUE(policy.Decide(obs).process) << "tau=" << tau;
  // Well outside: must wait (only when slack is meaningful).
  if (tau - c16 - delta > 0.01) {
    obs.queue_waits = {0.0};
    EXPECT_FALSE(policy.Decide(obs).process) << "tau=" << tau;
  }
}

INSTANTIATE_TEST_SUITE_P(Slos, TauSweepTest,
                         ::testing::Values(0.2, 0.56, 1.0, 2.0));

TEST(SurrogateEdgeTest, InvertCurveBoundaries) {
  trainer::SurrogateTrainer t(trainer::SurrogateOptions{});
  tuning::Trial trial(1);
  trial.Set("learning_rate", tuning::KnobValue(0.05));
  ASSERT_TRUE(t.InitRandom(trial).ok());
  // Warm start from an impossible (higher-than-asymptote) donor caps at
  // 98% of the trial's own asymptote rather than looping.
  ps::ModelCheckpoint dream;
  dream.meta.accuracy = 0.999;
  ASSERT_TRUE(t.InitFromCheckpoint(trial, dream).ok());
  double first = t.TrainEpoch().value();
  EXPECT_LE(first, t.asymptote() + 0.05);
  EXPECT_GT(first, 0.5);
}

TEST(SerializeEdgeTest, EmptyTensorRoundTrips) {
  Tensor empty;
  auto bytes = storage::SerializeTensor(empty);
  auto back = storage::DeserializeTensor(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->numel(), 0);
  EXPECT_EQ(back->rank(), 0u);
}

TEST(SerializeEdgeTest, LargeTensorIntegrity) {
  Rng rng(3);
  Tensor big = Tensor::Randn({64, 257}, rng);  // odd size, > 64KB payload
  auto back = storage::DeserializeTensor(storage::SerializeTensor(big));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->SquaredNorm(), big.SquaredNorm());
}

TEST(StrFormatEdgeTest, LongOutputNotTruncated) {
  std::string big(500, 'x');
  std::string out = StrFormat("[%s]", big.c_str());
  EXPECT_EQ(out.size(), 502u);
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.back(), ']');
}

TEST(ProfileEdgeTest, ThroughputMonotoneInBatchForAllModels) {
  // b / c(b) grows with b under the affine latency model (fixed overhead
  // amortizes) — the reason Algorithm 3 prefers the largest batch.
  for (const model::ModelProfile& p : model::ImageNetCatalog()) {
    double prev = 0.0;
    for (int64_t b : {16, 32, 48, 64}) {
      double tp = p.Throughput(b);
      EXPECT_GT(tp, prev) << p.name << " b=" << b;
      prev = tp;
    }
  }
}

TEST(HyperSpaceEdgeTest, SingleCategoryKnobAlwaysThatValue) {
  tuning::HyperSpace space;
  ASSERT_TRUE(space.AddCategoricalKnob("only", {"solo"}).ok());
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(space.Sample(rng)->GetString("only"), "solo");
  }
  auto norm = space.Normalize(*space.Sample(rng));
  ASSERT_TRUE(norm.ok());
  EXPECT_DOUBLE_EQ(norm.value()[0], 0.0);
}

TEST(HyperSpaceEdgeTest, IntKnobCoversFullRangeInclusiveFloor) {
  tuning::HyperSpace space;
  ASSERT_TRUE(
      space.AddRangeKnob("layers", tuning::KnobDtype::kInt, 2, 5).ok());
  Rng rng(6);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(space.Sample(rng)->GetInt("layers"));
  }
  // floor of [2, 5) uniform -> {2, 3, 4}.
  EXPECT_EQ(seen, (std::set<int64_t>{2, 3, 4}));
}

}  // namespace
}  // namespace rafiki
