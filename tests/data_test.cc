#include <set>

#include "data/dataset.h"
#include "gtest/gtest.h"

namespace rafiki::data {
namespace {

TEST(DatasetTest, SyntheticTaskShapesAndLabels) {
  SyntheticTaskOptions options;
  options.num_classes = 5;
  options.samples_per_class = 20;
  options.input_dim = 8;
  Dataset d = MakeSyntheticTask(options);
  EXPECT_EQ(d.size(), 100);
  EXPECT_EQ(d.x.shape(), (Shape{100, 8}));
  std::set<int64_t> labels(d.labels.begin(), d.labels.end());
  EXPECT_EQ(labels.size(), 5u);
}

TEST(DatasetTest, SyntheticTaskDeterministicPerSeed) {
  SyntheticTaskOptions options;
  Dataset a = MakeSyntheticTask(options);
  Dataset b = MakeSyntheticTask(options);
  ASSERT_EQ(a.x.numel(), b.x.numel());
  for (int64_t i = 0; i < a.x.numel(); ++i) {
    EXPECT_EQ(a.x.at(i), b.x.at(i));
  }
  options.seed = 999;
  Dataset c = MakeSyntheticTask(options);
  bool any_diff = false;
  for (int64_t i = 0; i < a.x.numel(); ++i) {
    any_diff |= a.x.at(i) != c.x.at(i);
  }
  EXPECT_TRUE(any_diff);
}

TEST(DatasetTest, SeparableTaskIsLearnable) {
  // High separation => nearest-center classification should be easy.
  SyntheticTaskOptions options;
  options.separation = 8.0;
  options.spread = 0.5;
  options.num_classes = 3;
  options.samples_per_class = 50;
  Dataset d = MakeSyntheticTask(options);
  // Verify classes are separated: mean intra-class distance below
  // inter-class distance between per-class means.
  int64_t dim = d.x.dim(1);
  std::vector<std::vector<double>> means(
      3, std::vector<double>(static_cast<size_t>(dim), 0.0));
  std::vector<int> counts(3, 0);
  for (int64_t i = 0; i < d.size(); ++i) {
    auto k = static_cast<size_t>(d.labels[static_cast<size_t>(i)]);
    ++counts[k];
    for (int64_t j = 0; j < dim; ++j) {
      means[k][static_cast<size_t>(j)] += d.x.at(i * dim + j);
    }
  }
  for (size_t k = 0; k < 3; ++k) {
    for (double& v : means[k]) v /= counts[k];
  }
  double inter = 0.0;
  for (int64_t j = 0; j < dim; ++j) {
    double diff = means[0][static_cast<size_t>(j)] -
                  means[1][static_cast<size_t>(j)];
    inter += diff * diff;
  }
  EXPECT_GT(inter, 1.0) << "class centers should be far apart";
}

TEST(DatasetTest, SliceCopiesRows) {
  SyntheticTaskOptions options;
  options.num_classes = 2;
  options.samples_per_class = 10;
  options.input_dim = 4;
  Dataset d = MakeSyntheticTask(options);
  Dataset s = d.Slice(5, 15);
  EXPECT_EQ(s.size(), 10);
  EXPECT_EQ(s.x.dim(0), 10);
  EXPECT_EQ(s.labels[0], d.labels[5]);
  EXPECT_EQ(s.x.at(0), d.x.at(5 * 4));
}

TEST(DatasetTest, SplitPartitionsAllRows) {
  SyntheticTaskOptions options;
  options.num_classes = 4;
  options.samples_per_class = 25;
  Dataset d = MakeSyntheticTask(options);
  Rng rng(1);
  DataSplits s = SplitDataset(d, 0.7, 0.2, rng);
  EXPECT_EQ(s.train.size() + s.validation.size() + s.test.size(), d.size());
  EXPECT_EQ(s.train.size(), 70);
  EXPECT_EQ(s.validation.size(), 20);
  EXPECT_EQ(s.test.size(), 10);
}

TEST(BatchIteratorTest, CoversEpochExactlyOnce) {
  SyntheticTaskOptions options;
  options.num_classes = 2;
  options.samples_per_class = 17;  // 34 rows, batch 8 -> 5 batches
  Dataset d = MakeSyntheticTask(options);
  BatchIterator it(d, 8, Rng(3));
  EXPECT_EQ(it.batches_per_epoch(), 5);
  Tensor x;
  std::vector<int64_t> labels;
  int64_t total = 0;
  int batches = 0;
  while (it.Next(&x, &labels)) {
    total += x.dim(0);
    ++batches;
  }
  EXPECT_EQ(total, 34);
  EXPECT_EQ(batches, 5);
  EXPECT_FALSE(it.Next(&x, &labels));
  it.Reset();
  EXPECT_TRUE(it.Next(&x, &labels));
}

}  // namespace
}  // namespace rafiki::data
