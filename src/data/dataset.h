#ifndef RAFIKI_DATA_DATASET_H_
#define RAFIKI_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace rafiki::data {

/// An in-memory labeled dataset. `x` is either [n, d] feature rows or
/// [n, c, h, w] images; `labels` holds one class id per example.
///
/// The paper trains on CIFAR-10 / ImageNet; we substitute deterministic
/// synthetic datasets that expose the same knobs (class count, input shape,
/// task difficulty) so the tuning/serving machinery exercises identical code
/// paths (see DESIGN.md §1).
struct Dataset {
  Tensor x;
  std::vector<int64_t> labels;
  int64_t num_classes = 0;

  int64_t size() const { return static_cast<int64_t>(labels.size()); }

  /// Rows [begin, end) as a new dataset (shares nothing; copies).
  Dataset Slice(int64_t begin, int64_t end) const;
};

/// Train/validation/test split.
struct DataSplits {
  Dataset train;
  Dataset validation;
  Dataset test;
};

/// Options for the Gaussian-mixture classification task ("CIFAR-like"
/// feature version). Class k has a random unit-norm center; samples are
/// center + spread * N(0, I). Smaller `separation` makes the task harder.
struct SyntheticTaskOptions {
  int64_t num_classes = 10;
  int64_t samples_per_class = 100;
  int64_t input_dim = 32;
  double separation = 2.0;   // distance scale between class centers
  double spread = 1.0;       // within-class stddev
  uint64_t seed = 7;
};

/// Generates the feature-vector classification task.
Dataset MakeSyntheticTask(const SyntheticTaskOptions& options);

/// Options for a small synthetic image task (rank-4 input), used by the
/// Conv2D path.
struct SyntheticImageOptions {
  int64_t num_classes = 4;
  int64_t samples_per_class = 32;
  int64_t channels = 3;
  int64_t height = 16;
  int64_t width = 16;
  double noise = 0.3;
  uint64_t seed = 11;
};

/// Generates images as per-class smooth templates plus Gaussian noise.
Dataset MakeSyntheticImages(const SyntheticImageOptions& options);

/// Shuffles and splits `dataset` into train/validation/test with the given
/// fractions (test receives the remainder).
DataSplits SplitDataset(const Dataset& dataset, double train_fraction,
                        double validation_fraction, Rng& rng);

/// Iterates minibatches over a dataset, reshuffling each epoch.
class BatchIterator {
 public:
  BatchIterator(const Dataset& dataset, int64_t batch_size, Rng rng);

  /// Fills `x`/`labels` with the next minibatch; returns false at epoch end
  /// (after which `Reset()` starts a new shuffled epoch).
  bool Next(Tensor* x, std::vector<int64_t>* labels);
  void Reset();

  int64_t batches_per_epoch() const;

 private:
  const Dataset& dataset_;
  int64_t batch_size_;
  Rng rng_;
  std::vector<int64_t> order_;
  int64_t cursor_ = 0;
};

}  // namespace rafiki::data

#endif  // RAFIKI_DATA_DATASET_H_
