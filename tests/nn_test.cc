#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "nn/layer.h"
#include "nn/loss.h"
#include "nn/net.h"
#include "nn/sgd.h"

namespace rafiki::nn {
namespace {

/// Central-difference gradient check for a scalar loss through a layer
/// stack: perturb each parameter and compare to the analytic gradient.
void CheckParamGradients(Net& net, const Tensor& x,
                         const std::vector<int64_t>& labels,
                         float tolerance) {
  net.ZeroGrad();
  Tensor logits = net.Forward(x, /*train=*/true);
  LossResult loss = SoftmaxCrossEntropy(logits, labels);
  net.Backward(loss.grad);

  const float eps = 1e-3f;
  for (ParamTensor* p : net.Params()) {
    for (int64_t i = 0; i < std::min<int64_t>(p->value.numel(), 8); ++i) {
      float orig = p->value.at(i);
      // Numeric evaluation must match the differentiated function: use
      // train mode (BatchNorm computes a different function at inference;
      // all layers under check are deterministic in train mode).
      p->value.at(i) = orig + eps;
      float up = SoftmaxCrossEntropy(net.Forward(x, true), labels).loss;
      p->value.at(i) = orig - eps;
      float down = SoftmaxCrossEntropy(net.Forward(x, true), labels).loss;
      p->value.at(i) = orig;
      float numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(p->grad.at(i), numeric, tolerance)
          << p->name << "[" << i << "]";
    }
  }
}

TEST(LinearTest, ForwardMatchesManual) {
  Rng rng(1);
  Linear layer(2, 2, 0.0f, rng);  // zero weights
  std::vector<ParamTensor*> params = layer.Params();
  params[0]->value = Tensor({2, 2}, {1, 2, 3, 4});  // W
  params[1]->value = Tensor({1, 2}, {10, 20});      // b
  Tensor x({1, 2}, {1, 1});
  Tensor y = layer.Forward(x, false);
  EXPECT_EQ(y.at2(0, 0), 14.0f);  // 1*1 + 1*3 + 10
  EXPECT_EQ(y.at2(0, 1), 26.0f);  // 1*2 + 1*4 + 20
}

TEST(LinearTest, GradientCheck) {
  Rng rng(2);
  Net net;
  net.Add(std::make_unique<Linear>(3, 4, 0.3f, rng));
  Tensor x = Tensor::Randn({5, 3}, rng);
  CheckParamGradients(net, x, {0, 1, 2, 3, 0}, 2e-2f);
}

TEST(MlpTest, GradientCheckThroughReLU) {
  Rng rng(3);
  Net net = MakeMlp({3, 6, 3}, 0.4f, /*dropout=*/0.0f, rng);
  Tensor x = Tensor::Randn({4, 3}, rng);
  CheckParamGradients(net, x, {0, 1, 2, 0}, 2e-2f);
}

TEST(MlpTest, RowAnswerDoesNotDependOnBatchComposition) {
  // A served answer must not depend on which batch its request landed in:
  // every row of a batched inference forward equals that row's own
  // single-row forward bit for bit, on the dispatched GEMM path. The shapes
  // are the serving ensemble's (256 -> {512, 1024, 2048} -> 10), so the
  // larger batches cross the GEMM's parallel threshold and split by rows.
  constexpr int64_t kIn = 256, kOut = 10;
  Rng rng(21);
  for (int64_t hidden : {512, 1024, 2048}) {
    Net net = MakeMlp({kIn, hidden, kOut}, 0.05f, /*dropout=*/0.0f, rng);
    for (int64_t b : {1, 3, 17, 32}) {
      Tensor x = Tensor::Randn({b, kIn}, rng);
      Tensor batched = net.Forward(x, /*train=*/false);
      for (int64_t r = 0; r < b; ++r) {
        Tensor row({1, kIn});
        std::memcpy(row.data(), x.data() + r * kIn, kIn * sizeof(float));
        Tensor single = net.Forward(row, /*train=*/false);
        EXPECT_EQ(0, std::memcmp(single.data(), batched.data() + r * kOut,
                                 kOut * sizeof(float)))
            << "hidden " << hidden << ", batch " << b << ", row " << r;
      }
    }
  }
}

TEST(Conv2DTest, GradientCheck) {
  Rng rng(4);
  Net net;
  net.Add(std::make_unique<Conv2D>(2, 3, 3, /*padding=*/1, 0.3f, rng));
  net.Add(std::make_unique<Flatten>());
  Tensor x = Tensor::Randn({2, 2, 4, 4}, rng);
  CheckParamGradients(net, x, {1, 0}, 3e-2f);
}

TEST(Conv2DTest, OutputShapeWithPadding) {
  Rng rng(5);
  Conv2D conv(3, 8, 3, /*padding=*/1, 0.1f, rng);
  Tensor x = Tensor::Randn({2, 3, 8, 8}, rng);
  Tensor y = conv.Forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 8, 8}));
  Conv2D valid(3, 4, 3, /*padding=*/0, 0.1f, rng);
  EXPECT_EQ(valid.Forward(x, false).shape(), (Shape{2, 4, 6, 6}));
}

uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

TEST(ReluTest, BackwardSelectsGradient) {
  // Backward selects the incoming gradient where the input was positive and
  // writes +0 elsewhere, whatever the gradient holds. Multiplying by a 0/1
  // mask instead would turn a NaN or inf there into NaN.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float in[] = {-1.0f, 0.0f, -0.0f, nan, -2.0f, 2.0f, 3.0f, 4.0f, -3.0f};
  const float go[] = {nan, inf, -inf, 5.0f, -0.0f, -0.0f, 1.5f, nan, nan};
  const float want[] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, -0.0f, 1.5f, nan, 0.0f};
  constexpr int64_t kPattern = 9, kRepeats = 7;  // vector body and tail
  Tensor x({1, kPattern * kRepeats}), g({1, kPattern * kRepeats});
  for (int64_t i = 0; i < x.numel(); ++i) {
    x.at(i) = in[i % kPattern];
    g.at(i) = go[i % kPattern];
  }
  Relu relu;
  relu.Forward(x, /*train=*/true);
  Tensor gi = relu.Backward(g);
  for (int64_t i = 0; i < gi.numel(); ++i) {
    EXPECT_EQ(Bits(gi.at(i)), Bits(want[i % kPattern])) << "element " << i;
  }
}

TEST(DropoutTest, InferenceIsIdentity) {
  Dropout drop(0.5f, 7);
  Tensor x({1, 100});
  x.Fill(1.0f);
  Tensor y = drop.Forward(x, /*train=*/false);
  EXPECT_EQ(y.Sum(), 100.0f);
}

TEST(DropoutTest, TrainKeepsExpectedScale) {
  Dropout drop(0.5f, 7);
  Tensor x({1, 20000});
  x.Fill(1.0f);
  Tensor y = drop.Forward(x, /*train=*/true);
  // Inverted dropout: E[y] = 1.
  EXPECT_NEAR(y.Mean(), 1.0f, 0.05f);
  // Backward masks the same elements.
  Tensor g = drop.Backward(x);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(g.at(i) == 0.0f, y.at(i) == 0.0f);
  }
}

/// A bit generator that returns one fixed draw, to put a chosen 64-bit
/// value through std::bernoulli_distribution.
struct FixedDraw {
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }
  result_type operator()() { return value; }
  uint64_t value;
};

TEST(DropoutTest, MaskMatchesBernoulliDraws) {
  // The mask compares each draw with a precomputed cutoff. It must drop
  // exactly the elements std::bernoulli_distribution(rate) drops on the same
  // draws, at rates on and off binary fractions, a tiny one, and the float
  // just below 0.5.
  const uint64_t kSeed = 99;
  for (float rate : {0.5f, 0.25f, 1.0f / 3.0f, 1e-20f,
                     std::nextafter(0.5f, 0.0f)}) {
    SCOPED_TRACE(rate);
    Dropout drop(rate, kSeed);
    std::mt19937_64 ref(kSeed);
    std::bernoulli_distribution bernoulli(rate);
    Tensor x({8, 1000});
    x.Fill(1.0f);
    int64_t mismatches = 0;
    for (int pass = 0; pass < 2; ++pass) {  // the stream spans forwards
      Tensor y = drop.Forward(x, /*train=*/true);
      for (int64_t i = 0; i < y.numel(); ++i) {
        if ((y.at(i) == 0.0f) != bernoulli(ref)) ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0);

    // The draws next to the cutoff: x < c must agree with the canonical
    // double x * 2^-64 < rate, and with the distribution itself.
    uint64_t c = Rng::BernoulliCutoff(rate);
    for (uint64_t draw : {c - 1, c, c + 1}) {
      SCOPED_TRACE(draw);
      EXPECT_EQ(draw < c, std::ldexp(static_cast<double>(draw), -64) < rate);
      FixedDraw fixed{draw};
      EXPECT_EQ(draw < c, bernoulli(fixed));
    }
  }
}

TEST(FlattenTest, RoundTrips) {
  Flatten flat;
  Rng rng(8);
  Tensor x = Tensor::Randn({2, 3, 4, 5}, rng);
  Tensor y = flat.Forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
  Tensor g = flat.Backward(y);
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(LossTest, SoftmaxCrossEntropyKnownValue) {
  // Uniform logits over 4 classes -> loss = log(4).
  Tensor logits({2, 4});
  LossResult r = SoftmaxCrossEntropy(logits, {0, 3});
  EXPECT_NEAR(r.loss, std::log(4.0f), 1e-5f);
  // Gradient rows sum to ~0.
  for (int64_t row = 0; row < 2; ++row) {
    float sum = 0.0f;
    for (int64_t c = 0; c < 4; ++c) sum += r.grad.at2(row, c);
    EXPECT_NEAR(sum, 0.0f, 1e-6f);
  }
}

TEST(LossTest, AccuracyCountsArgmax) {
  Tensor logits({3, 2}, {0.9f, 0.1f, 0.2f, 0.8f, 0.6f, 0.4f});
  EXPECT_DOUBLE_EQ(Accuracy(logits, {0, 1, 0}), 1.0);
  EXPECT_NEAR(Accuracy(logits, {1, 1, 0}), 2.0 / 3.0, 1e-9);
}

TEST(LossTest, MeanSquaredError) {
  Tensor pred({2, 1}, {1.0f, 3.0f});
  LossResult r = MeanSquaredError(pred, {0.0f, 1.0f});
  EXPECT_NEAR(r.loss, (1.0f + 4.0f) / 2.0f, 1e-6f);
  EXPECT_NEAR(r.grad.at(0), 2.0f * 1.0f / 2.0f, 1e-6f);
  EXPECT_NEAR(r.grad.at(1), 2.0f * 2.0f / 2.0f, 1e-6f);
}

TEST(SgdTest, PlainStepDescends) {
  Rng rng(9);
  Net net = MakeMlp({4, 8, 2}, 0.3f, 0.0f, rng);
  SgdOptions options;
  options.learning_rate = 0.1;
  options.momentum = 0.0;
  options.weight_decay = 0.0;
  Sgd sgd(options);
  Tensor x = Tensor::Randn({16, 4}, rng);
  std::vector<int64_t> labels;
  for (int i = 0; i < 16; ++i) labels.push_back(i % 2);
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 60; ++step) {
    net.ZeroGrad();
    LossResult r = SoftmaxCrossEntropy(net.Forward(x, true), labels);
    if (step == 0) first = r.loss;
    last = r.loss;
    net.Backward(r.grad);
    sgd.Step(net.Params());
  }
  EXPECT_LT(last, first * 0.7f) << "SGD failed to reduce loss";
}

TEST(SgdTest, WeightDecayShrinksWeights) {
  Rng rng(10);
  Net net;
  net.Add(std::make_unique<Linear>(4, 4, 1.0f, rng));
  SgdOptions options;
  options.learning_rate = 0.1;
  options.momentum = 0.0;
  options.weight_decay = 0.5;
  Sgd sgd(options);
  float before = net.Params()[0]->value.SquaredNorm();
  net.ZeroGrad();  // zero gradient: only decay acts
  sgd.Step(net.Params());
  float after = net.Params()[0]->value.SquaredNorm();
  EXPECT_LT(after, before);
}

TEST(SgdTest, ExponentialLrDecaySchedule) {
  SgdOptions options;
  options.learning_rate = 1.0;
  options.lr_decay = 0.5;
  options.decay_every_steps = 10;
  Sgd sgd(options);
  EXPECT_DOUBLE_EQ(sgd.CurrentLr(), 1.0);
  Net dummy;
  for (int i = 0; i < 10; ++i) sgd.Step(dummy.Params());
  EXPECT_DOUBLE_EQ(sgd.CurrentLr(), 0.5);
  for (int i = 0; i < 10; ++i) sgd.Step(dummy.Params());
  EXPECT_DOUBLE_EQ(sgd.CurrentLr(), 0.25);
}

TEST(SgdTest, ManualLrScale) {
  SgdOptions options;
  options.learning_rate = 0.2;
  Sgd sgd(options);
  sgd.ScaleLr(0.1);
  EXPECT_NEAR(sgd.CurrentLr(), 0.02, 1e-12);
}

TEST(NetTest, StateDictRoundTripsShapeMatched) {
  Rng rng(11);
  Net a = MakeMlp({4, 8, 2}, 0.3f, 0.0f, rng);
  Net b = MakeMlp({4, 8, 2}, 0.3f, 0.0f, rng);
  auto state = a.StateDict();
  int loaded = b.LoadStateShapeMatched(state);
  EXPECT_EQ(loaded, 4);  // 2 layers x (weight, bias)
  Tensor x = Tensor::Randn({3, 4}, rng);
  Tensor ya = a.Forward(x, false);
  Tensor yb = b.Forward(x, false);
  for (int64_t i = 0; i < ya.numel(); ++i) {
    EXPECT_EQ(ya.at(i), yb.at(i));
  }
}

TEST(NetTest, ShapeMismatchedLayersAreSkipped) {
  Rng rng(12);
  Net a = MakeMlp({4, 8, 2}, 0.3f, 0.0f, rng);
  Net b = MakeMlp({4, 16, 2}, 0.3f, 0.0f, rng);  // different hidden width
  int loaded = b.LoadStateShapeMatched(a.StateDict());
  // Weights mismatch everywhere (fc0 [4,8] vs [4,16]; fc1 [8,2] vs
  // [16,2]) and so does fc0's bias; only the output bias [1,2] matches —
  // exactly the per-tensor shape matching of §4.2.2.
  EXPECT_EQ(loaded, 1);
}

TEST(NetTest, PartialShapeMatchAcrossArchitectures) {
  // Same first layer, different second: exactly the paper's §4.2.2
  // "ConvNet a's 3rd layer initializes ConvNet b's 3rd layer" scenario.
  Rng rng(13);
  Net a = MakeMlp({4, 8, 2}, 0.3f, 0.0f, rng);
  Net b = MakeMlp({4, 8, 3}, 0.3f, 0.0f, rng);
  int loaded = b.LoadStateShapeMatched(a.StateDict());
  EXPECT_EQ(loaded, 2);  // fc0 weight+bias only
}


TEST(MaxPool2DTest, ForwardPicksWindowMax) {
  MaxPool2D pool(2);
  Tensor x({1, 1, 4, 4}, {1, 2, 5, 3,
                          4, 0, 1, 1,
                          9, 2, 0, 0,
                          1, 1, 0, 7});
  Tensor y = pool.Forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(y.at(0), 4.0f);
  EXPECT_EQ(y.at(1), 5.0f);
  EXPECT_EQ(y.at(2), 9.0f);
  EXPECT_EQ(y.at(3), 7.0f);
}

TEST(MaxPool2DTest, BackwardRoutesToArgmax) {
  MaxPool2D pool(2);
  Tensor x({1, 1, 2, 2}, {3, 1, 2, 0});
  pool.Forward(x, true);
  Tensor g({1, 1, 1, 1}, {5.0f});
  Tensor gi = pool.Backward(g);
  EXPECT_EQ(gi.at(0), 5.0f);  // max was at index 0
  EXPECT_EQ(gi.at(1), 0.0f);
  EXPECT_EQ(gi.at(2), 0.0f);
  EXPECT_EQ(gi.at(3), 0.0f);
}

TEST(MaxPool2DTest, GradientCheckThroughConvPoolStack) {
  Rng rng(14);
  Net net;
  net.Add(std::make_unique<Conv2D>(1, 2, 3, /*padding=*/1, 0.3f, rng));
  net.Add(std::make_unique<MaxPool2D>(2));
  net.Add(std::make_unique<Flatten>());
  Tensor x = Tensor::Randn({2, 1, 4, 4}, rng);
  CheckParamGradients(net, x, {1, 0}, 3e-2f);
}


TEST(BatchNormTest, TrainOutputStandardizedThenAffine) {
  Rng rng(15);
  BatchNorm bn(3);
  Tensor x = Tensor::Randn({64, 3}, rng, 4.0f);
  x.AddInPlace(Tensor::Full({64, 3}, 7.0f));
  Tensor y = bn.Forward(x, /*train=*/true);
  // gamma=1, beta=0 initially: output has ~zero mean, ~unit variance.
  for (int64_t d = 0; d < 3; ++d) {
    double mean = 0.0, var = 0.0;
    for (int64_t i = 0; i < 64; ++i) mean += y.at2(i, d);
    mean /= 64;
    for (int64_t i = 0; i < 64; ++i) {
      var += (y.at2(i, d) - mean) * (y.at2(i, d) - mean);
    }
    var /= 64;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, InferenceUsesRunningStats) {
  Rng rng(16);
  BatchNorm bn(2, "bn", /*momentum=*/0.0);  // running stats = last batch
  Tensor x = Tensor::Randn({128, 2}, rng, 2.0f);
  bn.Forward(x, /*train=*/true);
  // Inference on the SAME data now standardizes with those stats.
  Tensor y = bn.Forward(x, /*train=*/false);
  double mean = 0.0;
  for (int64_t i = 0; i < 128; ++i) mean += y.at2(i, 0);
  EXPECT_NEAR(mean / 128, 0.0, 0.05);
}

TEST(BatchNormTest, GradientCheckThroughStack) {
  Rng rng(17);
  Net net;
  net.Add(std::make_unique<Linear>(3, 5, 0.4f, rng));
  net.Add(std::make_unique<BatchNorm>(5));
  net.Add(std::make_unique<Relu>());
  net.Add(std::make_unique<Linear>(5, 2, 0.4f, rng));
  Tensor x = Tensor::Randn({6, 3}, rng);
  CheckParamGradients(net, x, {0, 1, 0, 1, 0, 1}, 3e-2f);
}

TEST(BatchNormTest, StabilizesLargeLearningRateTraining) {
  // The practical point: with BN an MLP survives a learning rate that
  // diverges without it (why the paper's tuner explores lr up to 1.0).
  Rng rng(18);
  auto train = [&](bool use_bn) {
    Rng local(19);
    Net net;
    net.Add(std::make_unique<Linear>(8, 16, 0.5f, local));
    if (use_bn) net.Add(std::make_unique<BatchNorm>(16));
    net.Add(std::make_unique<Relu>());
    net.Add(std::make_unique<Linear>(16, 2, 0.5f, local));
    SgdOptions options;
    options.learning_rate = 0.8;
    options.momentum = 0.0;
    Sgd sgd(options);
    Tensor x = Tensor::Randn({32, 8}, rng);
    std::vector<int64_t> labels;
    for (int i = 0; i < 32; ++i) labels.push_back(i % 2);
    float loss = 0.0f;
    for (int step = 0; step < 40; ++step) {
      net.ZeroGrad();
      LossResult r = SoftmaxCrossEntropy(net.Forward(x, true), labels);
      loss = r.loss;
      if (std::isnan(loss) || loss > 50.0f) return loss;  // diverged
      net.Backward(r.grad);
      sgd.Step(net.Params());
    }
    return loss;
  };
  float with_bn = train(true);
  EXPECT_LT(with_bn, 1.0f) << "BN run should remain stable";
}

TEST(NetTest, CloneIsDeepAndIndependent) {
  // Replica dispatchers serve on per-replica net clones; a clone must
  // compute the same function yet share no parameter storage with the
  // original.
  Rng rng(11);
  Net net = MakeMlp({6, 16, 3}, 0.1f, /*dropout=*/0.0f, rng);
  Net clone = net.Clone();
  Tensor x = Tensor::Randn({4, 6}, rng);
  Tensor original_logits = net.Forward(x, /*train=*/false);
  Tensor clone_logits = clone.Forward(x, /*train=*/false);
  ASSERT_EQ(original_logits.numel(), clone_logits.numel());
  for (int64_t i = 0; i < original_logits.numel(); ++i) {
    EXPECT_FLOAT_EQ(original_logits.at(i), clone_logits.at(i));
  }

  // Perturb every original parameter: the clone's output must not move.
  for (ParamTensor* p : net.Params()) {
    for (int64_t i = 0; i < p->value.numel(); ++i) p->value.at(i) += 1.0f;
  }
  Tensor after = clone.Forward(x, /*train=*/false);
  for (int64_t i = 0; i < after.numel(); ++i) {
    EXPECT_FLOAT_EQ(after.at(i), clone_logits.at(i));
  }
}

/// Net::Backward skips the first layer's input gradient. The parameter
/// grads it leaves must equal, bit for bit, those from running each layer's
/// own Backward in reverse, which computes every input gradient.
void ExpectBackwardSkipsOnlyInputGradient(Net& net, const Tensor& x,
                                          const std::vector<int64_t>& labels) {
  Net ref = net.Clone();  // same weights and, from here on, dropout stream
  Workspace ws;
  net.ZeroGrad();
  net.Backward(SoftmaxCrossEntropy(net.Forward(x, true, &ws), labels).grad,
               &ws);
  EXPECT_EQ(ws.grads[0].numel(), 0) << "the input gradient was computed";

  ref.ZeroGrad();
  Tensor g = SoftmaxCrossEntropy(ref.Forward(x, true), labels).grad;
  for (size_t i = ref.num_layers(); i > 0; --i) g = ref.layer(i - 1).Backward(g);
  ASSERT_EQ(g.shape(), x.shape());

  std::vector<ParamTensor*> got = net.Params(), want = ref.Params();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i]->grad.SameShape(want[i]->grad)) << got[i]->name;
    EXPECT_GT(want[i]->grad.SquaredNorm(), 0.0f) << want[i]->name;
    EXPECT_EQ(0, std::memcmp(got[i]->grad.data(), want[i]->grad.data(),
                             static_cast<size_t>(got[i]->grad.numel()) *
                                 sizeof(float)))
        << got[i]->name;
  }
}

TEST(NetTest, BackwardSkipsOnlyTheInputGradient) {
  Rng rng(31);
  {
    SCOPED_TRACE("mlp with dropout");
    Net mlp = MakeMlp({6, 16, 12, 4}, 0.3f, /*dropout=*/0.25f, rng);
    ExpectBackwardSkipsOnlyInputGradient(mlp, Tensor::Randn({8, 6}, rng),
                                         {0, 1, 2, 3, 0, 1, 2, 3});
  }
  {
    SCOPED_TRACE("conv first");
    Net conv;
    conv.Add(std::make_unique<Conv2D>(2, 3, 3, /*padding=*/1, 0.3f, rng));
    conv.Add(std::make_unique<Relu>());
    conv.Add(std::make_unique<MaxPool2D>(2));
    conv.Add(std::make_unique<Flatten>());
    conv.Add(std::make_unique<Linear>(12, 3, 0.3f, rng));
    ExpectBackwardSkipsOnlyInputGradient(
        conv, Tensor::Randn({2, 2, 4, 4}, rng), {1, 2});
  }
  {
    SCOPED_TRACE("batch norm first");
    Net bn;
    bn.Add(std::make_unique<BatchNorm>(6));
    bn.Add(std::make_unique<Linear>(6, 8, 0.3f, rng));
    bn.Add(std::make_unique<Relu>());
    bn.Add(std::make_unique<Dropout>(0.25f, rng.Next64()));
    bn.Add(std::make_unique<Linear>(8, 3, 0.3f, rng));
    ExpectBackwardSkipsOnlyInputGradient(bn, Tensor::Randn({6, 6}, rng),
                                         {0, 1, 2, 0, 1, 2});
  }
}

}  // namespace
}  // namespace rafiki::nn
