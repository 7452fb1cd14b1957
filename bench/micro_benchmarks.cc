// Component micro-benchmarks (google-benchmark): throughput/latency of the
// substrate pieces every experiment leans on — tensor GEMM, the parameter
// server, the message bus, the GP fit behind Bayesian optimization, batch
// policy decisions, and ensemble voting.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "trainer/real_trainer.h"
#include "tuning/cholesky.h"
#include "common/thread_pool.h"
#include "nn/layer.h"
#include "tensor/kernels.h"
#include "model/prediction_sim.h"
#include "model/profile.h"
#include "net/http.h"
#include "net/http_server.h"
#include "net/loadgen.h"
#include "net/timer_wheel.h"
#include "nn/loss.h"
#include "rafiki/gateway.h"
#include "rafiki/http_gateway.h"
#include "nn/net.h"
#include "nn/sgd.h"
#include "ps/parameter_server.h"
#include "cluster/message_bus.h"
#include "serving/greedy_batch.h"
#include "serving/rl_scheduler.h"
#include "tensor/tensor.h"
#include "tuning/gaussian_process.h"
#include "tuning/hyperspace.h"

namespace rafiki {
namespace {

void BM_TensorMatMul(benchmark::State& state) {
  auto n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_TensorMatMul)->Arg(32)->Arg(128)->Arg(256);

// Rectangular shapes from the repo's real workloads: a wide feature GEMM
// (batch x features x classes) and a tall-skinny surrogate-training step.
void BM_TensorMatMulRect(benchmark::State& state) {
  int64_t m = state.range(0), k = state.range(1), n = state.range(2);
  Rng rng(1);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  for (auto _ : state) {
    Tensor c = MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_TensorMatMulRect)
    ->Args({64, 512, 10})
    ->Args({512, 32, 256})
    ->Args({31, 127, 65});

void BM_TensorMatMulTransA(benchmark::State& state) {
  auto n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = MatMulTransA(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_TensorMatMulTransA)->Arg(128);

void BM_TensorMatMulTransB(benchmark::State& state) {
  auto n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = MatMulTransB(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_TensorMatMulTransB)->Arg(128);

// Thread scaling of the raw GEMM kernel with an explicit pool, independent
// of RAFIKI_NUM_THREADS. On a single-core host the >1 entries measure
// oversubscription overhead rather than speedup.
void BM_GemmThreadScaling(benchmark::State& state) {
  int64_t n = 256;
  ThreadPool pool(static_cast<int>(state.range(0)));
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    c.Fill(0.0f);
    kernels::GemmNN(a.data(), b.data(), c.data(), n, n, n, &pool);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
// UseRealTime: the caller blocks while workers compute, so CPU-time-based
// rates would overstate throughput by the thread count.
BENCHMARK(BM_GemmThreadScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Direct (pre-im2col) convolution loop, kept here as the benchmark
// reference so the im2col win stays measurable release over release.
Tensor DirectConvForward(const Tensor& input, const Tensor& weight,
                         const Tensor& bias, int64_t pad) {
  int64_t batch = input.dim(0), ic_n = input.dim(1);
  int64_t h = input.dim(2), w = input.dim(3);
  int64_t oc_n = weight.dim(0), kernel = weight.dim(2);
  int64_t oh = h + 2 * pad - kernel + 1, ow = w + 2 * pad - kernel + 1;
  Tensor out({batch, oc_n, oh, ow});
  const float* in = input.data();
  const float* wt = weight.data();
  float* po = out.data();
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t oc = 0; oc < oc_n; ++oc) {
      float bv = bias.at(oc);
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t x = 0; x < ow; ++x) {
          double acc = bv;
          for (int64_t ic = 0; ic < ic_n; ++ic) {
            for (int64_t ky = 0; ky < kernel; ++ky) {
              int64_t iy = y + ky - pad;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kx = 0; kx < kernel; ++kx) {
                int64_t ix = x + kx - pad;
                if (ix < 0 || ix >= w) continue;
                acc += in[((n * ic_n + ic) * h + iy) * w + ix] *
                       wt[((oc * ic_n + ic) * kernel + ky) * kernel + kx];
              }
            }
          }
          po[((n * oc_n + oc) * oh + y) * ow + x] = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

constexpr int64_t kConvBatch = 4, kConvInC = 8, kConvOutC = 16;
constexpr int64_t kConvHW = 28, kConvK = 3, kConvPad = 1;

void BM_Conv2DForward(benchmark::State& state) {
  Rng rng(7);
  nn::Conv2D conv(kConvInC, kConvOutC, kConvK, kConvPad, 0.1f, rng);
  Tensor x = Tensor::Randn({kConvBatch, kConvInC, kConvHW, kConvHW}, rng);
  for (auto _ : state) {
    Tensor y = conv.Forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * kConvBatch * kConvOutC *
                          kConvHW * kConvHW * kConvInC * kConvK * kConvK);
}
BENCHMARK(BM_Conv2DForward);

void BM_Conv2DForwardDirect(benchmark::State& state) {
  Rng rng(7);
  nn::Conv2D conv(kConvInC, kConvOutC, kConvK, kConvPad, 0.1f, rng);
  Tensor x = Tensor::Randn({kConvBatch, kConvInC, kConvHW, kConvHW}, rng);
  const Tensor& wt = conv.Params()[0]->value;
  const Tensor& bias = conv.Params()[1]->value;
  for (auto _ : state) {
    Tensor y = DirectConvForward(x, wt, bias, kConvPad);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * kConvBatch * kConvOutC *
                          kConvHW * kConvHW * kConvInC * kConvK * kConvK);
}
BENCHMARK(BM_Conv2DForwardDirect);

void BM_Conv2DBackward(benchmark::State& state) {
  Rng rng(7);
  nn::Conv2D conv(kConvInC, kConvOutC, kConvK, kConvPad, 0.1f, rng);
  Tensor x = Tensor::Randn({kConvBatch, kConvInC, kConvHW, kConvHW}, rng);
  Tensor y = conv.Forward(x, true);
  Tensor g = Tensor::Randn(y.shape(), rng);
  for (auto _ : state) {
    Tensor gx = conv.Backward(g);
    benchmark::DoNotOptimize(gx.data());
  }
  state.SetItemsProcessed(state.iterations() * kConvBatch * kConvOutC *
                          kConvHW * kConvHW * kConvInC * kConvK * kConvK);
}
BENCHMARK(BM_Conv2DBackward);

void BM_TensorSoftmax(benchmark::State& state) {
  Rng rng(2);
  Tensor logits = Tensor::Randn({64, 1000}, rng);
  for (auto _ : state) {
    Tensor p = logits.SoftmaxRows();
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_TensorSoftmax);

void BM_MlpTrainStep(benchmark::State& state) {
  Rng rng(3);
  nn::Net net = nn::MakeMlp({32, 64, 10}, 0.1f, 0.0f, rng);
  nn::SgdOptions options;
  nn::Sgd sgd(options);
  Tensor x = Tensor::Randn({32, 32}, rng);
  std::vector<int64_t> labels(32);
  for (size_t i = 0; i < 32; ++i) labels[i] = static_cast<int64_t>(i % 10);
  for (auto _ : state) {
    net.ZeroGrad();
    nn::LossResult loss = nn::SoftmaxCrossEntropy(net.Forward(x, true),
                                                  labels);
    net.Backward(loss.grad);
    sgd.Step(net.Params());
  }
}
BENCHMARK(BM_MlpTrainStep);

// Same workload as BM_MlpTrainStep through the workspace/fused hot path
// (reserved buffers, SoftmaxCrossEntropyInto, cached ParamList) — the
// allocation-free step the trainers now run; the pair quantifies what the
// value-semantics wrappers cost. The argument is the dropout rate in
// percent: /25 adds the mask draws every tuning trial pays (the search
// spaces draw dropout from [0, 0.5]).
void BM_MlpTrainStepFused(benchmark::State& state) {
  Rng rng(3);
  float dropout = static_cast<float>(state.range(0)) / 100.0f;
  nn::Net net = nn::MakeMlp({32, 64, 10}, 0.1f, dropout, rng);
  nn::Sgd sgd(nn::SgdOptions{});
  nn::Workspace ws;
  net.Reserve({32, 32}, &ws);
  Tensor x = Tensor::Randn({32, 32}, rng);
  std::vector<int64_t> labels(32);
  for (size_t i = 0; i < 32; ++i) labels[i] = static_cast<int64_t>(i % 10);
  nn::LossResult loss;
  for (auto _ : state) {
    net.ZeroGrad();
    const Tensor& logits = net.Forward(x, true, &ws);
    nn::SoftmaxCrossEntropyInto(logits, labels, &loss);
    net.Backward(loss.grad, &ws);
    sgd.Step(net.ParamList());
    benchmark::DoNotOptimize(loss.loss);
  }
}
BENCHMARK(BM_MlpTrainStepFused)->Arg(0)->Arg(25);

// Allocation-free workspace training step (Net::Forward/Backward into a
// reserved Workspace + fused SGD), sharded across `shards` data-parallel
// replicas via RealTrainer. /1 is the serial fast path; higher args measure
// the scatter + replica sync + tree-reduce machinery. On a single-core host
// the >1 entries measure that overhead rather than speedup (same caveat as
// BM_GemmThreadScaling).
void BM_TrainStep(benchmark::State& state) {
  data::SyntheticTaskOptions dopts;
  dopts.num_classes = 10;
  dopts.samples_per_class = 64;
  dopts.input_dim = 128;
  data::Dataset dataset = data::MakeSyntheticTask(dopts);

  trainer::RealTrainerOptions topts;
  topts.batch_size = 256;
  topts.num_shards = static_cast<int>(state.range(0));
  trainer::RealTrainer t(&dataset, &dataset, topts);
  tuning::Trial trial(1);
  trial.Set("hidden_units", tuning::KnobValue(static_cast<int64_t>(256)));
  trial.Set("dropout", tuning::KnobValue(0.0));
  if (!t.InitRandom(trial).ok()) {
    state.SkipWithError("trainer init failed");
    return;
  }
  data::Dataset batch = dataset.Slice(0, topts.batch_size);
  for (auto _ : state) {
    float loss = t.TrainStep(batch.x, batch.labels);
    benchmark::DoNotOptimize(loss);
  }
  state.SetItemsProcessed(state.iterations() * topts.batch_size);
}
// UseRealTime: with shards > 1 the caller blocks on pool workers.
BENCHMARK(BM_TrainStep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// The fused momentum+weight-decay+update pass in isolation, below and above
// the kParallelMinElems thread-pool cutoff.
void BM_SgdStep(benchmark::State& state) {
  int64_t n = state.range(0);
  Rng rng(11);
  nn::ParamTensor p;
  p.name = "w";
  p.value = Tensor::Randn({n}, rng);
  p.grad = Tensor::Randn({n}, rng);
  nn::Sgd sgd(nn::SgdOptions{});
  std::vector<nn::ParamTensor*> params = {&p};
  for (auto _ : state) {
    sgd.Step(params);
    benchmark::DoNotOptimize(p.value.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SgdStep)->Arg(1 << 12)->Arg(1 << 18)->UseRealTime();

void BM_ParameterServerPutGet(benchmark::State& state) {
  ps::ParameterServer ps;
  Rng rng(4);
  Tensor value = Tensor::Randn({64, 64}, rng);
  ps::ParamMeta meta;
  int i = 0;
  for (auto _ : state) {
    std::string name = "p" + std::to_string(i++ % 128);
    benchmark::DoNotOptimize(ps.Put("bench", name, value, meta));
    auto got = ps.Get("bench", name);
    benchmark::DoNotOptimize(got.ok());
  }
}
BENCHMARK(BM_ParameterServerPutGet);

void BM_MessageBusRoundTrip(benchmark::State& state) {
  cluster::MessageBus bus;
  (void)bus.RegisterEndpoint("bench");
  cluster::Message msg;
  msg.type = cluster::MessageType::kReport;
  msg.str_fields["trial"] = "1|lr:f:0.1;momentum:f:0.9";
  for (auto _ : state) {
    (void)bus.Send("bench", msg);
    auto got = bus.TryReceive("bench");
    benchmark::DoNotOptimize(got.has_value());
  }
}
BENCHMARK(BM_MessageBusRoundTrip);

void BM_GaussianProcessFit(benchmark::State& state) {
  auto n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<std::vector<double>> x(n, std::vector<double>(5));
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    for (double& v : x[i]) v = rng.Uniform();
    y[i] = rng.Uniform();
  }
  for (auto _ : state) {
    tuning::GaussianProcess gp(tuning::GpOptions{});
    benchmark::DoNotOptimize(gp.Fit(x, y).ok());
  }
}
BENCHMARK(BM_GaussianProcessFit)->Arg(50)->Arg(200);

// The GEMM-backed GP fit (Gram-matrix covariance + blocked Cholesky) vs a
// naive reference that assembles the covariance pairwise and factors with
// the unblocked algorithm — the pre-optimization code path, kept honest
// release over release.
void FillGpInputs(size_t n, std::vector<std::vector<double>>* x,
                  std::vector<double>* y) {
  Rng rng(5);
  x->assign(n, std::vector<double>(5));
  y->assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (double& v : (*x)[i]) v = rng.Uniform();
    (*y)[i] = rng.Uniform();
  }
}

void BM_GpFit(benchmark::State& state) {
  auto n = static_cast<size_t>(state.range(0));
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  FillGpInputs(n, &x, &y);
  for (auto _ : state) {
    tuning::GaussianProcess gp(tuning::GpOptions{});
    benchmark::DoNotOptimize(gp.Fit(x, y).ok());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GpFit)->Arg(64)->Arg(256);

// Faithful replica of the Fit implementation this repo shipped before the
// GEMM-backed rewrite: per-pair RBF kernel evaluated through a checked
// function call, both triangles stored, unblocked in-place Cholesky with a
// division in the inner loop, and two-pass forward/backward substitution.
// Kept verbatim (not "improved") so BM_GpFit/BM_GpFitNaive measures the
// real before/after of the rewrite.
double NaiveGpKernel(const std::vector<double>& a,
                     const std::vector<double>& b,
                     const tuning::GpOptions& opts) {
  RAFIKI_CHECK_EQ(a.size(), b.size());
  double d2 = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    d2 += d * d;
  }
  double l2 = opts.length_scale * opts.length_scale;
  return opts.signal_variance * std::exp(-0.5 * d2 / l2);
}

bool NaiveGpFit(const std::vector<std::vector<double>>& x_in,
                const std::vector<double>& y, const tuning::GpOptions& opts,
                std::vector<double>* chol, std::vector<double>* alpha) {
  // The old Fit retained the training set (x_ = x); keep the copy so the
  // replica pays the same allocations.
  std::vector<std::vector<double>> x = x_in;
  size_t n = x.size();
  double mean = 0.0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double v : y) var += (v - mean) * (v - mean);
  var /= static_cast<double>(n);
  double y_std = var > 1e-12 ? std::sqrt(var) : 1.0;

  // A fresh zero-filled buffer per call, as the old Fit allocated it.
  std::vector<double> k(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double v = NaiveGpKernel(x[i], x[j], opts);
      if (i == j) v += opts.noise_variance;
      k[i * n + j] = v;
      k[j * n + i] = v;
    }
  }
  for (size_t c = 0; c < n; ++c) {
    double diag = k[c * n + c];
    for (size_t r = 0; r < c; ++r) {
      double l = k[c * n + r];
      diag -= l * l;
    }
    if (diag <= 0.0) return false;
    k[c * n + c] = std::sqrt(diag);
    for (size_t r = c + 1; r < n; ++r) {
      double acc = k[r * n + c];
      for (size_t j = 0; j < c; ++j) acc -= k[r * n + j] * k[c * n + j];
      k[r * n + c] = acc / k[c * n + c];
    }
  }
  std::vector<double> z(n);
  for (size_t i = 0; i < n; ++i) {
    double acc = (y[i] - mean) / y_std;
    for (size_t j = 0; j < i; ++j) acc -= k[i * n + j] * z[j];
    z[i] = acc / k[i * n + i];
  }
  alpha->assign(n, 0.0);
  for (size_t ii = n; ii > 0; --ii) {
    size_t i = ii - 1;
    double acc = z[i];
    for (size_t j = i + 1; j < n; ++j) acc -= k[j * n + i] * (*alpha)[j];
    (*alpha)[i] = acc / k[i * n + i];
  }
  *chol = std::move(k);
  return true;
}

void BM_GpFitNaive(benchmark::State& state) {
  auto n = static_cast<size_t>(state.range(0));
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  FillGpInputs(n, &x, &y);
  tuning::GpOptions opts;
  std::vector<double> chol;
  std::vector<double> alpha;
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveGpFit(x, y, opts, &chol, &alpha));
    benchmark::DoNotOptimize(alpha.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GpFitNaive)->Arg(64)->Arg(256);

// Incremental HTTP/1.1 request parsing, the per-request cost of the serving
// front door. /0 is the keep-alive fast path (a metrics GET with a query
// string); /1 is a /query POST carrying a 4 KB comma-float body, dominated
// by body copy. Bytes/s is the headline number.
void BM_HttpParse(benchmark::State& state) {
  std::string wire;
  if (state.range(0) == 0) {
    wire =
        "GET /jobs/infer0/metrics?window=1&detail=full HTTP/1.1\r\n"
        "Host: 127.0.0.1:8080\r\n"
        "User-Agent: rafiki-loadgen/1\r\n"
        "Accept: */*\r\n"
        "Connection: keep-alive\r\n"
        "\r\n";
  } else {
    std::string body;
    while (body.size() < 4096) body += "0.125,";
    wire = net::SerializeRequest("POST", "/query?job=infer0",
                                 "127.0.0.1:8080", body,
                                 /*keep_alive=*/true);
  }
  net::HttpParser parser;
  for (auto _ : state) {
    parser.Reset();
    size_t consumed = parser.Feed(wire.data(), wire.size());
    benchmark::DoNotOptimize(consumed);
    if (!parser.done()) state.SkipWithError("parse did not complete");
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_HttpParse)->Arg(0)->Arg(1);

// The reactor's timer substrate at steady state: every iteration is one
// 1 ms tick crossing over a constant working set of `Arg` live timers
// (deadlines spread across wheel levels), plus one schedule/cancel pair —
// the idle-timeout re-arm pattern every HTTP connection now exercises.
// Fired timers are immediately replaced so the set never drains.
void BM_TimerWheel(benchmark::State& state) {
  const auto live = static_cast<size_t>(state.range(0));
  net::TimerWheel wheel;  // 1 ms ticks
  Rng rng(42);
  size_t fired = 0;
  auto count_fire = [&fired] { ++fired; };
  for (size_t i = 0; i < live; ++i) {
    wheel.Schedule(rng.Uniform(1e-3, 2.0), count_fire);
  }
  double now = 0.0;
  for (auto _ : state) {
    now += 1e-3;
    // The cancel-on-activity pattern: arm a deadline, activity cancels it.
    net::TimerId id = wheel.Schedule(1.0, count_fire);
    benchmark::DoNotOptimize(wheel.Cancel(id));
    fired = 0;
    wheel.Advance(now);
    for (size_t i = 0; i < fired; ++i) {
      wheel.Schedule(rng.Uniform(1e-3, 2.0), count_fire);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TimerWheel)->Arg(16)->Arg(1024);

void BM_HyperSpaceSample(benchmark::State& state) {
  tuning::HyperSpace space;
  (void)space.AddRangeKnob("lr", tuning::KnobDtype::kFloat, 1e-4, 1.0, true);
  (void)space.AddRangeKnob("mom", tuning::KnobDtype::kFloat, 0.0, 1.0);
  (void)space.AddCategoricalKnob("whiten", {"pca", "zca"});
  Rng rng(6);
  for (auto _ : state) {
    auto t = space.Sample(rng);
    benchmark::DoNotOptimize(t.ok());
  }
}
BENCHMARK(BM_HyperSpaceSample);

void BM_GreedyPolicyDecision(benchmark::State& state) {
  static const std::vector<int64_t> kBatches{16, 32, 48, 64};
  static const std::vector<model::ModelProfile> kModels{
      model::FindProfile("inception_v3").value()};
  serving::GreedyBatchPolicy policy(0);
  serving::ServingObs obs;
  obs.now = 100.0;
  obs.tau = 0.56;
  obs.batch_sizes = &kBatches;
  obs.models = &kModels;
  obs.queue_len = 40;
  obs.queue_waits = {0.5, 0.4, 0.3};
  obs.busy_remaining = {0.0};
  for (auto _ : state) {
    serving::ServingAction a = policy.Decide(obs);
    benchmark::DoNotOptimize(a.process);
  }
}
BENCHMARK(BM_GreedyPolicyDecision);

void BM_RlPolicyDecision(benchmark::State& state) {
  static const std::vector<int64_t> kBatches{16, 32, 48, 64};
  static const std::vector<model::ModelProfile> kModels{
      model::FindProfile("inception_v3").value(),
      model::FindProfile("inception_v4").value(),
      model::FindProfile("inception_resnet_v2").value()};
  static const auto& table = *new model::EnsembleAccuracyTable(
      kModels, model::PredictionSimOptions{}, 2000);
  serving::RlSchedulerOptions options;
  serving::RlSchedulerPolicy policy(3, kBatches, &table, options);
  serving::ServingObs obs;
  obs.now = 100.0;
  obs.tau = 0.56;
  obs.batch_sizes = &kBatches;
  obs.models = &kModels;
  obs.queue_len = 40;
  obs.queue_waits = {0.5, 0.4, 0.3};
  obs.busy_remaining = {0.0, 0.0, 0.0};
  for (auto _ : state) {
    serving::ServingAction a = policy.Decide(obs);
    benchmark::DoNotOptimize(a.process);
  }
}
BENCHMARK(BM_RlPolicyDecision);

// Pure transport cost: a null handler that echoes the request body back,
// driven closed-loop over N keep-alive connections. No gateway, no
// inference — the req/s ceiling of the HTTP data plane itself (parse,
// dispatch, serialize, flush). Arg is the connection count.
void BM_HttpEcho(benchmark::State& state) {
  int connections = static_cast<int>(state.range(0));
  net::HttpServerOptions opts;
  // One worker: the echo path is run-to-completion, so a second event loop
  // only adds scheduler churn when cores are scarce.
  opts.num_workers = 1;
  opts.max_inflight = 1024;
  net::HttpServer server(
      [](const net::HttpRequest& request, net::HttpServer::ResponseWriter writer) {
        // Fill the pooled slot in place: the allocation-free fast path.
        net::HttpResponse& resp = writer.response();
        resp.body.assign(request.body);
        writer.Complete(resp);
      },
      opts);
  if (!server.Start().ok()) {
    state.SkipWithError("server start failed");
    return;
  }
  net::LoadGenOptions load;
  load.port = server.port();
  load.method = "POST";
  load.target = "/echo";
  load.body = "0,1,0,0,0,1,0,0";
  load.open_loop = false;
  load.connections = connections;
  // Eight requests in flight per connection: both sides coalesce several
  // messages per syscall and per TCP segment, so the bench measures the
  // transport's parse/serialize/flush throughput rather than the loopback
  // round-trip floor (which caps depth-1 closed loop at ~245k req/s on a
  // single core regardless of server efficiency).
  load.pipeline = 8;
  load.duration_seconds = 1.0;
  load.tau = 10.0;
  double rps = 0.0;
  int64_t errors = 0;
  int64_t completed = 0;
  for (auto _ : state) {
    net::LoadGenReport report = net::RunLoadGen(load);
    rps += report.achieved_rps;
    errors += report.errors;
    completed += report.completed;
  }
  server.Stop();
  if (errors > 0) state.SkipWithError("loadgen saw transport errors");
  state.SetItemsProcessed(completed);
  state.counters["rps"] = rps / static_cast<double>(state.iterations());
}
BENCHMARK(BM_HttpEcho)
    ->Arg(1)
    ->Arg(64)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Closed-loop serving over real TCP: 256 keep-alive connections each
// re-issue a /jobs/<id>/query POST the moment the previous answer lands,
// against the async gateway handler on two event loops, backed by a
// checkpoint MLP. The handler parks the ResponseWriter, so every connection
// is in flight at once and the policy, not the loops, forms the batches.
// Counters: rps (completed requests/s), inflight_peak (server gauge),
// mean_batch (runtime metric).
constexpr int kServeConnections = 256;

void RunServeClosedLoop(benchmark::State& state, bool rl_policy,
                        int replicas) {
  // Isolation settle (setup, not timed): the previous serving bench
  // abandons up to 256 client sockets at its hard stop and the server
  // drains responses into them for a while after; on a 1-core host that
  // kernel-side teardown (RSTs, orphan reaping) overlaps the next bench's
  // 256-SYN connect burst and silently halves its established
  // connections. A short pause lets the stack quiesce so each bench
  // measures the server, not its predecessor's corpse.
  std::this_thread::sleep_for(std::chrono::milliseconds(2500));

  api::Rafiki service;
  ps::ModelCheckpoint ckpt;
  Tensor weight({4, 3});
  for (int64_t i = 0; i < 3; ++i) weight.at2(i, i) = 1.0f;
  ckpt.params.emplace_back("fc0/weight", weight);
  ckpt.params.emplace_back("fc0/bias", Tensor({1, 3}));
  ckpt.meta.accuracy = 0.9;
  if (!service.parameter_server().PutModel("study/bench/best", ckpt).ok()) {
    state.SkipWithError("PutModel failed");
    return;
  }
  api::ModelHandle handle;
  handle.scope = "study/bench/best";
  handle.model_name = "mlp";
  handle.accuracy = 0.9;
  serving::RuntimeOptions runtime_opts;
  if (rl_policy) {
    runtime_opts.policy_factory = serving::MakeRlSchedulerFactory();
  }
  runtime_opts.replicas = replicas;
  auto deployed = service.Deploy({handle}, runtime_opts);
  if (!deployed.ok()) {
    state.SkipWithError("Deploy failed");
    return;
  }

  api::Gateway gateway(&service);
  net::HttpServerOptions opts;
  opts.num_workers = 2;
  opts.max_inflight = 1024;
  // All 256 connections SYN at once; the default backlog of 128 drops half
  // the handshakes whenever the acceptor is briefly starved, and the
  // 1s-later SYN retransmit lands outside the measurement window.
  opts.listen_backlog = 1024;
  net::HttpServer server(api::MakeGatewayAsyncHttpHandler(&gateway), opts);
  if (!server.Start().ok()) {
    state.SkipWithError("server start failed");
    return;
  }

  net::LoadGenOptions load;
  load.port = server.port();
  load.method = "POST";
  load.target = "/jobs/" + *deployed + "/query";
  load.body = "0,1,0,0";
  load.open_loop = false;
  load.connections = kServeConnections;
  load.duration_seconds = 1.0;
  load.tau = 10.0;  // throughput benchmark: the SLO gauge is not the point
  double rps = 0.0;
  int64_t errors = 0;
  for (auto _ : state) {
    net::LoadGenReport report = net::RunLoadGen(load);
    rps += report.achieved_rps;
    errors += report.errors;
    benchmark::DoNotOptimize(report.completed);
  }
  server.Stop();
  if (errors > 0) state.SkipWithError("loadgen saw transport errors");

  auto metrics = service.InferenceMetrics(*deployed);
  net::HttpServerStats stats = server.stats();
  state.counters["rps"] = rps / static_cast<double>(state.iterations());
  state.counters["inflight_peak"] = static_cast<double>(stats.inflight_peak);
  state.counters["mean_batch"] = metrics.ok() ? metrics->mean_batch : 0.0;
  state.counters["replicas"] =
      metrics.ok() ? static_cast<double>(metrics->replicas) : 0.0;
}

void BM_ServeClosedLoopRl(benchmark::State& state) {
  RunServeClosedLoop(state, /*rl_policy=*/true, /*replicas=*/1);
}
// Same path as Replicas/1 but dispatched by the actor-critic scheduler
// learning online — the delta against BM_ServeClosedLoopReplicas/1 is the
// end-to-end cost of Featurize + policy forward + Record per batch.
BENCHMARK(BM_ServeClosedLoopRl)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ServeClosedLoopReplicas(benchmark::State& state) {
  RunServeClosedLoop(state, /*rl_policy=*/false,
                     /*replicas=*/static_cast<int>(state.range(0)));
}
// Arg is the replica-dispatcher count of the deployed job (static, no
// autoscale) under the greedy policy, so the deltas isolate the replicated
// serving plane — dispatchers sharing the job's queue, per-replica net
// clones. On a multicore host req/s scales with replicas; on a 1-core
// runner real-time stays flat and the replication cost/benefit shows up in
// cpu_time and mean_batch instead.
BENCHMARK(BM_ServeClosedLoopReplicas)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_EnsembleVote(benchmark::State& state) {
  std::vector<model::ModelProfile> models{
      model::FindProfile("inception_v3").value(),
      model::FindProfile("inception_v4").value(),
      model::FindProfile("inception_resnet_v2").value(),
      model::FindProfile("resnet_v2_101").value()};
  model::PredictionSimulator sim(models, model::PredictionSimOptions{});
  for (auto _ : state) {
    double acc = sim.EnsembleAccuracy(0b1111, 64);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_EnsembleVote);

}  // namespace
}  // namespace rafiki

// BENCHMARK_MAIN plus the GEMM path in the JSON context, so
// scripts/compare_benches.py can tell runs on different paths apart.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext(
      "gemm_path", rafiki::kernels::GemmPathName(
                       rafiki::kernels::DispatchedGemmPath()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
