// Proves the tentpole zero-allocation property of the training hot path:
// once a Net's workspace and layer caches are reserved (or warmed by one
// step), a steady-state ZeroGrad -> Forward -> loss -> Backward -> Sgd::Step
// cycle performs no heap allocations at all.
//
// The proof is a global operator new/delete hook that counts allocations
// while a flag is armed. The workload is deliberately sized below the GEMM
// and SGD parallel thresholds (kGemmParallelMinFlops / kParallelMinElems):
// the thread-pool path allocates task closures by design, so the
// zero-allocation contract is about the serial per-step fast path every
// shard and replica runs on.

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "gtest/gtest.h"
#include "nn/loss.h"
#include "nn/net.h"
#include "nn/sgd.h"
#include "tensor/kernels.h"

namespace {

std::atomic<long> g_allocs{0};
std::atomic<bool> g_armed{false};

void CountAlloc() {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void* operator new(std::size_t size) {
  CountAlloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  CountAlloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rafiki::nn {
namespace {

TEST(TrainStepAllocTest, SteadyStateStepIsAllocationFree) {
  const int64_t kBatch = 32, kIn = 32, kHidden = 64, kClasses = 10;
  // Stay below the parallel cutoffs so every kernel takes its serial path.
  ASSERT_LT(2 * kBatch * kIn * kHidden, kernels::kGemmParallelMinFlops);
  ASSERT_LT(kIn * kHidden, Sgd::kParallelMinElems);

  Tensor x({kBatch, kIn});
  std::vector<int64_t> labels(kBatch);
  for (int64_t i = 0; i < kBatch; ++i) {
    x.data()[i * kIn + i % kIn] = 1.0f;
    labels[static_cast<size_t>(i)] = i % kClasses;
  }

  // 0.25: tuning trials train with dropout, so the mask path counts too.
  for (float dropout : {0.0f, 0.25f}) {
    SCOPED_TRACE(dropout);
    Rng rng(17);
    Net net = MakeMlp({kIn, kHidden, kClasses}, 0.05f, dropout, rng);
    Workspace ws;
    net.Reserve({kBatch, kIn}, &ws);

    Sgd sgd(SgdOptions{});
    LossResult loss;
    auto step = [&] {
      net.ZeroGrad();
      const Tensor& logits = net.Forward(x, /*train=*/true, &ws);
      SoftmaxCrossEntropyInto(logits, labels, &loss);
      net.Backward(loss.grad, &ws);
      sgd.Step(net.ParamList());
    };

    // Warm up: sizes the loss buffer, SGD velocities, and the GEMM kernels'
    // thread-local pack buffers.
    for (int i = 0; i < 3; ++i) step();

    g_allocs.store(0);
    g_armed.store(true);
    for (int i = 0; i < 50; ++i) step();
    g_armed.store(false);

    EXPECT_EQ(g_allocs.load(), 0)
        << "steady-state Forward+Backward+Step must not touch the heap";
    EXPECT_GT(loss.loss, 0.0f);  // the steps really computed something
  }
}

TEST(TrainStepAllocTest, ReserveMakesFirstStepAllocationFree) {
  // Reserve alone (no warm-up pass) must already cover the forward/backward
  // buffers; only optimizer state (first Step) is exempt, so warm it with
  // one Step on zero grads.
  const int64_t kBatch = 16, kIn = 8, kHidden = 12, kClasses = 4;
  Tensor x({kBatch, kIn});
  std::vector<int64_t> labels(kBatch, 1);
  LossResult loss;
  loss.grad.EnsureShape2(kBatch, kClasses);

  // Warm process-level caches (GEMM thread-local pack buffers) with a
  // sacrificial net of the same architecture; per-net buffers of the net
  // under test must be covered by Reserve alone.
  {
    Rng wrng(9);
    Net warm = MakeMlp({kIn, kHidden, kClasses}, 0.05f, 0.0f, wrng);
    Workspace wws;
    warm.Reserve({kBatch, kIn}, &wws);
    warm.ZeroGrad();
    warm.Backward(warm.Forward(x, true, &wws), &wws);
  }

  Rng rng(3);
  Net net = MakeMlp({kIn, kHidden, kClasses}, 0.05f, 0.0f, rng);
  Workspace ws;
  net.Reserve({kBatch, kIn}, &ws);
  net.ZeroGrad();
  Sgd sgd(SgdOptions{});
  sgd.Step(net.ParamList());

  g_allocs.store(0);
  g_armed.store(true);
  net.ZeroGrad();
  const Tensor& logits = net.Forward(x, /*train=*/true, &ws);
  SoftmaxCrossEntropyInto(logits, labels, &loss);
  net.Backward(loss.grad, &ws);
  sgd.Step(net.ParamList());
  g_armed.store(false);

  EXPECT_EQ(g_allocs.load(), 0)
      << "Reserve must pre-size every buffer the first step needs";
}

}  // namespace
}  // namespace rafiki::nn
