// Parity tests for the blocked GEMM kernels against a straightforward
// triple-loop reference, across rectangular, degenerate, non-power-of-two
// and serving shapes, plus bit-stability across thread counts and the
// im2col/col2im pair. The GEMM cases run on every path this CPU can run
// (portable always, AVX2+FMA when CPUID reports it), not only the one
// dispatch picks.

#include "tensor/kernels.h"

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/tensor.h"

namespace rafiki {
namespace {

using kernels::GemmOp;
using kernels::GemmPath;

/// Reference GEMM with double accumulation; `a` and `b` are stored exactly
/// as the kernels expect for each variant (TN: a is [k,m]; NT: b is [n,k]).
std::vector<float> ReferenceGemm(GemmOp op, const std::vector<float>& a,
                                 const std::vector<float>& b, int64_t m,
                                 int64_t k, int64_t n) {
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (int64_t l = 0; l < k; ++l) {
        float av = op == GemmOp::kTN ? a[static_cast<size_t>(l * m + i)]
                                     : a[static_cast<size_t>(i * k + l)];
        float bv = op == GemmOp::kNT ? b[static_cast<size_t>(j * k + l)]
                                     : b[static_cast<size_t>(l * n + j)];
        s += static_cast<double>(av) * bv;
      }
      c[static_cast<size_t>(i * n + j)] = static_cast<float>(s);
    }
  }
  return c;
}

std::vector<float> RandomVec(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Gaussian(0.0, 1.0));
  return v;
}

class GemmParityTest
    : public ::testing::TestWithParam<std::tuple<GemmPath, GemmOp>> {
 protected:
  void SetUp() override {
    if (!kernels::GemmPathRunnable(path()))
      GTEST_SKIP() << "this CPU cannot run the "
                   << kernels::GemmPathName(path()) << " path";
  }
  GemmPath path() const { return std::get<0>(GetParam()); }
  GemmOp op() const { return std::get<1>(GetParam()); }
  void RunGemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
               int64_t n, ThreadPool* pool = nullptr) const {
    kernels::GemmOnPathForTesting(path(), op(), a, b, c, m, k, n, pool);
  }
};

TEST_P(GemmParityTest, MatchesReferenceAcrossShapes) {
  struct ShapeCase {
    int64_t m, k, n;
  };
  const ShapeCase cases[] = {
      {1, 1, 1},    {1, 7, 1},   {1, 7, 5},    {5, 3, 1},
      {17, 23, 5},  {33, 29, 31}, {64, 64, 64}, {31, 127, 65},
      {2, 300, 3},  {96, 64, 96},
      // The serving ensemble's widest layer at full and single-row batch.
      {32, 256, 2048}, {1, 256, 2048},
  };
  Rng rng(42);
  for (const ShapeCase& s : cases) {
    auto a = RandomVec(static_cast<size_t>(s.m * s.k), rng);
    auto b = RandomVec(static_cast<size_t>(s.k * s.n), rng);
    std::vector<float> c(static_cast<size_t>(s.m * s.n), 0.0f);
    RunGemm(a.data(), b.data(), c.data(), s.m, s.k, s.n);
    auto ref = ReferenceGemm(op(), a, b, s.m, s.k, s.n);
    float max_err = 0.0f;
    for (size_t i = 0; i < c.size(); ++i)
      max_err = std::max(max_err, std::fabs(c[i] - ref[i]));
    EXPECT_LE(max_err, 1e-4f) << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST_P(GemmParityTest, AccumulatesIntoExistingC) {
  Rng rng(7);
  int64_t m = 9, k = 11, n = 13;
  auto a = RandomVec(static_cast<size_t>(m * k), rng);
  auto b = RandomVec(static_cast<size_t>(k * n), rng);
  std::vector<float> c(static_cast<size_t>(m * n), 2.5f);
  RunGemm(a.data(), b.data(), c.data(), m, k, n);
  auto ref = ReferenceGemm(op(), a, b, m, k, n);
  for (size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], ref[i] + 2.5f, 1e-4f);
}

TEST_P(GemmParityTest, BitStableAcrossThreadCounts) {
  // Big enough to clear kGemmParallelMinFlops, so the pool really splits it.
  int64_t m = 96, k = 64, n = 96;
  ASSERT_GE(2 * m * k * n, kernels::kGemmParallelMinFlops);
  Rng rng(3);
  auto a = RandomVec(static_cast<size_t>(m * k), rng);
  auto b = RandomVec(static_cast<size_t>(k * n), rng);
  ThreadPool serial(1);
  ThreadPool wide(4);
  std::vector<float> c1(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> c4(static_cast<size_t>(m * n), 0.0f);
  RunGemm(a.data(), b.data(), c1.data(), m, k, n, &serial);
  RunGemm(a.data(), b.data(), c4.data(), m, k, n, &wide);
  EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(float)));
}

const char* OpName(GemmOp op) {
  switch (op) {
    case GemmOp::kNN: return "NN";
    case GemmOp::kTN: return "TN";
    case GemmOp::kNT: return "NT";
  }
  return "unknown";
}

INSTANTIATE_TEST_SUITE_P(
    AllPathsAndVariants, GemmParityTest,
    ::testing::Combine(::testing::Values(GemmPath::kPortable,
                                         GemmPath::kAvx2Fma),
                       ::testing::Values(GemmOp::kNN, GemmOp::kTN,
                                         GemmOp::kNT)),
    [](const ::testing::TestParamInfo<std::tuple<GemmPath, GemmOp>>& info) {
      bool avx = std::get<0>(info.param) == GemmPath::kAvx2Fma;
      return std::string(avx ? "Avx2Fma_" : "Portable_") +
             OpName(std::get<1>(info.param));
    });

TEST(GemmDispatchTest, PicksAvx2FmaExactlyWhenTheCpuHasIt) {
  EXPECT_TRUE(kernels::GemmPathRunnable(GemmPath::kPortable));
  GemmPath want = kernels::GemmPathRunnable(GemmPath::kAvx2Fma)
                      ? GemmPath::kAvx2Fma
                      : GemmPath::kPortable;
  EXPECT_EQ(kernels::DispatchedGemmPath(), want);
}

TEST(GemmDispatchTest, PublicVariantsRunTheDispatchedPath) {
  int64_t m = 17, k = 23, n = 40;
  Rng rng(9);
  auto a = RandomVec(static_cast<size_t>(m * k), rng);
  auto b = RandomVec(static_cast<size_t>(k * n), rng);
  using GemmFn = void (*)(const float*, const float*, float*, int64_t,
                          int64_t, int64_t, ThreadPool*);
  const std::pair<GemmOp, GemmFn> variants[] = {{GemmOp::kNN, kernels::GemmNN},
                                                {GemmOp::kTN, kernels::GemmTN},
                                                {GemmOp::kNT, kernels::GemmNT}};
  for (const auto& [op, gemm] : variants) {
    std::vector<float> got(static_cast<size_t>(m * n), 0.0f);
    std::vector<float> want(got.size(), 0.0f);
    gemm(a.data(), b.data(), got.data(), m, k, n, nullptr);
    kernels::GemmOnPathForTesting(kernels::DispatchedGemmPath(), op, a.data(),
                                  b.data(), want.data(), m, k, n);
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(float)))
        << OpName(op);
  }
}

TEST(TensorMatMulTest, PublicApiUsesKernels) {
  Rng rng(11);
  Tensor a = Tensor::Randn({33, 29}, rng);
  Tensor b = Tensor::Randn({29, 31}, rng);
  Tensor c = MatMul(a, b);
  std::vector<float> av(a.data(), a.data() + a.numel());
  std::vector<float> bv(b.data(), b.data() + b.numel());
  auto ref = ReferenceGemm(GemmOp::kNN, av, bv, 33, 29, 31);
  for (int64_t i = 0; i < c.numel(); ++i)
    EXPECT_NEAR(c.at(i), ref[static_cast<size_t>(i)], 1e-4f);
}

TEST(Im2ColTest, RoundTripAdjointOfCol2Im) {
  // <Col2Im(col), x> == <col, Im2Col(x)> for random col and x: the pair is
  // a true adjoint, which is exactly what backward-pass correctness needs.
  int64_t c = 3, h = 6, w = 5, kernel = 3, pad = 1;
  int64_t oh = h + 2 * pad - kernel + 1, ow = w + 2 * pad - kernel + 1;
  int64_t col_elems = c * kernel * kernel * oh * ow;
  Rng rng(5);
  std::vector<float> x(static_cast<size_t>(c * h * w));
  std::vector<float> col_rand(static_cast<size_t>(col_elems));
  for (float& v : x) v = static_cast<float>(rng.Gaussian(0.0, 1.0));
  for (float& v : col_rand) v = static_cast<float>(rng.Gaussian(0.0, 1.0));

  std::vector<float> col_x(static_cast<size_t>(col_elems), 0.0f);
  kernels::Im2Col(x.data(), c, h, w, kernel, pad, col_x.data());
  std::vector<float> img(static_cast<size_t>(c * h * w), 0.0f);
  kernels::Col2Im(col_rand.data(), c, h, w, kernel, pad, img.data());

  double lhs = 0.0, rhs = 0.0;
  for (size_t i = 0; i < img.size(); ++i)
    lhs += static_cast<double>(img[i]) * x[i];
  for (size_t i = 0; i < col_x.size(); ++i)
    rhs += static_cast<double>(col_rand[i]) * col_x[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2ColTest, UnpaddedColumnsMatchDirectIndexing) {
  int64_t c = 2, h = 4, w = 4, kernel = 2, pad = 0;
  int64_t oh = 3, ow = 3;
  std::vector<float> x(static_cast<size_t>(c * h * w));
  for (size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i);
  std::vector<float> col(static_cast<size_t>(c * kernel * kernel * oh * ow));
  kernels::Im2Col(x.data(), c, h, w, kernel, pad, col.data());
  for (int64_t ci = 0; ci < c; ++ci) {
    for (int64_t ky = 0; ky < kernel; ++ky) {
      for (int64_t kx = 0; kx < kernel; ++kx) {
        for (int64_t y = 0; y < oh; ++y) {
          for (int64_t xx = 0; xx < ow; ++xx) {
            int64_t row = (ci * kernel + ky) * kernel + kx;
            float got = col[static_cast<size_t>(row * oh * ow + y * ow + xx)];
            float want =
                x[static_cast<size_t>((ci * h + y + ky) * w + xx + kx)];
            EXPECT_EQ(got, want);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace rafiki
