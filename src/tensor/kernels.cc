#include "tensor/kernels.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/thread_pool.h"

namespace rafiki::kernels {
namespace {

// Blocking parameters, shared by both GEMM paths and chosen empirically on
// this repo's reference hardware. Under baseline x86-64 (SSE2) codegen the
// short-and-wide 2 x 32 register tile auto-vectorizes to eight 128-bit
// accumulator strips per row and beat squarer tiles (4x8, 4x16, 6x8) by
// 1.3-6x in a sweep; under AVX2+FMA it is four 256-bit FMA strips per row,
// and no other tile won across the serving and training shapes (DESIGN.md
// section 8). The packed B micro-panel (kKc x kNr floats = 32 KB) stays
// L1/L2-hot across a row sweep; the packed A panel (<= kMc x kKc floats =
// 128 KB) stays in L2.
constexpr int64_t kMr = 2;
constexpr int64_t kNr = 32;
constexpr int64_t kKc = 256;
constexpr int64_t kMc = 128;

// PackA, PackB, MicroKernel and GemmChunk are written once and forced inline
// into each path's entry point below, so every path compiles its own copy of
// the whole body for its own ISA.

/// Packs an mr x kc block of A (general strides) into an interleaved panel:
/// buf[l * kMr + i] = A(row0 + i, col0 + l). Rows beyond mr are
/// zero-padded so the micro-kernel always runs the full kMr height.
[[gnu::always_inline]] inline void PackA(const float* a, int64_t row_stride,
                                         int64_t col_stride, int64_t row0,
                                         int64_t mr, int64_t col0, int64_t kc,
                                         float* buf) {
  for (int64_t l = 0; l < kc; ++l) {
    const float* src = a + (col0 + l) * col_stride + row0 * row_stride;
    float* dst = buf + l * kMr;
    int64_t i = 0;
    for (; i < mr; ++i) dst[i] = src[i * row_stride];
    for (; i < kMr; ++i) dst[i] = 0.0f;
  }
}

/// Packs a kc x nr block of B (general strides) into an interleaved panel:
/// buf[l * kNr + j] = B(row0 + l, col0 + j), zero-padded to the full kNr
/// width.
[[gnu::always_inline]] inline void PackB(const float* b, int64_t row_stride,
                                         int64_t col_stride, int64_t row0,
                                         int64_t kc, int64_t col0, int64_t nr,
                                         float* buf) {
  for (int64_t l = 0; l < kc; ++l) {
    const float* src = b + (row0 + l) * row_stride + col0 * col_stride;
    float* dst = buf + l * kNr;
    int64_t j = 0;
    for (; j < nr; ++j) dst[j] = src[j * col_stride];
    for (; j < kNr; ++j) dst[j] = 0.0f;
  }
}

/// kMr x kNr register-tiled micro-kernel: accumulates a_panel * b_panel over
/// kc depth steps and adds the tile into C. Both panels are contiguous and
/// interleaved, so every inner loop is unit-stride and auto-vectorizes.
[[gnu::always_inline]] inline void MicroKernel(const float* a_panel,
                                               const float* b_panel, int64_t kc,
                                               float* c, int64_t ldc,
                                               int64_t mr, int64_t nr) {
  float acc[kMr][kNr] = {};
  for (int64_t l = 0; l < kc; ++l) {
    const float* bp = b_panel + l * kNr;
    const float* ap = a_panel + l * kMr;
    for (int64_t i = 0; i < kMr; ++i) {
      float av = ap[i];
      for (int64_t j = 0; j < kNr; ++j) acc[i][j] += av * bp[j];
    }
  }
  for (int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    for (int64_t j = 0; j < nr; ++j) crow[j] += acc[i][j];
  }
}

/// Computes C[rows row_begin..row_end) += A * B with general element strides
/// for A and B (which is how the transpose variants are expressed). Each C
/// element is accumulated in ascending-k order independent of the row
/// partition, so the result is bit-identical for any thread count.
[[gnu::always_inline]] inline void GemmChunk(
    const float* a, int64_t a_rs, int64_t a_cs, const float* b, int64_t b_rs,
    int64_t b_cs, float* c, int64_t row_begin, int64_t row_end, int64_t k,
    int64_t n) {
  // Reused packing scratch: grows once per thread to the blocking maximum
  // and is fully overwritten by PackA/PackB before each use, so small GEMMs
  // (one Linear step in a tuning trial) pay no allocation or zero-fill.
  thread_local std::vector<float> a_buf;
  thread_local std::vector<float> b_buf;
  int64_t kc_max = std::min(kKc, k);
  int64_t mc_max = std::min(kMc, row_end - row_begin);
  int64_t a_tiles = (mc_max + kMr - 1) / kMr;
  a_buf.resize(static_cast<size_t>(a_tiles * kMr * kc_max));
  b_buf.resize(static_cast<size_t>(kc_max * kNr));
  for (int64_t l0 = 0; l0 < k; l0 += kKc) {
    int64_t kc = std::min(kKc, k - l0);
    for (int64_t i0 = row_begin; i0 < row_end; i0 += kMc) {
      int64_t mc = std::min(kMc, row_end - i0);
      for (int64_t it = 0; it < mc; it += kMr) {
        int64_t mr = std::min(kMr, mc - it);
        PackA(a, a_rs, a_cs, i0 + it, mr, l0, kc,
              a_buf.data() + (it / kMr) * kMr * kc);
      }
      for (int64_t j0 = 0; j0 < n; j0 += kNr) {
        int64_t nr = std::min(kNr, n - j0);
        PackB(b, b_rs, b_cs, l0, kc, j0, nr, b_buf.data());
        for (int64_t it = 0; it < mc; it += kMr) {
          int64_t mr = std::min(kMr, mc - it);
          MicroKernel(a_buf.data() + (it / kMr) * kMr * kc, b_buf.data(), kc,
                      c + (i0 + it) * n + j0, n, mr, nr);
        }
      }
    }
  }
}

// The paths' entry points: each is GemmChunk compiled for its ISA.
void GemmChunkPortable(const float* a, int64_t a_rs, int64_t a_cs,
                       const float* b, int64_t b_rs, int64_t b_cs, float* c,
                       int64_t row_begin, int64_t row_end, int64_t k,
                       int64_t n) {
  GemmChunk(a, a_rs, a_cs, b, b_rs, b_cs, c, row_begin, row_end, k, n);
}

// Not target_clones/ifunc: with GCC 12 a target_clones binary built with
// -fsanitize=thread segfaults at start-up, while this explicit pick runs
// clean under every sanitizer.
#if defined(__x86_64__)
[[gnu::target("avx2,fma")]] void GemmChunkAvx2Fma(
    const float* a, int64_t a_rs, int64_t a_cs, const float* b, int64_t b_rs,
    int64_t b_cs, float* c, int64_t row_begin, int64_t row_end, int64_t k,
    int64_t n) {
  GemmChunk(a, a_rs, a_cs, b, b_rs, b_cs, c, row_begin, row_end, k, n);
}
#endif

void GemmDriver(GemmPath path, const float* a, int64_t a_rs, int64_t a_cs,
                const float* b, int64_t b_rs, int64_t b_cs, float* c,
                int64_t m, int64_t k, int64_t n, ThreadPool* pool) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  auto* chunk = &GemmChunkPortable;
#if defined(__x86_64__)
  if (path == GemmPath::kAvx2Fma) chunk = &GemmChunkAvx2Fma;
#endif
  int64_t flops = 2 * m * k * n;
  if (pool == nullptr) pool = &ThreadPool::Global();
  if (flops < kGemmParallelMinFlops || pool->num_threads() <= 1) {
    chunk(a, a_rs, a_cs, b, b_rs, b_cs, c, 0, m, k, n);
    return;
  }
  // Row-block parallelism: every thread owns a contiguous slice of C rows.
  // Grain keeps chunks at least one register tile tall.
  int64_t grain = std::max<int64_t>(
      kMr, (m + pool->num_threads() - 1) / pool->num_threads());
  pool->ParallelFor(0, m, grain,
                    [&](int64_t row_begin, int64_t row_end) {
                      chunk(a, a_rs, a_cs, b, b_rs, b_cs, c, row_begin,
                            row_end, k, n);
                    });
}

void Gemm(GemmPath path, GemmOp op, const float* a, const float* b, float* c,
          int64_t m, int64_t k, int64_t n, ThreadPool* pool) {
  switch (op) {
    case GemmOp::kNN:
      GemmDriver(path, a, /*a_rs=*/k, /*a_cs=*/1, b, /*b_rs=*/n, /*b_cs=*/1,
                 c, m, k, n, pool);
      return;
    case GemmOp::kTN:
      // A is stored [k, m]; element (i, l) of the logical A^T is a[l * m + i].
      GemmDriver(path, a, /*a_rs=*/1, /*a_cs=*/m, b, /*b_rs=*/n, /*b_cs=*/1,
                 c, m, k, n, pool);
      return;
    case GemmOp::kNT:
      // B is stored [n, k]; element (l, j) of the logical B^T is b[j * k + l].
      GemmDriver(path, a, /*a_rs=*/k, /*a_cs=*/1, b, /*b_rs=*/1, /*b_cs=*/k,
                 c, m, k, n, pool);
      return;
  }
}

}  // namespace

bool GemmPathRunnable(GemmPath path) {
  if (path == GemmPath::kPortable) return true;
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

GemmPath DispatchedGemmPath() {
  static const GemmPath path = GemmPathRunnable(GemmPath::kAvx2Fma)
                                   ? GemmPath::kAvx2Fma
                                   : GemmPath::kPortable;
  return path;
}

const char* GemmPathName(GemmPath path) {
  return path == GemmPath::kAvx2Fma ? "avx2+fma" : "portable";
}

void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, ThreadPool* pool) {
  Gemm(DispatchedGemmPath(), GemmOp::kNN, a, b, c, m, k, n, pool);
}

void GemmTN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, ThreadPool* pool) {
  Gemm(DispatchedGemmPath(), GemmOp::kTN, a, b, c, m, k, n, pool);
}

void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, ThreadPool* pool) {
  Gemm(DispatchedGemmPath(), GemmOp::kNT, a, b, c, m, k, n, pool);
}

void GemmOnPathForTesting(GemmPath path, GemmOp op, const float* a,
                          const float* b, float* c, int64_t m, int64_t k,
                          int64_t n, ThreadPool* pool) {
  Gemm(path, op, a, b, c, m, k, n, pool);
}

void Im2Col(const float* src, int64_t channels, int64_t height, int64_t width,
            int64_t kernel, int64_t pad, float* col) {
  int64_t out_h = height + 2 * pad - kernel + 1;
  int64_t out_w = width + 2 * pad - kernel + 1;
  float* out = col;
  for (int64_t c = 0; c < channels; ++c) {
    const float* plane = src + c * height * width;
    for (int64_t ky = 0; ky < kernel; ++ky) {
      for (int64_t kx = 0; kx < kernel; ++kx) {
        // Output x reads input x + kx - pad; the in-bounds run is
        // [x_lo, x_hi) and everything outside is zero padding.
        int64_t x_lo = std::max<int64_t>(0, pad - kx);
        int64_t x_hi = std::min(out_w, width + pad - kx);
        for (int64_t y = 0; y < out_h; ++y, out += out_w) {
          int64_t iy = y + ky - pad;
          if (iy < 0 || iy >= height || x_lo >= x_hi) {
            std::memset(out, 0, static_cast<size_t>(out_w) * sizeof(float));
            continue;
          }
          if (x_lo > 0)
            std::memset(out, 0, static_cast<size_t>(x_lo) * sizeof(float));
          std::memcpy(out + x_lo, plane + iy * width + (x_lo + kx - pad),
                      static_cast<size_t>(x_hi - x_lo) * sizeof(float));
          if (x_hi < out_w)
            std::memset(out + x_hi, 0,
                        static_cast<size_t>(out_w - x_hi) * sizeof(float));
        }
      }
    }
  }
}

void Col2Im(const float* col, int64_t channels, int64_t height, int64_t width,
            int64_t kernel, int64_t pad, float* dst) {
  int64_t out_h = height + 2 * pad - kernel + 1;
  int64_t out_w = width + 2 * pad - kernel + 1;
  const float* in = col;
  for (int64_t c = 0; c < channels; ++c) {
    float* plane = dst + c * height * width;
    for (int64_t ky = 0; ky < kernel; ++ky) {
      for (int64_t kx = 0; kx < kernel; ++kx) {
        int64_t x_lo = std::max<int64_t>(0, pad - kx);
        int64_t x_hi = std::min(out_w, width + pad - kx);
        for (int64_t y = 0; y < out_h; ++y, in += out_w) {
          int64_t iy = y + ky - pad;
          if (iy < 0 || iy >= height || x_lo >= x_hi) continue;
          float* row = plane + iy * width + (x_lo + kx - pad);
          const float* src_row = in + x_lo;
          int64_t len = x_hi - x_lo;
          for (int64_t x = 0; x < len; ++x) row[x] += src_row[x];
        }
      }
    }
  }
}

}  // namespace rafiki::kernels
