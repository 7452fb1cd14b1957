#ifndef RAFIKI_TENSOR_KERNELS_H_
#define RAFIKI_TENSOR_KERNELS_H_

#include <cstdint>

namespace rafiki {

class ThreadPool;

/// Raw single-precision compute kernels behind `Tensor`'s public GEMM API
/// and the `nn::Conv2D` im2col path. All matrices are dense row-major.
///
/// The GEMM kernels are cache-blocked and register-tiled: A and B panels are
/// packed into contiguous interleaved buffers sized for L1/L2, and an
/// MR x NR micro-kernel accumulates into registers with unit-stride inner
/// loops the compiler auto-vectorizes. Work is split across the thread pool
/// by row blocks of C; each output element is produced by exactly one chunk
/// with a fixed k-accumulation order, so results are bit-identical for any
/// thread count (including the serial small-problem fallback) and for any
/// number of other rows in the same call.
namespace kernels {

/// The builds of the GEMM packing and micro-kernel code. `kPortable` is
/// compiled for the target's baseline ISA (SSE2 on x86-64); `kAvx2Fma` is
/// the same source compiled for AVX2+FMA and exists on x86-64 only. The two
/// agree to rounding, not bit for bit: FMA rounds once per multiply-add.
enum class GemmPath { kPortable, kAvx2Fma };

/// Whether this build and CPU can run `path` (CPUID for `kAvx2Fma`).
bool GemmPathRunnable(GemmPath path);

/// The path every GEMM below runs on: AVX2+FMA when the CPU has both, else
/// portable. Picked by CPUID at the first call and fixed for the process;
/// no build option or setting selects it.
GemmPath DispatchedGemmPath();

/// "portable" or "avx2+fma".
const char* GemmPathName(GemmPath path);

/// All three GEMM variants *accumulate*: C[m,n] += A·B. Pass a
/// zero-initialized C for a plain product; pass an existing gradient buffer
/// to fuse the accumulation (as `nn::Conv2D::Backward` does). `pool`
/// defaults to `ThreadPool::Global()`; problems below
/// `kGemmParallelMinFlops` run serially on the calling thread either way.

/// C[m,n] += A[m,k] * B[k,n].
void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, ThreadPool* pool = nullptr);

/// C[m,n] += A[k,m]^T * B[k,n].
void GemmTN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, ThreadPool* pool = nullptr);

/// C[m,n] += A[m,k] * B[n,k]^T.
void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n, ThreadPool* pool = nullptr);

/// The three variants above, by name.
enum class GemmOp { kNN, kTN, kNT };

/// Test hook, not a setting: runs GEMM variant `op` on `path` instead of the
/// dispatched one, so tests cover the portable path on CPUs where dispatch
/// picks AVX2+FMA. `path` must satisfy `GemmPathRunnable`.
void GemmOnPathForTesting(GemmPath path, GemmOp op, const float* a,
                          const float* b, float* c, int64_t m, int64_t k,
                          int64_t n, ThreadPool* pool = nullptr);

/// Multiplications below which GEMM stays on the calling thread. Exposed so
/// benchmarks/tests can reason about the serial fallback.
constexpr int64_t kGemmParallelMinFlops = 1 << 20;

/// Unpacks one NCHW sample into an im2col matrix for a stride-1 square
/// convolution with symmetric zero padding.
///
/// `src` points at sample data [channels, height, width]; `col` receives
/// [channels * kernel * kernel, out_h * out_w] row-major where out_h =
/// height + 2*pad - kernel + 1 (likewise out_w), and row (c*kernel + ky) *
/// kernel + kx holds the input pixel each output position reads at that tap.
void Im2Col(const float* src, int64_t channels, int64_t height, int64_t width,
            int64_t kernel, int64_t pad, float* col);

/// Adjoint of `Im2Col`: accumulates (`+=`) the column matrix back into the
/// NCHW sample gradient. `dst` must be zeroed (or hold a partial gradient)
/// on entry.
void Col2Im(const float* col, int64_t channels, int64_t height, int64_t width,
            int64_t kernel, int64_t pad, float* dst);

}  // namespace kernels
}  // namespace rafiki

#endif  // RAFIKI_TENSOR_KERNELS_H_
