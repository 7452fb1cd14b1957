#ifndef RAFIKI_TENSOR_TENSOR_H_
#define RAFIKI_TENSOR_TENSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace rafiki {

/// Tensor shape: dimension sizes, all positive.
using Shape = std::vector<int64_t>;

/// Number of elements of a shape.
int64_t ShapeNumel(const Shape& shape);

/// "(3, 256, 256)"-style rendering.
std::string ShapeToString(const Shape& shape);

/// Dense row-major float32 n-dimensional array with value semantics.
///
/// This is the parameter/activation representation shared by the neural-net
/// layers (`rafiki::nn`), the parameter server (`rafiki::ps`) and the RL
/// models. It deliberately implements only what those consumers need:
/// creation/fill, elementwise arithmetic, GEMM, reductions, and row-wise
/// softmax/argmax.
class Tensor {
 public:
  /// Empty tensor (rank 0, no elements).
  Tensor() = default;
  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);
  /// Tensor initialized from a flat value list (must match the shape size).
  Tensor(Shape shape, std::vector<float> values);

  /// Factory helpers -------------------------------------------------------
  static Tensor Zeros(Shape shape);
  static Tensor Full(Shape shape, float value);
  /// I.i.d. Gaussian entries with the given stddev (weight init, Table 1
  /// group-3 hyper-parameter).
  static Tensor Randn(Shape shape, Rng& rng, float stddev = 1.0f);

  /// Shape/metadata ---------------------------------------------------------
  const Shape& shape() const { return shape_; }
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }
  int64_t dim(size_t i) const {
    RAFIKI_CHECK_LT(i, shape_.size());
    return shape_[i];
  }
  size_t rank() const { return shape_.size(); }
  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Element access ---------------------------------------------------------
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float& at(int64_t i) {
    RAFIKI_CHECK_LT(i, numel());
    return data_[static_cast<size_t>(i)];
  }
  float at(int64_t i) const {
    RAFIKI_CHECK_LT(i, numel());
    return data_[static_cast<size_t>(i)];
  }
  /// 2-D accessor; tensor must be rank 2.
  float& at2(int64_t r, int64_t c);
  float at2(int64_t r, int64_t c) const;

  /// In-place mutators -------------------------------------------------------
  /// Re-shapes the tensor, reusing the existing heap block whenever the
  /// element count already matches (the steady-state case for workspace
  /// buffers — see nn::Workspace). Contents are unspecified after a size
  /// change; capacity never shrinks, so alternating between two sizes
  /// allocates at most once per size.
  void EnsureShape(const Shape& shape);
  /// Rank-specific fast paths: a `Shape` is itself a heap vector, so hot
  /// loops must not build one per call just to discover it already matches.
  void EnsureShape2(int64_t rows, int64_t cols) {
    if (shape_.size() != 2) {
      EnsureShape({rows, cols});
      return;
    }
    if (shape_[0] == rows && shape_[1] == cols) return;
    // Same rank: rewrite the dims in place (a batch of another size).
    data_.resize(static_cast<size_t>(rows * cols));
    shape_[0] = rows;
    shape_[1] = cols;
  }
  void EnsureShape4(int64_t n, int64_t c, int64_t h, int64_t w) {
    if (shape_.size() == 4 && shape_[0] == n && shape_[1] == c &&
        shape_[2] == h && shape_[3] == w) {
      return;
    }
    EnsureShape({n, c, h, w});
  }
  /// EnsureShape(other.shape()) + element copy. Allocation-free once this
  /// tensor has seen `other`'s size.
  void CopyFrom(const Tensor& other);
  void Fill(float value);
  void AddInPlace(const Tensor& other);           // this += other
  void SubInPlace(const Tensor& other);           // this -= other
  void MulInPlace(float scalar);                  // this *= s
  void Axpy(float alpha, const Tensor& x);        // this += alpha * x
  /// Reshape in place; the element count must be preserved. Takes a
  /// reference so reshaping to a persistent cached shape never allocates
  /// (vector copy-assignment reuses capacity).
  void Reshape(const Shape& shape);

  /// Pure operations ----------------------------------------------------------
  Tensor Add(const Tensor& other) const;
  Tensor Sub(const Tensor& other) const;
  Tensor Mul(float scalar) const;
  Tensor Hadamard(const Tensor& other) const;     // elementwise product
  /// Elementwise max(x, 0).
  Tensor Relu() const;

  /// Reductions ---------------------------------------------------------------
  float Sum() const;
  float Mean() const;
  float MaxAbs() const;
  /// Squared L2 norm.
  float SquaredNorm() const;

  /// Row-wise ops over a rank-2 tensor [rows, cols] ---------------------------
  /// Numerically-stable softmax of each row.
  Tensor SoftmaxRows() const;
  /// Index of the max entry of each row.
  std::vector<int64_t> ArgmaxRows() const;

  std::string DebugString(int64_t max_elems = 8) const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

/// C = A x B for A[m,k], B[k,n]; shapes are checked.
Tensor MatMul(const Tensor& a, const Tensor& b);
/// C = A^T x B for A[k,m], B[k,n].
Tensor MatMulTransA(const Tensor& a, const Tensor& b);
/// C = A x B^T for A[m,k], B[n,k].
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

}  // namespace rafiki

#endif  // RAFIKI_TENSOR_TENSOR_H_
