#ifndef RAFIKI_NN_LAYER_H_
#define RAFIKI_NN_LAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace rafiki::nn {

/// A named trainable parameter with its gradient accumulator.
struct ParamTensor {
  std::string name;
  Tensor value;
  Tensor grad;
};

/// Base class for differentiable layers. Layers cache whatever they need
/// from the forward pass so that a following backward pass can produce input
/// gradients and accumulate parameter gradients; the trainer drives
/// Forward -> loss -> Backward -> optimizer step.
///
/// The primitive interface writes into caller-owned buffers
/// (`ForwardInto`/`BackwardInto`): once a layer has seen a given input shape
/// — either via `Reserve` or a first warm-up pass — subsequent passes at
/// that shape perform zero heap allocations. Internal caches (input copies,
/// dropout masks, im2col scratch) are persistent members rewritten in place.
/// The by-value `Forward`/`Backward` convenience wrappers preserve the
/// original call style for tests and non-hot-path consumers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output into `*out` (re-shaped as needed; must not
  /// alias `input`). `train` enables training-only behaviour (dropout
  /// masking, batch statistics) and the caching backward depends on.
  virtual void ForwardInto(const Tensor& input, bool train, Tensor* out) = 0;

  /// Given dL/d(output), accumulates parameter grads and writes
  /// dL/d(input) into `*grad_input` (must not alias `grad_output`). A null
  /// `grad_input` skips the input gradient and keeps the parameter grads:
  /// a net's first layer has no consumer for it.
  virtual void BackwardInto(const Tensor& grad_output,
                            Tensor* grad_input) = 0;

  /// Pre-sizes every internal buffer for inputs of `input_shape` and
  /// returns the corresponding output shape, so a Net can warm a whole
  /// workspace without running data through it. Mutates no statistics.
  virtual Shape Reserve(const Shape& input_shape) { return input_shape; }

  /// By-value convenience wrappers over the Into primitives.
  Tensor Forward(const Tensor& input, bool train) {
    Tensor out;
    ForwardInto(input, train, &out);
    return out;
  }
  Tensor Backward(const Tensor& grad_output) {
    Tensor grad_input;
    BackwardInto(grad_output, &grad_input);
    return grad_input;
  }

  /// Trainable parameters (possibly empty). Pointers remain valid for the
  /// lifetime of the layer.
  virtual std::vector<ParamTensor*> Params() { return {}; }

  /// Deep copy carrying configuration, parameter values, and inference
  /// statistics (e.g. BatchNorm running moments) but fresh caches and zero
  /// gradient accumulators — what a serving replica needs to run the same
  /// model on its own thread without sharing mutable state.
  virtual std::unique_ptr<Layer> Clone() const = 0;

  virtual std::string name() const = 0;
};

/// Fully-connected layer: y = x W + b for x [batch, in].
class Linear : public Layer {
 public:
  /// `init_std` is the Gaussian weight-initialization stddev — one of the
  /// paper's group-3 hyper-parameters (Table 1).
  Linear(int64_t in_features, int64_t out_features, float init_std, Rng& rng,
         std::string name = "linear");

  void ForwardInto(const Tensor& input, bool train, Tensor* out) override;
  void BackwardInto(const Tensor& grad_output, Tensor* grad_input) override;
  Shape Reserve(const Shape& input_shape) override;
  std::vector<ParamTensor*> Params() override { return {&weight_, &bias_}; }
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override { return name_; }

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  ParamTensor weight_;  // [in, out]
  ParamTensor bias_;    // [1, out]
  Tensor cached_input_;
  std::string name_;
};

/// Elementwise rectifier.
class Relu : public Layer {
 public:
  explicit Relu(std::string name = "relu") : name_(std::move(name)) {}
  void ForwardInto(const Tensor& input, bool train, Tensor* out) override;
  void BackwardInto(const Tensor& grad_output, Tensor* grad_input) override;
  Shape Reserve(const Shape& input_shape) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Relu>(name_);
  }
  std::string name() const override { return name_; }

 private:
  Tensor cached_input_;
  std::string name_;
};

/// Inverted dropout; identity at inference time. The drop rate is a group-3
/// hyper-parameter in the paper's CIFAR-10 study.
class Dropout : public Layer {
 public:
  Dropout(float rate, uint64_t seed, std::string name = "dropout");
  void ForwardInto(const Tensor& input, bool train, Tensor* out) override;
  void BackwardInto(const Tensor& grad_output, Tensor* grad_input) override;
  Shape Reserve(const Shape& input_shape) override;
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override { return name_; }

  float rate() const { return rate_; }

 private:
  float rate_;
  uint64_t cutoff_;  // Rng::BernoulliCutoff(rate_): draws below it drop
  Rng rng_;
  Tensor mask_;
  bool mask_valid_ = false;  // a training Forward has populated mask_
  std::string name_;
};

/// 2-D convolution over NCHW input, stride 1, symmetric zero padding.
/// Implemented as im2col + blocked GEMM (`tensor/kernels.h`) in both
/// directions; used in tests and the architecture-tuning warm-start
/// demonstration (shape-matched parameter reuse, §4.2.2).
class Conv2D : public Layer {
 public:
  Conv2D(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t padding, float init_std, Rng& rng,
         std::string name = "conv");

  void ForwardInto(const Tensor& input, bool train, Tensor* out) override;
  void BackwardInto(const Tensor& grad_output, Tensor* grad_input) override;
  Shape Reserve(const Shape& input_shape) override;
  std::vector<ParamTensor*> Params() override { return {&weight_, &bias_}; }
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override { return name_; }

  int64_t kernel() const { return kernel_; }

 private:
  int64_t in_channels_;
  int64_t out_channels_;
  int64_t kernel_;
  int64_t padding_;
  ParamTensor weight_;  // [out_c, in_c, k, k]
  ParamTensor bias_;    // [out_c]
  Tensor cached_input_;
  std::vector<float> col_;       // im2col scratch, one sample
  std::vector<float> grad_col_;  // backward column scratch
  std::string name_;
};

/// Batch normalization over [batch, features] activations: per-feature
/// standardization with learned scale/shift, batch statistics during
/// training and running statistics at inference — the normalization the
/// paper's 8-layer CIFAR network relies on for trainability at the large
/// learning rates the tuner explores.
class BatchNorm : public Layer {
 public:
  BatchNorm(int64_t features, std::string name = "bn",
            double momentum = 0.9, double epsilon = 1e-5);

  void ForwardInto(const Tensor& input, bool train, Tensor* out) override;
  void BackwardInto(const Tensor& grad_output, Tensor* grad_input) override;
  Shape Reserve(const Shape& input_shape) override;
  std::vector<ParamTensor*> Params() override { return {&gamma_, &beta_}; }
  std::unique_ptr<Layer> Clone() const override;
  std::string name() const override { return name_; }

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  int64_t features_;
  double momentum_;
  double epsilon_;
  ParamTensor gamma_;  // [1, features]
  ParamTensor beta_;   // [1, features]
  Tensor running_mean_;
  Tensor running_var_;
  // Forward caches for backward.
  Tensor cached_xhat_;
  Tensor cached_centered_;
  std::vector<double> cached_inv_std_;
  std::string name_;
};

/// 2-D max pooling over NCHW input with square window and stride equal to
/// the window size (the standard ConvNet downsampling the paper's 8-layer
/// CIFAR network uses between stages).
class MaxPool2D : public Layer {
 public:
  explicit MaxPool2D(int64_t window, std::string name = "maxpool");

  void ForwardInto(const Tensor& input, bool train, Tensor* out) override;
  void BackwardInto(const Tensor& grad_output, Tensor* grad_input) override;
  Shape Reserve(const Shape& input_shape) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<MaxPool2D>(window_, name_);
  }
  std::string name() const override { return name_; }

 private:
  int64_t window_;
  Shape cached_input_shape_;
  std::vector<int64_t> argmax_;  // flat input index per output element
  std::string name_;
};

/// Collapses [N, ...] to [N, prod(...)].
class Flatten : public Layer {
 public:
  explicit Flatten(std::string name = "flatten") : name_(std::move(name)) {}
  void ForwardInto(const Tensor& input, bool train, Tensor* out) override;
  void BackwardInto(const Tensor& grad_output, Tensor* grad_input) override;
  Shape Reserve(const Shape& input_shape) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Flatten>(name_);
  }
  std::string name() const override { return name_; }

 private:
  Shape cached_shape_;
  std::string name_;
};

}  // namespace rafiki::nn

#endif  // RAFIKI_NN_LAYER_H_
