#include "nn/layer.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/kernels.h"

namespace rafiki::nn {

Linear::Linear(int64_t in_features, int64_t out_features, float init_std,
               Rng& rng, std::string name)
    : in_features_(in_features),
      out_features_(out_features),
      name_(std::move(name)) {
  weight_.name = name_ + "/weight";
  weight_.value = Tensor::Randn({in_features, out_features}, rng, init_std);
  weight_.grad = Tensor::Zeros({in_features, out_features});
  bias_.name = name_ + "/bias";
  bias_.value = Tensor::Zeros({1, out_features});
  bias_.grad = Tensor::Zeros({1, out_features});
}

Shape Linear::Reserve(const Shape& input_shape) {
  RAFIKI_CHECK_EQ(input_shape.size(), 2u);
  RAFIKI_CHECK_EQ(input_shape[1], in_features_);
  cached_input_.EnsureShape2(input_shape[0], in_features_);
  return {input_shape[0], out_features_};
}

void Linear::ForwardInto(const Tensor& input, bool train, Tensor* out) {
  RAFIKI_CHECK_EQ(input.rank(), 2u);
  RAFIKI_CHECK_EQ(input.dim(1), in_features_);
  if (train) cached_input_.CopyFrom(input);
  int64_t batch = input.dim(0);
  out->EnsureShape2(batch, out_features_);
  // Seed each output row with the bias, then accumulate x·W on top; the
  // GEMM's += contract folds the bias add into the product for free.
  const float* b = bias_.value.data();
  for (int64_t r = 0; r < batch; ++r) {
    std::memcpy(out->data() + r * out_features_, b,
                static_cast<size_t>(out_features_) * sizeof(float));
  }
  kernels::GemmNN(input.data(), weight_.value.data(), out->data(), batch,
                  in_features_, out_features_);
}

void Linear::BackwardInto(const Tensor& grad_output, Tensor* grad_input) {
  RAFIKI_CHECK_GT(cached_input_.numel(), 0)
      << "Backward without a training Forward";
  int64_t batch = cached_input_.dim(0);
  RAFIKI_CHECK_EQ(grad_output.dim(0), batch);
  RAFIKI_CHECK_EQ(grad_output.dim(1), out_features_);
  // dW += x^T g ; db += colsum(g) ; dx = g W^T
  kernels::GemmTN(cached_input_.data(), grad_output.data(),
                  weight_.grad.data(), in_features_, batch, out_features_);
  float* bg = bias_.grad.data();
  for (int64_t r = 0; r < batch; ++r) {
    const float* row = grad_output.data() + r * out_features_;
    for (int64_t c = 0; c < out_features_; ++c) bg[c] += row[c];
  }
  if (grad_input == nullptr) return;
  grad_input->EnsureShape2(batch, in_features_);
  grad_input->Fill(0.0f);
  kernels::GemmNT(grad_output.data(), weight_.value.data(),
                  grad_input->data(), batch, out_features_, in_features_);
}

Shape Relu::Reserve(const Shape& input_shape) {
  cached_input_.EnsureShape(input_shape);
  return input_shape;
}

void Relu::ForwardInto(const Tensor& input, bool train, Tensor* out) {
  if (train) cached_input_.CopyFrom(input);
  out->EnsureShape(input.shape());
  const float* in = input.data();
  float* o = out->data();
  int64_t n = input.numel();
  for (int64_t i = 0; i < n; ++i) o[i] = in[i] > 0.0f ? in[i] : 0.0f;
}

void Relu::BackwardInto(const Tensor& grad_output, Tensor* grad_input) {
  if (grad_input == nullptr) return;
  RAFIKI_CHECK(cached_input_.SameShape(grad_output));
  grad_input->EnsureShape(grad_output.shape());
  const float* in = cached_input_.data();
  const float* g = grad_output.data();
  float* o = grad_input->data();
  int64_t n = grad_output.numel();
  // Load g[i] whatever the sign, then select: with the load unconditional
  // the loop becomes a compare and a blend, and the vectorizer takes it.
  for (int64_t i = 0; i < n; ++i) {
    float gi = g[i];
    o[i] = in[i] > 0.0f ? gi : 0.0f;
  }
}

Dropout::Dropout(float rate, uint64_t seed, std::string name)
    : rate_(rate), rng_(seed), name_(std::move(name)) {
  RAFIKI_CHECK_GE(rate, 0.0f);
  RAFIKI_CHECK_LT(rate, 1.0f);
  cutoff_ = Rng::BernoulliCutoff(rate);
}

Shape Dropout::Reserve(const Shape& input_shape) {
  mask_.EnsureShape(input_shape);
  return input_shape;
}

void Dropout::ForwardInto(const Tensor& input, bool train, Tensor* out) {
  if (!train || rate_ == 0.0f) {
    mask_valid_ = false;
    out->CopyFrom(input);
    return;
  }
  mask_.EnsureShape(input.shape());
  out->EnsureShape(input.shape());
  float scale = 1.0f / (1.0f - rate_);
  float* m = mask_.data();
  const float* in = input.data();
  float* o = out->data();
  int64_t n = input.numel();
  // One draw per element, dropped exactly where Rng::Bernoulli would say so
  // at this rate.
  // The keep bit widens to an all-ones or all-zero word that masks scale's
  // bits (+0 when dropped): written as a select or as scale * bit, GCC
  // branches on the random bit and mispredicts a rate's share of elements.
  const uint64_t cutoff = cutoff_;
  const auto scale_bits = std::bit_cast<uint32_t>(scale);
  for (int64_t i = 0; i < n; ++i) {
    uint32_t keep = 0u - static_cast<uint32_t>(rng_.Next64() >= cutoff);
    m[i] = std::bit_cast<float>(keep & scale_bits);
    o[i] = in[i] * m[i];
  }
  mask_valid_ = true;
}

void Dropout::BackwardInto(const Tensor& grad_output, Tensor* grad_input) {
  if (grad_input == nullptr) return;
  if (!mask_valid_) {
    grad_input->CopyFrom(grad_output);
    return;
  }
  RAFIKI_CHECK(mask_.SameShape(grad_output));
  grad_input->EnsureShape(grad_output.shape());
  const float* m = mask_.data();
  const float* g = grad_output.data();
  float* o = grad_input->data();
  int64_t n = grad_output.numel();
  for (int64_t i = 0; i < n; ++i) o[i] = g[i] * m[i];
}

Conv2D::Conv2D(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t padding, float init_std, Rng& rng, std::string name)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      padding_(padding),
      name_(std::move(name)) {
  weight_.name = name_ + "/weight";
  weight_.value =
      Tensor::Randn({out_channels, in_channels, kernel, kernel}, rng,
                    init_std);
  weight_.grad = Tensor::Zeros(weight_.value.shape());
  bias_.name = name_ + "/bias";
  bias_.value = Tensor::Zeros({out_channels});
  bias_.grad = Tensor::Zeros({out_channels});
}

Shape Conv2D::Reserve(const Shape& input_shape) {
  RAFIKI_CHECK_EQ(input_shape.size(), 4u);
  RAFIKI_CHECK_EQ(input_shape[1], in_channels_);
  int64_t h = input_shape[2], w = input_shape[3];
  int64_t oh = h + 2 * padding_ - kernel_ + 1;
  int64_t ow = w + 2 * padding_ - kernel_ + 1;
  RAFIKI_CHECK_GT(oh, 0);
  RAFIKI_CHECK_GT(ow, 0);
  size_t col_elems =
      static_cast<size_t>(in_channels_ * kernel_ * kernel_ * oh * ow);
  col_.resize(col_elems);
  grad_col_.resize(col_elems);
  cached_input_.EnsureShape(input_shape);
  return {input_shape[0], out_channels_, oh, ow};
}

void Conv2D::ForwardInto(const Tensor& input, bool train, Tensor* out) {
  RAFIKI_CHECK_EQ(input.rank(), 4u);
  RAFIKI_CHECK_EQ(input.dim(1), in_channels_);
  if (train) cached_input_.CopyFrom(input);
  int64_t batch = input.dim(0);
  int64_t h = input.dim(2), w = input.dim(3);
  int64_t oh = h + 2 * padding_ - kernel_ + 1;
  int64_t ow = w + 2 * padding_ - kernel_ + 1;
  RAFIKI_CHECK_GT(oh, 0);
  RAFIKI_CHECK_GT(ow, 0);
  out->EnsureShape4(batch, out_channels_, oh, ow);
  // im2col + GEMM: the weight [OC, IC, K, K] is already row-major
  // [OC, IC*K*K], so each sample is one GEMM against its column matrix.
  int64_t col_rows = in_channels_ * kernel_ * kernel_;
  int64_t col_cols = oh * ow;
  col_.resize(static_cast<size_t>(col_rows * col_cols));
  const float* wt = weight_.value.data();
  const float* bias = bias_.value.data();
  for (int64_t n = 0; n < batch; ++n) {
    kernels::Im2Col(input.data() + n * in_channels_ * h * w, in_channels_, h,
                    w, kernel_, padding_, col_.data());
    float* out_n = out->data() + n * out_channels_ * col_cols;
    for (int64_t oc = 0; oc < out_channels_; ++oc) {
      std::fill(out_n + oc * col_cols, out_n + (oc + 1) * col_cols, bias[oc]);
    }
    kernels::GemmNN(wt, col_.data(), out_n, out_channels_, col_rows,
                    col_cols);
  }
}

void Conv2D::BackwardInto(const Tensor& grad_output, Tensor* grad_input) {
  RAFIKI_CHECK_GT(cached_input_.numel(), 0);
  const Tensor& input = cached_input_;
  int64_t batch = input.dim(0);
  int64_t h = input.dim(2), w = input.dim(3);
  int64_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  if (grad_input != nullptr) {
    grad_input->EnsureShape(input.shape());
    grad_input->Fill(0.0f);
  }
  int64_t col_rows = in_channels_ * kernel_ * kernel_;
  int64_t col_cols = oh * ow;
  col_.resize(static_cast<size_t>(col_rows * col_cols));
  grad_col_.resize(static_cast<size_t>(col_rows * col_cols));
  const float* wt = weight_.value.data();
  float* bg = bias_.grad.data();
  for (int64_t n = 0; n < batch; ++n) {
    const float* go_n = grad_output.data() + n * out_channels_ * col_cols;
    // dW[OC, IC*K*K] += g_n · col_n^T, fused into the grad accumulator.
    kernels::Im2Col(input.data() + n * in_channels_ * h * w, in_channels_, h,
                    w, kernel_, padding_, col_.data());
    kernels::GemmNT(go_n, col_.data(), weight_.grad.data(), out_channels_,
                    col_cols, col_rows);
    // db[oc] += sum over output positions of g_n.
    for (int64_t oc = 0; oc < out_channels_; ++oc) {
      const float* row = go_n + oc * col_cols;
      double s = 0.0;
      for (int64_t i = 0; i < col_cols; ++i) s += row[i];
      bg[oc] += static_cast<float>(s);
    }
    if (grad_input == nullptr) continue;
    // dcol = W^T · g_n, then scatter-accumulate back to the input image.
    std::fill(grad_col_.begin(), grad_col_.end(), 0.0f);
    kernels::GemmTN(wt, go_n, grad_col_.data(), col_rows, out_channels_,
                    col_cols);
    kernels::Col2Im(grad_col_.data(), in_channels_, h, w, kernel_, padding_,
                    grad_input->data() + n * in_channels_ * h * w);
  }
}

BatchNorm::BatchNorm(int64_t features, std::string name, double momentum,
                     double epsilon)
    : features_(features),
      momentum_(momentum),
      epsilon_(epsilon),
      name_(std::move(name)) {
  RAFIKI_CHECK_GT(features, 0);
  gamma_.name = name_ + "/gamma";
  gamma_.value = Tensor::Full({1, features}, 1.0f);
  gamma_.grad = Tensor::Zeros({1, features});
  beta_.name = name_ + "/beta";
  beta_.value = Tensor::Zeros({1, features});
  beta_.grad = Tensor::Zeros({1, features});
  running_mean_ = Tensor::Zeros({1, features});
  running_var_ = Tensor::Full({1, features}, 1.0f);
}

Shape BatchNorm::Reserve(const Shape& input_shape) {
  RAFIKI_CHECK_EQ(input_shape.size(), 2u);
  RAFIKI_CHECK_EQ(input_shape[1], features_);
  cached_centered_.EnsureShape(input_shape);
  cached_xhat_.EnsureShape(input_shape);
  cached_inv_std_.resize(static_cast<size_t>(features_));
  return input_shape;
}

void BatchNorm::ForwardInto(const Tensor& input, bool train, Tensor* out) {
  RAFIKI_CHECK_EQ(input.rank(), 2u);
  RAFIKI_CHECK_EQ(input.dim(1), features_);
  int64_t n = input.dim(0);
  out->EnsureShape(input.shape());
  const float* in = input.data();
  float* o = out->data();
  if (!train) {
    const float* rm = running_mean_.data();
    const float* rv = running_var_.data();
    const float* gm = gamma_.value.data();
    const float* bt = beta_.value.data();
    for (int64_t i = 0; i < n; ++i) {
      const float* row = in + i * features_;
      float* orow = o + i * features_;
      for (int64_t d = 0; d < features_; ++d) {
        float inv = 1.0f / std::sqrt(rv[d] + static_cast<float>(epsilon_));
        orow[d] = gm[d] * (row[d] - rm[d]) * inv + bt[d];
      }
    }
    return;
  }
  RAFIKI_CHECK_GT(n, 1) << "batch norm needs batch > 1 in training";
  cached_centered_.EnsureShape(input.shape());
  cached_xhat_.EnsureShape(input.shape());
  cached_inv_std_.resize(static_cast<size_t>(features_));
  float* cc = cached_centered_.data();
  float* cx = cached_xhat_.data();
  float* rm = running_mean_.data();
  float* rv = running_var_.data();
  const float* gm = gamma_.value.data();
  const float* bt = beta_.value.data();
  for (int64_t d = 0; d < features_; ++d) {
    double mean = 0.0;
    for (int64_t i = 0; i < n; ++i) mean += in[i * features_ + d];
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      double c = in[i * features_ + d] - mean;
      var += c * c;
    }
    var /= static_cast<double>(n);  // biased, as in the original paper
    double inv_std = 1.0 / std::sqrt(var + epsilon_);
    cached_inv_std_[static_cast<size_t>(d)] = inv_std;
    for (int64_t i = 0; i < n; ++i) {
      float c = in[i * features_ + d] - static_cast<float>(mean);
      cc[i * features_ + d] = c;
      float xhat = c * static_cast<float>(inv_std);
      cx[i * features_ + d] = xhat;
      o[i * features_ + d] = gm[d] * xhat + bt[d];
    }
    rm[d] = static_cast<float>(momentum_ * rm[d] + (1.0 - momentum_) * mean);
    rv[d] = static_cast<float>(momentum_ * rv[d] + (1.0 - momentum_) * var);
  }
}

void BatchNorm::BackwardInto(const Tensor& grad_output, Tensor* grad_input) {
  RAFIKI_CHECK(cached_xhat_.SameShape(grad_output))
      << "Backward without a training Forward";
  int64_t n = grad_output.dim(0);
  float* gi = nullptr;
  if (grad_input != nullptr) {
    grad_input->EnsureShape(grad_output.shape());
    gi = grad_input->data();
  }
  const float* go = grad_output.data();
  const float* cx = cached_xhat_.data();
  float* gg = gamma_.grad.data();
  float* bg = beta_.grad.data();
  const float* gm = gamma_.value.data();
  auto dn = static_cast<double>(n);
  for (int64_t d = 0; d < features_; ++d) {
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      double dy = go[i * features_ + d];
      sum_dy += dy;
      sum_dy_xhat += dy * cx[i * features_ + d];
    }
    gg[d] += static_cast<float>(sum_dy_xhat);
    bg[d] += static_cast<float>(sum_dy);
    if (gi == nullptr) continue;
    double g = gm[d];
    double inv_std = cached_inv_std_[static_cast<size_t>(d)];
    for (int64_t i = 0; i < n; ++i) {
      double dy = go[i * features_ + d];
      double xhat = cx[i * features_ + d];
      // dL/dx = gamma * inv_std * (dy - mean(dy) - xhat * mean(dy*xhat))
      gi[i * features_ + d] = static_cast<float>(
          g * inv_std * (dy - sum_dy / dn - xhat * sum_dy_xhat / dn));
    }
  }
}

MaxPool2D::MaxPool2D(int64_t window, std::string name)
    : window_(window), name_(std::move(name)) {
  RAFIKI_CHECK_GT(window, 0);
}

Shape MaxPool2D::Reserve(const Shape& input_shape) {
  RAFIKI_CHECK_EQ(input_shape.size(), 4u);
  RAFIKI_CHECK_EQ(input_shape[2] % window_, 0)
      << "height not divisible by window";
  RAFIKI_CHECK_EQ(input_shape[3] % window_, 0)
      << "width not divisible by window";
  cached_input_shape_ = input_shape;
  Shape out{input_shape[0], input_shape[1], input_shape[2] / window_,
            input_shape[3] / window_};
  argmax_.resize(static_cast<size_t>(ShapeNumel(out)));
  return out;
}

void MaxPool2D::ForwardInto(const Tensor& input, bool train, Tensor* out) {
  RAFIKI_CHECK_EQ(input.rank(), 4u);
  int64_t n = input.dim(0), c = input.dim(1);
  int64_t h = input.dim(2), w = input.dim(3);
  RAFIKI_CHECK_EQ(h % window_, 0) << "height not divisible by window";
  RAFIKI_CHECK_EQ(w % window_, 0) << "width not divisible by window";
  int64_t oh = h / window_, ow = w / window_;
  cached_input_shape_ = input.shape();
  out->EnsureShape4(n, c, oh, ow);
  argmax_.resize(static_cast<size_t>(out->numel()));
  const float* in = input.data();
  float* po = out->data();
  int64_t oi = 0;
  for (int64_t ni = 0; ni < n; ++ni) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float* plane = in + (ni * c + ci) * h * w;
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t x = 0; x < ow; ++x, ++oi) {
          int64_t best_idx = (y * window_) * w + x * window_;
          float best = plane[best_idx];
          for (int64_t dy = 0; dy < window_; ++dy) {
            for (int64_t dx = 0; dx < window_; ++dx) {
              int64_t idx = (y * window_ + dy) * w + (x * window_ + dx);
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          po[oi] = best;
          argmax_[static_cast<size_t>(oi)] =
              (ni * c + ci) * h * w + best_idx;
        }
      }
    }
  }
}

void MaxPool2D::BackwardInto(const Tensor& grad_output, Tensor* grad_input) {
  if (grad_input == nullptr) return;
  RAFIKI_CHECK_EQ(static_cast<size_t>(grad_output.numel()), argmax_.size())
      << "Backward without matching Forward";
  grad_input->EnsureShape(cached_input_shape_);
  grad_input->Fill(0.0f);
  const float* g = grad_output.data();
  float* gi = grad_input->data();
  int64_t n = grad_output.numel();
  for (int64_t i = 0; i < n; ++i) {
    gi[argmax_[static_cast<size_t>(i)]] += g[i];
  }
}

Shape Flatten::Reserve(const Shape& input_shape) {
  RAFIKI_CHECK_GE(input_shape.size(), 1u);
  cached_shape_ = input_shape;
  return {input_shape[0], ShapeNumel(input_shape) / input_shape[0]};
}

void Flatten::ForwardInto(const Tensor& input, bool train, Tensor* out) {
  // Shape the destination before copying: EnsureShape2 is a no-op in the
  // steady state, whereas copying first would drag the rank-4 shape along
  // and force a shape rebuild every call.
  cached_shape_ = input.shape();
  int64_t batch = input.dim(0);
  out->EnsureShape2(batch, input.numel() / batch);
  std::memcpy(out->data(), input.data(),
              static_cast<size_t>(input.numel()) * sizeof(float));
}

void Flatten::BackwardInto(const Tensor& grad_output, Tensor* grad_input) {
  if (grad_input == nullptr) return;
  grad_input->EnsureShape(cached_shape_);
  std::memcpy(grad_input->data(), grad_output.data(),
              static_cast<size_t>(grad_output.numel()) * sizeof(float));
}

std::unique_ptr<Layer> Linear::Clone() const {
  Rng rng(0);  // init_std = 0: the draw is overwritten below anyway
  auto out = std::make_unique<Linear>(in_features_, out_features_,
                                      /*init_std=*/0.0f, rng, name_);
  out->weight_.value = weight_.value;
  out->bias_.value = bias_.value;
  return out;
}

std::unique_ptr<Layer> Dropout::Clone() const {
  auto out = std::make_unique<Dropout>(rate_, /*seed=*/0, name_);
  out->rng_ = rng_;  // same mask stream as the source from this point on
  return out;
}

std::unique_ptr<Layer> Conv2D::Clone() const {
  Rng rng(0);
  auto out = std::make_unique<Conv2D>(in_channels_, out_channels_, kernel_,
                                      padding_, /*init_std=*/0.0f, rng,
                                      name_);
  out->weight_.value = weight_.value;
  out->bias_.value = bias_.value;
  return out;
}

std::unique_ptr<Layer> BatchNorm::Clone() const {
  auto out = std::make_unique<BatchNorm>(features_, name_, momentum_,
                                         epsilon_);
  out->gamma_.value = gamma_.value;
  out->beta_.value = beta_.value;
  out->running_mean_ = running_mean_;
  out->running_var_ = running_var_;
  return out;
}

}  // namespace rafiki::nn
