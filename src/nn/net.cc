#include "nn/net.h"

#include <utility>

#include "common/string_util.h"

namespace rafiki::nn {

void Net::Add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  param_list_.clear();
  for (auto& l : layers_) {
    for (ParamTensor* p : l->Params()) param_list_.push_back(p);
  }
}

const Tensor& Net::Forward(const Tensor& input, bool train, Workspace* ws) {
  RAFIKI_CHECK_GT(layers_.size(), 0u) << "Forward through an empty net";
  if (ws->acts.size() != layers_.size()) ws->acts.resize(layers_.size());
  const Tensor* x = &input;
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->ForwardInto(*x, train, &ws->acts[i]);
    x = &ws->acts[i];
  }
  return *x;
}

void Net::Backward(const Tensor& grad_output, Workspace* ws) {
  RAFIKI_CHECK_GT(layers_.size(), 0u);
  if (ws->grads.size() != layers_.size()) ws->grads.resize(layers_.size());
  // The first layer gets no grad_input: nothing reads dL/d(net input), so
  // it skips that work (a GEMM for Linear) and grads[0] stays empty.
  const Tensor* g = &grad_output;
  for (size_t i = layers_.size(); i > 0; --i) {
    Tensor* gi = i > 1 ? &ws->grads[i - 1] : nullptr;
    layers_[i - 1]->BackwardInto(*g, gi);
    g = gi;
  }
}

void Net::Reserve(const Shape& input_shape, Workspace* ws) {
  RAFIKI_CHECK_GT(layers_.size(), 0u);
  ws->acts.resize(layers_.size());
  ws->grads.resize(layers_.size());
  Shape shape = input_shape;
  for (size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) ws->grads[i].EnsureShape(shape);  // dL/d(input of layer i)
    shape = layers_[i]->Reserve(shape);
    ws->acts[i].EnsureShape(shape);  // output of layer i
  }
}

Tensor Net::Forward(const Tensor& input, bool train) {
  return Forward(input, train, &scratch_);
}

void Net::Backward(const Tensor& grad_output) {
  Backward(grad_output, &scratch_);
}

std::vector<ParamTensor*> Net::Params() { return param_list_; }

const std::vector<ParamTensor*>& Net::ParamList() { return param_list_; }

void Net::ZeroGrad() {
  for (ParamTensor* p : param_list_) p->grad.Fill(0.0f);
}

std::vector<std::pair<std::string, Tensor>> Net::StateDict() {
  std::vector<std::pair<std::string, Tensor>> out;
  for (ParamTensor* p : param_list_) out.emplace_back(p->name, p->value);
  return out;
}

int Net::LoadStateShapeMatched(
    const std::vector<std::pair<std::string, Tensor>>& state) {
  int loaded = 0;
  for (ParamTensor* p : Params()) {
    for (const auto& [name, value] : state) {
      if (name == p->name && value.shape() == p->value.shape()) {
        p->value = value;
        ++loaded;
        break;
      }
    }
  }
  return loaded;
}

void Net::CopyParamsFrom(Net& src) {
  const std::vector<ParamTensor*>& theirs = src.ParamList();
  RAFIKI_CHECK_EQ(param_list_.size(), theirs.size())
      << "replica/master architecture mismatch";
  for (size_t i = 0; i < param_list_.size(); ++i) {
    param_list_[i]->value.CopyFrom(theirs[i]->value);
  }
}

Net Net::Clone() const {
  Net out;
  for (const auto& layer : layers_) out.Add(layer->Clone());
  return out;
}

Net MakeMlp(const std::vector<int64_t>& dims, float init_std, float dropout,
            Rng& rng) {
  RAFIKI_CHECK_GE(dims.size(), 2u);
  Net net;
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    bool last = (i + 2 == dims.size());
    net.Add(std::make_unique<Linear>(dims[i], dims[i + 1], init_std, rng,
                                     StrFormat("fc%zu", i)));
    if (!last) {
      net.Add(std::make_unique<Relu>(StrFormat("relu%zu", i)));
      if (dropout > 0.0f) {
        net.Add(std::make_unique<Dropout>(dropout, rng.Next64(),
                                          StrFormat("drop%zu", i)));
      }
    }
  }
  return net;
}

}  // namespace rafiki::nn
