#ifndef RAFIKI_NN_NET_H_
#define RAFIKI_NN_NET_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "nn/layer.h"

namespace rafiki::nn {

/// Per-net training workspace: the boundary activation and gradient buffers
/// one forward/backward pass writes into. Owned by the caller (trainer,
/// replica, benchmark) so several workers can drive replicas of the same
/// architecture without sharing any mutable activation state. After
/// `Net::Reserve` (or one warm-up pass) every buffer is sized and a
/// steady-state Forward+Backward performs zero heap allocations.
class Workspace {
 public:
  /// acts[i] holds the output of layer i; grads[i] holds dL/d(input of
  /// layer i) for i > 0. grads[0], the gradient w.r.t. the net's input, has
  /// no consumer and stays empty. Sized lazily by Net::Forward/Backward or
  /// eagerly by Net::Reserve.
  std::vector<Tensor> acts;
  std::vector<Tensor> grads;
};

/// A feed-forward stack of layers with shared forward/backward plumbing.
/// This is the "model" that Rafiki trials train and the parameter server
/// checkpoints.
///
/// Two call styles:
///  * Workspace style (hot path): `Forward(x, train, &ws)` returns a
///    reference into `ws`; `Backward(g, &ws)` reuses `ws`'s gradient
///    buffers. Allocation-free in the steady state.
///  * Value style (legacy/convenience): `Forward(x, train)` routes through
///    an internal scratch workspace and copies the output out, so existing
///    consumers (serving runtime, RL, tests) keep value semantics while
///    still reusing buffers underneath.
class Net {
 public:
  Net() = default;
  Net(Net&&) = default;
  Net& operator=(Net&&) = default;

  void Add(std::unique_ptr<Layer> layer);

  /// Workspace-backed pass; the returned reference lives in `ws` and stays
  /// valid until the next Forward with the same workspace.
  const Tensor& Forward(const Tensor& input, bool train, Workspace* ws);
  /// Backpropagates dL/d(output) through every layer; parameter grads
  /// accumulate into each layer's ParamTensor::grad. The gradient w.r.t. the
  /// net's input is not computed.
  void Backward(const Tensor& grad_output, Workspace* ws);

  /// Pre-sizes `ws` and every layer-internal cache for inputs of
  /// `input_shape`, so the first training step is already allocation-free.
  /// Touches no parameters or statistics.
  void Reserve(const Shape& input_shape, Workspace* ws);

  /// Value-semantics wrappers over the workspace path.
  Tensor Forward(const Tensor& input, bool train);
  void Backward(const Tensor& grad_output);

  /// All trainable parameters, in layer order (fresh vector).
  std::vector<ParamTensor*> Params();

  /// Cached parameter list, rebuilt only when layers are added — the
  /// allocation-free counterpart of Params() for per-step use.
  const std::vector<ParamTensor*>& ParamList();

  /// Sets every parameter gradient to zero (call before each minibatch).
  void ZeroGrad();

  /// Snapshot of parameter values, keyed by parameter name.
  std::vector<std::pair<std::string, Tensor>> StateDict();

  /// Loads values for every parameter whose name AND shape match an entry
  /// in `state`; mismatched entries are skipped. Returns the number of
  /// parameters loaded. This implements the paper's shape-matched
  /// warm-start (§4.2.2): layers with identical configuration reuse
  /// checkpointed values even when other layers differ.
  int LoadStateShapeMatched(
      const std::vector<std::pair<std::string, Tensor>>& state);

  /// Copies parameter *values* from `src` (same architecture required).
  /// Grad accumulators are untouched. Allocation-free once shapes match;
  /// used to sync data-parallel replicas with the master each step.
  void CopyParamsFrom(Net& src);

  /// Deep copy: same architecture and parameter values (via Layer::Clone),
  /// fresh caches and workspaces. Lets a serving replica run the same model
  /// on its own thread without sharing any mutable forward state.
  Net Clone() const;

  size_t num_layers() const { return layers_.size(); }
  Layer& layer(size_t i) { return *layers_[i]; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<ParamTensor*> param_list_;  // cache; rebuilt on Add
  Workspace scratch_;                     // backs the value-style wrappers
};

/// Builds a multi-layer perceptron: Linear(+Dropout)+ReLU per hidden layer
/// and a final Linear producing `dims.back()` logits. `dims` is
/// {in, hidden..., out}.
Net MakeMlp(const std::vector<int64_t>& dims, float init_std, float dropout,
            Rng& rng);

}  // namespace rafiki::nn

#endif  // RAFIKI_NN_NET_H_
