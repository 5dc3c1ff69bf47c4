// BERT encoder layer: numerically complete forward and backward passes on
// the CPU substrate, in both execution styles the paper compares --
// per-operator kernels (the framework baseline) and our fused kernels.
// Both produce bit-identical results; fusion changes data movement only.
//
// The hand-wired, owning Forward/Backward below are the reference oracle
// for the whole-stack graph executor (transformer/stack.hpp), which is
// the production path: every executor bitwise test compares against them.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "tensor/tensor.hpp"

namespace xflow::graph {
bool TaskSchedulerDefault();  // graph/executor.hpp
}  // namespace xflow::graph

namespace xflow::transformer {

/// One layer's four dropout-site Philox seeds, in dropout-op graph order
/// (SM attention dropout, attention-output dropout, feed-forward, output).
/// This is the exact ExecutorOptions::dropout_seeds block a single layer
/// uses; a whole-stack executor concatenates one block per layer.
std::vector<std::uint64_t> EncoderDropoutSeeds(std::uint64_t layer_seed);

struct EncoderConfig {
  graph::ModelDims dims = graph::ModelDims::Tiny();
  float dropout_prob = 0.1f;
  float ln_eps = 1e-5f;
  std::uint64_t seed = 1;        // drives dropout masks
  bool use_fused_kernels = true;
  /// Causal attention masking: turns the layer into a GPT-2/3 style
  /// decoder block (the paper notes decoders differ only in such minor
  /// aspects, Sec. VIII).
  bool causal = false;
  /// Let the whole-stack executor run dependency-free schedule steps
  /// concurrently on the work-stealing pool (graph/executor.hpp).
  /// Bitwise identical to serial execution at every thread count; the
  /// hand-wired layer ignores it.
  bool use_task_scheduler = graph::TaskSchedulerDefault();
};

/// Layer parameters. Dimension names follow the paper; the Q/K/V projection
/// is stored algebraically fused ([W^Q W^K W^V] stacked along p, Sec. IV-D).
template <typename T>
struct EncoderParamsT {
  Tensor<T> w_qkv;   // [3p, h, i]
  Tensor<T> b_qkv;   // [3p, h]
  Tensor<T> w_out;   // [w=p, h, i]
  Tensor<T> b_out;   // [i]
  Tensor<T> ln1_w, ln1_b;  // [i]
  Tensor<T> w1;      // [u, i]
  Tensor<T> b1;      // [u]
  Tensor<T> w2;      // [i, u]
  Tensor<T> b2;      // [i]
  Tensor<T> ln2_w, ln2_b;  // [i]

  /// Scaled uniform init (layernorm scale = 1, biases = 0).
  static EncoderParamsT Init(const graph::ModelDims& d, std::uint64_t seed);
  /// Name -> tensor map, for optimizers and checkpointing.
  std::vector<std::pair<std::string, Tensor<T>*>> Named();
  /// Gives every tensor its parameter shape without initializing values,
  /// reusing existing storage when already shaped -- the allocation path
  /// for gradient accumulators (Backward overwrites every entry).
  void EnsureShapes(const graph::ModelDims& d);
};

/// Every tensor the forward pass produces that backward needs (the "saved"
/// edges of the dataflow graph).
template <typename T>
struct EncoderActivationsT {
  Tensor<T> x;
  Tensor<T> qq_b, kk_b, vv_b;
  Tensor<T> alpha, attn_mask, softmax_saved;
  Tensor<T> gamma_t;
  Tensor<T> attn_drop_mask;
  Tensor<T> resid1;
  TensorF ln1_mean, ln1_rstd;
  Tensor<T> ln1_out;
  Tensor<T> relu1, ff_dropped, ff_drop_mask;
  Tensor<T> lin2_drop_mask;
  Tensor<T> resid2;
  TensorF ln2_mean, ln2_rstd;
  Tensor<T> y;
};

template <typename T>
struct EncoderGradientsT {
  EncoderParamsT<T> params;  // same shapes as the parameters
  Tensor<T> d_x;
};

/// The encoder layer. Forward/Backward follow the Table III operator
/// sequence exactly; with `use_fused_kernels` the paper's 12 fused kernels
/// replace the per-operator pipeline.
template <typename T>
class EncoderLayerT {
 public:
  EncoderLayerT(EncoderConfig config, EncoderParamsT<T> params);

  /// Reference oracle: hand-wired forward propagation over owning
  /// tensors (reused via EnsureShape across calls); fills `acts` and
  /// returns acts.y.
  const Tensor<T>& Forward(const Tensor<T>& x,
                           EncoderActivationsT<T>& acts) const;

  /// Reference oracle: hand-wired backpropagation from d_y; fills all
  /// parameter gradients and d_x.
  void Backward(const Tensor<T>& d_y, const EncoderActivationsT<T>& acts,
                EncoderGradientsT<T>& grads) const;

  [[nodiscard]] const EncoderConfig& config() const { return config_; }
  [[nodiscard]] EncoderParamsT<T>& params() { return params_; }
  [[nodiscard]] const EncoderParamsT<T>& params() const { return params_; }

 private:
  EncoderConfig config_;
  EncoderParamsT<T> params_;
};

using EncoderParams = EncoderParamsT<Half>;
using EncoderActivations = EncoderActivationsT<Half>;
using EncoderGradients = EncoderGradientsT<Half>;
using EncoderLayer = EncoderLayerT<Half>;

extern template class EncoderLayerT<Half>;
extern template class EncoderLayerT<float>;
extern template struct EncoderParamsT<Half>;
extern template struct EncoderParamsT<float>;

}  // namespace xflow::transformer
