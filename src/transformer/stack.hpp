// A stack of encoder (or causal decoder) layers with a single
// forward/backward interface -- "our implementation can also be extended
// to support a full training pipeline by stacking our optimized layers"
// (Sec. VI-C). Two ways to run it: the whole-stack graph executor over
// one liveness-planned slab (the production path, allocation-free in
// steady state), and the hand-wired per-layer reference oracle it is
// tested against bit for bit.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "transformer/arena.hpp"
#include "transformer/encoder.hpp"

namespace xflow::graph {
template <typename T>
class GraphExecutorT;  // graph/executor.hpp
}  // namespace xflow::graph

namespace xflow::transformer {

template <typename T>
class EncoderStackT {
 public:
  /// `config.seed` seeds layer 0's dropout; deeper layers offset it.
  EncoderStackT(EncoderConfig config, int num_layers, std::uint64_t seed);
  EncoderStackT(EncoderStackT&&) noexcept;
  EncoderStackT& operator=(EncoderStackT&&) noexcept;
  ~EncoderStackT();

  [[nodiscard]] int num_layers() const {
    return static_cast<int>(layers_.size());
  }
  [[nodiscard]] EncoderLayerT<T>& layer(int index) {
    return layers_[static_cast<std::size_t>(index)];
  }

  /// Reference oracle: runs every layer's hand-wired Forward; `acts`
  /// gets one entry per layer (owning buffers are reused when already
  /// sized). Returns the final output (acts.back().y).
  const Tensor<T>& Forward(const Tensor<T>& x,
                           std::vector<EncoderActivationsT<T>>& acts) const;

  /// Reference oracle: backpropagates through every layer's hand-wired
  /// Backward; fills one gradient set per layer and returns layer 0's
  /// d_x (grads.front().d_x).
  const Tensor<T>& Backward(const Tensor<T>& d_y,
                            const std::vector<EncoderActivationsT<T>>& acts,
                            std::vector<EncoderGradientsT<T>>& grads) const;

  /// All parameters, names prefixed "layer<n>." -- optimizer/checkpoint
  /// friendly.
  std::vector<std::pair<std::string, Tensor<T>*>> NamedParams();

  // --- Whole-stack executor path (one graph, one plan, one slab) ---------
  //
  // Built on a StackArenaT (MakeStackArena): embedding -> N layers -> loss
  // live in ONE planned graph, so cross-layer transients share bytes and
  // the concurrent dispatch overlaps steps *across* layers. Bitwise
  // identical to the reference path above at every thread count, fused
  // and unfused, checkpointed or not.

  /// The cached whole-stack executor bound to `arena` (rebuilt when the
  /// arena or its slab changes). Every layer's weights are pre-bound as
  /// "L<l>.<name>"; the executor is public so callers can bind embedding
  /// token ids, the loss target, and embedding-table gradient accumulators
  /// before running graphs with vocab/loss heads.
  graph::GraphExecutorT<T>& Executor(StackArenaT<T>& arena) const;

  /// Whole-stack forward over `arena`'s plan. Requires a graph whose input
  /// is "x" (no embedding head). Returns the top layer's output as an
  /// arena view (overwritten by the next step; deep-copy to keep it).
  const Tensor<T>& Forward(const Tensor<T>& x, StackArenaT<T>& arena) const;

  /// Whole-stack backward from d_y (requires a graph without a loss head,
  /// so "d_y" is the graph input); must follow a Forward on the same
  /// arena. Fills one gradient set per layer (weight gradients stay
  /// owning; each d_x becomes an arena view) and returns layer 0's d_x.
  const Tensor<T>& Backward(const Tensor<T>& d_y, StackArenaT<T>& arena,
                            std::vector<EncoderGradientsT<T>>& grads) const;

 private:
  std::vector<EncoderLayerT<T>> layers_;
  // Whole-stack executor cache, keyed by the arena address *and* its slab
  // address: a new arena reusing a freed arena's address must not revive
  // an executor whose views point into the old slab. (Concurrent calls on
  // one stack instance are not supported.)
  mutable std::unique_ptr<graph::GraphExecutorT<T>> stack_executor_;
  mutable const StackArenaT<T>* stack_arena_ = nullptr;
  mutable const void* stack_slab_ = nullptr;
  // Storage behind the references Forward/Backward return (arena views).
  mutable Tensor<T> y_view_, dx_view_;
};

using EncoderStack = EncoderStackT<Half>;
extern template class EncoderStackT<Half>;
extern template class EncoderStackT<float>;

}  // namespace xflow::transformer
