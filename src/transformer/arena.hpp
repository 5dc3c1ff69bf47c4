// The whole-stack arena: one liveness-planned slab (graph/memory_plan.hpp)
// behind every activation, mask and backward temporary of a training
// step. EncoderStackT's executor resolves each container to a view at its
// planned offset, so steady-state steps perform zero tensor allocations
// and peak activation memory follows the plan instead of the naive
// sum-of-tensors.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "graph/checkpoint.hpp"
#include "graph/memory_plan.hpp"
#include "tensor/workspace.hpp"
#include "transformer/encoder.hpp"

namespace xflow::transformer {

/// Plan options for a `Tensor<T>` transformer layer: activations take
/// sizeof(T) bytes, the fp32 layernorm statistics 4, and the stacked
/// Q/K/V blocks are grouped so the algebraically fused projections (and
/// the [dQ~ dK~ dV~] gradient stack) read/write one contiguous tensor.
template <typename T>
graph::PlanOptions EncoderPlanOptions();

/// Plan options for a whole-stack graph (graph::BuildEncoderStack):
/// per-layer "L<l>." Q/K/V groups (recompute "@r" clones included), element
/// sizes that see through the "@r" suffix (fp32 layernorm statistics and
/// loss scalar), and fused spans derived from the fusion pass itself so
/// every recognized multi-op kernel -- cross-layer EBSB merges and
/// checkpoint-clone chains included -- is planned as one atomic span.
template <typename T>
graph::PlanOptions StackPlanOptions(const graph::DataflowGraph& graph);

/// One slab for an entire training step: the whole-stack graph, its plan,
/// and the checkpoint decisions that shaped it. Every layer's activations
/// and gradients live in this single liveness-planned workspace, so
/// transients of different layers overlap whenever their
/// store-until-backward windows permit.
template <typename T>
class StackArenaT {
 public:
  StackArenaT(graph::DataflowGraph graph, const graph::PlanOptions& options,
              std::vector<int> recompute_layers = {})
      : graph_(std::move(graph)),
        plan_(graph::PlanMemory(graph_, options)),
        workspace_(plan_.peak_bytes()),
        recompute_layers_(std::move(recompute_layers)) {
    std::sort(recompute_layers_.begin(), recompute_layers_.end());
  }
  /// Adopts a checkpoint-aware plan (graph/checkpoint.hpp).
  explicit StackArenaT(graph::CheckpointedStackPlan plan)
      : graph_(std::move(plan.graph)),
        plan_(std::move(plan.plan)),
        workspace_(plan_.peak_bytes()),
        recompute_layers_(std::move(plan.recompute_layers)),
        decisions_(std::move(plan.decisions)),
        recompute_seconds_(plan.recompute_seconds) {}

  /// A view of the planned container `name`. The caller supplies the
  /// runtime shape, which may relabel dims (the paper's j->k / p->w
  /// renames) but must match the planned byte size. Element type per
  /// view lets fp32 layernorm statistics coexist with fp16 activations.
  template <typename U>
  [[nodiscard]] Tensor<U> ViewAs(const std::string& name, Shape shape) {
    const graph::TensorPlacement& p = plan_.at(name);
    require(static_cast<std::size_t>(shape.num_elements()) * sizeof(U) ==
                p.bytes,
            StrFormat("arena view '%s' does not match its planned size",
                      name.c_str()));
    return workspace_.ViewAt<U>(p.offset, std::move(shape));
  }

  [[nodiscard]] const graph::DataflowGraph& graph() const { return graph_; }
  [[nodiscard]] const graph::MemoryPlan& plan() const { return plan_; }
  [[nodiscard]] Workspace& workspace() { return workspace_; }
  /// Layers whose forward re-executes inside backward (sorted ascending);
  /// empty when nothing is checkpointed.
  [[nodiscard]] const std::vector<int>& recompute_layers() const {
    return recompute_layers_;
  }
  [[nodiscard]] const std::vector<graph::ActivationDecision>& decisions()
      const {
    return decisions_;
  }
  /// Roofline estimate of the extra re-execution per step (seconds).
  [[nodiscard]] double recompute_seconds() const { return recompute_seconds_; }

 private:
  graph::DataflowGraph graph_;
  graph::MemoryPlan plan_;
  Workspace workspace_;
  std::vector<int> recompute_layers_;
  std::vector<graph::ActivationDecision> decisions_;
  double recompute_seconds_ = 0;
};

/// Whole-stack arena for EncoderStackT's graph-executor path. With
/// `memory_budget_bytes` > 0 the plan is checkpoint-aware: layers are
/// greedily marked for recompute until the planned peak fits the budget
/// (graph::PlanCheckpointedStack). `options.recompute_layers` is honored
/// as-is when the budget is 0 and overwritten by the planner otherwise.
template <typename T>
StackArenaT<T> MakeStackArena(const EncoderConfig& config,
                              graph::StackGraphOptions options,
                              std::size_t memory_budget_bytes = 0);

extern template graph::PlanOptions EncoderPlanOptions<Half>();
extern template graph::PlanOptions EncoderPlanOptions<float>();
extern template graph::PlanOptions StackPlanOptions<Half>(
    const graph::DataflowGraph&);
extern template graph::PlanOptions StackPlanOptions<float>(
    const graph::DataflowGraph&);
extern template class StackArenaT<Half>;
extern template class StackArenaT<float>;
extern template StackArenaT<Half> MakeStackArena<Half>(
    const EncoderConfig&, graph::StackGraphOptions, std::size_t);
extern template StackArenaT<float> MakeStackArena<float>(
    const EncoderConfig&, graph::StackGraphOptions, std::size_t);

}  // namespace xflow::transformer
