#include "transformer/arena.hpp"

#include <string_view>

#include "fusion/fuser.hpp"
#include "graph/builder.hpp"

namespace xflow::transformer {

template <typename T>
graph::PlanOptions EncoderPlanOptions() {
  graph::PlanOptions options;
  options.default_elem_bytes = sizeof(T);
  options.elem_bytes = [](const graph::TensorNode& t) -> std::size_t {
    // Layernorm statistics stay fp32 regardless of the activation type.
    if (t.name.ends_with("_mean") || t.name.ends_with("_rstd")) {
      return sizeof(float);
    }
    return sizeof(T);
  };
  options.groups = {{"qkv_proj", {"qq", "kk", "vv"}},
                    {"d_qkv_proj", {"d_qq", "d_kk", "d_vv"}}};
  // Backward takes d_y by reference; it never lives in the arena.
  options.exclude = {"d_y"};
  // The multi-op fused kernels (DRLN/BRD/BDRLN forward; BLNRD/BDRB/EBSB
  // backward): each reads its span's inputs while writing its outputs, so
  // the planner must not recycle one into the other. One plan serves both
  // execution styles -- the unfused pipeline only under-uses the spans.
  options.fused_spans = {
      {"output bias", "attn dropout", "residual 1", "layernorm 1"},
      {"bias 1", "relu", "ff dropout"},
      {"bias 2", "ff2 dropout", "residual 2", "layernorm 2"},
      {"layernorm 2 dX", "ff2 dropout dX"},
      {"bias 2 dW", "ff dropout dX", "relu dX", "bias 1 dW"},
      {"residual 2 bwd", "layernorm 1 dW"},
      {"layernorm 1 dX", "attn dropout dX"},
  };
  return options;
}

template <typename T>
graph::PlanOptions StackPlanOptions(const graph::DataflowGraph& graph) {
  graph::PlanOptions options;
  options.default_elem_bytes = sizeof(T);
  options.elem_bytes = [](const graph::TensorNode& t) -> std::size_t {
    // Layernorm statistics and the loss scalar stay fp32 regardless of the
    // activation type; the "@r" recompute-clone suffix must not hide the
    // statistic suffix.
    std::string_view name = t.name;
    if (name.ends_with("@r")) name.remove_suffix(2);
    if (name.ends_with("_mean") || name.ends_with("_rstd") ||
        name == "loss") {
      return sizeof(float);
    }
    return sizeof(T);
  };
  // Per-layer stacked Q/K/V projections, plus the recompute clones of
  // checkpointed layers (the clone contraction writes the "@r" stack
  // exactly as the original wrote the stored one).
  for (int l = 0; graph.HasTensor(StrFormat("L%d.qq", l)); ++l) {
    const std::string p = StrFormat("L%d.", l);
    options.groups.push_back(
        {p + "qkv_proj", {p + "qq", p + "kk", p + "vv"}});
    options.groups.push_back(
        {p + "d_qkv_proj", {p + "d_qq", p + "d_kk", p + "d_vv"}});
    if (graph.HasTensor(p + "qq@r")) {
      options.groups.push_back(
          {p + "qkv_proj@r", {p + "qq@r", p + "kk@r", p + "vv@r"}});
    }
  }
  // Backward takes d_y by reference when it is a graph input; with a loss
  // head the graph produces d_y itself and it must be planned. The loss
  // target is always caller-provided.
  if (graph.HasTensor("d_y") && graph.ProducerOf("d_y") < 0) {
    options.exclude.push_back("d_y");
  }
  if (graph.HasTensor("target")) options.exclude.push_back("target");
  // Derive the fused spans from the fusion pass itself instead of a
  // hand-maintained list: every recognized multi-op kernel the executor
  // will launch (determinism/fused-spans requires declared == launched)
  // reads its span's inputs while writing its outputs, so the planner must
  // not recycle one into the other. This covers the cross-layer EBSB merge
  // and the checkpoint-clone chains automatically.
  const fusion::FusionResult fused = fusion::FuseMaximally(graph);
  const auto recognized = [](std::string_view name) {
    return name == "DRLN" || name == "BDRLN" || name == "BRD" ||
           name == "BLNRD" || name == "BDRB" || name == "EBSB";
  };
  for (const fusion::FusedKernel& kernel : fused.kernels) {
    if (kernel.op_indices.size() < 2 || !recognized(kernel.name)) continue;
    std::vector<std::string> span;
    span.reserve(kernel.op_indices.size());
    for (const int idx : kernel.op_indices) {
      span.push_back(graph.ops()[static_cast<std::size_t>(idx)].name);
    }
    options.fused_spans.push_back(std::move(span));
  }
  return options;
}

template <typename T>
StackArenaT<T> MakeStackArena(const EncoderConfig& config,
                              graph::StackGraphOptions options,
                              std::size_t memory_budget_bytes) {
  if (memory_budget_bytes > 0) {
    return StackArenaT<T>(graph::PlanCheckpointedStack(
        config.dims, std::move(options),
        [](const graph::DataflowGraph& g) { return StackPlanOptions<T>(g); },
        memory_budget_bytes));
  }
  auto graph = graph::BuildEncoderStack(config.dims, options);
  const auto plan_options = StackPlanOptions<T>(graph);
  return StackArenaT<T>(std::move(graph), plan_options,
                        std::move(options.recompute_layers));
}

template graph::PlanOptions EncoderPlanOptions<Half>();
template graph::PlanOptions EncoderPlanOptions<float>();
template graph::PlanOptions StackPlanOptions<Half>(const graph::DataflowGraph&);
template graph::PlanOptions StackPlanOptions<float>(
    const graph::DataflowGraph&);
template class StackArenaT<Half>;
template class StackArenaT<float>;
template StackArenaT<Half> MakeStackArena<Half>(const EncoderConfig&,
                                                graph::StackGraphOptions,
                                                std::size_t);
template StackArenaT<float> MakeStackArena<float>(const EncoderConfig&,
                                                  graph::StackGraphOptions,
                                                  std::size_t);

}  // namespace xflow::transformer
