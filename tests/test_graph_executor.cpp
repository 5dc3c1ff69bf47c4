// The graph-level executor's construction contracts over a single-layer
// plan: its fused schedule agrees with the planner's fused spans, the
// schedule and forward/backward boundary are what the graph implies, and
// unbound externals fail loudly. Its bitwise contracts against the
// hand-wired reference live in test_whole_stack and
// test_planned_execution.
#include "graph/executor.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fusion/fuser.hpp"
#include "graph/builder.hpp"
#include "graph/memory_plan.hpp"
#include "tensor/workspace.hpp"
#include "transformer/arena.hpp"

namespace xflow::transformer {
namespace {

using graph::ModelDims;

TEST(GraphExecutor, FuserGroupsMatchPlannedFusedSpans) {
  // The executor takes its fused schedule from fusion::FuseMaximally and
  // the memory plan takes its aliasing constraints from the hand-listed
  // fused_spans in EncoderPlanOptions. These must agree: a fused kernel
  // whose span the planner did not model could read inputs whose bytes
  // its own outputs recycled.
  const auto g = graph::BuildEncoder(ModelDims::Tiny(),
                                     graph::AlgebraicFusion::kQKV, true);
  const auto fused = fusion::FuseMaximally(g);
  std::vector<std::vector<std::string>> multi_op_groups;
  for (const auto& kernel : fused.kernels) {
    if (kernel.op_indices.size() < 2) continue;
    std::vector<std::string> names;
    for (int idx : kernel.op_indices) {
      names.push_back(g.ops()[static_cast<std::size_t>(idx)].name);
    }
    multi_op_groups.push_back(std::move(names));
  }
  EXPECT_EQ(multi_op_groups, EncoderPlanOptions<Half>().fused_spans);
}

TEST(GraphExecutor, ScheduleAndBoundary) {
  const auto dims = ModelDims::Tiny();
  const auto g =
      graph::BuildEncoder(dims, graph::AlgebraicFusion::kQKV, true);
  const auto plan = graph::PlanMemory(g, EncoderPlanOptions<Half>());
  Workspace workspace(plan.peak_bytes());
  graph::ExecutorOptions opts;
  opts.dropout_prob = 0.1f;
  opts.dropout_seeds = {1, 2, 3, 4};
  opts.stacked = EncoderPlanOptions<Half>().groups;

  opts.use_fused_kernels = true;
  graph::GraphExecutorT<Half> fused_exec(g, &plan, &workspace, opts);
  opts.use_fused_kernels = false;
  graph::GraphExecutorT<Half> unfused_exec(g, &plan, &workspace, opts);
  // The backward boundary is the first backward-kind op ("layernorm 2
  // dW"), identical in both schedules.
  int expected = -1;
  for (std::size_t i = 0; i < g.ops().size(); ++i) {
    if (g.ops()[i].name == "layernorm 2 dW") expected = static_cast<int>(i);
  }
  EXPECT_EQ(fused_exec.backward_begin(), expected);
  EXPECT_EQ(unfused_exec.backward_begin(), expected);
  // Fusion shrinks the schedule: the unfused schedule launches one kernel
  // per op, the fused one merges the paper's multi-op groups.
  EXPECT_EQ(unfused_exec.num_steps(), static_cast<int>(g.ops().size()));
  EXPECT_LT(fused_exec.num_steps(), unfused_exec.num_steps());
}

TEST(GraphExecutor, RequiresExternalBindings) {
  // Running without binding the graph inputs/weights must fail loudly,
  // naming the container, instead of reading unbound memory.
  const auto dims = ModelDims::Tiny();
  const auto g =
      graph::BuildEncoder(dims, graph::AlgebraicFusion::kQKV, true);
  const auto plan = graph::PlanMemory(g, EncoderPlanOptions<Half>());
  Workspace workspace(plan.peak_bytes());
  graph::ExecutorOptions opts;
  opts.dropout_prob = 0.1f;
  opts.dropout_seeds = {1, 2, 3, 4};
  opts.stacked = EncoderPlanOptions<Half>().groups;
  graph::GraphExecutorT<Half> exec(g, &plan, &workspace, opts);
  EXPECT_THROW(exec.Forward(), InvalidArgument);
}

}  // namespace
}  // namespace xflow::transformer
