// Global configuration selection (Sec. VI-A, Fig. 6).
//
// One cannot pick each operator's best layout independently: the benefit of
// running two operators in different layouts may not cover the transpose
// between them. We build a DAG whose nodes are (stage boundary, data
// layout) pairs and whose edge weights are the minimum runtime of any
// configuration of the stage with that input/output layout pair, then run
// single-source shortest path from the encoder input to its output. The
// backward pass inherits the selected layouts (as in the paper).
#pragma once

#include <string>
#include <vector>

#include "fusion/fuser.hpp"
#include "graph/graph.hpp"
#include "sim/kernel_model.hpp"

namespace xflow::config {

/// The chosen configuration of one forward stage.
struct StageChoice {
  std::string kernel_name;
  std::string in_layout;   // layout of the inbound activation
  std::string out_layout;  // layout of the outbound activation
  double time_us = 0;      // cost of the stage under that layout pair
  double best_time_us = 0; // per-stage minimum over all layout pairs
};

struct SelectionResult {
  std::vector<StageChoice> stages;
  double total_time_us = 0;           // SSSP path cost
  double per_stage_lower_bound_us = 0;  // sum of unconstrained minima
  int graph_nodes = 0;
  int graph_edges = 0;

  /// total / lower bound - 1; the paper reports their selection lands
  /// within 4% of the (infeasible) per-operator optimum.
  [[nodiscard]] double GapToLowerBound() const {
    return per_stage_lower_bound_us > 0
               ? total_time_us / per_stage_lower_bound_us - 1.0
               : 0.0;
  }

  /// Penalty factor (>= 1) the global selection imposes on a stage, by
  /// kernel name; 1.0 for stages running their unconstrained best.
  [[nodiscard]] double StagePenalty(const std::string& kernel_name) const;
};

/// Runs selection over the forward part of the fused encoder schedule.
SelectionResult SelectConfigurations(const sim::GpuModel& model,
                                     const graph::DataflowGraph& g,
                                     const fusion::FusionResult& fused);

/// Greedy baseline for the ablation: each stage picks its locally best
/// configuration; a transpose penalty is paid whenever the next stage's
/// best input layout differs from the previous stage's chosen output.
double GreedySelectionTime(const sim::GpuModel& model,
                           const graph::DataflowGraph& g,
                           const fusion::FusionResult& fused);

}  // namespace xflow::config
