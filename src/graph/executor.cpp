#include "graph/executor.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/threadpool.hpp"
#include "fusion/fuser.hpp"
#include "graph/lowering.hpp"
#include "ops/elementwise.hpp"
#include "ops/embedding.hpp"
#include "ops/fused.hpp"
#include "ops/layernorm.hpp"
#include "ops/softmax.hpp"

namespace xflow::graph {

namespace {

/// Aliasing relabel: the same bytes under positional dim names `names`
/// (the executor's equivalent of the hand-wired layer's RenamedDim
/// chains, e.g. presenting the phbk key block as phbj for the stacked
/// bias kernels).
template <typename T>
Tensor<T> Relabeled(const Tensor<T>& t, const std::string& names) {
  require(static_cast<std::size_t>(t.shape().rank()) == names.size(),
          "relabel rank mismatch");
  std::vector<DimExt> dims;
  dims.reserve(names.size());
  for (std::size_t d = 0; d < names.size(); ++d) {
    dims.push_back({names[d], t.shape().dims()[d].extent});
  }
  return Tensor<T>::FromSpan(Shape(std::move(dims)),
                             const_cast<T*>(t.data()));
}

/// The normalization dim of a layernorm-family op. Forward and dX reduce
/// over it; dW iterates it independently and reduces everything else.
char NormDim(const OpNode& op) {
  const auto& dims = op.kind == OpKind::kLayerNormDW ? op.independent_dims
                                                     : op.reduction_dims;
  require(!dims.empty(), StrFormat("op '%s' has no normalization dim",
                                   op.name.c_str()));
  return dims.front().name;
}

char ReduceDim(const OpNode& op) {
  require(!op.reduction_dims.empty(),
          StrFormat("op '%s' has no reduction dim", op.name.c_str()));
  return op.reduction_dims.front().name;
}

}  // namespace

bool TaskSchedulerDefault() {
  static const bool value = [] {
    const char* env = std::getenv("XFLOW_TASK_SCHED");
    if (env == nullptr || *env == '\0') return true;
    std::string v(env);
    for (char& c : v) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return v != "0" && v != "false" && v != "off" && v != "no";
  }();
  return value;
}

template <typename T>
bool GraphExecutorT<T>::IsBackwardKind(OpKind kind) {
  return IsBackwardOp(kind);
}

template <typename T>
GraphExecutorT<T>::GraphExecutorT(DataflowGraph graph, const MemoryPlan* plan,
                                  Workspace* workspace,
                                  ExecutorOptions options)
    : graph_(std::move(graph)), plan_(plan), workspace_(workspace),
      options_(std::move(options)) {
  require(plan_ != nullptr && workspace_ != nullptr,
          "executor needs a memory plan and a workspace");
  require(workspace_->capacity() >= plan_->peak_bytes(),
          "workspace is smaller than the plan's peak bytes");
  // Annotate each contraction with its kernel class before scheduling;
  // ops already carrying a class keep it (the pre-flight verifier's
  // graph/lowering-consistent rule cross-checks recorded classes, so a
  // stale annotation fails fast instead of being silently overwritten).
  LowerContractions(graph_);
  BuildBindings();
  BuildSchedule();
}

template <typename T>
void GraphExecutorT<T>::BuildBindings() {
  // Planned containers become fixed views into the slab. Statistics
  // containers (a different element width than T, e.g. fp32 layernorm
  // moments among fp16 activations) get fp32 views; when T is float the
  // widths coincide and everything lands in the T map.
  for (const auto& [name, node] : graph_.tensors()) {
    if (!plan_->Contains(name)) continue;  // weights / excluded inputs
    const TensorPlacement& p = plan_->at(name);
    if (p.shape.rank() == 0) continue;  // group aliases handled below
    if (p.elem_bytes == sizeof(T)) {
      bound_.emplace(name, workspace_->ViewAt<T>(p.offset, node.shape));
    } else {
      require(p.elem_bytes == sizeof(float),
              StrFormat("container '%s' has unsupported element width",
                        name.c_str()));
      stats_.emplace(name, workspace_->ViewAt<float>(p.offset, node.shape));
    }
  }
  // Stacked groups: one spanning view, shaped as the first member with
  // the stack dim's extent summed (the zero-copy [Q~ K~ V~] block).
  for (const PlanGroup& g : options_.stacked) {
    if (!plan_->Contains(g.name)) continue;
    const TensorPlacement& alias = plan_->at(g.name);
    const Shape& first = graph_.tensor(g.members.front()).shape;
    std::int64_t stacked_extent = 0;
    for (const auto& m : g.members) {
      stacked_extent += graph_.tensor(m).shape.dims().front().extent;
    }
    std::vector<DimExt> dims = first.dims();
    dims.front().extent = stacked_extent;
    Shape shape{std::move(dims)};
    require(static_cast<std::size_t>(shape.num_elements()) * sizeof(T) ==
                alias.bytes,
            StrFormat("group '%s' does not span its members",
                      g.name.c_str()));
    bound_.emplace(g.name, workspace_->ViewAt<T>(alias.offset, shape));
  }
}

template <typename T>
void GraphExecutorT<T>::BuildSchedule() {
  const auto& ops = graph_.ops();
  backward_begin_ = static_cast<int>(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    // Checkpoint recompute clones precede the first backward-kind op of
    // their layer; they belong to Backward(), not Forward().
    if (IsBackwardKind(ops[i].kind) || !ops[i].recompute_of.empty()) {
      backward_begin_ = static_cast<int>(i);
      break;
    }
  }

  // Per-op attributes resolved once: parsed einsum specs, stacked-operand
  // substitution, and the dropout seed schedule (appearance order over
  // the dropout-bearing ops, matching the layer's per-site streams).
  // Recompute clones reuse the original op's seed -- bitwise-identical
  // masks -- and do not consume a schedule slot.
  std::size_t next_seed = 0;
  std::map<std::string, std::uint64_t> seed_by_name;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpNode& op = ops[i];
    const int idx = static_cast<int>(i);
    if (op.kind == OpKind::kScaledSoftmax || op.kind == OpKind::kDropout) {
      if (!op.recompute_of.empty()) {
        const auto it = seed_by_name.find(op.recompute_of);
        require(it != seed_by_name.end(),
                StrFormat("recompute clone '%s' precedes its original '%s'",
                          op.name.c_str(), op.recompute_of.c_str()));
        dropout_seed_[idx] = it->second;
      } else {
        require(next_seed < options_.dropout_seeds.size(),
                StrFormat("no dropout seed for op '%s' (provide one per "
                          "dropout-bearing op, in graph order)",
                          op.name.c_str()));
        dropout_seed_[idx] = options_.dropout_seeds[next_seed++];
        seed_by_name[op.name] = dropout_seed_[idx];
      }
    }
    if (op.kind != OpKind::kContraction) continue;
    require(!op.einsum.empty(),
            StrFormat("contraction '%s' has no einsum spec", op.name.c_str()));
    specs_.emplace(idx, EinsumSpec::Parse(op.einsum));
    ContractionOperands operands;
    if (op.inputs.size() == 2) {
      operands.a = op.inputs[0];
      operands.b = op.inputs[1];
    } else if (const PlanGroup* g =
                   GroupMatching(op.inputs, 1, op.inputs.size() - 1)) {
      operands.a = op.inputs[0];  // e.g. Q,K,V dX: w_qkv x [dQ~ dK~ dV~]
      operands.b = g->name;
    } else if (const PlanGroup* h =
                   GroupMatching(op.inputs, 0, op.inputs.size() - 1)) {
      operands.a = h->name;  // e.g. Q,K,V dW: [dQ~ dK~ dV~] x x
      operands.b = op.inputs.back();
    } else {
      require(false, StrFormat("contraction '%s' has %zu inputs and no "
                               "matching stacked group",
                               op.name.c_str(), op.inputs.size()));
    }
    if (op.outputs.size() == 1) {
      operands.out = op.outputs[0];
    } else if (const PlanGroup* g =
                   GroupMatching(op.outputs, 0, op.outputs.size())) {
      operands.out = g->name;  // e.g. Q,K,V: one stacked GEMM output
    } else {
      require(false, StrFormat("contraction '%s' writes %zu outputs and no "
                               "matching stacked group",
                               op.name.c_str(), op.outputs.size()));
    }
    contraction_operands_[idx] = std::move(operands);
  }

  // Schedule. Fused mode takes the groups the fusion pass chooses and
  // dispatches the recognized paper kernels as single launches; anything
  // unrecognized falls back to per-op execution, so fuser changes degrade
  // to correct (if slower) schedules instead of failing.
  steps_.clear();
  auto push_single = [&](int idx) {
    steps_.push_back(Step{StepKind::kSingle, {idx}});
  };
  if (options_.use_fused_kernels) {
    const auto fused = fusion::FuseMaximally(graph_);
    for (const auto& kernel : fused.kernels) {
      if (kernel.op_indices.size() == 1) {
        push_single(kernel.op_indices.front());
        continue;
      }
      StepKind kind = StepKind::kSingle;
      if (kernel.name == "DRLN" || kernel.name == "BDRLN") {
        kind = StepKind::kDRLN;
      } else if (kernel.name == "BRD") {
        kind = StepKind::kBRD;
      } else if (kernel.name == "BLNRD") {
        kind = StepKind::kBLNRD;
      } else if (kernel.name == "BDRB") {
        kind = StepKind::kBDRB;
      } else if (kernel.name == "EBSB") {
        kind = StepKind::kEBSB;
      }
      if (kind == StepKind::kSingle) {
        for (int idx : kernel.op_indices) push_single(idx);
      } else {
        steps_.push_back(Step{kind, kernel.op_indices});
      }
    }
  } else {
    for (std::size_t i = 0; i < graph_.ops().size(); ++i) {
      push_single(static_cast<int>(i));
    }
  }

  backward_begin_step_ = static_cast<int>(steps_.size());
  for (std::size_t s = 0; s < steps_.size(); ++s) {
    if (steps_[s].ops.front() >= backward_begin_) {
      backward_begin_step_ = static_cast<int>(s);
      break;
    }
  }

  BuildStepDeps();
}

template <typename T>
void GraphExecutorT<T>::BuildStepDeps() {
  const int count = static_cast<int>(steps_.size());
  step_preds_.assign(steps_.size(), {});
  step_succs_.assign(steps_.size(), {});
  runners_.resize(steps_.size());
  for (int s = 0; s < count; ++s) runners_[static_cast<std::size_t>(s)] =
      StepRunner{this, s};
  remaining_ = std::make_unique<std::atomic<int>[]>(steps_.size());

  // What every step touches: container names with a written-by-this-step
  // flag, plus the planned byte span of each planned container. Names
  // catch external containers (weights, graph inputs, weight gradients)
  // that the plan never sees; byte spans are the safety net against a
  // plan that recycles bytes between name-independent steps -- the
  // planner proves such reuse path-ordered (and the verifier's
  // plan/concurrent-overlap rule re-checks it), but a scheduler must not
  // rely on an optimizer's proof to stay memory-safe.
  struct Access {
    std::map<std::string, bool> names;  // name -> step writes it
    std::vector<std::array<std::size_t, 3>> spans;  // begin, end, writes
  };
  std::vector<Access> access(steps_.size());
  for (int s = 0; s < count; ++s) {
    Access& a = access[static_cast<std::size_t>(s)];
    for (int idx : steps_[static_cast<std::size_t>(s)].ops) {
      const OpNode& op = graph_.ops()[static_cast<std::size_t>(idx)];
      for (const auto& in : op.inputs) a.names.try_emplace(in, false);
      for (const auto& out : op.outputs) a.names.insert_or_assign(out, true);
    }
    for (const auto& [name, writes] : a.names) {
      if (!plan_->Contains(name)) continue;
      const TensorPlacement& p = plan_->at(name);
      if (p.bytes == 0) continue;
      a.spans.push_back({p.offset, p.offset + p.bytes,
                         writes ? std::size_t{1} : std::size_t{0}});
    }
  }
  const auto conflicts = [](const Access& x, const Access& y) {
    const Access& probe = x.names.size() <= y.names.size() ? x : y;
    const Access& table = x.names.size() <= y.names.size() ? y : x;
    for (const auto& [name, writes] : probe.names) {
      const auto it = table.names.find(name);
      if (it != table.names.end() && (writes || it->second)) return true;
    }
    for (const auto& sx : x.spans) {
      for (const auto& sy : y.spans) {
        if (sx[2] == 0 && sy[2] == 0) continue;  // two reads never race
        if (sx[0] < sy[1] && sy[0] < sx[1]) return true;
      }
    }
    return false;
  };
  // Edges run strictly forward in schedule order, so the DAG is acyclic
  // by construction and step_succs_ lists stay sorted ascending.
  for (int j = 1; j < count; ++j) {
    for (int i = 0; i < j; ++i) {
      if (conflicts(access[static_cast<std::size_t>(i)],
                    access[static_cast<std::size_t>(j)])) {
        step_preds_[static_cast<std::size_t>(j)].push_back(i);
        step_succs_[static_cast<std::size_t>(i)].push_back(j);
      }
    }
  }
}

template <typename T>
const PlanGroup* GraphExecutorT<T>::GroupMatching(
    const std::vector<std::string>& names, std::size_t begin,
    std::size_t count) const {
  for (const PlanGroup& g : options_.stacked) {
    if (g.members.size() != count || !plan_->Contains(g.name)) continue;
    bool match = true;
    for (std::size_t m = 0; m < count; ++m) {
      if (g.members[m] != names[begin + m]) {
        match = false;
        break;
      }
    }
    if (match) return &g;
  }
  return nullptr;
}

template <typename T>
void GraphExecutorT<T>::BindInput(const std::string& name,
                                  const Tensor<T>& tensor) {
  require(graph_.HasTensor(name),
          StrFormat("graph has no container '%s'", name.c_str()));
  require(tensor.size() == graph_.tensor(name).shape.num_elements(),
          StrFormat("bound '%s' does not match its graph element count",
                    name.c_str()));
  // Stored as an aliasing view: never copied, never written (enforced at
  // dispatch through the writable_ flag).
  bound_.insert_or_assign(
      name, Tensor<T>::FromSpan(tensor.shape(), const_cast<T*>(tensor.data())));
  writable_[name] = false;
  forward_preflight_pending_ = true;
  backward_preflight_pending_ = true;
}

template <typename T>
void GraphExecutorT<T>::BindOutput(const std::string& name, Tensor<T>& tensor) {
  require(graph_.HasTensor(name),
          StrFormat("graph has no container '%s'", name.c_str()));
  require(tensor.size() == graph_.tensor(name).shape.num_elements(),
          StrFormat("bound '%s' does not match its graph element count",
                    name.c_str()));
  bound_.insert_or_assign(name,
                          Tensor<T>::FromSpan(tensor.shape(), tensor.data()));
  writable_[name] = true;
  forward_preflight_pending_ = true;
  backward_preflight_pending_ = true;
}

template <typename T>
void GraphExecutorT<T>::BindTokens(const std::vector<std::int32_t>& tokens) {
  tokens_.assign(tokens.begin(), tokens.end());
}

template <typename T>
Tensor<T>& GraphExecutorT<T>::View(const std::string& name) {
  const auto it = bound_.find(name);
  require(it != bound_.end(),
          StrFormat("container '%s' is not planned and not bound -- bind "
                    "weights and graph inputs with BindInput/BindOutput",
                    name.c_str()));
  return it->second;
}

template <typename T>
Tensor<T>& GraphExecutorT<T>::MutableView(const std::string& name) {
  Tensor<T>& t = View(name);
  const auto w = writable_.find(name);
  require(w == writable_.end() || w->second,
          StrFormat("op writes read-only external container '%s' (bind it "
                    "with BindOutput)",
                    name.c_str()));
  return t;
}

template <typename T>
TensorF& GraphExecutorT<T>::StatView(const std::string& name) {
  if constexpr (std::is_same_v<T, float>) {
    return View(name);
  } else {
    const auto it = stats_.find(name);
    require(it != stats_.end(),
            StrFormat("container '%s' is not a planned statistic",
                      name.c_str()));
    return it->second;
  }
}

template <typename T>
VerifyReport GraphExecutorT<T>::VerifyBindings() const {
  return VerifyBindingsInRange(0, static_cast<int>(graph_.ops().size()),
                               /*warn_unused=*/true);
}

template <typename T>
VerifyReport GraphExecutorT<T>::VerifyBindingsInRange(
    int begin_op, int end_op, bool warn_unused) const {
  VerifyReport report;
  // Containers the range touches, with their last writer in the range.
  std::map<std::string, int> writer_of;
  for (int i = begin_op; i < end_op; ++i) {
    const OpNode& op = graph_.ops()[static_cast<std::size_t>(i)];
    for (const auto& in : op.inputs) writer_of.try_emplace(in, -1);
    for (const auto& out : op.outputs) writer_of[out] = i;
  }
  for (const auto& [name, writer] : writer_of) {
    if (!bound_.contains(name) && !stats_.contains(name)) {
      report.issues.push_back(VerifyIssue{
          VerifySeverity::kError, "binding/unbound", "", name,
          "not planned and not bound -- bind weights and graph inputs "
          "with BindInput/BindOutput"});
      continue;
    }
    const auto w = writable_.find(name);
    if (w == writable_.end()) continue;  // planned view, always writable
    if (writer >= 0 && !w->second) {
      report.issues.push_back(VerifyIssue{
          VerifySeverity::kError, "binding/read-only",
          graph_.ops()[static_cast<std::size_t>(writer)].name, name,
          StrFormat("written by %s but bound read-only (use BindOutput)",
                    OpRef(graph_, writer).c_str())});
    } else if (writer < 0 && w->second && warn_unused) {
      report.issues.push_back(VerifyIssue{
          VerifySeverity::kWarning, "binding/unused-writable", "", name,
          "bound writable but no op writes it (BindInput suffices)"});
    }
  }
  return report;
}

template <typename T>
void GraphExecutorT<T>::MaybeVerify(int begin_op, int end_op, bool* pending) {
  if (!*pending || !PreflightVerifyEnabled()) return;
  VerifyReport report = Verify(graph_, *plan_);
  VerifyReport bindings =
      VerifyBindingsInRange(begin_op, end_op, /*warn_unused=*/false);
  report.issues.insert(report.issues.end(),
                       std::make_move_iterator(bindings.issues.begin()),
                       std::make_move_iterator(bindings.issues.end()));
  require(report.ok(), StrFormat("graph executor pre-flight failed: %s",
                                 report.Summary().c_str()));
  *pending = false;  // clean until the next rebind
}

template <typename T>
void GraphExecutorT<T>::Forward() {
  MaybeVerify(0, backward_begin_, &forward_preflight_pending_);
  RunRange(0, backward_begin_step_);
}

template <typename T>
void GraphExecutorT<T>::Backward() {
  MaybeVerify(backward_begin_, static_cast<int>(graph_.ops().size()),
              &backward_preflight_pending_);
  RunRange(backward_begin_step_, static_cast<int>(steps_.size()));
}

template <typename T>
void GraphExecutorT<T>::RunRange(int begin_step, int end_step) {
  if (options_.use_task_scheduler && end_step - begin_step > 1 &&
      ThreadPool::Global().threads() > 1) {
    RunRangeConcurrent(begin_step, end_step);
    return;
  }
  for (int s = begin_step; s < end_step; ++s) RunStepChecked(s);
}

template <typename T>
void GraphExecutorT<T>::RunRangeConcurrent(int begin_step, int end_step) {
  // Dependency counts restricted to this range (predecessors before
  // begin_step already ran in a prior call), biased by one so the kickoff
  // loop below and completing steps use the same release discipline: the
  // decrement that reaches zero -- wherever it came from -- spawns.
  for (int s = begin_step; s < end_step; ++s) {
    int preds = 0;
    for (int p : step_preds_[static_cast<std::size_t>(s)]) {
      preds += p >= begin_step ? 1 : 0;
    }
    remaining_[s].store(preds + 1, std::memory_order_relaxed);
  }
  TaskGroup group;  // over the global pool
  RunCtx ctx;
  ctx.group = &group;
  ctx.begin_step = begin_step;
  ctx.end_step = end_step;
  run_ = &ctx;
  for (int s = begin_step; s < end_step; ++s) {
    if (remaining_[s].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      group.Spawn(runners_[static_cast<std::size_t>(s)]);
    }
  }
  try {
    group.Wait();  // rethrows the first step failure after quiescing
  } catch (...) {
    run_ = nullptr;
    throw;
  }
  run_ = nullptr;
}

template <typename T>
void GraphExecutorT<T>::RunStepTask(int s) {
  RunCtx& ctx = *run_;
  if (ctx.failed.load(std::memory_order_acquire)) return;
  try {
    RunStepChecked(s);
  } catch (...) {
    // Leave successors unreleased: the range is being abandoned, and
    // TaskGroup::Wait will rethrow this (its first recorded error) once
    // the already-spawned steps have drained.
    ctx.failed.store(true, std::memory_order_release);
    throw;
  }
  for (int t : step_succs_[static_cast<std::size_t>(s)]) {
    if (t >= ctx.end_step) break;  // ascending, rest is out of range too
    if (remaining_[t].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ctx.group->Spawn(runners_[static_cast<std::size_t>(t)]);
    }
  }
}

template <typename T>
void GraphExecutorT<T>::RunStepChecked(int s) {
  const Step& step = steps_[static_cast<std::size_t>(s)];
  // Kernel-layer failures name the op(s) being executed, in the
  // verifier's diagnostic form, instead of surfacing a bare index.
  auto step_ref = [&] {
    std::vector<std::string> refs;
    refs.reserve(step.ops.size());
    for (int idx : step.ops) refs.push_back(OpRef(graph_, idx));
    return Join(refs, " + ");
  };
  try {
    Dispatch(step);
  } catch (const InvalidArgument& e) {
    throw InvalidArgument(
        StrFormat("%s [while executing %s]", e.what(), step_ref().c_str()));
  } catch (const ContractViolation& e) {
    throw ContractViolation(
        StrFormat("%s [while executing %s]", e.what(), step_ref().c_str()));
  } catch (const std::out_of_range& e) {
    throw ContractViolation(
        StrFormat("missing per-op attribute (%s) [while executing %s]",
                  e.what(), step_ref().c_str()));
  }
}

template <typename T>
void GraphExecutorT<T>::Dispatch(const Step& step) {
  const auto op = [&](std::size_t member) -> const OpNode& {
    return graph_.ops()[static_cast<std::size_t>(step.ops[member])];
  };
  const float keep = 1.0f - options_.dropout_prob;
  const float keep_scale = keep > 0 ? 1.0f / keep : 0.0f;
  switch (step.kind) {
    case StepKind::kSingle:
      DispatchSingle(op(0), step.ops[0]);
      return;
    case StepKind::kDRLN: {
      // bias -> dropout -> residual -> layernorm, one pass over memory.
      const OpNode& bias = op(0);
      const OpNode& drop = op(1);
      const OpNode& resid = op(2);
      const OpNode& ln = op(3);
      // The residual leg is the input the group did not produce itself.
      const std::string& res_in =
          resid.inputs[0] == drop.outputs[0] ? resid.inputs[1]
                                             : resid.inputs[0];
      const DropoutMask mask(dropout_seed_.at(step.ops[1]),
                             options_.dropout_prob);
      ops::BiasDropoutResidualLayerNorm(
          View(bias.inputs[0]), View(bias.inputs[1]), View(res_in), mask,
          View(ln.inputs[1]), View(ln.inputs[2]), NormDim(ln),
          options_.ln_eps, MutableView(resid.outputs[0]),
          MutableView(drop.outputs[1]), MutableView(ln.outputs[0]),
          StatView(ln.outputs[1]), StatView(ln.outputs[2]));
      return;
    }
    case StepKind::kBRD: {
      const OpNode& bias = op(0);
      const OpNode& relu = op(1);
      const OpNode& drop = op(2);
      const DropoutMask mask(dropout_seed_.at(step.ops[2]),
                             options_.dropout_prob);
      ops::BiasReluDropout(View(bias.inputs[0]), View(bias.inputs[1]), mask,
                           MutableView(relu.outputs[0]),
                           MutableView(drop.outputs[0]),
                           MutableView(drop.outputs[1]));
      return;
    }
    case StepKind::kBLNRD: {
      const OpNode& ln_dx = op(0);
      const OpNode& drop_dx = op(1);
      ops::LayerNormDropoutBackward(
          View(ln_dx.inputs[0]), View(ln_dx.inputs[1]), View(ln_dx.inputs[2]),
          StatView(ln_dx.inputs[3]), StatView(ln_dx.inputs[4]),
          View(drop_dx.inputs[1]), NormDim(ln_dx), keep_scale,
          MutableView(ln_dx.outputs[0]), MutableView(drop_dx.outputs[0]));
      return;
    }
    case StepKind::kBDRB: {
      const OpNode& bias_hi = op(0);
      const OpNode& drop_dx = op(1);
      const OpNode& relu_dx = op(2);
      const OpNode& bias_lo = op(3);
      ops::BiasDropoutReluBiasBackward(
          View(bias_hi.inputs[0]), View(drop_dx.inputs[0]),
          View(drop_dx.inputs[1]), View(relu_dx.inputs[1]), keep_scale,
          MutableView(bias_hi.outputs[0]), MutableView(relu_dx.outputs[0]),
          MutableView(bias_lo.outputs[0]));
      return;
    }
    case StepKind::kEBSB: {
      const OpNode& resid = op(0);
      const OpNode& ln_dw = op(1);
      ops::ResidualLayerNormDwBackward(
          View(resid.inputs[0]), View(resid.inputs[1]), View(ln_dw.inputs[1]),
          StatView(ln_dw.inputs[2]), StatView(ln_dw.inputs[3]),
          NormDim(ln_dw), MutableView(resid.outputs[0]),
          MutableView(ln_dw.outputs[0]), MutableView(ln_dw.outputs[1]));
      return;
    }
  }
}

template <typename T>
void GraphExecutorT<T>::DispatchSingle(const OpNode& op, int op_index) {
  const float keep = 1.0f - options_.dropout_prob;
  const float keep_scale = keep > 0 ? 1.0f / keep : 0.0f;
  switch (op.kind) {
    case OpKind::kContraction: {
      const ContractionOperands& o = contraction_operands_.at(op_index);
      EinsumLowered(specs_.at(op_index), op.lowered, View(o.a), View(o.b),
                    MutableView(o.out));
      return;
    }
    case OpKind::kBias: {
      if (op.outputs.size() == 1) {
        ops::BiasForward(View(op.inputs[0]), View(op.inputs[1]),
                         MutableView(op.outputs[0]));
        return;
      }
      // Stacked projection bias (the AIB site): the last input is the
      // stacked bias; member blocks are presented under the first
      // member's dim names, exactly like the hand-wired layer's renamed
      // views, so the bias's stack dim lines up for every block.
      require(op.outputs.size() == 3 && op.inputs.size() == 4,
              StrFormat("unsupported bias arity on '%s'", op.name.c_str()));
      const Tensor<T>& stacked_bias = View(op.inputs.back());
      const std::string names = View(op.inputs[0]).shape().names();
      std::array<Tensor<T>, 3> in;
      std::array<Tensor<T>, 3> out;
      for (std::size_t s = 0; s < 3; ++s) {
        in[s] = Relabeled(View(op.inputs[s]), names);
        out[s] = Relabeled(MutableView(op.outputs[s]), names);
      }
      const char stack_dim = stacked_bias.shape().dims().front().name;
      if (options_.use_fused_kernels) {
        ops::AttnInputBias<T>({&in[0], &in[1], &in[2]}, stacked_bias,
                              stack_dim, {&out[0], &out[1], &out[2]});
      } else {
        std::int64_t start = 0;
        for (std::size_t s = 0; s < 3; ++s) {
          const std::int64_t count = in[s].shape().dims().front().extent;
          ops::BiasForward(in[s],
                           stacked_bias.SliceViewDim(stack_dim, start, count),
                           out[s]);
          start += count;
        }
      }
      return;
    }
    case OpKind::kReLU:
      ops::ReluForward(View(op.inputs[0]), MutableView(op.outputs[0]));
      return;
    case OpKind::kDropout: {
      const DropoutMask mask(dropout_seed_.at(op_index),
                             options_.dropout_prob);
      ops::DropoutForward(View(op.inputs[0]), mask,
                          MutableView(op.outputs[0]),
                          MutableView(op.outputs[1]));
      return;
    }
    case OpKind::kResidual:
    case OpKind::kResidualBwd:
      ops::ResidualForward(View(op.inputs[0]), View(op.inputs[1]),
                           MutableView(op.outputs[0]));
      return;
    case OpKind::kScale:
      ops::ScaleForward(View(op.inputs[0]), options_.attn_scale,
                        MutableView(op.outputs[0]));
      return;
    case OpKind::kScaledSoftmax: {
      const DropoutMask mask(dropout_seed_.at(op_index),
                             options_.dropout_prob);
      if (options_.causal) {
        ops::CausalScaledSoftmaxForward(
            View(op.inputs[0]), ReduceDim(op), options_.attn_query_dim,
            options_.attn_scale, mask, MutableView(op.outputs[0]),
            MutableView(op.outputs[1]), MutableView(op.outputs[2]));
      } else {
        ops::ScaledSoftmaxForward(
            View(op.inputs[0]), ReduceDim(op), options_.attn_scale, mask,
            MutableView(op.outputs[0]), MutableView(op.outputs[1]),
            MutableView(op.outputs[2]));
      }
      return;
    }
    case OpKind::kLayerNorm:
      ops::LayerNormForward(View(op.inputs[0]), View(op.inputs[1]),
                            View(op.inputs[2]), NormDim(op), options_.ln_eps,
                            MutableView(op.outputs[0]),
                            StatView(op.outputs[1]),
                            StatView(op.outputs[2]));
      return;
    case OpKind::kBiasDW: {
      if (op.inputs.size() == 1) {
        ops::BiasBackwardDW(View(op.inputs[0]), MutableView(op.outputs[0]));
        return;
      }
      // Stacked bias gradient (the BAIB site).
      const PlanGroup* g = GroupMatching(op.inputs, 0, op.inputs.size());
      require(g != nullptr && op.inputs.size() == 3,
              StrFormat("bias dW '%s' has multiple inputs but no stacked "
                        "group",
                        op.name.c_str()));
      Tensor<T>& d_bias = MutableView(op.outputs[0]);
      if (options_.use_fused_kernels) {
        const std::string names = View(op.inputs[0]).shape().names();
        std::array<Tensor<T>, 3> in;
        for (std::size_t s = 0; s < 3; ++s) {
          in[s] = Relabeled(View(op.inputs[s]), names);
        }
        const char stack_dim = d_bias.shape().dims().front().name;
        ops::AttnInputBiasBackward<T>({&in[0], &in[1], &in[2]}, stack_dim,
                                      d_bias);
      } else {
        ops::BiasBackwardDW(View(g->name), d_bias);
      }
      return;
    }
    case OpKind::kReLUDX:
      ops::ReluBackwardDX(View(op.inputs[0]), View(op.inputs[1]),
                          MutableView(op.outputs[0]));
      return;
    case OpKind::kDropoutDX:
      ops::DropoutBackwardDX(View(op.inputs[0]), View(op.inputs[1]),
                             keep_scale, MutableView(op.outputs[0]));
      return;
    case OpKind::kScaledSoftmaxDX:
      ops::ScaledSoftmaxBackwardDX(View(op.inputs[0]), View(op.inputs[1]),
                                   View(op.inputs[2]), ReduceDim(op),
                                   options_.attn_scale, keep_scale,
                                   MutableView(op.outputs[0]));
      return;
    case OpKind::kLayerNormDX:
      ops::LayerNormBackwardDX(View(op.inputs[0]), View(op.inputs[1]),
                               View(op.inputs[2]), StatView(op.inputs[3]),
                               StatView(op.inputs[4]), NormDim(op),
                               MutableView(op.outputs[0]));
      return;
    case OpKind::kLayerNormDW:
      ops::LayerNormBackwardDW(View(op.inputs[0]), View(op.inputs[1]),
                               StatView(op.inputs[2]), StatView(op.inputs[3]),
                               NormDim(op), MutableView(op.outputs[0]),
                               MutableView(op.outputs[1]));
      return;
    case OpKind::kEmbed:
      require(!tokens_.empty(),
              "kEmbed needs token ids -- call BindTokens before Forward");
      ops::EmbeddingForwardKernel(View(op.inputs[0]), View(op.inputs[1]),
                                  tokens_, MutableView(op.outputs[0]));
      return;
    case OpKind::kEmbedDW:
      require(!tokens_.empty(),
              "kEmbedDW needs token ids -- call BindTokens before Backward");
      ops::EmbeddingBackwardKernel(View(op.inputs[0]), tokens_,
                                   MutableView(op.outputs[0]),
                                   MutableView(op.outputs[1]));
      return;
    case OpKind::kMseLoss:
      last_loss_ = ops::MseLossKernel(View(op.inputs[0]), View(op.inputs[1]),
                                      MutableView(op.outputs[1]));
      StatView(op.outputs[0]).data()[0] = static_cast<float>(last_loss_);
      return;
  }
  require(false, StrFormat("no dispatch for op '%s'", op.name.c_str()));
}

template class GraphExecutorT<Half>;
template class GraphExecutorT<float>;

}  // namespace xflow::graph
