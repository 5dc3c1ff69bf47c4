// Planned execution -- the whole-stack executor over one liveness-planned
// slab -- must train bit for bit like the hand-wired reference, under the
// serial and the concurrent schedule, and a steady-state train step must
// perform zero allocations at the tensor layer.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/strings.hpp"
#include "common/threadpool.hpp"
#include "graph/executor.hpp"
#include "tensor/memstats.hpp"
#include "transformer/arena.hpp"
#include "transformer/stack.hpp"
#include "transformer/training.hpp"

namespace xflow::transformer {
namespace {

using graph::ModelDims;

class ThreadGuard {
 public:
  explicit ThreadGuard(int threads) { ThreadPool::SetGlobalThreads(threads); }
  ~ThreadGuard() {
    ThreadPool::SetGlobalThreads(ThreadPool::ResolveGlobalThreads());
  }
};

EncoderConfig TinyConfig(bool fused) {
  EncoderConfig cfg;
  cfg.dims = ModelDims::Tiny();
  cfg.dropout_prob = 0.1f;
  cfg.seed = 7;
  cfg.use_fused_kernels = fused;
  return cfg;
}

Shape TinyIbj() {
  const auto d = ModelDims::Tiny();
  return Shape("ibj", {d.i, d.b, d.j});
}

/// A two-layer Tiny stack being trained with MSE loss and Adam, either
/// through the whole-stack executor or through the hand-wired reference.
class TrainLoop {
 public:
  static constexpr int kLayers = 2;

  TrainLoop(const EncoderConfig& cfg, bool executor)
      : stack_(cfg, kLayers, 3),
        x_(TensorH::Random(TinyIbj(), 5)),
        target_(TensorH::Random(TinyIbj(), 6)),
        d_y_(TinyIbj()),
        opt_({.lr = 2e-3f}),
        masters_(kLayers) {
    if (executor) {
      arena_.emplace(MakeStackArena<Half>(cfg, {.num_layers = kLayers}));
    }
    for (int l = 0; l < kLayers; ++l) {
      for (auto& [name, t] : stack_.layer(l).params().Named()) {
        masters_[static_cast<std::size_t>(l)].push_back(t->Cast<float>());
      }
    }
  }

  /// Forward, loss, backward and one optimizer update; returns the loss.
  double Step() {
    const double loss = MseLoss(Forward(), target_, d_y_);
    if (arena_) {
      stack_.Backward(d_y_, *arena_, grads_);
    } else {
      stack_.Backward(d_y_, acts_, grads_);
    }
    for (int l = 0; l < kLayers; ++l) {
      const auto lu = static_cast<std::size_t>(l);
      auto named_params = stack_.layer(l).params().Named();
      auto named_grads = grads_[lu].params.Named();
      for (std::size_t p = 0; p < named_params.size(); ++p) {
        opt_.Step(StrFormat("l%d.%s", l, named_params[p].first.c_str()),
                  masters_[lu][p], *named_params[p].second,
                  *named_grads[p].second);
      }
    }
    return loss;
  }

  /// The current model's output, deep-copied (the executor's is an arena
  /// view that the next step overwrites).
  TensorH Output() {
    const TensorH& y = Forward();
    TensorH out(y.shape());
    CopyValuesInto(y, out);
    return out;
  }

 private:
  const TensorH& Forward() {
    return arena_ ? stack_.Forward(x_, *arena_) : stack_.Forward(x_, acts_);
  }

  EncoderStackT<Half> stack_;
  std::optional<StackArenaT<Half>> arena_;
  std::vector<EncoderActivationsT<Half>> acts_;
  std::vector<EncoderGradientsT<Half>> grads_;
  TensorH x_, target_, d_y_;
  MixedPrecisionAdam opt_;
  std::vector<std::vector<TensorF>> masters_;
};

TEST(PlannedExecution, WholeStackTrainsIdenticallyToHandWired) {
  // Whole-loop equivalence including the optimizer trajectory: 4 executor
  // train steps == 4 hand-wired train steps, bit for bit, with the serial
  // step loop and with the concurrent task scheduler (any
  // schedule-dependent result byte would compound across steps and show
  // up here). The pool is forced wide so the scheduler overlaps steps.
  ThreadGuard guard(8);
  TrainLoop reference(TinyConfig(true), /*executor=*/false);
  for (int s = 0; s < 4; ++s) reference.Step();
  const TensorH want = reference.Output();
  for (const bool scheduler : {false, true}) {
    SCOPED_TRACE(StrFormat("scheduler=%d", int(scheduler)));
    auto cfg = TinyConfig(true);
    cfg.use_task_scheduler = scheduler;
    TrainLoop loop(cfg, /*executor=*/true);
    for (int s = 0; s < 4; ++s) loop.Step();
    EXPECT_EQ(MaxAbsDiff(loop.Output(), want), 0.0);
  }
}

TEST(PlannedExecution, SteadyStateTrainStepIsAllocationFree) {
  // The planner's and the executor's steady-state contract: after warmup,
  // a full train step (forward, loss, backward, optimizer) through the
  // whole-stack executor performs zero tensor-buffer and zero workspace
  // allocations AND zero einsum offset-table rebuilds, reclassifications
  // or re-tunes (every per-(spec, shapes) cache is warm).
  TrainLoop loop(TinyConfig(true), /*executor=*/true);
  loop.Step();  // warmup: executor, accumulators, optimizer state, tables
  const double warm_loss = loop.Step();
  const auto before = memstats::Read();
  const double loss = loop.Step();
  const auto after = memstats::Read();
  EXPECT_EQ(after.tensor_allocs, before.tensor_allocs)
      << "steady-state step allocated "
      << after.tensor_bytes - before.tensor_bytes << " tensor bytes";
  EXPECT_EQ(after.workspace_allocs, before.workspace_allocs);
  EXPECT_EQ(after.einsum_table_builds, before.einsum_table_builds)
      << "steady-state step rebuilt einsum offset tables";
  EXPECT_EQ(after.einsum_class_builds, before.einsum_class_builds)
      << "steady-state step reclassified einsum contractions";
  EXPECT_EQ(after.autotune_measures, before.autotune_measures)
      << "steady-state step re-tuned a contraction bucket";
  EXPECT_LT(loss, warm_loss);  // and it still trains
}

TEST(PlannedExecution, RepeatedBackwardIntoReusedGradientsIsIdempotent) {
  // Gradient accumulators are reused across steps (EnsureShapes); a kernel
  // that accumulated instead of overwriting would drift on the second run.
  const auto cfg = TinyConfig(true);
  EncoderLayerT<Half> layer(cfg, EncoderParamsT<Half>::Init(cfg.dims, 23));
  EncoderActivationsT<Half> acts;
  layer.Forward(TensorH::Random(TinyIbj(), 29), acts);
  auto d_y = TensorH::Random(TinyIbj(), 31);
  EncoderGradientsT<Half> reused, fresh;
  layer.Backward(d_y, acts, reused);
  layer.Backward(d_y, acts, reused);  // second run into the same buffers
  layer.Backward(d_y, acts, fresh);
  EXPECT_EQ(MaxAbsDiff(reused.d_x, fresh.d_x), 0.0);
  auto rn = reused.params.Named();
  auto fn = fresh.params.Named();
  for (std::size_t p = 0; p < rn.size(); ++p) {
    EXPECT_EQ(MaxAbsDiff(*rn[p].second, *fn[p].second), 0.0) << rn[p].first;
  }
}

}  // namespace
}  // namespace xflow::transformer
