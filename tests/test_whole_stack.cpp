// Whole-stack executor parity: one graph (embedding -> N layers -> loss),
// one plan, one slab -- bitwise identical to the hand-wired reference at
// every thread count, fused and unfused, causal or not, serial or
// concurrent schedule, checkpointed or not, on Tiny and BERT-base dims.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/threadpool.hpp"
#include "graph/executor.hpp"
#include "transformer/arena.hpp"
#include "transformer/embedding.hpp"
#include "transformer/stack.hpp"
#include "transformer/training.hpp"

namespace xflow::transformer {
namespace {

bool UnderSanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

EncoderConfig TestConfig(bool fused) {
  EncoderConfig cfg;
  cfg.dims = graph::ModelDims::Tiny();
  cfg.dropout_prob = 0.1f;  // nonzero: exercises the whole seed schedule
  cfg.use_fused_kernels = fused;
  return cfg;
}

Shape Ibj(const graph::ModelDims& d) {
  return Shape("ibj", {d.i, d.b, d.j});
}

/// Hand-wired per-layer forward+backward; outputs stay in acts/grads.
void HandWiredRun(const EncoderStack& stack, const TensorH& x,
                  const TensorH& d_y, std::vector<EncoderActivations>& acts,
                  std::vector<EncoderGradients>& grads) {
  stack.Forward(x, acts);
  stack.Backward(d_y, acts, grads);
}

/// Runs the whole-stack executor over `arena` and checks y, d_x and every
/// weight gradient bitwise against the hand-wired reference.
void ExpectWholeStackMatches(const EncoderStack& stack,
                             StackArenaT<Half>& arena, const TensorH& x,
                             const TensorH& d_y,
                             const std::vector<EncoderActivations>& ref_acts,
                             std::vector<EncoderGradients>& ref_grads) {
  const TensorH& y = stack.Forward(x, arena);
  EXPECT_EQ(MaxAbsDiff(y, ref_acts.back().y), 0.0);
  std::vector<EncoderGradients> grads;
  const TensorH& d_x = stack.Backward(d_y, arena, grads);
  EXPECT_EQ(MaxAbsDiff(d_x, ref_grads.front().d_x), 0.0);
  ASSERT_EQ(grads.size(), ref_grads.size());
  for (std::size_t l = 0; l < grads.size(); ++l) {
    auto got = grads[l].params.Named();
    auto want = ref_grads[l].params.Named();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t p = 0; p < got.size(); ++p) {
      EXPECT_EQ(MaxAbsDiff(*got[p].second, *want[p].second), 0.0)
          << "layer " << l << " grad " << got[p].first;
    }
  }
}

/// One executor-vs-reference parity case: the hand-wired reference runs
/// once, then the executor under the concurrent and under the serial
/// schedule -- the scheduler may only change which thread runs a step,
/// never a result byte.
struct ParityCase {
  graph::ModelDims dims = graph::ModelDims::Tiny();
  int layers = 3;
  bool causal = false;
  bool fused = true;
  int threads = 0;  // 0: keep the pool as configured (XFLOW_THREADS)
};

void ParityAt(const ParityCase& c) {
  SCOPED_TRACE(::testing::Message()
               << "i=" << c.dims.i << " layers=" << c.layers
               << " causal=" << c.causal << " fused=" << c.fused
               << " threads=" << c.threads);
  if (c.threads > 0) ThreadPool::SetGlobalThreads(c.threads);
  EncoderConfig cfg = TestConfig(c.fused);
  cfg.dims = c.dims;
  cfg.causal = c.causal;
  const auto& d = cfg.dims;
  const auto x = TensorH::Random(Ibj(d), 2);
  const auto d_y = TensorH::Random(Ibj(d), 3);
  std::vector<EncoderActivations> acts;
  std::vector<EncoderGradients> ref_grads;
  HandWiredRun(EncoderStack(cfg, c.layers, 21), x, d_y, acts, ref_grads);

  for (const bool scheduler : {true, false}) {
    SCOPED_TRACE(::testing::Message() << "scheduler=" << scheduler);
    cfg.use_task_scheduler = scheduler;
    const EncoderStack stack(cfg, c.layers, 21);  // same seed, same weights
    auto arena = MakeStackArena<Half>(cfg, {.num_layers = c.layers});
    ExpectWholeStackMatches(stack, arena, x, d_y, acts, ref_grads);
  }
  ThreadPool::SetGlobalThreads(ThreadPool::ResolveGlobalThreads());
}

TEST(WholeStack, BitwiseMatchesHandWiredFused) {
  for (const int threads : {1, 2, 8}) {
    ParityAt({.fused = true, .threads = threads});
  }
}

TEST(WholeStack, BitwiseMatchesHandWiredUnfused) {
  for (const int threads : {1, 2, 8}) {
    ParityAt({.fused = false, .threads = threads});
  }
}

TEST(WholeStack, BitwiseMatchesHandWiredCausal) {
  for (const int threads : {1, 2, 8}) {
    for (const bool fused : {true, false}) {
      ParityAt({.causal = true, .fused = fused, .threads = threads});
    }
  }
}

TEST(WholeStack, BitwiseMatchesHandWiredBertBase) {
  // Full-size dims, one layer, at the pool's configured width: the 1- and
  // 8-thread CTest re-runs of this suite provide the thread-count
  // coverage. Skipped under sanitizers, where the BERT-base contractions
  // alone would dominate the job's budget (the Tiny cases above exercise
  // every dispatch path there).
  if (UnderSanitizer()) {
    GTEST_SKIP() << "BERT-base bitwise suite is too slow under sanitizers";
  }
  for (const bool fused : {true, false}) {
    ParityAt({.dims = graph::ModelDims::BertBase(), .layers = 1,
              .fused = fused});
  }
}

TEST(WholeStack, CheckpointedLayersStayBitwiseIdentical) {
  // Recomputing layers 0 and 1 in the backward pass must not change a
  // single bit: the clones reuse the originals' dropout seeds and the
  // plan keeps every still-needed tensor apart.
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool::SetGlobalThreads(threads);
    const EncoderConfig cfg = TestConfig(/*fused=*/true);
    const auto& d = cfg.dims;
    EncoderStack stack(cfg, 3, 23);
    const auto x = TensorH::Random(Ibj(d), 4);
    const auto d_y = TensorH::Random(Ibj(d), 5);
    std::vector<EncoderActivations> acts;
    std::vector<EncoderGradients> ref_grads;
    HandWiredRun(stack, x, d_y, acts, ref_grads);

    auto arena =
        MakeStackArena<Half>(cfg, {.num_layers = 3, .recompute_layers = {0, 1}});
    EXPECT_EQ(arena.recompute_layers(), (std::vector<int>{0, 1}));
    ExpectWholeStackMatches(stack, arena, x, d_y, acts, ref_grads);
    ThreadPool::SetGlobalThreads(ThreadPool::ResolveGlobalThreads());
  }
}

TEST(WholeStack, BudgetedPlanRunsBitwiseIdentical) {
  // A memory budget below the uncheckpointed peak routes through the
  // checkpoint planner; whatever it decides, execution stays bitwise
  // identical and the planned peak never exceeds the uncheckpointed one.
  const EncoderConfig cfg = TestConfig(/*fused=*/true);
  const auto& d = cfg.dims;
  EncoderStack stack(cfg, 3, 29);
  const auto x = TensorH::Random(Ibj(d), 6);
  const auto d_y = TensorH::Random(Ibj(d), 7);
  std::vector<EncoderActivations> acts;
  std::vector<EncoderGradients> ref_grads;
  HandWiredRun(stack, x, d_y, acts, ref_grads);

  auto uncheckpointed = MakeStackArena<Half>(cfg, {.num_layers = 3});
  const std::size_t full_peak = uncheckpointed.plan().PeakBytes();
  auto arena = MakeStackArena<Half>(cfg, {.num_layers = 3},
                                    /*memory_budget_bytes=*/full_peak / 2);
  EXPECT_LE(arena.plan().PeakBytes(), full_peak);
  ExpectWholeStackMatches(stack, arena, x, d_y, acts, ref_grads);
}

TEST(WholeStack, EmbeddingAndLossHeadsMatchReference) {
  // Whole pipeline in one graph: token ids -> embedding -> 2 layers ->
  // MSE loss -> backward -> table gradients, checked bitwise against the
  // module-by-module reference (EmbeddingT + hand-wired stack + MseLoss).
  const EncoderConfig cfg = TestConfig(/*fused=*/true);
  const auto& d = cfg.dims;
  const std::int64_t vocab = 17;
  EncoderStack stack(cfg, 2, 31);
  EmbeddingT<Half> emb(vocab, d, 41);
  TokenIds tokens(static_cast<std::size_t>(d.b * d.j));
  for (std::size_t t = 0; t < tokens.size(); ++t) {
    tokens[t] = static_cast<std::int32_t>((7 * t + 3) % vocab);
  }
  const auto target = TensorH::Random(Ibj(d), 8);

  const auto x = emb.Forward(tokens);
  std::vector<EncoderActivations> acts;
  stack.Forward(x, acts);
  TensorH ref_d_y(acts.back().y.shape());
  const double ref_loss = MseLoss(acts.back().y, target, ref_d_y);
  std::vector<EncoderGradients> ref_grads;
  stack.Backward(ref_d_y, acts, ref_grads);
  TensorH ref_d_tok(emb.token_table().shape());
  TensorH ref_d_pos(emb.pos_table().shape());
  emb.Backward(ref_grads.front().d_x, tokens, ref_d_tok, ref_d_pos);

  auto arena = MakeStackArena<Half>(
      cfg, {.num_layers = 2, .vocab = vocab, .include_loss = true});
  auto& ex = stack.Executor(arena);
  ex.BindInput("token_table", emb.token_table());
  ex.BindInput("pos_table", emb.pos_table());
  ex.BindTokens(tokens);
  ex.BindInput("target", target);
  TensorH d_tok(emb.token_table().shape());
  TensorH d_pos(emb.pos_table().shape());
  ex.BindOutput("d_token_table", d_tok);
  ex.BindOutput("d_pos_table", d_pos);
  std::vector<EncoderGradients> grads(2);
  for (std::size_t l = 0; l < grads.size(); ++l) {
    grads[l].params.EnsureShapes(d);
    for (auto& [name, tensor] : grads[l].params.Named()) {
      ex.BindOutput(StrFormat("L%zu.d_%s", l, name.c_str()), *tensor);
    }
  }
  ex.Forward();
  EXPECT_DOUBLE_EQ(ex.last_loss(), ref_loss);  // loss head runs in Forward
  // Read y before Backward: the loss op is its last consumer, so the plan
  // legitimately recycles its bytes during the backward pass.
  const auto y = arena.ViewAs<Half>("L1.y", Ibj(d));
  EXPECT_EQ(MaxAbsDiff(y, acts.back().y), 0.0);
  ex.Backward();
  EXPECT_EQ(MaxAbsDiff(d_tok, ref_d_tok), 0.0);
  EXPECT_EQ(MaxAbsDiff(d_pos, ref_d_pos), 0.0);
  for (std::size_t l = 0; l < grads.size(); ++l) {
    auto got = grads[l].params.Named();
    auto want = ref_grads[l].params.Named();
    for (std::size_t p = 0; p < got.size(); ++p) {
      EXPECT_EQ(MaxAbsDiff(*got[p].second, *want[p].second), 0.0)
          << "layer " << l << " grad " << got[p].first;
    }
  }
}

TEST(WholeStack, PlanVerifiesCleanWithOptions) {
  // Every produced plan -- plain, explicitly checkpointed, and budgeted --
  // passes the full three-argument verifier (the executor pre-flight runs
  // the two-argument form; this is the strict cross-check).
  const EncoderConfig cfg = TestConfig(/*fused=*/true);
  for (const std::size_t budget :
       {std::size_t{0}, std::size_t{1}}) {  // 1 byte: maximal checkpointing
    graph::StackGraphOptions options{.num_layers = 3,
                                     .vocab = 17,
                                     .include_loss = true};
    if (budget == 0) {
      auto graph = graph::BuildEncoderStack(cfg.dims, options);
      const auto plan_options = StackPlanOptions<Half>(graph);
      const auto plan = graph::PlanMemory(graph, plan_options);
      EXPECT_TRUE(graph::Verify(graph, plan, plan_options).ok())
          << graph::Verify(graph, plan, plan_options).Summary();
    } else {
      const auto ckpt = graph::PlanCheckpointedStack(
          cfg.dims, options,
          [](const graph::DataflowGraph& g) {
            return StackPlanOptions<Half>(g);
          },
          budget);
      EXPECT_FALSE(ckpt.recompute_layers.empty());
      const auto plan_options = StackPlanOptions<Half>(ckpt.graph);
      EXPECT_TRUE(graph::Verify(ckpt.graph, ckpt.plan, plan_options).ok())
          << graph::Verify(ckpt.graph, ckpt.plan, plan_options).Summary();
    }
  }
}

}  // namespace
}  // namespace xflow::transformer
