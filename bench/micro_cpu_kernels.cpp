// Real CPU measurements: fused kernels vs their unfused pipelines, plus
// roofline-comparable numbers for the memory-bound kernels.
//
// The GPU results come from the device model; these google-benchmark
// timings demonstrate the same data-movement effect on real hardware --
// single-pass fused kernels beat multi-pass pipelines because they touch
// memory fewer times. Every case calls SetBytesProcessed with the kernel's
// compulsory traffic (operands read once + outputs written once), so the
// reported bytes_per_second is an achieved-bandwidth figure comparable
// against the machine's memory roofline, like the GEMM flop/s number.
//
// The softmax / layernorm / BDRLN cases also sweep the thread count (the
// trailing /1 and /8 argument), measuring how the parallel ops layer
// scales; `--json[=path]` dumps all results as a perf baseline.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.hpp"
#include "common/threadpool.hpp"
#include "graph/builder.hpp"
#include "graph/memory_plan.hpp"
#include "graph/verify.hpp"
#include "ops/elementwise.hpp"
#include "ops/fused.hpp"
#include "ops/layernorm.hpp"
#include "ops/softmax.hpp"
#include "tensor/einsum.hpp"
#include "transformer/arena.hpp"
#include "transformer/stack.hpp"
#include "transformer/training.hpp"

namespace {

using namespace xflow;

constexpr std::int64_t kI = 256, kB = 4, kJ = 64;  // medium working set
// i innermost: the vectorization-friendly layout the paper's layout search
// selects for layernorm-family kernels (reduce dim contiguous).
const Shape kIbj("bji", {kB, kJ, kI});
const Shape kBj("bj", {kB, kJ});

/// Pins the global pool to `threads` for the duration of one benchmark.
class ThreadGuard {
 public:
  explicit ThreadGuard(int threads) { ThreadPool::SetGlobalThreads(threads); }
  ~ThreadGuard() {
    ThreadPool::SetGlobalThreads(ThreadPool::ResolveGlobalThreads());
  }
};

void BM_UnfusedBiasDropoutResidualLayerNorm(benchmark::State& state) {
  ThreadGuard threads(static_cast<int>(state.range(0)));
  auto x = TensorH::Random(kIbj, 1);
  auto bias = TensorH::Random(Shape("i", {kI}), 2);
  auto resid_in = TensorH::Random(kIbj, 3);
  auto gamma = TensorH::Random(Shape("i", {kI}), 4);
  auto beta = TensorH::Random(Shape("i", {kI}), 5);
  DropoutMask mask(7, 0.1f);
  TensorH biased(kIbj), dropped(kIbj), m(kIbj), resid(kIbj), y(kIbj);
  TensorF mean(kBj), rstd(kBj);
  for (auto _ : state) {
    ops::BiasForward(x, bias, biased);
    ops::DropoutForward(biased, mask, dropped, m);
    ops::ResidualForward(dropped, resid_in, resid);
    ops::LayerNormForward(resid, gamma, beta, 'i', 1e-5f, y, mean, rstd);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() * kIbj.num_elements() * 2 * 8);
}
BENCHMARK(BM_UnfusedBiasDropoutResidualLayerNorm)
    ->ArgName("threads")->Arg(1)->Arg(8)->UseRealTime();

void BM_FusedBDRLN(benchmark::State& state) {
  ThreadGuard threads(static_cast<int>(state.range(0)));
  auto x = TensorH::Random(kIbj, 1);
  auto bias = TensorH::Random(Shape("i", {kI}), 2);
  auto resid_in = TensorH::Random(kIbj, 3);
  auto gamma = TensorH::Random(Shape("i", {kI}), 4);
  auto beta = TensorH::Random(Shape("i", {kI}), 5);
  DropoutMask mask(7, 0.1f);
  TensorH resid(kIbj), m(kIbj), y(kIbj);
  TensorF mean(kBj), rstd(kBj);
  for (auto _ : state) {
    ops::BiasDropoutResidualLayerNorm(x, bias, resid_in, mask, gamma, beta,
                                      'i', 1e-5f, resid, m, y, mean, rstd);
    benchmark::DoNotOptimize(y.data());
  }
  // Read x + resid_in, write resid + mask + y.
  state.SetBytesProcessed(state.iterations() * kIbj.num_elements() * 2 * 5);
}
BENCHMARK(BM_FusedBDRLN)->ArgName("threads")->Arg(1)->Arg(8)->UseRealTime();

void BM_UnfusedBiasReluDropout(benchmark::State& state) {
  ThreadGuard threads(static_cast<int>(state.range(0)));
  const Shape ubj("ubj", {1024, kB, kJ});
  auto x = TensorH::Random(ubj, 1);
  auto bias = TensorH::Random(Shape("u", {1024}), 2);
  DropoutMask mask(9, 0.1f);
  TensorH biased(ubj), relu(ubj), y(ubj), m(ubj);
  for (auto _ : state) {
    ops::BiasForward(x, bias, biased);
    ops::ReluForward(biased, relu);
    ops::DropoutForward(relu, mask, y, m);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() * ubj.num_elements() * 2 * 7);
}
BENCHMARK(BM_UnfusedBiasReluDropout)
    ->ArgName("threads")->Arg(1)->Arg(8)->UseRealTime();

void BM_FusedBRD(benchmark::State& state) {
  ThreadGuard threads(static_cast<int>(state.range(0)));
  const Shape ubj("ubj", {1024, kB, kJ});
  auto x = TensorH::Random(ubj, 1);
  auto bias = TensorH::Random(Shape("u", {1024}), 2);
  DropoutMask mask(9, 0.1f);
  TensorH relu(ubj), y(ubj), m(ubj);
  for (auto _ : state) {
    ops::BiasReluDropout(x, bias, mask, relu, y, m);
    benchmark::DoNotOptimize(y.data());
  }
  // Read x, write relu_saved + y + mask.
  state.SetBytesProcessed(state.iterations() * ubj.num_elements() * 2 * 4);
}
BENCHMARK(BM_FusedBRD)
    ->ArgName("threads")->Arg(1)->Arg(8)->UseRealTime();

void BM_SoftmaxForward(benchmark::State& state) {
  ThreadGuard threads(static_cast<int>(state.range(1)));
  const Shape hbjk("hbjk", {8, 2, 64, state.range(0)});
  auto x = TensorH::Random(hbjk, 1);
  TensorH y(hbjk);
  for (auto _ : state) {
    ops::SoftmaxForward(x, 'k', y);
    benchmark::DoNotOptimize(y.data());
  }
  // Read x, write y.
  state.SetBytesProcessed(state.iterations() * hbjk.num_elements() * 2 * 2);
}
BENCHMARK(BM_SoftmaxForward)
    ->ArgNames({"k", "threads"})
    ->Args({256, 1})
    ->Args({256, 8})
    ->UseRealTime();

void BM_ScaledSoftmax(benchmark::State& state) {
  ThreadGuard threads(static_cast<int>(state.range(1)));
  const Shape hbjk("hbjk", {8, 2, 64, state.range(0)});
  auto beta = TensorH::Random(hbjk, 1);
  DropoutMask mask(11, 0.1f);
  TensorH alpha(hbjk), m(hbjk), saved(hbjk);
  for (auto _ : state) {
    ops::ScaledSoftmaxForward(beta, 'k', 0.125f, mask, alpha, m, saved);
    benchmark::DoNotOptimize(alpha.data());
  }
  // Read beta, write alpha + mask + saved softmax (Table III: outputs are
  // 3x the input volume).
  state.SetBytesProcessed(state.iterations() * hbjk.num_elements() * 2 * 4);
}
BENCHMARK(BM_ScaledSoftmax)
    ->ArgNames({"k", "threads"})
    ->Args({64, 1})
    ->Args({256, 1})
    ->Args({256, 8})
    ->Args({512, 1})
    ->Args({512, 8})
    ->UseRealTime();

void BM_LayerNormForward(benchmark::State& state) {
  ThreadGuard threads(static_cast<int>(state.range(0)));
  auto x = TensorH::Random(kIbj, 1);
  auto gamma = TensorH::Random(Shape("i", {kI}), 2);
  auto beta = TensorH::Random(Shape("i", {kI}), 3);
  TensorH y(kIbj);
  TensorF mean(kBj), rstd(kBj);
  for (auto _ : state) {
    ops::LayerNormForward(x, gamma, beta, 'i', 1e-5f, y, mean, rstd);
    benchmark::DoNotOptimize(y.data());
  }
  // Read x, write y.
  state.SetBytesProcessed(state.iterations() * kIbj.num_elements() * 2 * 2);
}
BENCHMARK(BM_LayerNormForward)->ArgName("threads")->Arg(1)->Arg(8)->UseRealTime();

void BM_LayerNormLayoutSensitivity(benchmark::State& state) {
  // Layout matters on CPUs too: normalizing over a strided dim thrashes
  // the cache once the working set exceeds L2 (here ~8 MB). Pinned to one
  // thread so the contiguous-vs-strided ratio (and the baseline JSON rows)
  // stay comparable across hosts.
  ThreadGuard pin(1);
  const bool contiguous = state.range(0) != 0;
  const Shape big("bji", {8, 256, 2048});
  auto x = TensorH::Random(big, 1);
  if (!contiguous) x = x.Permuted("ijb");  // i outermost, j/b interleaved
  auto gamma = TensorH::Random(Shape("i", {2048}), 2);
  auto beta = TensorH::Random(Shape("i", {2048}), 3);
  TensorH y(x.shape());
  TensorF mean(Shape("bj", {8, 256})), rstd(Shape("bj", {8, 256}));
  for (auto _ : state) {
    ops::LayerNormForward(x, gamma, beta, 'i', 1e-5f, y, mean, rstd);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() * big.num_elements() * 2 * 2);
}
BENCHMARK(BM_LayerNormLayoutSensitivity)
    ->Arg(1)   // i innermost (contiguous reduction)
    ->Arg(0);  // i strided (non-contiguous reduction)

void BM_SoftmaxLayoutSensitivity(benchmark::State& state) {
  // Same story for softmax: reducing over a strided dim runs through the
  // engine's transpose-on-the-fly tiles instead of thrashing per element.
  ThreadGuard pin(1);
  const bool contiguous = state.range(0) != 0;
  const Shape big("bjk", {8, 256, 2048});
  auto x = TensorH::Random(big, 1);
  if (!contiguous) x = x.Permuted("kjb");  // k outermost
  TensorH y(x.shape());
  for (auto _ : state) {
    ops::SoftmaxForward(x, 'k', y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() * big.num_elements() * 2 * 2);
}
BENCHMARK(BM_SoftmaxLayoutSensitivity)
    ->Arg(1)   // k innermost (contiguous reduction)
    ->Arg(0);  // k strided (non-contiguous reduction)

// ------------------------------------------------- memory planning cases

void BM_MemoryPlanner(benchmark::State& state) {
  // Planning cost on the BERT-base-shaped Fig. 2 graph (forward+backward),
  // plus the planned-vs-naive peak bytes the perf-trend job tracks.
  const auto g = xflow::graph::BuildEncoder(
      xflow::graph::ModelDims::BertBase(),
      xflow::graph::AlgebraicFusion::kQKV, /*include_backward=*/true);
  const auto opts = xflow::transformer::EncoderPlanOptions<Half>();
  std::size_t peak = 0, naive = 0;
  for (auto _ : state) {
    const auto plan = xflow::graph::PlanMemory(g, opts);
    peak = plan.peak_bytes();
    naive = plan.naive_bytes();
    benchmark::DoNotOptimize(peak);
  }
  state.counters["peak_mb"] =
      benchmark::Counter(static_cast<double>(peak) / 1048576.0);
  state.counters["naive_mb"] =
      benchmark::Counter(static_cast<double>(naive) / 1048576.0);
}
BENCHMARK(BM_MemoryPlanner);

void BM_GraphVerify(benchmark::State& state) {
  // Full three-arg verification (graph + plan + options) of the
  // BERT-base encoder: the executor's pre-flight runs this, so it has
  // to stay cheap enough to leave on in every Debug/test run (<1ms).
  const auto g = xflow::graph::BuildEncoder(
      xflow::graph::ModelDims::BertBase(),
      xflow::graph::AlgebraicFusion::kQKV, /*include_backward=*/true);
  const auto opts = xflow::transformer::EncoderPlanOptions<Half>();
  const auto plan = xflow::graph::PlanMemory(g, opts);
  for (auto _ : state) {
    const auto report = xflow::graph::Verify(g, plan, opts);
    if (!report.ok()) {
      state.SkipWithError(report.Summary().c_str());
      break;
    }
    benchmark::DoNotOptimize(report.issues.data());
  }
}
BENCHMARK(BM_GraphVerify);

void BM_QkvBranchConcurrency(benchmark::State& state) {
  // The scheduler's motivating shape in isolation: the unfused Q/K/V
  // projection contractions are path-free branches of the graph, so a
  // TaskGroup runs the three GEMMs concurrently (sched:1) instead of
  // back to back (sched:0). Each branch still ParallelFors internally --
  // nested groups are the case the deques exist for.
  ThreadGuard threads(static_cast<int>(state.range(0)));
  const bool sched = state.range(1) != 0;
  const auto spec = EinsumSpec::Parse("phi,ibj->phbj");
  const Shape phi("phi", {64, 8, kI});
  const Shape ibj("ibj", {kI, kB, kJ});
  const Shape phbj("phbj", {64, 8, kB, kJ});
  auto w_q = TensorH::Random(phi, 1);
  auto w_k = TensorH::Random(phi, 2);
  auto w_v = TensorH::Random(phi, 3);
  auto x = TensorH::Random(ibj, 4);
  TensorH q(phbj), k(phbj), v(phbj);
  auto run_q = [&] { EinsumInto(spec, w_q, x, q); };
  auto run_k = [&] { EinsumInto(spec, w_k, x, k); };
  auto run_v = [&] { EinsumInto(spec, w_v, x, v); };
  for (auto _ : state) {
    if (sched) {
      TaskGroup group;
      group.Spawn(run_q);
      group.Spawn(run_k);
      group.Spawn(run_v);
      group.Wait();
    } else {
      run_q();
      run_k();
      run_v();
    }
    benchmark::DoNotOptimize(q.data());
    benchmark::DoNotOptimize(k.data());
    benchmark::DoNotOptimize(v.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          (3 * phi.num_elements() + ibj.num_elements() +
                           3 * phbj.num_elements()) *
                          2);
}
BENCHMARK(BM_QkvBranchConcurrency)
    ->ArgNames({"threads", "sched"})
    ->Args({1, 0})
    ->Args({8, 0})
    ->Args({8, 1})
    ->UseRealTime();

void BM_WholeStackStep(benchmark::State& state) {
  // The whole-stack executor: ONE graph (both layers, forward and
  // backward), ONE plan, ONE slab, so cross-layer transients share bytes
  // and the concurrent dispatcher overlaps steps across layers. ckpt:1
  // recomputes layer 0's forward inside backward (checkpointing) -- the
  // peak_mb counters show the memory it buys; the time delta is what it
  // costs. Bitwise identical to the hand-wired reference by test.
  using namespace xflow::transformer;
  ThreadGuard threads(1);
  const bool ckpt = state.range(0) != 0;
  EncoderConfig cfg;
  cfg.dims.b = 2;
  cfg.dims.j = cfg.dims.k = 32;
  cfg.dims.h = 4;
  cfg.dims.p = 16;
  cfg.dims.i = 64;
  cfg.dims.u = 128;
  cfg.dropout_prob = 0.1f;
  constexpr int kLayers = 2;
  EncoderStackT<Half> stack(cfg, kLayers, 3);
  graph::StackGraphOptions options{.num_layers = kLayers};
  if (ckpt) options.recompute_layers = {0};
  auto arena = MakeStackArena<Half>(cfg, options);
  const Shape ibj("ibj", {cfg.dims.i, cfg.dims.b, cfg.dims.j});
  auto x = TensorH::Random(ibj, 5);
  auto target = TensorH::Random(ibj, 6);
  TensorH d_y(ibj);
  std::vector<EncoderGradientsT<Half>> grads;
  for (auto _ : state) {
    const auto& y = stack.Forward(x, arena);
    benchmark::DoNotOptimize(MseLoss(y, target, d_y));
    stack.Backward(d_y, arena, grads);
    benchmark::DoNotOptimize(grads.front().d_x.data());
  }
  state.counters["peak_mb"] = benchmark::Counter(
      static_cast<double>(arena.plan().PeakBytes()) / 1048576.0);
}
BENCHMARK(BM_WholeStackStep)->ArgName("ckpt")->Arg(0)->Arg(1);

void BM_WholeStackStepTaskSched(benchmark::State& state, bool all_cores) {
  // The whole-stack train step again, sweeping the task scheduler: sched:0
  // runs the serial step loop, sched:1 dispatches dependency-free steps
  // concurrently over the work-stealing pool. On a multi-core box the
  // all-cores sched:1 row should beat sched:0 (independent QKV / dW
  // branches overlap, across layers too); results are bitwise identical
  // by test. The multi-thread rows run the default pool width (one
  // thread per core unless XFLOW_THREADS says otherwise): more pool
  // threads than cores only measure the OS scheduler.
  using namespace xflow::transformer;
  ThreadGuard threads(all_cores ? ThreadPool::ResolveGlobalThreads() : 1);
  EncoderConfig cfg;
  cfg.dims.b = 2;
  cfg.dims.j = cfg.dims.k = 32;
  cfg.dims.h = 4;
  cfg.dims.p = 16;
  cfg.dims.i = 64;
  cfg.dims.u = 128;
  cfg.dropout_prob = 0.1f;
  cfg.use_task_scheduler = state.range(0) != 0;
  constexpr int kLayers = 2;
  EncoderStackT<Half> stack(cfg, kLayers, 3);
  auto arena = MakeStackArena<Half>(cfg, {.num_layers = kLayers});
  const Shape ibj("ibj", {cfg.dims.i, cfg.dims.b, cfg.dims.j});
  auto x = TensorH::Random(ibj, 5);
  auto target = TensorH::Random(ibj, 6);
  TensorH d_y(ibj);
  std::vector<EncoderGradientsT<Half>> grads;
  for (auto _ : state) {
    const auto& y = stack.Forward(x, arena);
    benchmark::DoNotOptimize(MseLoss(y, target, d_y));
    stack.Backward(d_y, arena, grads);
    benchmark::DoNotOptimize(grads.front().d_x.data());
  }
}
BENCHMARK_CAPTURE(BM_WholeStackStepTaskSched, threads:1, false)
    ->ArgName("sched")
    ->Arg(1)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_WholeStackStepTaskSched, threads:cores, true)
    ->ArgName("sched")
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime();

void BM_WholeStackPlan(benchmark::State& state) {
  // Whole-stack planning cost at full BERT-base depth (12 layers,
  // forward+backward, ~10x the per-layer op count): the price of the
  // cross-layer byte sharing BM_MemoryPlanner's single layer cannot see.
  // per_layer_sum_mb is what 12 independently planned slabs would
  // reserve; peak_mb is the one-slab whole-stack peak.
  const auto dims = xflow::graph::ModelDims::BertBase();
  const auto g = xflow::graph::BuildEncoderStack(dims, {.num_layers = 12});
  const auto opts = xflow::transformer::StackPlanOptions<Half>(g);
  const auto layer = xflow::graph::BuildEncoder(
      dims, xflow::graph::AlgebraicFusion::kQKV, /*include_backward=*/true);
  const auto layer_peak =
      xflow::graph::PlanMemory(layer,
                               xflow::transformer::EncoderPlanOptions<Half>())
          .PeakBytes();
  std::size_t peak = 0;
  for (auto _ : state) {
    const auto plan = xflow::graph::PlanMemory(g, opts);
    peak = plan.PeakBytes();
    benchmark::DoNotOptimize(peak);
  }
  state.counters["peak_mb"] =
      benchmark::Counter(static_cast<double>(peak) / 1048576.0);
  state.counters["per_layer_sum_mb"] =
      benchmark::Counter(static_cast<double>(12 * layer_peak) / 1048576.0);
}
BENCHMARK(BM_WholeStackPlan);

void BM_AdamStep(benchmark::State& state) {
  // The mixed-precision optimizer update, now chunked on the pool.
  using namespace xflow::transformer;
  ThreadGuard threads(static_cast<int>(state.range(0)));
  const Shape shape("x", {1 << 20});
  auto master = TensorF::Random(shape, 1);
  TensorH working = master.Cast<Half>();
  auto grad = TensorH::Random(shape, 2);
  MixedPrecisionAdam opt({.lr = 1e-4f});
  for (auto _ : state) {
    opt.Step("w", master, working, grad);
    benchmark::DoNotOptimize(master.data());
  }
  // Read grad + m + v + master, write m + v + master + working.
  state.SetBytesProcessed(state.iterations() * shape.num_elements() *
                          (2 + 4 * 3 + 4 * 3 + 2));
}
BENCHMARK(BM_AdamStep)->ArgName("threads")->Arg(1)->Arg(8)->UseRealTime();

void BM_EinsumLowering(benchmark::State& state) {
  // Specialized gemv/ger kernels vs the generic macro-tile pipeline on
  // the same degenerate contraction (bitwise-identical results by test):
  // the win is skipping the pack/tile machinery whose setup traffic a
  // rank-deficient GEMM cannot amortize.
  const bool ger = state.range(0) != 0;
  const bool lowered = state.range(1) != 0;
  ThreadGuard threads(static_cast<int>(state.range(2)));
  constexpr std::int64_t kM = 1024, kN = 1024, kK = 1024;
  const auto spec = EinsumSpec::Parse("mk,kn->mn");
  const Shape a_shape = ger ? Shape("mk", {kM, 1}) : Shape("mk", {kM, kK});
  const Shape b_shape = ger ? Shape("kn", {1, kN}) : Shape("kn", {kK, 1});
  const Shape out_shape = ger ? Shape("mn", {kM, kN}) : Shape("mn", {kM, 1});
  auto a = TensorH::Random(a_shape, 1);
  auto b = TensorH::Random(b_shape, 2);
  TensorH out(out_shape);
  // kUnclassified classifies on the fly (gemv / ger here); forcing kGemm
  // runs the generic pipeline on the identical operands.
  const auto cls = lowered ? EinsumClass::kUnclassified : EinsumClass::kGemm;
  for (auto _ : state) {
    EinsumLowered(spec, cls, a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          (a_shape.num_elements() + b_shape.num_elements() +
                           out_shape.num_elements()) *
                          2);
}
BENCHMARK(BM_EinsumLowering)
    ->ArgNames({"ger", "lowered", "threads"})
    ->Args({0, 0, 1})
    ->Args({0, 1, 1})
    ->Args({1, 0, 1})
    ->Args({1, 1, 1})
    ->Args({0, 0, 8})
    ->Args({0, 1, 8})
    ->Args({1, 0, 8})
    ->Args({1, 1, 8})
    ->UseRealTime();

/// Google Benchmark renamed Run::error_occurred to Run::skipped in v1.8;
/// probe for whichever member this library version has.
template <typename R>
auto RunFailed(const R& run, int) -> decltype(run.error_occurred) {
  return run.error_occurred;
}
template <typename R>
bool RunFailed(const R& run, long) {
  return static_cast<bool>(run.skipped);
}

/// Console reporter that also collects (name, ns, GB/s) rows for --json.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (RunFailed(run, 0)) continue;
      bench::KernelBenchResult row;
      row.name = run.benchmark_name();
      row.ns = run.GetAdjustedRealTime();
      const auto it = run.counters.find("bytes_per_second");
      if (it != run.counters.end()) {
        row.gbps = static_cast<double>(it->second) * 1e-9;
      }
      rows.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<bench::KernelBenchResult> rows;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = xflow::bench::ConsumeJsonFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    xflow::bench::WriteKernelBenchJson(json_path, reporter.rows);
  }
  return 0;
}
