// One benchmark child: builds a whole-stack training step (embedding ->
// N encoder layers -> MSE loss) through the public library path, trains it
// for a fixed number of steps and reports what it measured.
//
//   step_runner --layers=1 --i=768 --h=12 --p=64 --u=3072 --b=8 --j=128
//               --vocab=4096 --budget-mib=0 --threads=4 --steps=8
//               --tokens=FILE --init-seed=N --target-seed=N
//               --dropout-seed=N [--trace] [--no-autotune-prime]
//
// Protocol (stdout, line-buffered, flushed after every line):
//   B <span> <step> <t>   a span opened   (t: seconds since process start)
//   E <span> <step> <t>   that span closed
//   L <step> <bits> <loss>  the step's loss (hex of the double, then decimal)
//   X <step> <message>    the step threw
//   R <json>              the final result, printed once at the end
// The B/E lines double as the heartbeat the parent's watchdog reads: a
// child that prints nothing for too long is killed, and the last B
// without its E names the phase where it stalled.
//
// Only the APIs the library keeps as its training surface are used:
// EncoderStackT, EmbeddingT, MakeStackArena, EncoderStackT::Executor ->
// GraphExecutorT::Forward/Backward, and MixedPrecisionAdam::Step. With
// --trace every span also records the memstats counters it moved, and
// single-kernel probes run after training at the workload's shapes.
//
// On a pool of more than one thread, set-up first trains one step of a
// same-shaped stack with serial step dispatch, so that every autotune
// bucket is measured before the benchmarked stack's cold step runs under
// the task scheduler. Measuring there can deadlock (perfbench/NOTES.md,
// "Known deadlock"); --no-autotune-prime skips the priming to reproduce it.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/half.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/threadpool.hpp"
#include "graph/executor.hpp"
#include "ops/fused.hpp"
#include "ops/softmax.hpp"
#include "tensor/einsum.hpp"
#include "tensor/memstats.hpp"
#include "transformer/arena.hpp"
#include "transformer/embedding.hpp"
#include "transformer/stack.hpp"
#include "transformer/training.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace {

using namespace xflow;
using namespace xflow::transformer;
using Clock = std::chrono::steady_clock;

const Clock::time_point kStart = Clock::now();

double Now() {
  return std::chrono::duration<double>(Clock::now() - kStart).count();
}

/// Accumulates a flat JSON object; values are emitted as given.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  Json& Str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return Raw(key, quoted + "\"");
  }
  Json& Raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += v;
    return *this;
  }
  [[nodiscard]] std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Span recorder: prints B/E lines as spans open and close (spans nest),
/// and, when tracing, keeps the memstats counters each closed span moved.
class Spans {
 public:
  explicit Spans(bool trace) : trace_(trace) {}

  void Open(const char* name, int step) {
    Entry e{name, step, Now(), {}};
    if (trace_) e.stats = memstats::Read();
    std::printf("B %s %d %.9f\n", name, step, e.t);
    std::fflush(stdout);
    open_.push_back(e);
  }
  /// Closes the innermost open span and returns its duration in seconds.
  double Close() {
    const Entry e = open_.back();
    open_.pop_back();
    const double t = Now();
    std::printf("E %s %d %.9f\n", e.name, e.step, t);
    std::fflush(stdout);
    if (trace_) {
      const auto s = memstats::Read();
      auto& d = deltas_[e.name];
      d.tensor_allocs += s.tensor_allocs - e.stats.tensor_allocs;
      d.table_builds += s.einsum_table_builds - e.stats.einsum_table_builds;
      d.autotune_measures += s.autotune_measures - e.stats.autotune_measures;
      d.autotune_hits += s.autotune_hits - e.stats.autotune_hits;
    }
    return t - e.t;
  }
  /// Closes spans until `depth` remain open (unwinding after a throw).
  void CloseTo(std::size_t depth) {
    while (open_.size() > depth) Close();
  }

  struct Delta {
    std::int64_t tensor_allocs = 0, table_builds = 0;
    std::int64_t autotune_measures = 0, autotune_hits = 0;
  };
  [[nodiscard]] std::size_t depth() const { return open_.size(); }
  [[nodiscard]] const std::map<std::string, Delta>& deltas() const {
    return deltas_;
  }

 private:
  struct Entry {
    const char* name;
    int step;
    double t;
    memstats::Snapshot stats;
  };
  bool trace_;
  std::vector<Entry> open_;
  std::map<std::string, Delta> deltas_;
};

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

/// Single-kernel probes at the workload's shapes. Rates use computed
/// flop and byte counts (what the kernel must touch), not measured
/// traffic.
Json RunProbes(const graph::ModelDims& d, std::uint64_t seed) {
  Json out;
  const auto spec_fwd = EinsumSpec::Parse("ui,ibj->ubj");
  const auto spec_dw = EinsumSpec::Parse("ubj,ibj->ui");
  const auto spec_qk = EinsumSpec::Parse("phbk,phbj->hbjk");
  {
    const auto w1 = TensorH::Random(Shape("ui", {d.u, d.i}), seed + 1);
    const auto x = TensorH::Random(Shape("ibj", {d.i, d.b, d.j}), seed + 2);
    TensorH h(Shape("ubj", {d.u, d.b, d.j}));
    TensorH dw(Shape("ui", {d.u, d.i}));
    const double flop = 2.0 * static_cast<double>(d.u * d.i * d.b * d.j);
    EinsumInto(spec_fwd, w1, x, h);  // warm the table/class caches
    const double t_fwd =
        MedianSeconds(3, [&] { EinsumInto(spec_fwd, w1, x, h); });
    EinsumInto(spec_dw, h, x, dw);
    const double t_dw =
        MedianSeconds(3, [&] { EinsumInto(spec_dw, h, x, dw); });
    out.Num("tensor.gemm_fwd_gflops", flop / t_fwd * 1e-9);
    out.Num("tensor.gemm_dw_gflops", flop / t_dw * 1e-9);
  }
  const Shape hbjk("hbjk", {d.h, d.b, d.j, d.k});
  {
    const auto kk = TensorH::Random(Shape("phbk", {d.p, d.h, d.b, d.k}),
                                    seed + 3);
    const auto qq = TensorH::Random(Shape("phbj", {d.p, d.h, d.b, d.j}),
                                    seed + 4);
    TensorH beta(hbjk);
    const double flop =
        2.0 * static_cast<double>(d.p * d.h * d.b * d.j * d.k);
    EinsumInto(spec_qk, kk, qq, beta);
    const double t =
        MedianSeconds(3, [&] { EinsumInto(spec_qk, kk, qq, beta); });
    out.Num("tensor.attn_bgemm_gflops", flop / t * 1e-9);
  }
  {
    const auto beta = TensorH::Random(hbjk, seed + 5);
    TensorH alpha(hbjk), mask(hbjk), saved(hbjk);
    const DropoutMask drop(seed + 6, 0.1f);
    const float scale = 1.0f / std::sqrt(static_cast<float>(d.p));
    ops::ScaledSoftmaxForward(beta, 'k', scale, drop, alpha, mask, saved);
    const double t = MedianSeconds(3, [&] {
      ops::ScaledSoftmaxForward(beta, 'k', scale, drop, alpha, mask, saved);
    });
    // Computed bytes: read beta, write alpha, mask and saved softmax.
    const double bytes = 4.0 * static_cast<double>(hbjk.num_elements()) *
                         sizeof(Half);
    out.Num("ops.softmax_gbs", bytes / t * 1e-9);
  }
  {
    const Shape ibj("ibj", {d.i, d.b, d.j});
    const Shape bj("bj", {d.b, d.j});
    const auto x = TensorH::Random(ibj, seed + 7);
    const auto resid = TensorH::Random(ibj, seed + 8);
    const auto bias = TensorH::Random(Shape("i", {d.i}), seed + 9);
    const auto gamma = TensorH::Random(Shape("i", {d.i}), seed + 10);
    const auto beta = TensorH::Random(Shape("i", {d.i}), seed + 11);
    TensorH resid_saved(ibj), mask(ibj), y(ibj);
    TensorF mean(bj), rstd(bj);
    const DropoutMask drop(seed + 12, 0.1f);
    const auto run = [&] {
      ops::BiasDropoutResidualLayerNorm(x, bias, resid, drop, gamma, beta,
                                        'i', 1e-5f, resid_saved, mask, y,
                                        mean, rstd);
    };
    run();
    const double t = MedianSeconds(3, run);
    // Computed bytes: read x and residual, write saved residual, mask and
    // y (the per-row statistics are negligible).
    const double bytes =
        5.0 * static_cast<double>(ibj.num_elements()) * sizeof(Half);
    out.Num("ops.bdrln_gbs", bytes / t * 1e-9);
  }
  {
    // fp16 round trip (ToFloat then FromFloat, in place, negating so two
    // passes restore the buffer) over a buffer of 4x the last-level cache,
    // capped at 256 MiB: conversion costs >= 1 ns/element, far above the
    // ~0.1 ns/element a DRAM stream costs, so the cap cannot hide a
    // cache effect.
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0) llc = 32L << 20;
    const std::int64_t bytes =
        std::min<std::int64_t>(4 * static_cast<std::int64_t>(llc), 256L << 20);
    const std::int64_t n = bytes / static_cast<std::int64_t>(sizeof(Half));
    auto buf = TensorH::Random(Shape("n", {n}), seed + 13);
    Half* h = buf.data();
    const auto pass = [&] {
      for (std::int64_t e = 0; e < n; ++e) {
        h[e] = Half(-static_cast<float>(h[e]));
      }
    };
    const double t = MedianSeconds(2, pass);
    out.Num("common.half_cvt_ns", t / static_cast<double>(n) * 1e9);
    out.Num("common.half_cvt_buffer_mib",
            static_cast<double>(bytes) / 1048576.0);
    out.Num("common.llc_mib", static_cast<double>(llc) / 1048576.0);
  }
  {
    const DropoutMask drop(seed + 14, 0.1f);
    constexpr std::int64_t kN = 1 << 22;
    std::int64_t kept = 0;
    const double t = MedianSeconds(3, [&] {
      for (std::int64_t e = 0; e < kN; ++e) {
        kept += drop.Keep(static_cast<std::uint64_t>(e)) ? 1 : 0;
      }
    });
    out.Num("common.dropout_keep_ns", t / static_cast<double>(kN) * 1e9);
    out.Num("common.dropout_kept", static_cast<double>(kept));  // a sink
  }
  return out;
}

std::vector<std::int32_t> ReadTokens(const std::string& path,
                                     std::int64_t count, std::int64_t vocab) {
  std::ifstream in(path);
  require(in.good(), "cannot open token file '" + path + "'");
  std::vector<std::int32_t> tokens;
  std::int64_t id = 0;
  while (in >> id) {
    require(id >= 0 && id < vocab, "token id out of range");
    tokens.push_back(static_cast<std::int32_t>(id));
  }
  require(static_cast<std::int64_t>(tokens.size()) == count,
          StrFormat("token file holds %zu ids, expected %lld", tokens.size(),
                    static_cast<long long>(count)));
  return tokens;
}

/// Binds the embedding tables, tokens, loss target and every gradient
/// buffer of a whole-stack executor.
void BindStep(graph::GraphExecutorT<Half>& ex, EmbeddingT<Half>& emb,
              const std::vector<std::int32_t>& tokens, const TensorH& target,
              TensorH& d_tok, TensorH& d_pos,
              std::vector<EncoderParamsT<Half>>& grads) {
  ex.BindInput("token_table", emb.token_table());
  ex.BindInput("pos_table", emb.pos_table());
  ex.BindTokens(tokens);
  ex.BindInput("target", target);
  ex.BindOutput("d_token_table", d_tok);
  ex.BindOutput("d_pos_table", d_pos);
  for (std::size_t l = 0; l < grads.size(); ++l) {
    for (auto& [name, tensor] : grads[l].Named()) {
      ex.BindOutput(StrFormat("L%zu.d_%s", l, name.c_str()), *tensor);
    }
  }
}

/// One forward and backward of a stack shaped like the benchmarked one,
/// with serial step dispatch: every contraction's autotune bucket is
/// measured here, one contraction at a time, and the benchmarked stack's
/// cold step then only hits the process-wide autotune cache.
void PrimeAutotune(EncoderConfig cfg, int layers, std::int64_t vocab,
                   std::size_t budget_bytes,
                   const std::vector<std::int32_t>& tokens,
                   const TensorH& target, std::uint64_t init_seed) {
  cfg.use_task_scheduler = false;
  EncoderStackT<Half> stack(cfg, layers, init_seed);
  EmbeddingT<Half> emb(vocab, cfg.dims, init_seed + 7919);
  std::vector<EncoderParamsT<Half>> grads(static_cast<std::size_t>(layers));
  for (auto& g : grads) g.EnsureShapes(cfg.dims);
  TensorH d_tok(emb.token_table().shape());
  TensorH d_pos(emb.pos_table().shape());
  auto arena = MakeStackArena<Half>(
      cfg, {.num_layers = layers, .vocab = vocab, .include_loss = true},
      budget_bytes);
  auto& ex = stack.Executor(arena);
  BindStep(ex, emb, tokens, target, d_tok, d_pos, grads);
  ex.Forward();
  ex.Backward();
}

int Run(int argc, char** argv) {
  const ArgParser args(argc, argv);
  graph::ModelDims dims;
  dims.i = args.GetInt("i", 768);
  dims.h = args.GetInt("h", 12);
  dims.p = args.GetInt("p", 64);
  dims.u = args.GetInt("u", 3072);
  dims.b = args.GetInt("b", 8);
  dims.j = dims.k = args.GetInt("j", 128);
  const int layers = static_cast<int>(args.GetInt("layers", 1));
  const std::int64_t vocab = args.GetInt("vocab", 4096);
  const double budget_mib = args.GetDouble("budget-mib", 0);
  const int threads = static_cast<int>(args.GetInt("threads", 1));
  const int steps = static_cast<int>(args.GetInt("steps", 4));
  const std::string token_path = args.GetString("tokens", "");
  const auto init_seed =
      static_cast<std::uint64_t>(args.GetInt("init-seed", 1));
  const auto target_seed =
      static_cast<std::uint64_t>(args.GetInt("target-seed", 2));
  const auto dropout_seed =
      static_cast<std::uint64_t>(args.GetInt("dropout-seed", 3));
  const bool trace = args.GetFlag("trace");
  const bool prime = !args.GetFlag("no-autotune-prime");
  for (const auto& unknown : args.UnknownOptions()) {
    throw InvalidArgument("unknown option --" + unknown);
  }
  require(layers >= 1 && threads >= 1 && vocab >= 1 && budget_mib >= 0,
          "--layers, --threads and --vocab must be >= 1, --budget-mib >= 0");
  require(steps >= 2, "--steps must be >= 2 (one cold step, one warm step)");
  const auto tokens = ReadTokens(token_path, dims.b * dims.j, vocab);
  const auto budget_bytes = static_cast<std::size_t>(budget_mib * 1048576.0);

  // ---- set-up: everything from the first library call to the end of the
  // cold step (step 0) is set-up time; the "setup" span covers it.
  Spans spans(trace);
  spans.Open("setup", 0);
  ThreadPool::SetGlobalThreads(threads);
  EncoderConfig cfg;
  cfg.dims = dims;
  cfg.dropout_prob = 0.1f;
  cfg.seed = dropout_seed;
  cfg.use_fused_kernels = true;
  const auto target = TensorH::Random(Shape("ibj", {dims.i, dims.b, dims.j}),
                                      target_seed);

  // A one-thread pool already dispatches serially, so it needs no priming.
  if (prime && ThreadPool::Global().threads() > 1) {
    spans.Open("config.autotune_prime", 0);
    PrimeAutotune(cfg, layers, vocab, budget_bytes, tokens, target,
                  init_seed);
    spans.Close();
  }

  spans.Open("transformer.init", 0);
  EncoderStackT<Half> stack(cfg, layers, init_seed);
  EmbeddingT<Half> emb(vocab, dims, init_seed + 7919);
  // fp32 masters and fp16 gradient buffers for every trainable tensor.
  struct Param {
    std::string name;
    TensorH* working;
    TensorF master;
    TensorH* grad;
  };
  std::vector<EncoderParamsT<Half>> grads(static_cast<std::size_t>(layers));
  TensorH d_tok(emb.token_table().shape());
  TensorH d_pos(emb.pos_table().shape());
  std::vector<Param> params;
  for (int l = 0; l < layers; ++l) {
    auto& g = grads[static_cast<std::size_t>(l)];
    g.EnsureShapes(dims);
    auto named = stack.layer(l).params().Named();
    auto named_grads = g.Named();
    for (std::size_t k = 0; k < named.size(); ++k) {
      params.push_back({StrFormat("L%d.%s", l, named[k].first.c_str()),
                        named[k].second, named[k].second->Cast<float>(),
                        named_grads[k].second});
    }
  }
  params.push_back({"token_table", &emb.token_table(),
                    emb.token_table().Cast<float>(), &d_tok});
  params.push_back(
      {"pos_table", &emb.pos_table(), emb.pos_table().Cast<float>(), &d_pos});
  MixedPrecisionAdam opt({.lr = 1e-3f});
  spans.Close();

  spans.Open("graph.plan", 0);
  auto arena = MakeStackArena<Half>(
      cfg, {.num_layers = layers, .vocab = vocab, .include_loss = true},
      budget_bytes);
  spans.Close();

  spans.Open("graph.executor_build", 0);
  auto& ex = stack.Executor(arena);
  BindStep(ex, emb, tokens, target, d_tok, d_pos, grads);
  spans.Close();

  // ---- training steps. A step that throws is reported on an X line and
  // its loss as NaN; the parent counts both as failed steps.
  memstats::Snapshot warm0{};
  for (int s = 0; s < steps; ++s) {
    if (s == 1) warm0 = memstats::Read();
    spans.Open("step", s);
    const std::size_t step_depth = spans.depth();
    double loss = std::nan("");
    try {
      spans.Open("graph.forward", s);
      ex.Forward();
      spans.Close();
      loss = ex.last_loss();
      spans.Open("graph.backward", s);
      ex.Backward();
      spans.Close();
      spans.Open("transformer.optimizer", s);
      for (auto& p : params) opt.Step(p.name, p.master, *p.working, *p.grad);
      spans.Close();
    } catch (const std::exception& e) {
      std::string msg = e.what();
      std::replace(msg.begin(), msg.end(), '\n', ' ');
      std::printf("X %d %s\n", s, msg.c_str());
      spans.CloseTo(step_depth);
      loss = std::nan("");
    }
    std::uint64_t bits = 0;
    std::memcpy(&bits, &loss, sizeof(bits));
    std::printf("L %d %016llx %.17g\n", s,
                static_cast<unsigned long long>(bits), loss);
    spans.Close();  // step
    if (s == 0) spans.Close();  // setup ends with the cold step
  }
  const auto warm1 = memstats::Read();
  const double warm_steps = static_cast<double>(steps - 1);

  const auto& plan = arena.plan();
  Json result;
  result.Str("cpu", CpuModel())
      .Str("compiler", PERFBENCH_COMPILER)
      .Str("flags", PERFBENCH_FLAGS)
      .Num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Num("threads", ThreadPool::Global().threads())
      .Num("plan_peak_mib", static_cast<double>(plan.PeakBytes()) / 1048576.0)
      .Num("plan_naive_mib",
           static_cast<double>(plan.naive_bytes()) / 1048576.0)
      .Num("recompute_layers",
           static_cast<double>(arena.recompute_layers().size()))
      .Num("graph_ops", static_cast<double>(ex.graph().ops().size()))
      .Num("kernel_launches", ex.num_steps())
      .Num("warm_tensor_allocs_per_step",
           static_cast<double>(warm1.tensor_allocs - warm0.tensor_allocs) /
               warm_steps)
      .Num("warm_table_builds_per_step",
           static_cast<double>(warm1.einsum_table_builds -
                               warm0.einsum_table_builds) /
               warm_steps)
      .Num("warm_autotune_measures",
           static_cast<double>(warm1.autotune_measures -
                               warm0.autotune_measures))
      .Num("warm_autotune_hits",
           static_cast<double>(warm1.autotune_hits - warm0.autotune_hits))
      .Num("cold_autotune_measures",
           static_cast<double>(warm0.autotune_measures))
      .Num("peak_rss_mib", PeakRssMib());
  if (trace) {
    std::string d = "{";
    bool first = true;
    for (const auto& [name, delta] : spans.deltas()) {
      Json one;
      one.Num("tensor_allocs", static_cast<double>(delta.tensor_allocs))
          .Num("table_builds", static_cast<double>(delta.table_builds))
          .Num("autotune_measures",
               static_cast<double>(delta.autotune_measures))
          .Num("autotune_hits", static_cast<double>(delta.autotune_hits));
      if (!first) d += ',';
      d += '"';
      d += name;
      d += "\":";
      d += one.Done();
      first = false;
    }
    result.Raw("span_counters", d + "}");
    spans.Open("probes", steps);
    result.Raw("probes", RunProbes(dims, init_seed + 104729).Done());
    spans.Close();
  }
  std::printf("R %s\n", result.Done().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "step_runner: %s\n", e.what());
    return 2;
  }
}
