// Online per-(op class, shape bucket) contraction autotuner (Sec. VI).
//
// The paper's config-selection machinery picks layouts/algorithms
// offline; this module makes it live: the first time the executor
// dispatches a contraction of a given (EinsumClass, bucketed extents,
// element size), the autotuner measures the execution-strategy
// candidates once on the real kernels and caches the winner
// process-wide. Repeat steps -- and warm serving plans, which key their
// plan cache the same way -- always run the cached config and never
// re-measure (asserted via memstats::autotune_measures / autotune_hits).
//
// Every tunable knob is numerics-free (see EinsumExecConfig), so tuning
// never changes results: measuring simply re-runs the real contraction,
// which is legal whenever beta == 0 (the executor's only mode).
//
// XFLOW_AUTOTUNE selects the mode: "measure" (default) measures the
// candidates; "off" bypasses the cache and always returns the built-in
// heuristic.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/einsum.hpp"

namespace xflow::config {

enum class AutotuneMode { kOff, kMeasure };

/// The pure decision behind AutotuneModeFromEnv (exposed for tests):
/// `value` is the environment string or nullptr for unset. "off" / "0" /
/// "false" / "no" -> kOff; anything else (including unset, "measure",
/// "on") -> kMeasure.
AutotuneMode ParseAutotuneMode(const char* value);

/// XFLOW_AUTOTUNE, read once per process.
AutotuneMode AutotuneModeFromEnv();

/// Cache key: contraction class + power-of-two-rounded extents + element
/// size. Rounding buckets the dynamic shapes that serving traffic varies
/// (batch, sequence length) so near-identical sites share one tuned
/// config -- the same bucketing ROADMAP item 2's plan cache will key by.
struct ShapeBucket {
  EinsumClass cls = EinsumClass::kUnclassified;
  std::int64_t m = 1, n = 1, k = 1, batch = 1;  // rounded up to 2^i
  std::int64_t elem_bytes = 4;

  auto operator<=>(const ShapeBucket&) const = default;
};

ShapeBucket BucketOf(EinsumClass cls, const GemmExtents& extents,
                     std::int64_t elem_bytes);

/// The tuned decision for one bucket.
struct TunedEntry {
  EinsumExecConfig exec;   // winning execution strategy
  bool measured = false;   // a real timing pass picked `exec`
};

/// Times one candidate execution strategy on the real kernels; returns a
/// relative cost (only comparisons matter). The executor passes a lambda
/// that re-runs its own EinsumLowered dispatch under the candidate.
using MeasureFn = std::function<double(const EinsumExecConfig&)>;

/// The cached entry for the bucket, tuning on first call (kOff bypasses
/// the cache entirely). With a non-null `measure`, the candidate
/// strategies are timed once and the fastest wins; otherwise the
/// heuristic default wins. Cache fills are metered via
/// memstats::autotune_measures, warm lookups via autotune_hits.
///
/// The cache lock is held only for lookup and insert, never across
/// `measure`: a measured contraction's pool waiters may run other graph
/// steps, which can call Autotune again on the same thread. A call for a
/// bucket that is being measured right now -- nested or concurrent --
/// returns the heuristic `ExecCandidates(bucket).front()` without
/// blocking and without caching it. Every candidate computes the same
/// bits, so this changes only speed; each bucket is still measured
/// exactly once.
TunedEntry Autotune(const ShapeBucket& bucket, const MeasureFn& measure,
                    AutotuneMode mode);
TunedEntry Autotune(const ShapeBucket& bucket, const MeasureFn& measure);

/// The deterministic list of execution-strategy candidates the tuner
/// measures for a bucket, best-guess first (exposed for tests).
std::vector<EinsumExecConfig> ExecCandidates(const ShapeBucket& bucket);

/// Drops every cached entry (tests and the cold-vs-warm bench).
void ResetAutotuneCacheForTesting();

}  // namespace xflow::config
