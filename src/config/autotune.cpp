#include "config/autotune.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "common/thread_annotations.hpp"
#include "tensor/memstats.hpp"

namespace xflow::config {

namespace {

std::int64_t RoundUpPow2(std::int64_t v) {
  std::int64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// The process-wide tuned entries plus the buckets being measured now.
struct TuneCache {
  Mutex mu;
  std::map<ShapeBucket, TunedEntry> entries XFLOW_GUARDED_BY(mu);
  std::set<ShapeBucket> in_flight XFLOW_GUARDED_BY(mu);
};

TuneCache& Cache() {
  static TuneCache cache;
  return cache;
}

}  // namespace

AutotuneMode ParseAutotuneMode(const char* value) {
  if (value == nullptr || *value == '\0') return AutotuneMode::kMeasure;
  std::string v(value);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "off" || v == "0" || v == "false" || v == "no") {
    return AutotuneMode::kOff;
  }
  return AutotuneMode::kMeasure;
}

AutotuneMode AutotuneModeFromEnv() {
  static const AutotuneMode mode =
      ParseAutotuneMode(std::getenv("XFLOW_AUTOTUNE"));
  return mode;
}

ShapeBucket BucketOf(EinsumClass cls, const GemmExtents& extents,
                     std::int64_t elem_bytes) {
  ShapeBucket b;
  b.cls = cls;
  b.m = RoundUpPow2(extents.m);
  b.n = RoundUpPow2(extents.n);
  b.k = RoundUpPow2(extents.k);
  b.batch = RoundUpPow2(extents.batch);
  b.elem_bytes = elem_bytes;
  return b;
}

std::vector<EinsumExecConfig> ExecCandidates(const ShapeBucket& bucket) {
  std::vector<EinsumExecConfig> out;
  out.push_back(EinsumExecConfig{});  // the built-in heuristics
  const bool row_partitioned = bucket.cls == EinsumClass::kGemv ||
                               bucket.cls == EinsumClass::kGer ||
                               bucket.cls == EinsumClass::kView;
  if (row_partitioned) {
    // Finer grain balances better, coarser grain amortizes task
    // dispatch; which wins depends on rows-per-core on this host.
    out.push_back(EinsumExecConfig{.batch_parallel = -1, .row_grain = 16});
    out.push_back(EinsumExecConfig{.batch_parallel = -1, .row_grain = 256});
  }
  if (bucket.batch > 1) {
    out.push_back(EinsumExecConfig{.batch_parallel = 1, .row_grain = 0});
    out.push_back(EinsumExecConfig{.batch_parallel = 0, .row_grain = 0});
  }
  return out;
}

TunedEntry Autotune(const ShapeBucket& bucket, const MeasureFn& measure,
                    AutotuneMode mode) {
  if (mode == AutotuneMode::kOff) return TunedEntry{};

  TuneCache& cache = Cache();
  bool in_flight = false;
  {
    const MutexLock lock(cache.mu);
    if (const auto it = cache.entries.find(bucket);
        it != cache.entries.end()) {
      memstats::RecordAutotuneHit();
      return it->second;
    }
    in_flight = !cache.in_flight.insert(bucket).second;
  }
  const auto candidates = ExecCandidates(bucket);
  TunedEntry entry{.exec = candidates.front()};
  // Being measured further up this thread's stack, or by another thread:
  // run the heuristic now rather than wait for the winner.
  if (in_flight) return entry;

  try {
    if (measure) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& cand : candidates) {
        // Best-of-two damps scheduler noise; every candidate computes the
        // same bits, so re-running the contraction is side-effect-free.
        const double t = std::min(measure(cand), measure(cand));
        if (t < best) {
          best = t;
          entry.exec = cand;
        }
      }
      entry.measured = true;
    }
  } catch (...) {
    const MutexLock lock(cache.mu);
    cache.in_flight.erase(bucket);
    throw;
  }
  memstats::RecordAutotuneMeasure();
  const MutexLock lock(cache.mu);
  cache.in_flight.erase(bucket);
  cache.entries.emplace(bucket, entry);
  return entry;
}

TunedEntry Autotune(const ShapeBucket& bucket, const MeasureFn& measure) {
  return Autotune(bucket, measure, AutotuneModeFromEnv());
}

void ResetAutotuneCacheForTesting() {
  TuneCache& cache = Cache();
  const MutexLock lock(cache.mu);
  cache.entries.clear();
}

}  // namespace xflow::config
