// Allocation accounting for the tensor/workspace memory layer.
//
// Every owning Tensor buffer and every Workspace slab reports its
// allocation here, and the einsum engine reports every offset-table
// build (a cache miss in its per-(spec, shapes) table cache). This is
// the instrumentable hook behind the memory planner's steady-state
// contract: once a layer's activations are bound to a liveness-planned
// arena, a training step must perform *zero* tensor/workspace
// allocations and *zero* einsum-table rebuilds -- tests read a Snapshot
// before and after the step and assert the counters did not move.
// (Other engine-internal scratch -- reduction partials, per-thread tile
// staging -- is not tensor storage and is not counted; it is bounded and
// reused per thread.)
//
// autotune_measures / autotune_hits are always 0: nothing records them.
// They stay in Snapshot only because the training-step benchmark
// (perfbench/step_runner.cpp) still reads them.
#pragma once

#include <atomic>
#include <cstdint>

namespace xflow::memstats {

/// Monotonic counters; subtract two snapshots to meter a region.
struct Snapshot {
  std::int64_t tensor_allocs = 0;     // owning Tensor buffers created
  std::int64_t tensor_bytes = 0;      // total bytes of those buffers
  std::int64_t workspace_allocs = 0;  // Workspace slab (re)allocations
  std::int64_t workspace_bytes = 0;   // total bytes of those slabs
  std::int64_t einsum_table_builds = 0;  // einsum offset-table cache misses
  std::int64_t einsum_class_builds = 0;  // einsum classification cache misses
  std::int64_t autotune_measures = 0;    // always 0 (see above)
  std::int64_t autotune_hits = 0;        // always 0 (see above)
};

namespace internal {
inline std::atomic<std::int64_t> tensor_allocs{0};
inline std::atomic<std::int64_t> tensor_bytes{0};
inline std::atomic<std::int64_t> workspace_allocs{0};
inline std::atomic<std::int64_t> workspace_bytes{0};
inline std::atomic<std::int64_t> einsum_table_builds{0};
inline std::atomic<std::int64_t> einsum_class_builds{0};
}  // namespace internal

inline void RecordTensorAlloc(std::int64_t bytes) {
  internal::tensor_allocs.fetch_add(1, std::memory_order_relaxed);
  internal::tensor_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

inline void RecordWorkspaceAlloc(std::int64_t bytes) {
  internal::workspace_allocs.fetch_add(1, std::memory_order_relaxed);
  internal::workspace_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

inline void RecordEinsumTableBuild() {
  internal::einsum_table_builds.fetch_add(1, std::memory_order_relaxed);
}

inline void RecordEinsumClassBuild() {
  internal::einsum_class_builds.fetch_add(1, std::memory_order_relaxed);
}

inline Snapshot Read() {
  Snapshot s;
  s.tensor_allocs = internal::tensor_allocs.load(std::memory_order_relaxed);
  s.tensor_bytes = internal::tensor_bytes.load(std::memory_order_relaxed);
  s.workspace_allocs =
      internal::workspace_allocs.load(std::memory_order_relaxed);
  s.workspace_bytes =
      internal::workspace_bytes.load(std::memory_order_relaxed);
  s.einsum_table_builds =
      internal::einsum_table_builds.load(std::memory_order_relaxed);
  s.einsum_class_builds =
      internal::einsum_class_builds.load(std::memory_order_relaxed);
  return s;
}

}  // namespace xflow::memstats
