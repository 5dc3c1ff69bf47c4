// Einstein-summation tensor contraction (the paper's △ operator class).
//
// Specs use the paper's notation, e.g. "phi,ibj->phbj". The fast path maps a
// contraction onto the strided batched GEMM in gemm.hpp; a naive reference
// path exists for validation.
#pragma once

#include <cstdint>
#include <string>

#include "tensor/einsum_class.hpp"
#include "tensor/tensor.hpp"

namespace xflow {

/// Parsed and classified einsum specification.
struct EinsumSpec {
  std::string a;    // dims of the first operand
  std::string b;    // dims of the second operand
  std::string out;  // dims of the output

  std::string batch_dims;  // in a, b and out (ordered as in out)
  std::string m_dims;      // in a and out only (ordered as in out)
  std::string n_dims;      // in b and out only (ordered as in out)
  std::string k_dims;      // in a and b only (ordered as in a) -- contracted

  /// Parse "ab,bc->ac"-style strings. Throws InvalidArgument on malformed
  /// specs or dims that appear in only one tensor.
  static EinsumSpec Parse(std::string_view spec);

  /// Flop count for given operand extents: 2 * |batch| * M * N * K.
  [[nodiscard]] std::int64_t FlopCount(const Shape& a_shape,
                                       const Shape& b_shape) const;
};

/// Flattened GEMM dimensions of a contraction (see einsum_class.hpp for
/// the GemmExtents definition shared with the graph layer). Throws
/// InvalidArgument naming the spec and both operand shapes when a spec
/// dim is missing from the operand that must carry it.
GemmExtents ContractionExtents(const EinsumSpec& spec, const Shape& a_shape,
                               const Shape& b_shape);

/// Classification of one (spec, operand shapes) site, cached process-wide
/// alongside the offset-table cache (misses are metered via
/// memstats::einsum_class_builds -- a steady-state step re-derives
/// nothing).
struct EinsumClassInfo {
  EinsumClass cls = EinsumClass::kUnclassified;
  GemmExtents extents;
};
const EinsumClassInfo& ClassifyEinsum(const EinsumSpec& spec,
                                      const Shape& a_shape,
                                      const Shape& b_shape);

/// out = alpha * einsum(a, b) + beta * out. `out` must already be shaped with
/// exactly the spec's output dims (any memory order -- layouts are free).
/// Classifies via the cache and dispatches through the lowered kernel set.
template <typename T>
void EinsumInto(const EinsumSpec& spec, const Tensor<T>& a, const Tensor<T>& b,
                Tensor<T>& out, float alpha = 1.0f, float beta = 0.0f);

/// EinsumInto with the lowering class chosen by the caller (the graph
/// executor dispatches through the class its lowering pass recorded).
/// `cls` must be the site's derived class, except that kGemm /
/// kBatchedGemm always run the generic macro-tile pipeline -- passing
/// kGemm forces the generic path for any shape, which is how the bitwise
/// specialized-vs-generic tests and benches get their baseline --
/// and kUnclassified classifies on the fly.
template <typename T>
void EinsumLowered(const EinsumSpec& spec, EinsumClass cls, const Tensor<T>& a,
                   const Tensor<T>& b, Tensor<T>& out, float alpha = 1.0f,
                   float beta = 0.0f);

/// Convenience: allocates the output with dims in spec order.
template <typename T>
Tensor<T> Einsum(const EinsumSpec& spec, const Tensor<T>& a,
                 const Tensor<T>& b, float alpha = 1.0f);
template <typename T>
Tensor<T> Einsum(std::string_view spec, const Tensor<T>& a, const Tensor<T>& b,
                 float alpha = 1.0f) {
  return Einsum(EinsumSpec::Parse(spec), a, b, alpha);
}

/// Naive triple-loop reference, fp32 output regardless of input type.
template <typename T>
TensorF EinsumRef(const EinsumSpec& spec, const Tensor<T>& a,
                  const Tensor<T>& b, float alpha = 1.0f);
template <typename T>
TensorF EinsumRef(std::string_view spec, const Tensor<T>& a,
                  const Tensor<T>& b, float alpha = 1.0f) {
  return EinsumRef(EinsumSpec::Parse(spec), a, b, alpha);
}

}  // namespace xflow
