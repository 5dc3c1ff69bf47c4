#include "transformer/mha.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "ops/elementwise.hpp"
#include "ops/softmax.hpp"
#include "tensor/einsum.hpp"

namespace xflow::transformer {

namespace {

/// Contractions parsed once per process; every call site writes into
/// reused storage via EinsumInto.
struct MhaSpecs {
  EinsumSpec q = EinsumSpec::Parse("phi,ibj->phbj");
  EinsumSpec k = EinsumSpec::Parse("phi,ibk->phbk");
  EinsumSpec v = EinsumSpec::Parse("whi,ibk->whbk");
  EinsumSpec qkt = EinsumSpec::Parse("phbk,phbj->hbjk");
  EinsumSpec gamma = EinsumSpec::Parse("whbk,hbjk->whbj");
  EinsumSpec out = EinsumSpec::Parse("whi,whbj->ibj");
  EinsumSpec out_dx = EinsumSpec::Parse("whi,ibj->whbj");
  EinsumSpec out_dw = EinsumSpec::Parse("ibj,whbj->whi");
  EinsumSpec gamma_dx1 = EinsumSpec::Parse("whbk,whbj->hbjk");
  EinsumSpec gamma_dx2 = EinsumSpec::Parse("whbj,hbjk->whbk");
  EinsumSpec qkt_dx1 = EinsumSpec::Parse("phbj,hbjk->phbk");
  EinsumSpec qkt_dx2 = EinsumSpec::Parse("hbjk,phbk->phbj");
  EinsumSpec q_dx = EinsumSpec::Parse("phi,phbj->ibj");
  EinsumSpec k_dx = EinsumSpec::Parse("phi,phbk->ibk");
  EinsumSpec v_dx = EinsumSpec::Parse("whi,whbk->ibk");
  EinsumSpec q_dw = EinsumSpec::Parse("phbj,ibj->phi");
  EinsumSpec k_dw = EinsumSpec::Parse("phbk,ibk->phi");
  EinsumSpec v_dw = EinsumSpec::Parse("whbk,ibk->whi");
};

const MhaSpecs& S() {
  static const MhaSpecs specs;
  return specs;
}

}  // namespace

template <typename T>
MhaParamsT<T> MhaParamsT<T>::Init(const graph::ModelDims& d,
                                  std::uint64_t seed) {
  auto scaled = [&](Shape shape, std::int64_t fan_in,
                    std::uint64_t s) -> Tensor<T> {
    auto t = Tensor<T>::Random(std::move(shape), s);
    const float scale = 1.0f / std::sqrt(static_cast<float>(fan_in));
    for (std::int64_t e = 0; e < t.size(); ++e) {
      t.data()[e] = T(float(t.data()[e]) * scale);
    }
    return t;
  };
  MhaParamsT<T> p;
  p.wq = scaled(Shape("phi", {d.p, d.h, d.i}), d.i, seed + 1);
  p.wk = scaled(Shape("phi", {d.p, d.h, d.i}), d.i, seed + 2);
  p.wv = scaled(Shape("whi", {d.p, d.h, d.i}), d.i, seed + 3);
  p.wo = scaled(Shape("whi", {d.p, d.h, d.i}), d.p * d.h, seed + 4);
  p.bq = scaled(Shape("ph", {d.p, d.h}), d.i, seed + 5);
  p.bk = scaled(Shape("ph", {d.p, d.h}), d.i, seed + 6);
  p.bv = scaled(Shape("wh", {d.p, d.h}), d.i, seed + 7);
  p.bo = scaled(Shape("i", {d.i}), d.i, seed + 8);
  return p;
}

template <typename T>
std::vector<std::pair<std::string, Tensor<T>*>> MhaParamsT<T>::Named() {
  return {{"wq", &wq}, {"wk", &wk}, {"wv", &wv}, {"wo", &wo},
          {"bq", &bq}, {"bk", &bk}, {"bv", &bv}, {"bo", &bo}};
}

template <typename T>
void MhaParamsT<T>::EnsureShapes(const graph::ModelDims& d) {
  wq.EnsureShape(Shape("phi", {d.p, d.h, d.i}));
  wk.EnsureShape(Shape("phi", {d.p, d.h, d.i}));
  wv.EnsureShape(Shape("whi", {d.p, d.h, d.i}));
  wo.EnsureShape(Shape("whi", {d.p, d.h, d.i}));
  bq.EnsureShape(Shape("ph", {d.p, d.h}));
  bk.EnsureShape(Shape("ph", {d.p, d.h}));
  bv.EnsureShape(Shape("wh", {d.p, d.h}));
  bo.EnsureShape(Shape("i", {d.i}));
}

template <typename T>
MhaLayerT<T>::MhaLayerT(MhaConfig config, MhaParamsT<T> params)
    : config_(std::move(config)), params_(std::move(params)) {}

template <typename T>
const Tensor<T>& MhaLayerT<T>::Forward(const Tensor<T>& q, const Tensor<T>& k,
                                       const Tensor<T>& v,
                                       MhaActivationsT<T>& acts) const {
  const auto& d = config_.dims;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d.p));
  std::uint64_t seed_state = config_.seed;
  const DropoutMask sm_mask(SplitMix64(seed_state), config_.dropout_prob);
  const Shape hbjk("hbjk", {d.h, d.b, d.j, d.k});
  const Shape phbj("phbj", {d.p, d.h, d.b, d.j});
  const Shape phbk("phbk", {d.p, d.h, d.b, d.k});
  const Shape whbk("whbk", {d.p, d.h, d.b, d.k});
  const Shape whbj("whbj", {d.p, d.h, d.b, d.j});
  const Shape ibj("ibj", {d.i, d.b, d.j});

  acts.q.EnsureShape(q.shape());
  CopyValuesInto(q, acts.q);
  acts.k.EnsureShape(k.shape());
  CopyValuesInto(k, acts.k);
  acts.v.EnsureShape(v.shape());
  CopyValuesInto(v, acts.v);

  // Input projections with bias (Fig. 1: three separate einsums; no
  // algebraic fusion since the inputs are distinct tensors).
  Tensor<T> qq(phbj);
  Tensor<T> kk(phbk);
  Tensor<T> vv(whbk);
  EinsumInto(S().q, params_.wq, q, qq);
  EinsumInto(S().k, params_.wk, k, kk);
  EinsumInto(S().v, params_.wv, v, vv);
  acts.qq_b.EnsureShape(phbj);
  acts.kk_b.EnsureShape(phbk);
  acts.vv_b.EnsureShape(whbk);
  ops::BiasForward(qq, params_.bq, acts.qq_b);
  ops::BiasForward(kk, params_.bk, acts.kk_b);
  ops::BiasForward(vv, params_.bv, acts.vv_b);

  // Attention scores, scaled softmax (+ optional causal mask) and dropout.
  Tensor<T> beta(hbjk);
  EinsumInto(S().qkt, acts.kk_b, acts.qq_b, beta);
  acts.alpha.EnsureShape(hbjk);
  acts.attn_mask.EnsureShape(hbjk);
  acts.softmax_saved.EnsureShape(hbjk);
  if (config_.causal) {
    ops::CausalScaledSoftmaxForward(beta, 'k', 'j', scale, sm_mask,
                                    acts.alpha, acts.attn_mask,
                                    acts.softmax_saved);
  } else {
    ops::ScaledSoftmaxForward(beta, 'k', scale, sm_mask, acts.alpha,
                              acts.attn_mask, acts.softmax_saved);
  }

  // Weighted values and output projection.
  acts.gamma_t.EnsureShape(whbj);
  EinsumInto(S().gamma, acts.vv_b, acts.alpha, acts.gamma_t);
  Tensor<T> proj(ibj);
  EinsumInto(S().out, params_.wo, acts.gamma_t, proj);
  acts.out.EnsureShape(ibj);
  ops::BiasForward(proj, params_.bo, acts.out);
  return acts.out;
}

template <typename T>
void MhaLayerT<T>::Backward(const Tensor<T>& d_out,
                            const MhaActivationsT<T>& acts,
                            MhaGradientsT<T>& grads) const {
  const auto& d = config_.dims;
  const float scale = 1.0f / std::sqrt(static_cast<float>(d.p));
  const float keep = 1.0f - config_.dropout_prob;
  const float keep_scale = keep > 0 ? 1.0f / keep : 0.0f;
  const Shape hbjk("hbjk", {d.h, d.b, d.j, d.k});
  const Shape ibk("ibk", {d.i, d.b, d.k});
  auto& gp = grads.params;
  gp.EnsureShapes(d);  // accumulators; every entry is overwritten below

  // Output bias and projection.
  ops::BiasBackwardDW(d_out, gp.bo);
  Tensor<T> d_gamma(Shape("whbj", {d.p, d.h, d.b, d.j}));
  EinsumInto(S().out_dx, params_.wo, d_out, d_gamma);
  EinsumInto(S().out_dw, d_out, acts.gamma_t, gp.wo);

  // gamma backward.
  Tensor<T> d_alpha(hbjk);
  EinsumInto(S().gamma_dx1, acts.vv_b, d_gamma, d_alpha);
  Tensor<T> d_vv(Shape("whbk", {d.p, d.h, d.b, d.k}));
  EinsumInto(S().gamma_dx2, d_gamma, acts.alpha, d_vv);

  // BS: dropout + softmax + scale.
  Tensor<T> d_beta(hbjk);
  ops::ScaledSoftmaxBackwardDX(d_alpha, acts.attn_mask, acts.softmax_saved,
                               'k', scale, keep_scale, d_beta);

  // QKT backward.
  Tensor<T> d_kk(Shape("phbk", {d.p, d.h, d.b, d.k}));
  EinsumInto(S().qkt_dx1, acts.qq_b, d_beta, d_kk);
  Tensor<T> d_qq(Shape("phbj", {d.p, d.h, d.b, d.j}));
  EinsumInto(S().qkt_dx2, d_beta, acts.kk_b, d_qq);

  // Projection biases, weights, and input gradients.
  ops::BiasBackwardDW(d_qq, gp.bq);
  ops::BiasBackwardDW(d_kk, gp.bk);
  ops::BiasBackwardDW(d_vv, gp.bv);
  grads.d_q.EnsureShape(Shape("ibj", {d.i, d.b, d.j}));
  grads.d_k.EnsureShape(ibk);
  grads.d_v.EnsureShape(ibk);
  EinsumInto(S().q_dx, params_.wq, d_qq, grads.d_q);
  EinsumInto(S().k_dx, params_.wk, d_kk, grads.d_k);
  EinsumInto(S().v_dx, params_.wv, d_vv, grads.d_v);
  EinsumInto(S().q_dw, d_qq, acts.q, gp.wq);
  EinsumInto(S().k_dw, d_kk, acts.k, gp.wk);
  EinsumInto(S().v_dw, d_vv, acts.v, gp.wv);
}

template struct MhaParamsT<Half>;
template struct MhaParamsT<float>;
template class MhaLayerT<Half>;
template class MhaLayerT<float>;

}  // namespace xflow::transformer
