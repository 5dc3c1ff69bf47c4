#include "transformer/encoder.hpp"

#include <cmath>
#include <string>

#include "common/rng.hpp"
#include "ops/elementwise.hpp"
#include "ops/fused.hpp"
#include "ops/layernorm.hpp"
#include "ops/softmax.hpp"
#include "tensor/einsum.hpp"

namespace xflow::transformer {

namespace {

/// Dropout sites get decorrelated Philox streams derived from the layer
/// seed. Identical across fused/unfused execution by construction.
enum DropoutSite : std::uint64_t {
  kAttnSoftmax = 0,
  kAttnOutput = 1,
  kFeedForward = 2,
  kOutput = 3,
};

std::uint64_t SiteSeed(std::uint64_t seed, DropoutSite site) {
  std::uint64_t s = seed * 4 + site;
  return SplitMix64(s);
}

/// The layer's contractions, parsed once per process: steady-state steps
/// must not re-parse specs (or allocate output tensors -- every call site
/// uses EinsumInto with reused storage).
struct EncoderSpecs {
  EinsumSpec qkv = EinsumSpec::Parse("phi,ibj->phbj");
  EinsumSpec qkt = EinsumSpec::Parse("phbk,phbj->hbjk");
  EinsumSpec gamma = EinsumSpec::Parse("whbk,hbjk->whbj");
  EinsumSpec out = EinsumSpec::Parse("whi,whbj->ibj");
  EinsumSpec lin1 = EinsumSpec::Parse("ui,ibj->ubj");
  EinsumSpec lin2 = EinsumSpec::Parse("iu,ubj->ibj");
  EinsumSpec lin2_dx = EinsumSpec::Parse("iu,ibj->ubj");
  EinsumSpec lin2_dw = EinsumSpec::Parse("ibj,ubj->iu");
  EinsumSpec lin1_dx = EinsumSpec::Parse("ui,ubj->ibj");
  EinsumSpec lin1_dw = EinsumSpec::Parse("ubj,ibj->ui");
  EinsumSpec out_dx = EinsumSpec::Parse("whi,ibj->whbj");
  EinsumSpec out_dw = EinsumSpec::Parse("ibj,whbj->whi");
  EinsumSpec gamma_dx1 = EinsumSpec::Parse("whbk,whbj->hbjk");
  EinsumSpec gamma_dx2 = EinsumSpec::Parse("whbj,hbjk->whbk");
  EinsumSpec qkt_dx1 = EinsumSpec::Parse("phbj,hbjk->phbk");
  EinsumSpec qkt_dx2 = EinsumSpec::Parse("hbjk,phbk->phbj");
  EinsumSpec qkv_dx = EinsumSpec::Parse("phi,phbj->ibj");
  EinsumSpec qkv_dw = EinsumSpec::Parse("phbj,ibj->phi");
};

const EncoderSpecs& S() {
  static const EncoderSpecs specs;
  return specs;
}

}  // namespace

std::vector<std::uint64_t> EncoderDropoutSeeds(std::uint64_t layer_seed) {
  return {SiteSeed(layer_seed, kAttnSoftmax), SiteSeed(layer_seed, kAttnOutput),
          SiteSeed(layer_seed, kFeedForward), SiteSeed(layer_seed, kOutput)};
}

template <typename T>
EncoderParamsT<T> EncoderParamsT<T>::Init(const graph::ModelDims& d,
                                          std::uint64_t seed) {
  const auto i = d.i;
  const auto p3 = 3 * d.p;
  auto scaled = [&](Shape shape, std::int64_t fan_in,
                    std::uint64_t s) -> Tensor<T> {
    auto t = Tensor<T>::Random(std::move(shape), s);
    const float scale = 1.0f / std::sqrt(static_cast<float>(fan_in));
    for (std::int64_t e = 0; e < t.size(); ++e) {
      t.data()[e] = T(float(t.data()[e]) * scale);
    }
    return t;
  };
  EncoderParamsT<T> params;
  params.w_qkv = scaled(Shape("phi", {p3, d.h, i}), i, seed + 1);
  params.b_qkv = scaled(Shape("ph", {p3, d.h}), i, seed + 2);
  params.w_out = scaled(Shape("whi", {d.p, d.h, i}), d.p * d.h, seed + 3);
  params.b_out = scaled(Shape("i", {i}), i, seed + 4);
  params.ln1_w = Tensor<T>::Full(Shape("i", {i}), 1.0f);
  params.ln1_b = Tensor<T>::Full(Shape("i", {i}), 0.0f);
  params.w1 = scaled(Shape("ui", {d.u, i}), i, seed + 5);
  params.b1 = scaled(Shape("u", {d.u}), i, seed + 6);
  params.w2 = scaled(Shape("iu", {i, d.u}), d.u, seed + 7);
  params.b2 = scaled(Shape("i", {i}), d.u, seed + 8);
  params.ln2_w = Tensor<T>::Full(Shape("i", {i}), 1.0f);
  params.ln2_b = Tensor<T>::Full(Shape("i", {i}), 0.0f);
  return params;
}

template <typename T>
std::vector<std::pair<std::string, Tensor<T>*>> EncoderParamsT<T>::Named() {
  return {{"w_qkv", &w_qkv}, {"b_qkv", &b_qkv}, {"w_out", &w_out},
          {"b_out", &b_out}, {"ln1_w", &ln1_w}, {"ln1_b", &ln1_b},
          {"w1", &w1},       {"b1", &b1},       {"w2", &w2},
          {"b2", &b2},       {"ln2_w", &ln2_w}, {"ln2_b", &ln2_b}};
}

template <typename T>
void EncoderParamsT<T>::EnsureShapes(const graph::ModelDims& d) {
  const auto p3 = 3 * d.p;
  w_qkv.EnsureShape(Shape("phi", {p3, d.h, d.i}));
  b_qkv.EnsureShape(Shape("ph", {p3, d.h}));
  w_out.EnsureShape(Shape("whi", {d.p, d.h, d.i}));
  b_out.EnsureShape(Shape("i", {d.i}));
  ln1_w.EnsureShape(Shape("i", {d.i}));
  ln1_b.EnsureShape(Shape("i", {d.i}));
  w1.EnsureShape(Shape("ui", {d.u, d.i}));
  b1.EnsureShape(Shape("u", {d.u}));
  w2.EnsureShape(Shape("iu", {d.i, d.u}));
  b2.EnsureShape(Shape("i", {d.i}));
  ln2_w.EnsureShape(Shape("i", {d.i}));
  ln2_b.EnsureShape(Shape("i", {d.i}));
}

template <typename T>
EncoderLayerT<T>::EncoderLayerT(EncoderConfig config, EncoderParamsT<T> params)
    : config_(std::move(config)), params_(std::move(params)) {}

template <typename T>
const Tensor<T>& EncoderLayerT<T>::Forward(const Tensor<T>& x,
                                           EncoderActivationsT<T>& acts) const {
  const auto& d = config_.dims;
  const float attn_scale = 1.0f / std::sqrt(static_cast<float>(d.p));
  const DropoutMask attn_sm_mask(SiteSeed(config_.seed, kAttnSoftmax),
                                 config_.dropout_prob);
  const DropoutMask attn_out_mask(SiteSeed(config_.seed, kAttnOutput),
                                  config_.dropout_prob);
  const DropoutMask ff_mask(SiteSeed(config_.seed, kFeedForward),
                            config_.dropout_prob);
  const DropoutMask out_mask(SiteSeed(config_.seed, kOutput),
                             config_.dropout_prob);
  const Shape ibj("ibj", {d.i, d.b, d.j});
  const Shape ubj("ubj", {d.u, d.b, d.j});
  const Shape hbjk("hbjk", {d.h, d.b, d.j, d.k});
  const Shape whbj("whbj", {d.p, d.h, d.b, d.j});
  const Shape phbj("phbj", {d.p, d.h, d.b, d.j});
  const Shape phbj3("phbj", {3 * d.p, d.h, d.b, d.j});
  const Shape bj("bj", {d.b, d.j});

  // Saved activations live in owning buffers that EnsureShape reuses
  // across steps; the kernels below overwrite them fully.

  // The input is saved for the backward dW contractions.
  acts.x.EnsureShape(x.shape());
  CopyValuesInto(x, acts.x);

  // Q,K,V: one stacked GEMM (algebraic fusion, Sec. IV-D). The three
  // projections are contiguous sub-blocks of the stacked output, so the
  // split is a zero-copy view.
  Tensor<T> proj(phbj3);
  EinsumInto(S().qkv, params_.w_qkv, x, proj);
  auto qq = proj.SliceViewDim('p', 0, d.p);
  auto kk = proj.SliceViewDim('p', d.p, d.p);
  auto vv = proj.SliceViewDim('p', 2 * d.p, d.p);

  // AIB.
  acts.qq_b.EnsureShape(phbj);
  Tensor<T> kk_b(phbj);
  Tensor<T> vv_b(phbj);
  if (config_.use_fused_kernels) {
    ops::AttnInputBias<T>({&qq, &kk, &vv}, params_.b_qkv, 'p',
                          {&acts.qq_b, &kk_b, &vv_b});
  } else {
    ops::BiasForward(qq, params_.b_qkv.SliceViewDim('p', 0, d.p), acts.qq_b);
    ops::BiasForward(kk, params_.b_qkv.SliceViewDim('p', d.p, d.p), kk_b);
    ops::BiasForward(vv, params_.b_qkv.SliceViewDim('p', 2 * d.p, d.p), vv_b);
  }
  acts.kk_b = kk_b.RenamedDim('j', 'k');
  acts.vv_b = vv_b.RenamedDim('j', 'k').RenamedDim('p', 'w');

  // QKT (the softmax scaling lives in the SM kernel).
  Tensor<T> beta(hbjk);
  EinsumInto(S().qkt, acts.kk_b, acts.qq_b, beta);

  // SM: scale + softmax + attention dropout.
  acts.alpha.EnsureShape(hbjk);
  acts.attn_mask.EnsureShape(hbjk);
  acts.softmax_saved.EnsureShape(hbjk);
  if (config_.causal) {
    ops::CausalScaledSoftmaxForward(beta, 'k', 'j', attn_scale, attn_sm_mask,
                                    acts.alpha, acts.attn_mask,
                                    acts.softmax_saved);
  } else {
    ops::ScaledSoftmaxForward(beta, 'k', attn_scale, attn_sm_mask,
                              acts.alpha, acts.attn_mask,
                              acts.softmax_saved);
  }

  // gamma and the output projection.
  acts.gamma_t.EnsureShape(whbj);
  EinsumInto(S().gamma, acts.vv_b, acts.alpha, acts.gamma_t);
  Tensor<T> attn_out(ibj);
  EinsumInto(S().out, params_.w_out, acts.gamma_t, attn_out);

  // DRLN: output bias + dropout + residual + layernorm 1.
  acts.resid1.EnsureShape(ibj);
  acts.attn_drop_mask.EnsureShape(ibj);
  acts.ln1_out.EnsureShape(ibj);
  acts.ln1_mean.EnsureShape(bj);
  acts.ln1_rstd.EnsureShape(bj);
  if (config_.use_fused_kernels) {
    ops::BiasDropoutResidualLayerNorm(
        attn_out, params_.b_out, x, attn_out_mask, params_.ln1_w,
        params_.ln1_b, 'i', config_.ln_eps, acts.resid1, acts.attn_drop_mask,
        acts.ln1_out, acts.ln1_mean, acts.ln1_rstd);
  } else {
    Tensor<T> biased(ibj);
    Tensor<T> dropped(ibj);
    ops::BiasForward(attn_out, params_.b_out, biased);
    ops::DropoutForward(biased, attn_out_mask, dropped, acts.attn_drop_mask);
    ops::ResidualForward(dropped, x, acts.resid1);
    ops::LayerNormForward(acts.resid1, params_.ln1_w, params_.ln1_b, 'i',
                          config_.ln_eps, acts.ln1_out, acts.ln1_mean,
                          acts.ln1_rstd);
  }

  // Feed-forward: linear 1, BRD, linear 2, BDRLN.
  Tensor<T> lin1(ubj);
  EinsumInto(S().lin1, params_.w1, acts.ln1_out, lin1);
  acts.relu1.EnsureShape(ubj);
  acts.ff_dropped.EnsureShape(ubj);
  acts.ff_drop_mask.EnsureShape(ubj);
  if (config_.use_fused_kernels) {
    ops::BiasReluDropout(lin1, params_.b1, ff_mask, acts.relu1,
                         acts.ff_dropped, acts.ff_drop_mask);
  } else {
    Tensor<T> biased(ubj);
    ops::BiasForward(lin1, params_.b1, biased);
    ops::ReluForward(biased, acts.relu1);
    ops::DropoutForward(acts.relu1, ff_mask, acts.ff_dropped,
                        acts.ff_drop_mask);
  }

  Tensor<T> lin2(ibj);
  EinsumInto(S().lin2, params_.w2, acts.ff_dropped, lin2);
  acts.resid2.EnsureShape(ibj);
  acts.lin2_drop_mask.EnsureShape(ibj);
  acts.y.EnsureShape(ibj);
  acts.ln2_mean.EnsureShape(bj);
  acts.ln2_rstd.EnsureShape(bj);
  if (config_.use_fused_kernels) {
    ops::BiasDropoutResidualLayerNorm(
        lin2, params_.b2, acts.ln1_out, out_mask, params_.ln2_w,
        params_.ln2_b, 'i', config_.ln_eps, acts.resid2, acts.lin2_drop_mask,
        acts.y, acts.ln2_mean, acts.ln2_rstd);
  } else {
    Tensor<T> biased(ibj);
    Tensor<T> dropped(ibj);
    ops::BiasForward(lin2, params_.b2, biased);
    ops::DropoutForward(biased, out_mask, dropped, acts.lin2_drop_mask);
    ops::ResidualForward(dropped, acts.ln1_out, acts.resid2);
    ops::LayerNormForward(acts.resid2, params_.ln2_w, params_.ln2_b, 'i',
                          config_.ln_eps, acts.y, acts.ln2_mean,
                          acts.ln2_rstd);
  }
  return acts.y;
}

template <typename T>
void EncoderLayerT<T>::Backward(const Tensor<T>& d_y,
                                const EncoderActivationsT<T>& acts,
                                EncoderGradientsT<T>& grads) const {
  const auto& d = config_.dims;
  const float attn_scale = 1.0f / std::sqrt(static_cast<float>(d.p));
  const float keep = 1.0f - config_.dropout_prob;
  const float keep_scale = keep > 0 ? 1.0f / keep : 0.0f;
  const Shape ibj("ibj", {d.i, d.b, d.j});
  const Shape ubj("ubj", {d.u, d.b, d.j});
  const Shape hbjk("hbjk", {d.h, d.b, d.j, d.k});
  const Shape whbj("whbj", {d.p, d.h, d.b, d.j});
  const Shape whbk("whbk", {d.p, d.h, d.b, d.k});
  const Shape phbk("phbk", {d.p, d.h, d.b, d.k});
  const Shape phbj("phbj", {d.p, d.h, d.b, d.j});
  auto& gp = grads.params;
  gp.EnsureShapes(d);  // accumulators; every entry is overwritten below

  // BSB: layernorm 2 dW.
  ops::LayerNormBackwardDW(d_y, acts.resid2, acts.ln2_mean, acts.ln2_rstd,
                           'i', gp.ln2_w, gp.ln2_b);

  // BLNRD: layernorm 2 dX + output dropout dX (keeps d_resid2 for EBSB).
  Tensor<T> d_resid2(ibj);
  Tensor<T> d_lin2_biased(ibj);
  if (config_.use_fused_kernels) {
    ops::LayerNormDropoutBackward(d_y, params_.ln2_w, acts.resid2,
                                  acts.ln2_mean, acts.ln2_rstd,
                                  acts.lin2_drop_mask, 'i', keep_scale,
                                  d_resid2, d_lin2_biased);
  } else {
    ops::LayerNormBackwardDX(d_y, params_.ln2_w, acts.resid2, acts.ln2_mean,
                             acts.ln2_rstd, 'i', d_resid2);
    ops::DropoutBackwardDX(d_resid2, acts.lin2_drop_mask, keep_scale,
                           d_lin2_biased);
  }

  // Linear 2 dX / dW.
  Tensor<T> d_ff_dropped(ubj);
  EinsumInto(S().lin2_dx, params_.w2, d_lin2_biased, d_ff_dropped);
  EinsumInto(S().lin2_dw, d_lin2_biased, acts.ff_dropped, gp.w2);

  // BDRB: bias2 dW + ff dropout dX + relu dX + bias1 dW.
  Tensor<T> d_lin1_biased(ubj);
  if (config_.use_fused_kernels) {
    ops::BiasDropoutReluBiasBackward(d_lin2_biased, d_ff_dropped,
                                     acts.ff_drop_mask, acts.relu1,
                                     keep_scale, gp.b2, d_lin1_biased, gp.b1);
  } else {
    ops::BiasBackwardDW(d_lin2_biased, gp.b2);
    Tensor<T> d_relu(ubj);
    ops::DropoutBackwardDX(d_ff_dropped, acts.ff_drop_mask, keep_scale,
                           d_relu);
    ops::ReluBackwardDX(d_relu, acts.relu1, d_lin1_biased);
    ops::BiasBackwardDW(d_lin1_biased, gp.b1);
  }

  // Linear 1 dX / dW.
  Tensor<T> d_ln1_ff(ibj);
  EinsumInto(S().lin1_dx, params_.w1, d_lin1_biased, d_ln1_ff);
  EinsumInto(S().lin1_dw, d_lin1_biased, acts.ln1_out, gp.w1);

  // EBSB: residual merge + layernorm 1 dW.
  Tensor<T> d_ln1_out(ibj);
  if (config_.use_fused_kernels) {
    ops::ResidualLayerNormDwBackward(d_ln1_ff, d_resid2, acts.resid1,
                                     acts.ln1_mean, acts.ln1_rstd, 'i',
                                     d_ln1_out, gp.ln1_w, gp.ln1_b);
  } else {
    ops::ResidualForward(d_ln1_ff, d_resid2, d_ln1_out);
    ops::LayerNormBackwardDW(d_ln1_out, acts.resid1, acts.ln1_mean,
                             acts.ln1_rstd, 'i', gp.ln1_w, gp.ln1_b);
  }

  // BLNRD: layernorm 1 dX + attention dropout dX.
  Tensor<T> d_resid1(ibj);
  Tensor<T> d_attn_biased(ibj);
  if (config_.use_fused_kernels) {
    ops::LayerNormDropoutBackward(d_ln1_out, params_.ln1_w, acts.resid1,
                                  acts.ln1_mean, acts.ln1_rstd,
                                  acts.attn_drop_mask, 'i', keep_scale,
                                  d_resid1, d_attn_biased);
  } else {
    ops::LayerNormBackwardDX(d_ln1_out, params_.ln1_w, acts.resid1,
                             acts.ln1_mean, acts.ln1_rstd, 'i', d_resid1);
    ops::DropoutBackwardDX(d_resid1, acts.attn_drop_mask, keep_scale,
                           d_attn_biased);
  }

  // BAOB: output bias dW.
  ops::BiasBackwardDW(d_attn_biased, gp.b_out);

  // Attention backward contractions.
  Tensor<T> d_gamma(whbj);
  EinsumInto(S().out_dx, params_.w_out, d_attn_biased, d_gamma);
  EinsumInto(S().out_dw, d_attn_biased, acts.gamma_t, gp.w_out);
  Tensor<T> d_alpha(hbjk);
  EinsumInto(S().gamma_dx1, acts.vv_b, d_gamma, d_alpha);
  Tensor<T> d_vv(whbk);
  EinsumInto(S().gamma_dx2, d_gamma, acts.alpha, d_vv);

  // BS: dropout + softmax + scaling backward.
  Tensor<T> d_beta(hbjk);
  ops::ScaledSoftmaxBackwardDX(d_alpha, acts.attn_mask, acts.softmax_saved,
                               'k', attn_scale, keep_scale, d_beta);

  // QKT dX1 / dX2.
  Tensor<T> d_kk(phbk);
  EinsumInto(S().qkt_dx1, acts.qq_b, d_beta, d_kk);
  Tensor<T> d_qq(phbj);
  EinsumInto(S().qkt_dx2, d_beta, acts.kk_b, d_qq);

  // Stacked [dQ~ dK~ dV~] (algebraic fusion) for the single stacked dX
  // and dW contractions.
  auto d_kk_j = d_kk.RenamedDim('k', 'j');
  auto d_vv_j = d_vv.RenamedDim('k', 'j').RenamedDim('w', 'p');
  Tensor<T> d_proj = ConcatDim<T>({&d_qq, &d_kk_j, &d_vv_j}, 'p');
  grads.d_x.EnsureShape(ibj);
  Tensor<T> d_x_qkv(ibj);
  EinsumInto(S().qkv_dx, params_.w_qkv, d_proj, d_x_qkv);
  EinsumInto(S().qkv_dw, d_proj, acts.x, gp.w_qkv);

  // BAIB: stacked input-bias gradient.
  if (config_.use_fused_kernels) {
    ops::AttnInputBiasBackward<T>({&d_qq, &d_kk_j, &d_vv_j}, 'p', gp.b_qkv);
  } else {
    ops::BiasBackwardDW(d_proj, gp.b_qkv);
  }

  // BEI: encoder-input residual.
  ops::ResidualForward(d_x_qkv, d_resid1, grads.d_x);
}

template struct EncoderParamsT<Half>;
template struct EncoderParamsT<float>;
template class EncoderLayerT<Half>;
template class EncoderLayerT<float>;

}  // namespace xflow::transformer
