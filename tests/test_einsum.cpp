#include "tensor/einsum.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <tuple>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/memstats.hpp"

namespace xflow {
namespace {

class ThreadGuard {
 public:
  explicit ThreadGuard(int threads) { ThreadPool::SetGlobalThreads(threads); }
  ~ThreadGuard() {
    ThreadPool::SetGlobalThreads(ThreadPool::ResolveGlobalThreads());
  }
};

TEST(EinsumSpec, ParsesAndClassifiesMhaProjection) {
  // Input projection from the paper's MHA code: wq[phi] * q[ibj] -> [phbj].
  auto s = EinsumSpec::Parse("phi,ibj->phbj");
  EXPECT_EQ(s.m_dims, "ph");
  EXPECT_EQ(s.n_dims, "bj");
  EXPECT_EQ(s.k_dims, "i");
  EXPECT_EQ(s.batch_dims, "");
}

TEST(EinsumSpec, ParsesBatchedAttentionScore) {
  // beta = kk[phbk] * qq[phbj] -> [hbjk]: batched over h,b; contracts p.
  auto s = EinsumSpec::Parse("phbk,phbj->hbjk");
  EXPECT_EQ(s.batch_dims, "hb");
  EXPECT_EQ(s.m_dims, "k");
  EXPECT_EQ(s.n_dims, "j");
  EXPECT_EQ(s.k_dims, "p");
}

TEST(EinsumSpec, ParsesOutputProjection) {
  auto s = EinsumSpec::Parse("whi,whbj->ibj");
  EXPECT_EQ(s.m_dims, "i");
  EXPECT_EQ(s.n_dims, "bj");
  EXPECT_EQ(s.k_dims, "wh");
}

TEST(EinsumSpec, RejectsMalformed) {
  EXPECT_THROW(EinsumSpec::Parse("abc"), InvalidArgument);
  EXPECT_THROW(EinsumSpec::Parse("ab,bc"), InvalidArgument);
  // 'x' appears only in one input and not the output:
  EXPECT_THROW(EinsumSpec::Parse("ax,ab->b"), InvalidArgument);
}

TEST(EinsumSpec, FlopCountMatchesPaperQkv) {
  // Q/K/V fused projection at paper dims: 2 * (3*64*16) * 1024 * (8*512)
  // = 24 "Gflop" in the paper's 2^30 convention (Table III row 1).
  auto s = EinsumSpec::Parse("phi,ibj->phbj");
  Shape w("phi", {192, 16, 1024});
  Shape x("ibj", {1024, 8, 512});
  const double gflop =
      static_cast<double>(s.FlopCount(w, x)) / (1024.0 * 1024.0 * 1024.0);
  EXPECT_NEAR(gflop, 24.0, 1e-9);
}

TEST(Einsum, MatchesReferenceMatmul) {
  auto a = TensorF::Random(Shape("mk", {17, 23}), 1);
  auto b = TensorF::Random(Shape("kn", {23, 9}), 2);
  auto fast = Einsum<float>("mk,kn->mn", a, b);
  auto ref = EinsumRef<float>("mk,kn->mn", a, b);
  EXPECT_LT(MaxAbsDiff(fast, ref), 1e-5);
}

TEST(Einsum, HandlesTransposedOperandLayouts) {
  auto a = TensorF::Random(Shape("mk", {17, 23}), 1).Permuted("km");
  auto b = TensorF::Random(Shape("kn", {23, 9}), 2).Permuted("nk");
  auto fast = Einsum<float>("mk,kn->mn", a, b);
  auto ref = EinsumRef<float>("mk,kn->mn", a, b);
  EXPECT_LT(MaxAbsDiff(fast, ref), 1e-5);
}

TEST(Einsum, AlphaScalesResult) {
  auto a = TensorF::Random(Shape("mk", {5, 7}), 3);
  auto b = TensorF::Random(Shape("kn", {7, 4}), 4);
  auto one = Einsum<float>("mk,kn->mn", a, b, 1.0f);
  auto eight = Einsum<float>("mk,kn->mn", a, b, 0.125f);
  for (std::int64_t i = 0; i < one.size(); ++i) {
    EXPECT_NEAR(one.data()[i] * 0.125f, eight.data()[i], 1e-6);
  }
}

TEST(Einsum, BetaAccumulatesIntoOutput) {
  auto a = TensorF::Random(Shape("mk", {5, 7}), 3);
  auto b = TensorF::Random(Shape("kn", {7, 4}), 4);
  auto c = Einsum<float>("mk,kn->mn", a, b);
  auto acc = TensorF::Full(Shape("mn", {5, 4}), 1.0f);
  EinsumInto<float>(EinsumSpec::Parse("mk,kn->mn"), a, b, acc, 1.0f, 1.0f);
  for (std::int64_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(acc.data()[i], c.data()[i] + 1.0f, 1e-5);
  }
}

TEST(Einsum, HalfInputsAccumulateInFp32) {
  // Sum of 4096 values of 0.01: fp16 accumulation would stall at ~0.25
  // increments; fp32 accumulation keeps full precision until final rounding.
  auto a = Tensor<Half>::Full(Shape("mk", {1, 4096}), 0.01f);
  auto b = Tensor<Half>::Full(Shape("kn", {4096, 1}), 1.0f);
  auto c = Einsum<Half>("mk,kn->mn", a, b);
  const float expected = 4096.0f * float(Half(0.01f));
  EXPECT_NEAR(float(c.data()[0]), expected, expected * 1e-3);
}

// Property-style sweep: fast path equals reference on every MHA contraction
// at reduced dimensions, in every operand memory layout combination tested.
class EinsumContractionSweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(EinsumContractionSweep, FastPathMatchesReference) {
  const auto& [spec_str, layout_kind] = GetParam();
  auto spec = EinsumSpec::Parse(spec_str);

  // Reduced paper dimensions.
  auto extent = [](char d) -> std::int64_t {
    switch (d) {
      case 'p': case 'w': return 8;
      case 'h': return 3;
      case 'i': return 24;
      case 'b': return 2;
      case 'j': case 'k': return 10;
      case 'u': return 16;
      default: return 4;
    }
  };
  auto make = [&](const std::string& dims, std::uint64_t seed) {
    std::vector<DimExt> de;
    for (char d : dims) de.push_back({d, extent(d)});
    auto t = TensorH::Random(Shape(de), seed);
    if (layout_kind == "reversed") {
      std::string rev(dims.rbegin(), dims.rend());
      return t.Permuted(rev);
    }
    return t;
  };

  auto a = make(spec.a, 11);
  auto b = make(spec.b, 22);
  auto fast = Einsum<Half>(spec, a, b);
  auto ref = EinsumRef<Half>(spec, a, b);
  EXPECT_LT(MaxAbsDiff(fast, ref), 0.01) << spec_str << " " << layout_kind;
}

INSTANTIATE_TEST_SUITE_P(
    AllMhaContractions, EinsumContractionSweep,
    ::testing::Combine(
        ::testing::Values("phi,ibj->phbj",    // Q/K/V projection
                          "phbk,phbj->hbjk",  // QK^T
                          "whbk,hbjk->whbj",  // gamma
                          "whi,whbj->ibj",    // output projection
                          "ui,ibj->ubj",      // linear1
                          "iu,ubj->ibj"),     // linear2
        ::testing::Values("natural", "reversed")));

// ---------------------------------------------------------------------
// Lowering classification (tensor/einsum_class.hpp).

TEST(EinsumClassify, CoversTheTaxonomy) {
  EXPECT_EQ(ClassifyContraction({.m = 8, .n = 8, .k = 8, .batch = 1}),
            EinsumClass::kGemm);
  EXPECT_EQ(ClassifyContraction({.m = 8, .n = 8, .k = 8, .batch = 3}),
            EinsumClass::kBatchedGemm);
  EXPECT_EQ(ClassifyContraction({.m = 8, .n = 1, .k = 8, .batch = 1}),
            EinsumClass::kGemv);
  EXPECT_EQ(ClassifyContraction({.m = 1, .n = 8, .k = 8, .batch = 1}),
            EinsumClass::kGemv);
  EXPECT_EQ(ClassifyContraction({.m = 8, .n = 8, .k = 1, .batch = 1}),
            EinsumClass::kGer);
  EXPECT_EQ(ClassifyContraction({.m = 1, .n = 1, .k = 8, .batch = 1}),
            EinsumClass::kReduction);
  EXPECT_EQ(ClassifyContraction({.m = 8, .n = 1, .k = 1, .batch = 1}),
            EinsumClass::kView);
  EXPECT_EQ(ClassifyContraction({.m = 1, .n = 8, .k = 1, .batch = 1}),
            EinsumClass::kView);
  EXPECT_EQ(ClassifyContraction({.m = 1, .n = 1, .k = 1, .batch = 1}),
            EinsumClass::kView);
  // The batch loop wraps any class: a batched gemv is still a gemv.
  EXPECT_EQ(ClassifyContraction({.m = 8, .n = 1, .k = 8, .batch = 4}),
            EinsumClass::kGemv);
}

TEST(EinsumClassify, DerivesFromSpecAndShapes) {
  auto spec = EinsumSpec::Parse("phbk,phbj->hbjk");
  Shape k("phbk", {8, 3, 2, 10});
  Shape q("phbj", {8, 3, 2, 10});
  const auto& info = ClassifyEinsum(spec, k, q);
  EXPECT_EQ(info.cls, EinsumClass::kBatchedGemm);
  EXPECT_EQ(info.extents.batch, 6);
  EXPECT_EQ(info.extents.m, 10);
  EXPECT_EQ(info.extents.n, 10);
  EXPECT_EQ(info.extents.k, 8);
  // Degenerate named extents classify by extent, not by rank: an n-group
  // of extent 1 is a gemv even though the spec has an n dim.
  auto mk = EinsumSpec::Parse("mk,kn->mn");
  EXPECT_EQ(ClassifyEinsum(mk, Shape("mk", {9, 17}), Shape("kn", {17, 1})).cls,
            EinsumClass::kGemv);
}

TEST(EinsumClassify, CacheRebuildsNothingOnRepeatLookups) {
  auto spec = EinsumSpec::Parse("ui,ibj->ubj");
  Shape w("ui", {12, 24});
  Shape x("ibj", {24, 2, 5});
  (void)ClassifyEinsum(spec, w, x);  // may or may not be the first build
  const auto before = memstats::Read();
  const auto& again = ClassifyEinsum(spec, w, x);
  const auto after = memstats::Read();
  EXPECT_EQ(after.einsum_class_builds, before.einsum_class_builds);
  EXPECT_EQ(again.cls, EinsumClass::kGemm);
}

TEST(EinsumErrors, NameTheSpecAndShapes) {
  try {
    EinsumSpec::Parse("ax,ab->b");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("ax,ab->b"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("'x'"), std::string::npos)
        << e.what();
  }
  auto spec = EinsumSpec::Parse("mk,kn->mn");
  try {
    ContractionExtents(spec, Shape("mx", {4, 5}), Shape("kn", {5, 6}));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mk,kn->mn"), std::string::npos) << what;
    EXPECT_NE(what.find("[m:4,x:5]"), std::string::npos) << what;
    EXPECT_NE(what.find("[k:5,n:6]"), std::string::npos) << what;
  }
  auto a = TensorF::Random(Shape("mk", {3, 4}), 1);
  auto b = TensorF::Random(Shape("kn", {5, 2}), 2);  // k mismatch: 4 vs 5
  auto out = TensorF{Shape("mn", {3, 2})};
  try {
    EinsumInto<float>(spec, a, b, out);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mk,kn->mn"), std::string::npos) << what;
    EXPECT_NE(what.find("'k'"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------
// Bitwise identity: every specialized class equals the generic
// macro-tile pipeline (forced via EinsumClass::kGemm), at 1/2/8 threads,
// for Half and float, in natural and reversed (strided-view) layouts.

template <typename T>
void ExpectClassBitwiseEqual(const std::string& spec_str,
                             const std::map<char, std::int64_t>& extent,
                             EinsumClass want, bool reversed) {
  auto spec = EinsumSpec::Parse(spec_str);
  auto make = [&](const std::string& dims, std::uint64_t seed) {
    std::vector<DimExt> de;
    for (char d : dims) de.push_back({d, extent.at(d)});
    auto t = Tensor<T>::Random(Shape(de), seed);
    if (reversed && dims.size() > 1) {
      return t.Permuted(std::string(dims.rbegin(), dims.rend()));
    }
    return t;
  };
  auto a = make(spec.a, 7);
  auto b = make(spec.b, 9);
  ASSERT_EQ(ClassifyEinsum(spec, a.shape(), b.shape()).cls, want) << spec_str;

  std::vector<DimExt> out_dims;
  for (char d : spec.out) out_dims.push_back({d, extent.at(d)});
  const Shape out_shape{out_dims};

  Tensor<T> baseline{out_shape};
  {
    ThreadGuard guard(1);
    EinsumLowered(spec, EinsumClass::kGemm, a, b, baseline);
  }
  for (int threads : {1, 2, 8}) {
    ThreadGuard guard(threads);
    for (EinsumClass cls : {want, EinsumClass::kGemm}) {
      Tensor<T> out{out_shape};
      EinsumLowered(spec, cls, a, b, out);
      ASSERT_EQ(out.size(), baseline.size());
      EXPECT_EQ(std::memcmp(out.data(), baseline.data(),
                            sizeof(T) * static_cast<std::size_t>(out.size())),
                0)
          << spec_str << " cls=" << ToString(cls) << " threads=" << threads
          << (reversed ? " reversed" : " natural");
    }
  }
}

template <typename T>
void SweepClassesBitwise(bool reversed) {
  // gemv, n side degenerate two ways: no n dims at all, and n extent 1.
  ExpectClassBitwiseEqual<T>("mk,k->m", {{'m', 70}, {'k', 33}},
                             EinsumClass::kGemv, reversed);
  ExpectClassBitwiseEqual<T>("mk,kn->mn", {{'m', 70}, {'k', 33}, {'n', 1}},
                             EinsumClass::kGemv, reversed);
  // gemv, m side degenerate.
  ExpectClassBitwiseEqual<T>("k,kn->n", {{'k', 33}, {'n', 70}},
                             EinsumClass::kGemv, reversed);
  // Batched gemv (empty batch covered by every spec above).
  ExpectClassBitwiseEqual<T>("bmk,bk->bm", {{'b', 5}, {'m', 40}, {'k', 17}},
                             EinsumClass::kGemv, reversed);
  // Both branches of the batch rule (parallelize the batch loop when
  // batches >= threads or the inner kernel has fewer tasks than threads):
  // with 2 batches of 12 GEMM tiles / 10 gemv row tasks, 1 and 2 threads
  // run the batch loop on the pool and 8 threads run it serially.
  ExpectClassBitwiseEqual<T>("bmk,bkn->bmn",
                             {{'b', 2}, {'m', 200}, {'k', 33}, {'n', 200}},
                             EinsumClass::kBatchedGemm, reversed);
  ExpectClassBitwiseEqual<T>("bmk,bk->bm", {{'b', 2}, {'m', 600}, {'k', 33}},
                             EinsumClass::kGemv, reversed);
  // ger / outer product (k == 1 two ways).
  ExpectClassBitwiseEqual<T>("m,n->mn", {{'m', 40}, {'n', 23}},
                             EinsumClass::kGer, reversed);
  ExpectClassBitwiseEqual<T>("mk,kn->mn", {{'m', 40}, {'k', 1}, {'n', 23}},
                             EinsumClass::kGer, reversed);
  // Pure reduction (m == n == 1) and its batched form.
  ExpectClassBitwiseEqual<T>("mk,kn->mn", {{'m', 1}, {'k', 501}, {'n', 1}},
                             EinsumClass::kReduction, reversed);
  ExpectClassBitwiseEqual<T>("bk,bk->b", {{'b', 6}, {'k', 91}},
                             EinsumClass::kReduction, reversed);
  // Transpose-free view (k == 1 and one free side), both orientations
  // plus the fully-degenerate single element.
  ExpectClassBitwiseEqual<T>("mk,kn->mn", {{'m', 120}, {'k', 1}, {'n', 1}},
                             EinsumClass::kView, reversed);
  ExpectClassBitwiseEqual<T>("mk,kn->mn", {{'m', 1}, {'k', 1}, {'n', 120}},
                             EinsumClass::kView, reversed);
  ExpectClassBitwiseEqual<T>("mk,kn->mn", {{'m', 1}, {'k', 1}, {'n', 1}},
                             EinsumClass::kView, reversed);
}

TEST(EinsumLoweredBitwise, FloatNaturalLayouts) {
  SweepClassesBitwise<float>(false);
}
TEST(EinsumLoweredBitwise, FloatReversedLayouts) {
  SweepClassesBitwise<float>(true);
}
TEST(EinsumLoweredBitwise, HalfNaturalLayouts) {
  SweepClassesBitwise<Half>(false);
}
TEST(EinsumLoweredBitwise, HalfReversedLayouts) {
  SweepClassesBitwise<Half>(true);
}

// The branch-free converter the specialized kernels store Half results
// through must match Half::FromFloat bit for bit, or "lowered equals
// generic" silently breaks on edge values random sweeps rarely hit. The
// full 2^32 sweep runs out-of-band; here: every exact half value, the
// exhaustive float bands around every behavior boundary (normal edge,
// subnormal edge, overflow, Inf/NaN), and a wide deterministic sample.
TEST(LoweredHalfBits, MatchesHalfFromFloatEverywhere) {
  const auto check = [](std::uint32_t u) {
    const float f = std::bit_cast<float>(u);
    ASSERT_EQ(LoweredHalfBits(f), Half::FromFloat(f))
        << "float bits 0x" << std::hex << u;
  };
  for (std::uint32_t h = 0; h <= 0xFFFFu; ++h) {
    check(std::bit_cast<std::uint32_t>(
        float(Half::FromBits(static_cast<std::uint16_t>(h)))));
  }
  constexpr std::uint32_t kHalfBand = 1u << 14;
  for (const std::uint32_t edge :
       {0x3880'0000u,    // smallest normal half (2^-14)
        0x3300'0000u,    // half-subnormal underflow boundary (2^-25)
        0x477F'E000u,    // largest finite half (65504.0f)
        0x7F80'0000u}) {  // Inf / NaN
    for (std::uint32_t u = edge - kHalfBand; u <= edge + kHalfBand; ++u) {
      check(u);
      check(u | 0x8000'0000u);
    }
  }
  std::uint64_t lcg = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 1'000'000; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    check(static_cast<std::uint32_t>(lcg >> 32));
  }
}

TEST(EinsumLowered, RejectsAMismatchedSpecializedClass) {
  auto spec = EinsumSpec::Parse("mk,kn->mn");
  auto a = TensorF::Random(Shape("mk", {8, 8}), 1);
  auto b = TensorF::Random(Shape("kn", {8, 8}), 2);
  auto out = TensorF{Shape("mn", {8, 8})};
  EXPECT_THROW(EinsumLowered(spec, EinsumClass::kGemv, a, b, out),
               InvalidArgument);
}

}  // namespace
}  // namespace xflow
