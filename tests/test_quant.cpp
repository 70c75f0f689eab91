// Reduced-precision int16 kernels (Section II-K): quantization bounds, exact
// scalar/VNNI agreement, and QConvLayer passes vs fp32 within the expected
// quantization error.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "core/plan.hpp"
#include "kernels/kernel_registry.hpp"
#include "quant/bfloat16.hpp"
#include "quant/qconv_layer.hpp"
#include "quant/quantize.hpp"
#include "test_helpers.hpp"

using namespace xconv;
using xconv::testing::ConvProblem;
using xconv::testing::random_vec;

TEST(Quantize, ScaleMapsAmaxToQmax) {
  std::vector<float> v = {0.5f, -2.0f, 1.0f};
  const float s = quant::compute_scale(v.data(), v.size());
  EXPECT_NEAR(2.0f / s, quant::kQMax, 1e-3);
  EXPECT_EQ(quant::quantize_one(-2.0f, s), -quant::kQMax);
}

TEST(Quantize, ZeroTensorScaleIsOne) {
  std::vector<float> v(16, 0.0f);
  EXPECT_EQ(quant::compute_scale(v.data(), v.size()), 1.0f);
}

TEST(Quantize, ExternalScaleClampsToHeadroomRange) {
  // Regression: quantize_one used to clamp to the full int16 range
  // [-32768, 32767]. With an external/calibrated scale (not derived from
  // this tensor's amax) |q| could exceed kQMax, silently voiding the int32
  // accumulation-chain overflow guarantee (paper Section II-K). The clamp
  // must be the headroom-limited ±kQMax.
  const float scale = 0.001f;
  EXPECT_EQ(quant::quantize_one(5.0f, scale), quant::kQMax);    // q = 5000
  EXPECT_EQ(quant::quantize_one(-5.0f, scale), -quant::kQMax);
  EXPECT_EQ(quant::quantize_one(100.0f, scale), quant::kQMax);  // q = 100000
  EXPECT_EQ(quant::quantize_one(-100.0f, scale), -quant::kQMax);
  // In-range values are untouched by the clamp.
  EXPECT_EQ(quant::quantize_one(0.5f, scale), 500);
  EXPECT_EQ(quant::quantize_one(-1.024f, scale), -quant::kQMax);
}

TEST(Quantize, RoundTripErrorBounded) {
  const auto v = random_vec(4096, 3);
  const float s = quant::compute_scale(v.data(), v.size());
  double maxerr = 0;
  for (float x : v) {
    const float back = quant::quantize_one(x, s) * s;
    maxerr = std::max(maxerr, static_cast<double>(std::abs(back - x)));
  }
  EXPECT_LE(maxerr, 0.5001 * s);  // round-to-nearest half-ulp bound
}

TEST(Quantize, ParallelScaleScanMatchesSerial) {
  // compute_scale switches to an OpenMP max-reduction above 64K elements;
  // fp32 max is associative, so the parallel scan must agree bitwise with a
  // serial amax over the same data, wherever the amax lands.
  for (const unsigned seed : {1u, 2u, 3u}) {
    auto v = random_vec((1u << 16) + 4097, seed, -3.0f, 3.0f);
    v[seed * 20011 % v.size()] = seed % 2 ? 7.25f : -7.25f;  // known amax
    float amax = 0.0f;
    for (const float x : v) amax = std::max(amax, std::abs(x));
    const float want = amax / static_cast<float>(quant::kQMax);
    EXPECT_EQ(quant::compute_scale(v.data(), v.size()), want);
  }
}

TEST(Bfloat16, RoundIsExactOnRepresentableValues) {
  for (const float x : {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, 1.5f, 256.0f,
                        1.0078125f /* 1 + 2^-7 */, -3.140625f}) {
    EXPECT_EQ(quant::bf16_round(x), x) << x;
  }
}

TEST(Bfloat16, RoundErrorWithinHalfUlpAndTiesToEven) {
  const auto v = random_vec(8192, 9, -10.0f, 10.0f);
  for (const float x : v) {
    const float d = quant::bf16_round(x);
    // 7 stored mantissa bits: RNE absolute error <= 2^-8 * 2^exp <= |x|/256.
    EXPECT_LE(std::abs(d - x), std::abs(x) / 256.0f + 1e-30f) << x;
  }
  // Ties round to the even bf16 neighbour: 1 + 2^-8 is exactly between
  // 1.0 (even mantissa) and 1 + 2^-7 (odd); 1 + 3*2^-8 between 1 + 2^-7
  // (odd) and 1 + 2^-6 (even).
  EXPECT_EQ(quant::bf16_round(1.00390625f), 1.0f);
  EXPECT_EQ(quant::bf16_round(1.01171875f), 1.015625f);
}

TEST(Bfloat16, SpecialsSurviveRounding) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(quant::bf16_round(inf), inf);
  EXPECT_EQ(quant::bf16_round(-inf), -inf);
  EXPECT_TRUE(std::isnan(quant::bf16_round(
      std::numeric_limits<float>::quiet_NaN())));
  // A NaN whose payload lives only in the low 16 bits must stay a NaN
  // (naive truncation would produce +inf).
  std::uint32_t u = 0x7f800001u;
  float nan_low;
  std::memcpy(&nan_low, &u, sizeof(nan_low));
  EXPECT_TRUE(std::isnan(quant::bf16_round(nan_low)));
  // Array form applies the same rounding elementwise.
  std::vector<float> a = {1.00390625f, -2.0f, 0.25f};
  quant::bf16_round(a.data(), a.size());
  EXPECT_EQ(a[0], 1.0f);
  EXPECT_EQ(a[1], -2.0f);
  EXPECT_EQ(a[2], 0.25f);
}

TEST(Quantize, WeightPairInterleave) {
  const auto p = core::make_conv(1, 32, 32, 4, 4, 3, 3, 1);
  core::ConvLayer layer(p);
  auto wt = layer.make_weights();
  const auto dense = random_vec(p.weight_elems(), 4);
  tensor::kcrs_to_blocked_fwd(dense.data(), p.K, p.C, wt);
  auto q = quant::quantize_wt(wt);
  // Pair (c0, c1) of output lane k sits at consecutive int16 slots.
  const int v = layer.vlen();
  for (int c2 = 0; c2 < v / 2; ++c2)
    for (int k = 0; k < v; ++k) {
      EXPECT_EQ(q.el(0, 0, 1, 1, c2, k, 0),
                quant::quantize_one(wt.el(0, 0, 1, 1, 2 * c2, k), q.scale));
      EXPECT_EQ(q.el(0, 0, 1, 1, c2, k, 1),
                quant::quantize_one(wt.el(0, 0, 1, 1, 2 * c2 + 1, k), q.scale));
    }
}

namespace {

/// QConvLayer is 16-lane by definition (int16 VNNI pairs), so the fp32
/// tensors it reads and writes come from a 16-lane layer whatever the
/// host's fp32 ISA; the scalar ISA keeps that blocked layout.
core::ConvOptions qconv_tensor_options() {
  core::ConvOptions o;
  o.isa = platform::Isa::scalar;
  return o;
}

struct QRun {
  std::vector<float> fwd, bwd, upd;
};

QRun run_qconv(const core::ConvParams& p, const ConvProblem& pr,
               platform::Isa isa, int flush) {
  core::ConvLayer ref_layer(p, qconv_tensor_options());  // tensor factories
  auto bin = ref_layer.make_input();
  tensor::nchw_to_blocked(pr.in.data(), bin);
  auto bwt = ref_layer.make_weights();
  tensor::kcrs_to_blocked_fwd(pr.wt.data(), p.K, p.C, bwt);
  auto bdout = ref_layer.make_output();
  tensor::nchw_to_blocked(pr.dout.data(), bdout);

  quant::QConvLayer q(p, 1, isa, flush);
  const auto qin = quant::quantize_act(bin);
  const auto qwt = quant::quantize_wt(bwt);
  const auto qdout = quant::quantize_act(bdout);
  const auto qwt_bwd = quant::quantize_wt_bwd(bwt);

  QRun out;
  auto bout = ref_layer.make_output();
  q.forward(qin, qwt, bout);
  out.fwd.resize(p.output_elems());
  tensor::blocked_to_nchw(bout, out.fwd.data());

  auto bdin = ref_layer.make_input();
  q.backward(qdout, qwt_bwd, bdin);
  out.bwd.resize(p.input_elems());
  tensor::blocked_to_nchw(bdin, out.bwd.data());

  auto bdwt = ref_layer.make_weights();
  q.update(qin, qdout, bdwt);
  out.upd.resize(p.weight_elems());
  tensor::blocked_fwd_to_kcrs(bdwt, p.K, p.C, out.upd.data());
  return out;
}

}  // namespace

class QConvShapes : public ::testing::TestWithParam<core::ConvParams> {};

TEST_P(QConvShapes, ScalarTracksFp32WithinQuantError) {
  const auto p = GetParam();
  ConvProblem pr(p, 21);
  const auto q = run_qconv(p, pr, platform::Isa::scalar, 8);
  // Quantization error: relative L2 of a few percent for 10-bit mantissas.
  xconv::testing::expect_close(xconv::testing::naive_fwd(pr), q.fwd, 2e-2,
                               "q fwd");
  xconv::testing::expect_close(xconv::testing::naive_bwd(pr), q.bwd, 2e-2,
                               "q bwd");
  xconv::testing::expect_close(xconv::testing::naive_upd(pr), q.upd, 2e-2,
                               "q upd");
}

TEST_P(QConvShapes, VnniMatchesScalarExactly) {
  if (platform::max_isa() != platform::Isa::avx512_vnni)
    GTEST_SKIP() << "host lacks AVX512-VNNI";
  const auto p = GetParam();
  ConvProblem pr(p, 22);
  for (const int flush : {1, 3, 8, 64}) {
    SCOPED_TRACE("flush " + std::to_string(flush));
    const auto a = run_qconv(p, pr, platform::Isa::scalar, flush);
    const auto b = run_qconv(p, pr, platform::Isa::avx512_vnni, flush);
    // Same integer arithmetic and flush points -> bit-identical fp32 results.
    EXPECT_EQ(a.fwd, b.fwd);
    EXPECT_EQ(a.bwd, b.bwd);
    EXPECT_EQ(a.upd, b.upd);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QConvShapes,
    ::testing::Values(core::make_conv(1, 32, 32, 8, 8, 3, 3, 1),
                      core::make_conv(2, 16, 32, 7, 9, 1, 1, 1, 0),
                      core::make_conv(1, 32, 16, 8, 8, 1, 1, 2, 0),
                      core::make_conv(1, 48, 32, 7, 7, 3, 3, 1),
                      core::make_conv(2, 16, 16, 9, 9, 5, 5, 1)));

TEST(QConv, FlushIntervalDoesNotChangeResultMuch) {
  // Different chain restrictions reassociate the integer sums; results agree
  // to fp32 rounding (the int32 partial sums are exact, only the fp32
  // accumulation order changes).
  const auto p = core::make_conv(1, 32, 32, 8, 8, 3, 3, 1);
  ConvProblem pr(p, 23);
  const auto a = run_qconv(p, pr, platform::Isa::scalar, 2);
  const auto b = run_qconv(p, pr, platform::Isa::scalar, 64);
  xconv::testing::expect_close(a.fwd, b.fwd, 1e-5, "flush intervals");
}

TEST(QConv, UnsupportedStridedNon1x1BackwardThrows) {
  const auto p = core::make_conv(1, 16, 16, 9, 9, 3, 3, 2);
  quant::QConvLayer q(p, 1, platform::Isa::scalar, 8);
  core::ConvLayer ref_layer(p, qconv_tensor_options());
  auto bdout = ref_layer.make_output();
  auto bwt = ref_layer.make_weights();
  const auto qdout = quant::quantize_act(bdout);
  const auto qwt_bwd = quant::quantize_wt_bwd(bwt);
  auto bdin = ref_layer.make_input();
  EXPECT_THROW(q.backward(qdout, qwt_bwd, bdin), std::invalid_argument);
}

TEST(QConv, BackwardRequiresDualWeights) {
  const auto p = core::make_conv(1, 32, 16, 8, 8, 1, 1, 1, 0);
  quant::QConvLayer q(p);
  core::ConvLayer ref_layer(p, qconv_tensor_options());
  auto bdout = ref_layer.make_output();
  auto bwt = ref_layer.make_weights();
  const auto qdout = quant::quantize_act(bdout);
  const auto qwt_fwd = quant::quantize_wt(bwt);  // wrong form
  auto bdin = ref_layer.make_input();
  EXPECT_THROW(q.backward(qdout, qwt_fwd, bdin), std::invalid_argument);
}

// The layer stamps its ISA into the kernel descriptor, so an Isa::scalar
// layer resolves the registry's scalar int16 block on any host, VNNI ones
// included: after its forward, the descriptor it used is a cache hit.
TEST(QConv, ScalarIsaResolvesScalarKernel) {
  const auto p = core::make_conv(1, 32, 16, 6, 6, 1, 1, 1, 0);
  core::ConvLayer ref_layer(p, qconv_tensor_options());
  const auto qin = quant::quantize_act(ref_layer.make_input());
  const auto qwt = quant::quantize_wt(ref_layer.make_weights());
  auto out = ref_layer.make_output();
  quant::QConvLayer(p, 1, platform::Isa::scalar, 8).forward(qin, qwt, out);

  quant::QKernelDesc d;  // QConvLayer::forward's descriptor for this shape
  d.isa = platform::Isa::scalar;
  d.rbq = core::pick_block_extent(p.Q(), 13, 2);
  ASSERT_EQ(p.Q() % d.rbq, 0);  // one variant, no edge kernel
  d.in_row_stride = static_cast<int>(qin.stride_h());
  d.c2_iters = 8;
  d.c_blocks = 2;
  d.in_cb_stride = qin.stride_cb();
  d.wt_cb_stride = qwt.stride_cb();
  d.flush_interval = 8;
  d.out_col_stride = 16;
  auto& reg = kernels::KernelRegistry::instance();
  const auto misses = reg.stats().misses;
  const auto* k = reg.qconv(d);
  EXPECT_EQ(reg.stats().misses, misses);
  EXPECT_EQ(k->backend(), kernels::Backend::scalar);
}

TEST(QConv, OddQUpdateTailHandled) {
  const auto p = core::make_conv(1, 16, 16, 7, 7, 3, 3, 1);  // Q = 7, odd
  ConvProblem pr(p, 24);
  const auto q = run_qconv(p, pr, platform::Isa::scalar, 8);
  xconv::testing::expect_close(xconv::testing::naive_upd(pr), q.upd, 2e-2,
                               "odd-Q upd");
}
