// JIT'ed int16 convolution microkernel vs the scalar reference (which the
// VNNI intrinsics path is already tested against bit-for-bit).
#include <gtest/gtest.h>

#include <random>

#include "jit/qconv_kernel_gen.hpp"
#include "platform/cpu.hpp"
#include "test_helpers.hpp"

using namespace xconv;

namespace {

bool host_vnni() {
  return platform::max_isa() == platform::Isa::avx512_vnni;
}

std::vector<std::int16_t> random_i16(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> d(-1024, 1024);
  std::vector<std::int16_t> v(n);
  for (auto& x : v) x = static_cast<std::int16_t>(d(rng));
  return v;
}

struct QCase {
  int rbq, r, s, stride, c_blocks, flush;
  bool beta0;
  int ocs = 0;
};

void run_case(const QCase& c) {
  if (!host_vnni()) GTEST_SKIP() << "host lacks AVX512-VNNI";
  quant::QKernelDesc d;
  d.vlen = 16;
  d.rbq = c.rbq;
  d.r = c.r;
  d.s = c.s;
  d.stride_w = d.stride_h = c.stride;
  d.in_row_stride = (c.rbq * c.stride + c.s + 4) * 16;
  d.c2_iters = 8;
  d.c_blocks = c.c_blocks;
  d.in_cb_stride = static_cast<std::int64_t>(c.r + 2) * d.in_row_stride;
  d.wt_cb_stride = static_cast<std::int64_t>(c.r) * c.s * 256;
  d.flush_interval = c.flush;
  d.beta0 = c.beta0;
  d.out_col_stride = c.ocs;

  const std::size_t in_sz =
      static_cast<std::size_t>(c.c_blocks) * (c.r + 2) * d.in_row_stride;
  const std::size_t wt_sz = static_cast<std::size_t>(c.c_blocks) * c.r * c.s *
                            256;
  const int ocs = c.ocs > 0 ? c.ocs : 16;
  const auto in = random_i16(in_sz, 1);
  const auto wt = random_i16(wt_sz, 2);
  auto out_jit = xconv::testing::random_vec(
      static_cast<std::size_t>(c.rbq) * ocs, 3);
  auto out_ref = out_jit;
  const float scale = 3.14e-4f;

  auto k = jit::generate_qconv_kernel(d);
  (*k)(in.data(), wt.data(), out_jit.data(), scale);
  quant::qconv_block_scalar(d, in.data(), wt.data(), out_ref.data(), scale);
  // Identical integer arithmetic + fused flush rounding: exact match.
  for (std::size_t i = 0; i < out_ref.size(); ++i)
    ASSERT_EQ(out_ref[i], out_jit[i]) << i;
}

}  // namespace

class JitQConvSweep : public ::testing::TestWithParam<QCase> {};

TEST_P(JitQConvSweep, MatchesScalarExactly) { run_case(GetParam()); }

INSTANTIATE_TEST_SUITE_P(
    Shapes, JitQConvSweep,
    ::testing::Values(QCase{13, 3, 3, 1, 1, 64, true},
                      QCase{8, 3, 3, 1, 2, 8, false},
                      QCase{13, 1, 1, 1, 4, 64, true},
                      QCase{6, 1, 1, 2, 2, 16, true},
                      QCase{13, 1, 1, 1, 2, 5, true},  // flush !| steps
                      QCase{4, 7, 7, 2, 1, 8, true},   // r-loop eligible
                      QCase{10, 1, 1, 1, 3, 64, true, 32},  // scatter
                      QCase{1, 5, 5, 1, 1, 64, false}));

TEST(JitQConv, RejectsBadDescriptors) {
  quant::QKernelDesc d;
  d.vlen = 8;
  EXPECT_THROW(jit::generate_qconv_kernel(d), std::invalid_argument);
  d.vlen = 16;
  d.rbq = 14;  // over the JIT budget
  d.in_row_stride = 256;
  EXPECT_THROW(jit::generate_qconv_kernel(d), std::invalid_argument);
  d.rbq = 8;
  d.c_blocks = 2;  // missing strides
  EXPECT_THROW(jit::generate_qconv_kernel(d), std::invalid_argument);
}

TEST(JitQConv, KeyDistinguishesVariants) {
  quant::QKernelDesc a;
  a.rbq = 8;
  a.in_row_stride = 256;
  auto b = a;
  b.rbq = 4;
  auto c = a;
  c.beta0 = false;
  auto e = a;
  e.isa = platform::Isa::scalar;  // the ISA picks the registry backend
  EXPECT_NE(a.key(), b.key());
  EXPECT_NE(a.key(), c.key());
  EXPECT_NE(a.key(), e.key());
  EXPECT_EQ(a.key(), a.key());
}
