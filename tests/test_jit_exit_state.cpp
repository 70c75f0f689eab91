// Kernel exit contract, checked at runtime: every generated kernel returns
// through `vzeroupper; ret`, so the caller's baseline-SSE code never runs
// with dirty upper vector state (the AVX->SSE transition penalty).
//
// Each test first dirties the upper state with a hand-assembled control
// kernel (a ymm/zmm load, then a bare `ret`), calls one generated kernel
// directly on the test thread, and reads XINUSE (XGETBV with ECX=1). After
// the call, bit 2 (AVX: upper halves of ymm0-15) and bit 6 (ZMM_Hi256: upper
// halves of zmm0-15) must be clear. Bit 7 (Hi16_ZMM) may stay set: SSE code
// cannot reach zmm16-31, and vzeroupper does not touch them.
#include <cpuid.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "jit/assembler.hpp"
#include "jit/code_buffer.hpp"
#include "jit/codec_kernel_gen.hpp"
#include "jit/conv_kernel_gen.hpp"
#include "jit/kdot_kernel_gen.hpp"
#include "jit/qconv_kernel_gen.hpp"
#include "jit/upd_kernel_gen.hpp"
#include "jit/verify/verifier.hpp"
#include "platform/cpu.hpp"

using namespace xconv;
using namespace xconv::jit;
namespace jv = xconv::jit::verify;

namespace {

constexpr std::uint64_t kXinuseAvx = 1u << 2;
constexpr std::uint64_t kXinuseZmmHi256 = 1u << 6;
constexpr std::uint64_t kDirtyUpper = kXinuseAvx | kXinuseZmmHi256;

constexpr int kRdi = 7, kRsi = 6, kRdx = 2, kR8 = 8;  // SysV argument GPRs

bool at_least(platform::Isa a, platform::Isa b) {
  return static_cast<int>(a) >= static_cast<int>(b);
}

/// CPUID.(EAX=0DH,ECX=1):EAX[2] advertises XGETBV with ECX=1 (XINUSE).
bool xinuse_readable() {
  if (__get_cpuid_max(0, nullptr) < 0xD) return false;
  unsigned a = 0, b = 0, c = 0, d = 0;
  __cpuid_count(0xD, 1, a, b, c, d);
  return (a & (1u << 2)) != 0;
}

std::uint64_t xinuse() {
  std::uint32_t lo = 0, hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

using dirty_fn = void (*)(const float*);

/// Control kernel: broadcast one float into the widest vector register the
/// host has, then return WITHOUT vzeroupper, leaving the upper state dirty.
class DirtyUpperState {
 public:
  DirtyUpperState() : buf_(64) {
    const bool zmm = at_least(platform::max_isa(), platform::Isa::avx512);
    Assembler a(buf_);
    a.vbroadcastss(zmm ? VecWidth::zmm512 : VecWidth::ymm256, Vec{0},
                   Mem{Gpr::rdi, 0});
    a.ret();
    buf_.finalize();
    fn_ = reinterpret_cast<dirty_fn>(const_cast<std::uint8_t*>(buf_.data()));
    bits_ = zmm ? kDirtyUpper : kXinuseAvx;
  }
  void operator()() const { fn_(&one_); }
  /// XINUSE bits the control kernel is expected to set.
  std::uint64_t bits() const { return bits_; }

 private:
  CodeBuffer buf_;
  dirty_fn fn_ = nullptr;
  std::uint64_t bits_ = 0;
  float one_ = 1.0f;
};

/// Zeroed buffers sized by the kernel's verification contract, keyed by the
/// ABI register each pointer arrives in.
class Buffers {
 public:
  Buffers(const jv::Contract& c, std::int64_t iters) {
    for (const jv::Region& r : c.regions)
      mem_[r.base].assign(
          static_cast<std::size_t>((r.fixed + r.per_iter * iters) / 4 + 16),
          0.0f);
  }
  float* f(int reg) { return mem_.at(reg).data(); }
  /// The same buffer typed for an int16 kernel argument (only the kernel
  /// reads it).
  std::int16_t* i16(int reg) { return reinterpret_cast<std::int16_t*>(f(reg)); }

 private:
  std::map<int, std::vector<float>> mem_;
};

class JitExitState : public ::testing::Test {
 protected:
  void SetUp() override {
    isa_ = platform::effective_isa();
    if (isa_ == platform::Isa::scalar)
      GTEST_SKIP() << "scalar ISA: no generated kernels run";
    if (!xinuse_readable())
      GTEST_SKIP() << "CPU does not advertise XGETBV with ECX=1 (XINUSE)";
    dirty_ = std::make_unique<DirtyUpperState>();
    (*dirty_)();
    const std::uint64_t after_control = xinuse();
    if ((after_control & dirty_->bits()) != dirty_->bits())
      GTEST_SKIP() << "XINUSE does not report the control kernel's dirty "
                      "state (0x"
                   << std::hex << after_control << ")";
  }

  /// Dirty the upper state, run `call`, and require it clean afterwards.
  template <class F>
  void expect_clean_exit(const char* what, F&& call) {
    (*dirty_)();
    call();
    const std::uint64_t after = xinuse();
    EXPECT_EQ(after & kDirtyUpper, 0u)
        << what << " returned with dirty upper state: XINUSE = 0x" << std::hex
        << after;
  }

  /// Generated-kernel ISA for the fp32 families (avx2 or avx512).
  platform::Isa fp32_isa() const {
    return at_least(isa_, platform::Isa::avx512) ? platform::Isa::avx512
                                                 : platform::Isa::avx2;
  }

  platform::Isa isa_ = platform::Isa::scalar;
  std::unique_ptr<DirtyUpperState> dirty_;
};

}  // namespace

TEST_F(JitExitState, ConvForwardKernel) {
  ConvKernelDesc d;
  d.isa = fp32_isa();
  d.vlen = platform::vlen_fp32(d.isa);
  d.rbp = 1;
  d.rbq = 4;
  d.r = d.s = 3;
  d.in_row_stride = (4 + 3) * d.vlen;
  d.out_row_stride = 4 * d.vlen;
  d.c_iters = d.vlen;
  d.fuse_relu = true;
  const auto k = generate_conv_kernel(d);
  Buffers b(jv::contract_for(d), 0);
  expect_clean_exit("conv fwd", [&] {
    (*k)(b.f(kRdi), b.f(kRsi), b.f(kRdx), b.f(kRdi), b.f(kRsi), b.f(kRdx));
  });
}

TEST_F(JitExitState, UpdateKernel) {
  UpdKernelDesc d;
  d.isa = fp32_isa();
  d.vlen = platform::vlen_fp32(d.isa);
  d.bp = 2;
  d.bq = 4;
  d.in_row_stride = 6 * d.vlen;
  d.out_row_stride = 4 * d.vlen;
  d.beta0 = true;
  const auto k = generate_upd_kernel(d);
  Buffers b(jv::contract_for(d), 0);
  expect_clean_exit("upd", [&] {
    (*k)(b.f(kRdi), b.f(kRsi), b.f(kRdx), b.f(kRdi), b.f(kRsi), b.f(kRdx));
  });
}

TEST_F(JitExitState, UpdateReduceKernel) {
  ReduceKernelDesc d;
  d.isa = fp32_isa();
  d.vlen = platform::vlen_fp32(d.isa);
  d.copies = 3;
  d.unroll = 2;
  d.copy_stride = 4 * d.unroll * d.vlen;
  const auto k = generate_reduce_kernel(d);
  constexpr std::int64_t kIters = 4;
  Buffers b(jv::contract_for(d), kIters);
  expect_clean_exit("upd reduce", [&] { (*k)(b.f(kRdi), b.f(kRsi), kIters); });
}

TEST_F(JitExitState, BackwardStridedScatterKernel) {
  // The strided backward's kernel: a 1x1 forward kernel that reduces Kb
  // blocks in-kernel and accumulates into a dI row scattered by stride 2,
  // at both vector widths the host can run.
  for (const platform::Isa isa : {platform::Isa::avx2, platform::Isa::avx512}) {
    if (!at_least(isa_, isa)) continue;
    ConvKernelDesc d;
    d.isa = isa;
    d.vlen = platform::vlen_fp32(isa);
    d.rbq = ConvKernelDesc::max_accumulators(isa);
    d.in_row_stride = (d.rbq + 2) * d.vlen;
    d.out_row_stride = 2 * 2 * (d.rbq + 2) * d.vlen;
    d.out_col_stride = 2 * d.vlen;
    d.c_iters = d.vlen;
    d.c_blocks = 3;
    d.in_cb_stride = 2 * d.in_row_stride;
    d.wt_cb_stride = 3 * 3 * d.vlen * d.vlen;
    d.beta0 = false;
    const auto k = generate_conv_kernel(d);
    Buffers b(jv::contract_for(d), 0);
    expect_clean_exit(platform::isa_name(isa), [&] {
      (*k)(b.f(kRdi), b.f(kRsi), b.f(kRdx), b.f(kRdi), b.f(kRsi), b.f(kRdx));
    });
  }
}

TEST_F(JitExitState, BackwardKdotKernel) {
  KdotKernelDesc d;
  d.isa = fp32_isa();
  d.vlen = platform::vlen_fp32(d.isa);
  d.c = 3;
  d.rb = KdotKernelDesc::max_rb(d.isa, d.c);
  d.kb = 2;
  d.r = d.s = 7;
  d.stride_h = d.stride_w = 2;
  d.do_row_stride = (d.rb + 4) * d.vlen;
  d.do_kb_stride = 5 * d.do_row_stride;
  d.di_px_stride = 2 * d.vlen;
  const auto k = generate_kdot_kernel(d);
  Buffers b(jv::contract_for(d), 0);
  expect_clean_exit("bwd kdot",
                    [&] { (*k)(b.f(kRdi), b.f(kRsi), b.f(kRdx)); });
}

TEST_F(JitExitState, Int16AndBf16CodecKernels) {
  if (!at_least(isa_, platform::Isa::avx512))
    GTEST_SKIP() << "codec kernels are AVX-512 only";
  constexpr std::int64_t kIters = 3;
  {
    CodecKernelDesc d;
    d.op = CodecOp::int16_quant;
    const auto k = generate_codec_kernel(d);
    Buffers b(jv::contract_for(d), kIters);
    float* params = b.f(kR8);
    params[0] = 1.0f / 1024;  // scale
    params[1] = 1024.0f;
    params[2] = -1024.0f;
    expect_clean_exit("int16 quant", [&] {
      (*k)(b.f(kRdi), b.f(kRsi), nullptr, kIters, params);
    });
  }
  {
    CodecKernelDesc d;
    d.op = CodecOp::bf16_pack;
    const auto k = generate_codec_kernel(d);
    Buffers b(jv::contract_for(d), kIters);
    const std::uint32_t params[] = {0x7fffffffu, 0x7f800000u, 1u,
                                    0x7fffu,     0x400000u,   0xffff0000u};
    std::memcpy(b.f(kR8), params, sizeof(params));
    expect_clean_exit("bf16 pack", [&] {
      (*k)(b.f(kRdi), b.f(kRsi), b.f(kRdx), kIters, b.f(kR8));
    });
  }
}

TEST_F(JitExitState, FoldAmaxCodecKernel) {
  if (!at_least(isa_, platform::Isa::avx512))
    GTEST_SKIP() << "codec kernels are AVX-512 only";
  constexpr std::int64_t kIters = 3;
  CodecKernelDesc d;
  d.op = CodecOp::fold_amax;
  const auto k = generate_codec_kernel(d);
  Buffers b(jv::contract_for(d), kIters);
  const std::uint32_t abs_mask = 0x7fffffffu;
  std::memcpy(b.f(kR8), &abs_mask, sizeof(abs_mask));
  expect_clean_exit("fold amax", [&] {
    (*k)(b.f(kRdi), b.f(kRsi), b.f(kRdx), kIters, b.f(kR8));
  });
}

TEST_F(JitExitState, QConvKernel) {
  if (!at_least(isa_, platform::Isa::avx512_vnni))
    GTEST_SKIP() << "qconv kernels need AVX512-VNNI";
  quant::QKernelDesc d;
  d.rbq = 4;
  d.r = d.s = 3;
  d.in_row_stride = (4 + 2) * d.vlen;
  d.c2_iters = d.vlen / 2;
  const auto k = generate_qconv_kernel(d);
  Buffers b(jv::contract_for(d), 0);
  expect_clean_exit("qconv", [&] {
    (*k)(b.i16(kRdi), b.i16(kRsi), b.f(kRdx), 0.5f);
  });
}
