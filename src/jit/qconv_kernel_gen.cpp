#include "jit/qconv_kernel_gen.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "jit/assembler.hpp"

namespace xconv::quant {

std::string QKernelDesc::key() const {
  std::ostringstream os;
  os << "qconv/" << platform::isa_name(isa) << "/v" << vlen << "/rbq" << rbq
     << "/f" << r << "x" << s << "/st" << stride_h << "x" << stride_w
     << "/irs" << in_row_stride << "/ocs" << out_col_stride << "/c2"
     << c2_iters << "/cb" << c_blocks << "." << in_cb_stride << "."
     << wt_cb_stride << "/fl" << flush_interval << (beta0 ? "/b0" : "/b1");
  return os.str();
}

}  // namespace xconv::quant

namespace xconv::jit {

namespace {
constexpr Gpr kIn = Gpr::rdi;     // int16 input base
constexpr Gpr kWt = Gpr::rsi;     // int16 weight base (pair-interleaved)
constexpr Gpr kOut = Gpr::rdx;    // fp32 output base
constexpr Gpr kScale = Gpr::rcx;  // const float* scale
}  // namespace

QConvKernel::QConvKernel(quant::QKernelDesc desc, CodeBuffer buf)
    : desc_(desc), buf_(std::move(buf)), fn_(buf_.entry<qconv_fn>()) {}

std::unique_ptr<QConvKernel> generate_qconv_kernel(
    const quant::QKernelDesc& d) {
  if (d.vlen != 16)
    throw std::invalid_argument("qconv JIT: vlen must be 16 (AVX-512)");
  if (d.rbq < 1 || d.rbq > 13)
    throw std::invalid_argument("qconv JIT: rbq outside [1, 13]");
  if (d.c2_iters < 1 || d.flush_interval < 1)
    throw std::invalid_argument("qconv JIT: bad c2/flush");
  if (d.in_row_stride <= 0)
    throw std::invalid_argument("qconv JIT: missing in_row_stride");
  if (d.c_blocks > 1 && (d.in_cb_stride <= 0 || d.wt_cb_stride <= 0))
    throw std::invalid_argument("qconv JIT: c_blocks needs strides");

  const VecWidth vw = VecWidth::zmm512;
  const int rbq = d.rbq;
  const int ocs = d.out_col_stride > 0 ? d.out_col_stride : d.vlen;
  // Register plan: iacc[q] = zmm0..12, facc[q] = zmm13..25, cvt scratch
  // zmm26, weight vectors zmm27..30 (rotating), scale zmm31.
  auto iacc = [&](int q) { return Vec{q}; };
  auto facc = [&](int q) { return Vec{13 + q}; };
  const Vec cvt{26};
  const int first_w = 27, n_w = 4;
  const Vec scale{31};

  const bool loop_r = d.r > 1 &&
                      d.r * d.s * d.c2_iters * rbq > 4608;
  const bool loop_cb = d.c_blocks > 1;
  // Worst case: both the r and cb loops fall back to full unrolling.
  const std::size_t body_steps = static_cast<std::size_t>(loop_r ? 1 : d.r) *
                                 d.s * d.c2_iters *
                                 static_cast<std::size_t>(d.c_blocks);
  const std::size_t cap = 4096 + body_steps * (1 + rbq) * 16 +
                          body_steps / std::max(1, d.flush_interval) *
                              static_cast<std::size_t>(rbq) * 24 +
                          static_cast<std::size_t>(rbq) * 96;
  CodeBuffer buf(cap);
  Assembler as(buf);

  as.vbroadcastss(vw, scale, Mem{kScale, 0});
  for (int q = 0; q < rbq; ++q) {
    as.vxorps(vw, iacc(q), iacc(q), iacc(q));
    if (d.beta0)
      as.vxorps(vw, facc(q), facc(q), facc(q));
    else
      as.vmovups_load(vw, facc(q), Mem{kOut, q * ocs * 4});
  }

  int chain = 0;
  auto emit_flush = [&]() {
    for (int q = 0; q < rbq; ++q) {
      as.vcvtdq2ps(cvt, iacc(q));
      as.vfmadd231ps(vw, facc(q), cvt, scale);
      as.vxorps(vw, iacc(q), iacc(q), iacc(q));
    }
    chain = 0;
  };

  int wrot = 0;
  // One (r, s) tap: c2 pair-steps; weights are [c2][k][2] int16 (64 bytes
  // per step), the input pair is an embedded-broadcast dword.
  auto emit_tap = [&](int r_code, int s) {
    for (int c2 = 0; c2 < d.c2_iters; ++c2) {
      const Vec wv{first_w + (wrot++ % n_w)};
      const int wt_off =
          ((r_code * d.s + s) * d.vlen * d.vlen + c2 * 2 * d.vlen) * 2;
      as.vmovups_load(vw, wv, Mem{kWt, wt_off});
      for (int q = 0; q < rbq; ++q) {
        const int in_off =
            (r_code * d.in_row_stride + (q * d.stride_w + s) * d.vlen +
             c2 * 2) *
            2;
        as.vpdpwssd_bcast(iacc(q), wv, Mem{kIn, in_off});
      }
      if (++chain == d.flush_interval) emit_flush();
    }
  };

  // NOTE on loop/flush interaction: flush positions must be identical to the
  // scalar reference's global (cb, r, s, c2) step sequence. GPR loops would
  // make the chain counter dynamic, so loops are only used when the flush
  // interval divides the per-iteration step count evenly; otherwise the
  // generator falls back to full unrolling.
  const int steps_per_r = d.s * d.c2_iters;
  const bool r_loop_safe = loop_r && (steps_per_r % d.flush_interval == 0);
  const int steps_per_cb = d.r * steps_per_r;
  const bool cb_loop_safe =
      loop_cb && (steps_per_cb % d.flush_interval == 0) && !r_loop_safe &&
      !loop_r;

  auto emit_all_taps = [&]() {
    if (r_loop_safe) {
      as.mov_ri(Gpr::r10, d.r);
      const std::size_t top = as.here();
      for (int s = 0; s < d.s; ++s) emit_tap(0, s);
      as.add_ri(kIn, d.in_row_stride * 2);
      as.add_ri(kWt, d.s * d.vlen * d.vlen * 2);
      as.sub_ri(Gpr::r10, 1);
      as.cmp_ri(Gpr::r10, 0);
      as.jcc_back(Cond::g, top);
      as.sub_ri(kIn, d.r * d.in_row_stride * 2);
      as.sub_ri(kWt, d.r * d.s * d.vlen * d.vlen * 2);
    } else {
      for (int r = 0; r < d.r; ++r)
        for (int s = 0; s < d.s; ++s) emit_tap(r, s);
    }
  };

  if (cb_loop_safe) {
    as.mov_ri(Gpr::r11, d.c_blocks);
    const std::size_t top = as.here();
    emit_all_taps();
    as.add_ri(kIn, static_cast<std::int32_t>(d.in_cb_stride * 2));
    as.add_ri(kWt, static_cast<std::int32_t>(d.wt_cb_stride * 2));
    as.sub_ri(Gpr::r11, 1);
    as.cmp_ri(Gpr::r11, 0);
    as.jcc_back(Cond::g, top);
  } else {
    for (int cb = 0; cb < d.c_blocks; ++cb) {
      emit_all_taps();
      if (cb + 1 < d.c_blocks) {
        as.add_ri(kIn, static_cast<std::int32_t>(d.in_cb_stride * 2));
        as.add_ri(kWt, static_cast<std::int32_t>(d.wt_cb_stride * 2));
      }
    }
  }

  emit_flush();
  for (int q = 0; q < rbq; ++q)
    as.vmovups_store(vw, Mem{kOut, q * ocs * 4}, facc(q));
  as.vzeroupper();
  as.ret();

  buf.finalize();
  return std::make_unique<QConvKernel>(d, std::move(buf));
}

}  // namespace xconv::jit
