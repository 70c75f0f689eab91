#include "jit/upd_kernel_gen.hpp"

#include <sstream>
#include <stdexcept>

#include "jit/assembler.hpp"

namespace xconv::jit {

namespace {
constexpr Gpr kIn = Gpr::rdi;
constexpr Gpr kDo = Gpr::rsi;
constexpr Gpr kDw = Gpr::rdx;
constexpr Gpr kPfIn = Gpr::rcx;
}  // namespace

void UpdKernelDesc::validate() const {
  using platform::Isa;
  if (isa != Isa::avx2 && isa != Isa::avx512 && isa != Isa::avx512_vnni)
    throw std::invalid_argument("UpdKernelDesc: JIT requires avx2 or avx512");
  const int want_vlen = (isa == Isa::avx2) ? 8 : 16;
  if (vlen != want_vlen)
    throw std::invalid_argument("UpdKernelDesc: vlen inconsistent with isa");
  if (bp < 1 || bq < 1)
    throw std::invalid_argument("UpdKernelDesc: non-positive pixel blocking");
  if (bq > 128)
    throw std::invalid_argument("UpdKernelDesc: bq unroll too large");
  if (in_row_stride <= 0 || out_row_stride <= 0)
    throw std::invalid_argument("UpdKernelDesc: missing row strides");
  if (cmin < 0 || cmin >= vlen)
    throw std::invalid_argument("UpdKernelDesc: cmin out of [0, vlen)");
}

std::string UpdKernelDesc::key() const {
  std::ostringstream os;
  os << "upd/" << platform::isa_name(isa) << "/v" << vlen << "/b" << bp << "x"
     << bq << "/st" << stride_h << "x" << stride_w << "/irs" << in_row_stride
     << "/ors" << out_row_stride << (beta0 ? "/b0" : "/b1")
     << (prefetch ? "/pf" : "");
  if (cmin > 0) os << "/cm" << cmin;
  return os.str();
}

UpdKernel::UpdKernel(UpdKernelDesc desc, CodeBuffer buf)
    : desc_(desc), buf_(std::move(buf)), fn_(buf_.entry<conv_fn>()) {}

std::unique_ptr<UpdKernel> generate_upd_kernel(const UpdKernelDesc& d) {
  d.validate();
  const bool z = (d.isa != platform::Isa::avx2);
  const VecWidth vw = z ? VecWidth::zmm512 : VecWidth::ymm256;
  // Accumulators: one vector per input-channel row of the dW block. AVX-512
  // holds all 16 in zmm0..15 with dO vectors rotating in zmm28..31. AVX2
  // holds 8 in ymm0..7, dO in ymm13..15, broadcast scratch ymm12. The
  // channel-remainder variant (cmin > 0) touches only the first cmin rows.
  const int n_acc = d.cmin > 0 ? d.cmin : d.vlen;
  const int first_do = z ? 28 : 13;
  const int n_do = 3;
  const Vec bcst{12};

  const std::size_t cap = 1024 +
                          static_cast<std::size_t>(d.bq) * (n_acc + 2) * 24 +
                          static_cast<std::size_t>(n_acc) * 24 + 4096;
  CodeBuffer buf(cap);
  Assembler as(buf);

  // dW block layout: row c (input channel), lane k — row stride = vlen.
  // beta0 zeroes and stores every row (pad rows of a channel-remainder block
  // become +0 and stay that way); beta1 only touches the real cmin rows.
  const int n_store = d.beta0 ? d.vlen : n_acc;
  if (d.beta0) {
    for (int c = 0; c < n_store; ++c)
      as.vxorps(vw, Vec{c}, Vec{c}, Vec{c});
  } else {
    for (int c = 0; c < n_acc; ++c)
      as.vmovups_load(vw, Vec{c}, Mem{kDw, c * d.vlen * 4});
  }

  const bool loop_p = d.bp > 1;
  int dorot = 0;
  int pf_countdown = 8;

  auto emit_row = [&]() {
    for (int q = 0; q < d.bq; ++q) {
      const Vec dov{first_do + (dorot++ % n_do)};
      as.vmovups_load(vw, dov, Mem{kDo, q * d.vlen * 4});
      for (int c = 0; c < n_acc; ++c) {
        const Mem m{kIn, (q * d.stride_w * d.vlen + c) * 4};
        if (z) {
          as.vfmadd231ps_bcast(vw, Vec{c}, dov, m);
        } else {
          as.vbroadcastss(vw, bcst, m);
          as.vfmadd231ps(vw, Vec{c}, dov, bcst);
        }
        if (d.prefetch && --pf_countdown == 0) {
          pf_countdown = n_acc * 2;
          // L2-prefetch the next invocation's input patch rows.
          as.prefetcht1(Mem{kPfIn, (q * d.stride_w * d.vlen) * 4});
        }
      }
    }
  };

  if (loop_p) {
    as.mov_ri(Gpr::r10, d.bp);
    const std::size_t top = as.here();
    emit_row();
    as.add_ri(kIn, d.stride_h * d.in_row_stride * 4);
    as.add_ri(kDo, d.out_row_stride * 4);
    as.sub_ri(Gpr::r10, 1);
    as.cmp_ri(Gpr::r10, 0);
    as.jcc_back(Cond::g, top);
  } else {
    emit_row();
  }

  for (int c = 0; c < n_store; ++c)
    as.vmovups_store(vw, Mem{kDw, c * d.vlen * 4}, Vec{c});
  as.vzeroupper();
  as.ret();

  buf.finalize();
  return std::make_unique<UpdKernel>(d, std::move(buf));
}

// --- dW-privatization reduce epilogue ---------------------------------------

void ReduceKernelDesc::validate() const {
  using platform::Isa;
  if (isa != Isa::avx2 && isa != Isa::avx512 && isa != Isa::avx512_vnni)
    throw std::invalid_argument("ReduceKernelDesc: requires avx2 or avx512");
  const int want_vlen = (isa == Isa::avx2) ? 8 : 16;
  if (vlen != want_vlen)
    throw std::invalid_argument("ReduceKernelDesc: vlen inconsistent with isa");
  if (copies < 2)
    throw std::invalid_argument("ReduceKernelDesc: needs >= 2 copies");
  if (unroll < 1 || unroll > 8)
    throw std::invalid_argument("ReduceKernelDesc: unroll out of [1, 8]");
  if (copy_stride < vlen)
    throw std::invalid_argument("ReduceKernelDesc: copy_stride < vlen");
  if (span_bytes() > INT32_MAX)
    throw std::invalid_argument("ReduceKernelDesc: copy span exceeds disp32");
}

std::int64_t ReduceKernelDesc::span_bytes() const {
  return (static_cast<std::int64_t>(copies - 1) * copy_stride +
          static_cast<std::int64_t>(unroll) * vlen) *
         4;
}

std::string ReduceKernelDesc::key() const {
  std::ostringstream os;
  os << "red/" << platform::isa_name(isa) << "/v" << vlen << "/c" << copies
     << "/cs" << copy_stride << "/u" << unroll;
  return os.str();
}

ReduceKernel::ReduceKernel(ReduceKernelDesc desc, CodeBuffer buf)
    : desc_(desc), buf_(std::move(buf)), fn_(buf_.entry<reduce_fn>()) {}

std::unique_ptr<ReduceKernel> generate_reduce_kernel(
    const ReduceKernelDesc& d) {
  d.validate();
  const bool z = (d.isa != platform::Isa::avx2);
  const VecWidth vw = z ? VecWidth::zmm512 : VecWidth::ymm256;
  const int vb = d.vlen * 4;

  const std::size_t cap =
      1024 + static_cast<std::size_t>(d.unroll) * (d.copies + 2) * 16 + 256;
  CodeBuffer buf(cap);
  Assembler as(buf);

  // rdi = src (copy 0 at the chunk base), rsi = dst, rdx = iters (>= 1).
  const Gpr src = Gpr::rdi, dst = Gpr::rsi, iters = Gpr::rdx;
  const std::size_t top = as.here();
  for (int j = 0; j < d.unroll; ++j)
    as.vmovups_load(vw, Vec{j}, Mem{src, j * vb});
  for (int c = 1; c < d.copies; ++c) {
    const std::int64_t base = static_cast<std::int64_t>(c) * d.copy_stride * 4;
    for (int j = 0; j < d.unroll; ++j)
      as.vaddps_mem(vw, Vec{j}, Vec{j},
                    Mem{src, static_cast<std::int32_t>(base + j * vb)});
  }
  for (int j = 0; j < d.unroll; ++j)
    as.vmovups_store(vw, Mem{dst, j * vb}, Vec{j});
  as.add_ri(src, d.unroll * vb);
  as.add_ri(dst, d.unroll * vb);
  as.sub_ri(iters, 1);
  as.cmp_ri(iters, 0);
  as.jcc_back(Cond::g, top);
  as.vzeroupper();
  as.ret();

  buf.finalize();
  return std::make_unique<ReduceKernel>(d, std::move(buf));
}

}  // namespace xconv::jit
