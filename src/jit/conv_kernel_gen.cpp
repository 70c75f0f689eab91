#include "jit/conv_kernel_gen.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "jit/assembler.hpp"

namespace xconv::jit {

namespace {

// SysV argument registers of the 6-pointer kernel ABI.
constexpr Gpr kIn = Gpr::rdi;
constexpr Gpr kWt = Gpr::rsi;
constexpr Gpr kOut = Gpr::rdx;
constexpr Gpr kPfIn = Gpr::rcx;
constexpr Gpr kPfWt = Gpr::r8;
constexpr Gpr kPfOut = Gpr::r9;

// Above this many FMA instructions the r loop is emitted as a GPR loop
// instead of fully unrolled (keeps kernels within L1i for 7x7 filters).
constexpr int kUnrollFmaBudget = 4608;

struct PrefetchSlot {
  Mem mem;
  bool l1;  // prefetcht0 vs prefetcht1
};

// Interleaves one queued prefetch instruction every `interval` FMAs
// ("sprinkled throughout the FMA instructions", Section II-E).
//
// The interval comes from the whole call's FMA count, but an in-kernel Cb
// loop (c_blocks > 1) emits its body once, with 1/Cb of those FMAs. Such a
// kernel therefore emits only about (slots + 1) / Cb of the queued slots,
// the first ones in queue order (input rows first), and re-executes them on
// every Cb iteration. This looks like a bug but is load-bearing: spacing all
// slots over the loop body measured slower (forward fell 25-38% on the
// stride-2 and 1x1 ResNet-50 layers L06, L07, L11, L12 and L16 in a traced
// conv_table1 pair on a 4-vCPU AVX-512 host, at equal peak-probe readings). The count is pinned by
// tests/test_jit_kernels.cpp (JitConv.CbInKernelPrefetchCountPinned); change
// it only with a measurement.
class PrefetchScheduler {
 public:
  PrefetchScheduler(std::vector<PrefetchSlot> slots, int total_fmas)
      : slots_(std::move(slots)) {
    interval_ = slots_.empty()
                    ? 0
                    : std::max<int>(1, total_fmas / static_cast<int>(slots_.size() + 1));
  }

  void tick(Assembler& as) {
    if (next_ >= slots_.size() || interval_ == 0) return;
    if (++count_ % interval_ != 0) return;
    const PrefetchSlot& s = slots_[next_++];
    if (s.l1)
      as.prefetcht0(s.mem);
    else
      as.prefetcht1(s.mem);
  }

 private:
  std::vector<PrefetchSlot> slots_;
  std::size_t next_ = 0;
  int interval_ = 0;
  int count_ = 0;
};

}  // namespace

int ConvKernelDesc::max_accumulators(platform::Isa isa) {
  using platform::Isa;
  return (isa == Isa::avx512 || isa == Isa::avx512_vnni) ? 28 : 12;
}

void ConvKernelDesc::validate() const {
  using platform::Isa;
  if (isa != Isa::avx2 && isa != Isa::avx512 && isa != Isa::avx512_vnni)
    throw std::invalid_argument("ConvKernelDesc: JIT requires avx2 or avx512");
  const int want_vlen = (isa == Isa::avx2) ? 8 : 16;
  if (vlen != want_vlen)
    throw std::invalid_argument("ConvKernelDesc: vlen inconsistent with isa");
  if (rbp < 1 || rbq < 1 || r < 1 || s < 1 || c_iters < 1)
    throw std::invalid_argument("ConvKernelDesc: non-positive blocking");
  if (rbp * rbq > max_accumulators(isa))
    throw std::invalid_argument(
        "ConvKernelDesc: register blocking exceeds accumulator budget");
  if (in_row_stride <= 0 || out_row_stride <= 0)
    throw std::invalid_argument("ConvKernelDesc: missing row strides");
  if (c_blocks < 1)
    throw std::invalid_argument("ConvKernelDesc: c_blocks < 1");
  if (c_blocks > 1 && (r != 1 || s != 1))
    throw std::invalid_argument(
        "ConvKernelDesc: in-kernel Cb loop requires a 1x1 filter");
  if (c_blocks > 1 && (in_cb_stride <= 0 || wt_cb_stride <= 0))
    throw std::invalid_argument(
        "ConvKernelDesc: c_blocks needs feature-block strides");
  // Every displacement and pointer step the generator emits is an int32
  // byte count. Bound each operand's reach in 64 bits (input rows incl. the
  // r-loop and prefetch rows, output rows, one Cb block of weights, the
  // feature-block steps) before the generator forms any of them in int.
  const std::int64_t ocs = out_col_stride > 0 ? out_col_stride : vlen;
  const std::int64_t reach[] = {
      ((std::int64_t{rbp} * stride_h + r - 1) * in_row_stride +
       (std::int64_t{rbq} * stride_w + s) * vlen) * 4,
      (std::int64_t{rbp} * out_row_stride + rbq * ocs) * 4,
      std::int64_t{r} * s * vlen * vlen * 4,
      std::int64_t{in_cb_stride} * 4,
      std::int64_t{wt_cb_stride} * 4};
  for (const std::int64_t bytes : reach)
    if (bytes > INT32_MAX)
      throw std::invalid_argument(
          "ConvKernelDesc: byte displacement exceeds int32");
}

std::string ConvKernelDesc::key() const {
  std::ostringstream os;
  os << "conv/" << platform::isa_name(isa) << "/v" << vlen << "/rb" << rbp
     << "x" << rbq << "/f" << r << "x" << s << "/st" << stride_h << "x"
     << stride_w << "/irs" << in_row_stride << "/ors" << out_row_stride
     << "/ocs" << out_col_stride << "/ci" << c_iters << "/cb" << c_blocks
     << "." << in_cb_stride << "." << wt_cb_stride << (beta0 ? "/b0" : "/b1")
     << (fuse_relu ? "/relu" : "") << (prefetch ? "/pf" : "");
  return os.str();
}

ConvKernel::ConvKernel(ConvKernelDesc desc, CodeBuffer buf)
    : desc_(desc), buf_(std::move(buf)), fn_(buf_.entry<conv_fn>()) {}

std::unique_ptr<ConvKernel> generate_conv_kernel(const ConvKernelDesc& d) {
  d.validate();
  const bool z = (d.isa != platform::Isa::avx2);
  const VecWidth vw = z ? VecWidth::zmm512 : VecWidth::ymm256;
  const int n_acc = d.rbp * d.rbq;

  // Register plan. AVX-512: acc in zmm0..27, rotating weight regs zmm28..31.
  // AVX2: acc in ymm0..11, broadcast scratch ymm12, weights ymm13..15.
  const int first_w = z ? 28 : 13;
  const int n_w = z ? 4 : 3;
  const Vec bcst{12};

  const int total_fmas = d.r * d.s * d.c_iters * n_acc * d.c_blocks;
  const bool loop_r = d.r > 1 && total_fmas > kUnrollFmaBudget;
  const int fmas_per_r = d.s * d.c_iters * n_acc;

  // Generous size estimate: ~16 bytes per FMA (+broadcast on AVX2) plus
  // loads/stores/prefetches and loop scaffolding.
  const std::size_t cap =
      1024 + static_cast<std::size_t>(loop_r ? fmas_per_r : total_fmas) * 24 +
      static_cast<std::size_t>(n_acc) * 24 + 4096;
  CodeBuffer buf(cap);
  Assembler as(buf);

  auto acc = [&](int p, int q) { return Vec{p * d.rbq + q}; };
  const int ocs = d.out_col_stride > 0 ? d.out_col_stride : d.vlen;
  auto out_off = [&](int p, int q) {
    return (p * d.out_row_stride + q * ocs) * 4;
  };
  // Input offset for output pixel (p, q), tap (r, s), lane c. When the r loop
  // is a GPR loop the base pointer advances by one input row per iteration,
  // so offsets are emitted with r = 0.
  auto in_off = [&](int p, int q, int r, int s, int c) {
    return ((p * d.stride_h + r) * d.in_row_stride +
            (q * d.stride_w + s) * d.vlen + c) *
           4;
  };
  auto wt_off = [&](int r, int s, int c) {
    return ((r * d.s + s) * d.vlen + c) * d.vlen * 4;
  };

  // ---- accumulator init ----
  if (d.beta0) {
    for (int p = 0; p < d.rbp; ++p)
      for (int q = 0; q < d.rbq; ++q)
        as.vxorps(vw, acc(p, q), acc(p, q), acc(p, q));
  } else {
    for (int p = 0; p < d.rbp; ++p)
      for (int q = 0; q < d.rbq; ++q)
        as.vmovups_load(vw, acc(p, q), Mem{kOut, out_off(p, q)});
  }

  // ---- prefetch queue (L2 prefetches of the next invocation's sub-tensors,
  // L1 prefetch of the next input row when the r loop is live) ----
  std::vector<PrefetchSlot> slots;
  if (d.prefetch) {
    const int in_rows = d.rbp * d.stride_h + d.r - 1;
    const int in_row_bytes = (d.rbq * d.stride_w + d.s - 1) * d.vlen * 4;
    for (int row = 0; row < in_rows; ++row)
      for (int b = 0; b < in_row_bytes; b += 64)
        slots.push_back({Mem{kPfIn, row * d.in_row_stride * 4 + b}, false});
    const int out_bytes = d.rbq * d.vlen * 4;
    for (int p = 0; p < d.rbp; ++p)
      for (int b = 0; b < out_bytes; b += 64)
        slots.push_back({Mem{kPfOut, p * d.out_row_stride * 4 + b}, false});
    // Weight block of the next invocation; cap the line count — streaks at a
    // fixed (kb, cb) revisit the same weights, so the first lines suffice to
    // warm the stream.
    const int wt_bytes = d.r * d.s * d.vlen * d.vlen * 4;
    int wt_lines = 0;
    for (int b = 0; b < wt_bytes && wt_lines < 32; b += 64, ++wt_lines)
      slots.push_back({Mem{kPfWt, b}, false});
    if (loop_r) {
      // L1: pull the next r-iteration's input rows while computing this one.
      for (int b = 0; b < in_row_bytes; b += 64)
        slots.push_back(
            {Mem{kIn, (d.rbp * d.stride_h) * d.in_row_stride * 4 + b}, true});
    }
  }
  PrefetchScheduler pf(std::move(slots), total_fmas);

  // ---- main compute ----
  int wrot = 0;  // weight register rotation
  auto emit_tap_block = [&](int r_code, int s) {
    for (int c = 0; c < d.c_iters; ++c) {
      const Vec w{first_w + (wrot++ % n_w)};
      as.vmovups_load(vw, w, Mem{kWt, wt_off(r_code, s, c)});
      for (int p = 0; p < d.rbp; ++p)
        for (int q = 0; q < d.rbq; ++q) {
          const Mem m{kIn, in_off(p, q, r_code, s, c)};
          if (z) {
            as.vfmadd231ps_bcast(vw, acc(p, q), w, m);
          } else {
            as.vbroadcastss(vw, bcst, m);
            as.vfmadd231ps(vw, acc(p, q), w, bcst);
          }
          pf.tick(as);
        }
    }
  };

  auto emit_all_taps = [&]() {
    if (loop_r) {
      as.mov_ri(Gpr::r10, d.r);
      const std::size_t top = as.here();
      for (int s = 0; s < d.s; ++s) emit_tap_block(/*r_code=*/0, s);
      as.add_ri(kIn, d.in_row_stride * 4);
      as.add_ri(kWt, d.s * d.vlen * d.vlen * 4);
      as.sub_ri(Gpr::r10, 1);
      as.cmp_ri(Gpr::r10, 0);
      as.jcc_back(Cond::g, top);
      // Restore the bases so an enclosing c_blocks loop sees clean pointers.
      as.sub_ri(kIn, d.r * d.in_row_stride * 4);
      as.sub_ri(kWt, d.r * d.s * d.vlen * d.vlen * 4);
    } else {
      for (int r = 0; r < d.r; ++r)
        for (int s = 0; s < d.s; ++s) emit_tap_block(r, s);
    }
  };

  if (d.c_blocks > 1) {
    // In-kernel Cb reduction (Section II-C): accumulators stay live across
    // all input feature blocks, multiplying output register reuse by Cb.
    as.mov_ri(Gpr::r11, d.c_blocks);
    const std::size_t top = as.here();
    emit_all_taps();
    as.add_ri(kIn, d.in_cb_stride * 4);
    as.add_ri(kWt, d.wt_cb_stride * 4);
    as.sub_ri(Gpr::r11, 1);
    as.cmp_ri(Gpr::r11, 0);
    as.jcc_back(Cond::g, top);
  } else {
    emit_all_taps();
  }

  // ---- fused ReLU + stores ----
  if (d.fuse_relu) {
    const Vec zero{first_w};  // weight regs are dead now
    as.vxorps(vw, zero, zero, zero);
    for (int p = 0; p < d.rbp; ++p)
      for (int q = 0; q < d.rbq; ++q)
        as.vmaxps(vw, acc(p, q), acc(p, q), zero);
  }
  for (int p = 0; p < d.rbp; ++p)
    for (int q = 0; q < d.rbq; ++q)
      as.vmovups_store(vw, Mem{kOut, out_off(p, q)}, acc(p, q));
  as.vzeroupper();
  as.ret();

  buf.finalize();
  return std::make_unique<ConvKernel>(d, std::move(buf));
}

}  // namespace xconv::jit
