#include "jit/kdot_kernel_gen.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "jit/assembler.hpp"

namespace xconv::jit {

namespace {
constexpr Gpr kDo = Gpr::rdi;
constexpr Gpr kWp = Gpr::rsi;
constexpr Gpr kDi = Gpr::rdx;
}  // namespace

int KdotKernelDesc::max_rb(platform::Isa isa, int c) {
  if (c < 1) return 0;
  const int n = isa == platform::Isa::avx2 ? 16 : 32;  // vector registers
  const int fit = (n - c - 1) / c;  // accumulators + weights + one dO
  const int tree = (n - 3) / c;     // accumulators + three tree registers
  return std::max(0, std::min(fit, tree));
}

void KdotKernelDesc::validate() const {
  using platform::Isa;
  if (isa != Isa::avx2 && isa != Isa::avx512 && isa != Isa::avx512_vnni)
    throw std::invalid_argument("KdotKernelDesc: JIT requires avx2 or avx512");
  const int want_vlen = (isa == Isa::avx2) ? 8 : 16;
  if (vlen != want_vlen)
    throw std::invalid_argument("KdotKernelDesc: vlen inconsistent with isa");
  if (c < 1 || c >= vlen)
    throw std::invalid_argument("KdotKernelDesc: c outside [1, vlen)");
  if (rb < 1 || rb > max_rb(isa, c))
    throw std::invalid_argument(
        "KdotKernelDesc: rb exceeds the vector register budget");
  if (kb < 1 || r < 1 || s < 1 || stride_h < 1 || stride_w < 1)
    throw std::invalid_argument("KdotKernelDesc: non-positive extent");
  if (r0 < 0 || r0 >= stride_h || s0 < 0 || s0 >= stride_w)
    throw std::invalid_argument("KdotKernelDesc: phase outside the stride");
  if (do_row_stride < vlen || do_kb_stride < vlen || di_px_stride < vlen)
    throw std::invalid_argument("KdotKernelDesc: missing strides");
  // The Kb loop advances dO by an imm32 byte count.
  if (static_cast<std::int64_t>(do_kb_stride) * 4 > INT32_MAX)
    throw std::invalid_argument("KdotKernelDesc: dO block stride exceeds imm32");
}

std::string KdotKernelDesc::key() const {
  std::ostringstream os;
  os << "kdot/" << platform::isa_name(isa) << "/v" << vlen << "/c" << c
     << "/rb" << rb << "/kb" << kb << "/f" << r << "x" << s << "/st"
     << stride_h << "x" << stride_w << "/ph" << r0 << "x" << s0 << "/drs"
     << do_row_stride << "/dks" << do_kb_stride << "/ips" << di_px_stride;
  return os.str();
}

KdotKernel::KdotKernel(KdotKernelDesc desc, CodeBuffer buf)
    : desc_(desc), buf_(std::move(buf)), fn_(buf_.entry<kdot_fn>()) {}

std::unique_ptr<KdotKernel> generate_kdot_kernel(const KdotKernelDesc& d) {
  d.validate();
  const bool z = (d.isa != platform::Isa::avx2);
  const VecWidth vw = z ? VecWidth::zmm512 : VecWidth::ymm256;
  const int nt = d.taps_r(), nu = d.taps_s();
  const int n_acc = d.rb * d.c;

  // Registers: accumulators [0, rb*C), weights [rb*C, rb*C + C), the dO
  // vector right after. The tree reuses the first three freed registers.
  auto acc = [&](int j, int c) { return Vec{j * d.c + c}; };
  auto wreg = [&](int c) { return Vec{n_acc + c}; };
  const Vec dov{n_acc + d.c};
  const Vec zero{n_acc}, lo{n_acc + 1}, hi{n_acc + 2};

  const std::size_t body =
      static_cast<std::size_t>(nt) * nu * (d.c + d.rb * (1 + d.c));
  const std::size_t cap = 4096 + body * 12 +
                          static_cast<std::size_t>(d.rb) * d.vlen * 3 * 8;
  CodeBuffer buf(cap);
  Assembler as(buf);

  for (int i = 0; i < n_acc; ++i) as.vxorps(vw, Vec{i}, Vec{i}, Vec{i});

  if (nt > 0 && nu > 0) {
    const bool loop_kb = d.kb > 1;
    std::size_t top = 0;
    if (loop_kb) {
      as.mov_ri(Gpr::r10, d.kb);
      top = as.here();
    }
    for (int t = 0; t < nt; ++t) {
      for (int u = 0; u < nu; ++u) {
        const int r = d.r0 + t * d.stride_h, s = d.s0 + u * d.stride_w;
        for (int c = 0; c < d.c; ++c)
          as.vmovups_load(vw, wreg(c),
                          Mem{kWp, ((r * d.s + s) * d.c + c) * d.vlen * 4});
        for (int j = 0; j < d.rb; ++j) {
          // The pointer sits at the last tap; earlier taps read further on.
          const int off = (nt - 1 - t) * d.do_row_stride +
                          (nu - 1 - u + j) * d.vlen;
          as.vmovups_load(vw, dov, Mem{kDo, off * 4});
          for (int c = 0; c < d.c; ++c)
            as.vfmadd231ps(vw, acc(j, c), wreg(c), dov);
        }
      }
    }
    if (loop_kb) {
      as.add_ri(kDo, d.do_kb_stride * 4);
      as.add_ri(kWp, d.r * d.s * d.c * d.vlen * 4);
      as.sub_ri(Gpr::r10, 1);
      as.cmp_ri(Gpr::r10, 0);
      as.jcc_back(Cond::g, top);
    }
  }

  // ---- per-pixel shuffle tree: lane c of the result = hsum(acc[j][c]) ----
  // Each level pairs neighbouring slots (x, y) and folds one lane bit:
  // lo/hi pick the even/odd halves of x into the low positions and of y
  // into the high ones, and lo + hi leaves x's partial sums where y's
  // selector bit is 0. Folding within 128-bit lanes first and across them
  // last keeps slot i in lane i. Slots past C are zero and pairs of zeros
  // are skipped.
  enum class Level { shufps, shuff32x4, perm2f128 };
  std::vector<Level> levels = {Level::shufps, Level::shufps};
  if (z) {
    levels.push_back(Level::shuff32x4);
    levels.push_back(Level::shuff32x4);
  } else {
    levels.push_back(Level::perm2f128);
  }
  as.vxorps(vw, zero, zero, zero);
  for (int j = 0; j < d.rb; ++j) {
    std::vector<int> slot(d.vlen, -1);  // register id, -1 = zero
    for (int c = 0; c < d.c; ++c) slot[c] = acc(j, c).id;
    for (const Level lv : levels) {
      std::vector<int> next(slot.size() / 2, -1);
      for (std::size_t i = 0; i < next.size(); ++i) {
        const int x = slot[2 * i], y = slot[2 * i + 1];
        if (x < 0 && y < 0) continue;
        const Vec a{x < 0 ? zero.id : x}, b{y < 0 ? zero.id : y};
        switch (lv) {
          case Level::shufps:
            as.vshufps(vw, lo, a, b, 0x88);  // {a0, a2, b0, b2}
            as.vshufps(vw, hi, a, b, 0xDD);  // {a1, a3, b1, b3}
            break;
          case Level::shuff32x4:
            as.vshuff32x4(lo, a, b, 0x88);
            as.vshuff32x4(hi, a, b, 0xDD);
            break;
          case Level::perm2f128:
            as.vperm2f128(lo, a, b, 0x20);  // {a.lo, b.lo}
            as.vperm2f128(hi, a, b, 0x31);  // {a.hi, b.hi}
            break;
        }
        const int dst = x >= 0 ? x : y;
        as.vaddps(vw, Vec{dst}, lo, hi);
        next[i] = dst;
      }
      slot = std::move(next);
    }
    as.vmovups_store(vw, Mem{kDi, j * d.di_px_stride * 4}, Vec{slot[0]});
  }
  as.vzeroupper();
  as.ret();

  buf.finalize();
  return std::make_unique<KdotKernel>(d, std::move(buf));
}

}  // namespace xconv::jit
