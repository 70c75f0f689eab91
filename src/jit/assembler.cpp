#include "jit/assembler.hpp"

#include <stdexcept>

namespace xconv::jit {

namespace {
constexpr int kMap0F = 1;
constexpr int kMap0F38 = 2;
constexpr int kMap0F3A = 3;
constexpr int kPpNone = 0;
constexpr int kPp66 = 1;
constexpr int kPpF3 = 2;

int lo3(Gpr r) { return static_cast<int>(r) & 7; }
int hi1(Gpr r) { return (static_cast<int>(r) >> 3) & 1; }
}  // namespace

// --- prefixes ---------------------------------------------------------------

void Assembler::rex(bool w, int reg, int index, int base) {
  const std::uint8_t b = 0x40 | (w ? 8 : 0) | ((reg & 8) ? 4 : 0) |
                         ((index & 8) ? 2 : 0) | ((base & 8) ? 1 : 0);
  if (b != 0x40 || w) buf_.emit8(b);
}

// ModRM (+SIB +disp) for a [base + disp] operand. `disp8_scale` is the EVEX
// compressed-displacement factor N (1 for VEX/legacy encodings).
void Assembler::modrm_mem(int reg, Mem m, int disp8_scale) {
  const int base = static_cast<int>(m.base) & 7;
  const bool needs_sib = base == 4;  // rsp/r12
  std::int32_t disp = m.disp;

  int mod;
  bool use_disp8 = false;
  if (disp == 0 && base != 5) {  // rbp/r13 always need a displacement
    mod = 0;
  } else if (disp % disp8_scale == 0 && disp / disp8_scale >= -128 &&
             disp / disp8_scale <= 127) {
    mod = 1;
    use_disp8 = true;
  } else {
    mod = 2;
  }

  buf_.emit8(static_cast<std::uint8_t>((mod << 6) | ((reg & 7) << 3) |
                                       (needs_sib ? 4 : base)));
  if (needs_sib) buf_.emit8(static_cast<std::uint8_t>((4 << 3) | base));
  if (mod == 1) {
    buf_.emit8(static_cast<std::uint8_t>(
        use_disp8 ? (disp / disp8_scale) & 0xff : 0));
  } else if (mod == 2) {
    buf_.emit32(static_cast<std::uint32_t>(disp));
  }
}

void Assembler::vex3(int reg, Mem m, int vvvv, int map, int pp, bool w,
                     bool l256) {
  buf_.emit8(0xC4);
  const int b = hi1(m.base);
  buf_.emit8(static_cast<std::uint8_t>(((~(reg >> 3) & 1) << 7) |
                                       (1 << 6) /* ~X, no index */ |
                                       ((~b & 1) << 5) | (map & 0x1f)));
  buf_.emit8(static_cast<std::uint8_t>(((w ? 1 : 0) << 7) |
                                       ((~vvvv & 0xf) << 3) |
                                       ((l256 ? 1 : 0) << 2) | (pp & 3)));
}

void Assembler::vex3_rr(int reg, int rm, int vvvv, int map, int pp, bool w,
                        bool l256) {
  buf_.emit8(0xC4);
  buf_.emit8(static_cast<std::uint8_t>(((~(reg >> 3) & 1) << 7) | (1 << 6) |
                                       ((~(rm >> 3) & 1) << 5) | (map & 0x1f)));
  buf_.emit8(static_cast<std::uint8_t>(((w ? 1 : 0) << 7) |
                                       ((~vvvv & 0xf) << 3) |
                                       ((l256 ? 1 : 0) << 2) | (pp & 3)));
}

void Assembler::evex(int reg, Mem m, int vvvv, int map, int pp, bool w,
                     bool bcast, int /*disp8_scale: applied in modrm*/,
                     int aaa) {
  buf_.emit8(0x62);
  const int b = hi1(m.base);
  // P0: ~R ~X ~B ~R' 0 0 mm
  buf_.emit8(static_cast<std::uint8_t>(((~(reg >> 3) & 1) << 7) | (1 << 6) |
                                       ((~b & 1) << 5) |
                                       ((~(reg >> 4) & 1) << 4) | (map & 3)));
  // P1: W ~vvvv[3:0] 1 pp
  buf_.emit8(static_cast<std::uint8_t>(((w ? 1 : 0) << 7) |
                                       ((~vvvv & 0xf) << 3) | (1 << 2) |
                                       (pp & 3)));
  // P2: z L'L b ~V' aaa  — L'L = 10 (512-bit), z = 0 (merge masking).
  buf_.emit8(static_cast<std::uint8_t>((2 << 5) | ((bcast ? 1 : 0) << 4) |
                                       ((~(vvvv >> 4) & 1) << 3) | (aaa & 7)));
}

void Assembler::evex_rr(int reg, int rm, int vvvv, int map, int pp, bool w,
                        int aaa) {
  buf_.emit8(0x62);
  buf_.emit8(static_cast<std::uint8_t>(((~(reg >> 3) & 1) << 7) |
                                       ((~(rm >> 4) & 1) << 6) |
                                       ((~(rm >> 3) & 1) << 5) |
                                       ((~(reg >> 4) & 1) << 4) | (map & 3)));
  buf_.emit8(static_cast<std::uint8_t>(((w ? 1 : 0) << 7) |
                                       ((~vvvv & 0xf) << 3) | (1 << 2) |
                                       (pp & 3)));
  buf_.emit8(static_cast<std::uint8_t>((2 << 5) | ((~(vvvv >> 4) & 1) << 3) |
                                       (aaa & 7)));
}

// Shared emitters: pick VEX.256 or EVEX.512 and append modrm/disp.
void Assembler::vop_mem(VecWidth w, std::uint8_t opcode, int map, int pp,
                        Vec reg, Vec vvvv, Mem m, bool bcast, int disp8_scale) {
  if (w == VecWidth::zmm512) {
    // Tuple scaling: full-vector ops use N=64; 32-bit broadcast/scalar N=4.
    // The EVEX.b bit is only set for embedded-broadcast *arithmetic* operands
    // (e.g. {1to16} on FMA); Tuple1-Scalar loads like vbroadcastss keep b=0
    // while still compressing disp8 by 4.
    const int n = disp8_scale > 0 ? disp8_scale : (bcast ? 4 : 64);
    evex(reg.id, m, vvvv.id, map, pp, /*w=*/false, bcast, n);
    buf_.emit8(opcode);
    modrm_mem(reg.id, m, n);
  } else {
    if (reg.id > 15 || vvvv.id > 15)
      throw std::logic_error("VEX encoding limited to ymm0..15");
    if (bcast)
      throw std::logic_error("embedded broadcast requires EVEX (zmm512)");
    vex3(reg.id, m, vvvv.id, map, pp, /*w=*/false, /*l256=*/true);
    buf_.emit8(opcode);
    modrm_mem(reg.id, m, 1);
  }
}

void Assembler::vop_rr(VecWidth w, std::uint8_t opcode, int map, int pp,
                       Vec reg, Vec vvvv, Vec rm) {
  if (w == VecWidth::zmm512) {
    evex_rr(reg.id, rm.id, vvvv.id, map, pp, /*w=*/false);
  } else {
    if (reg.id > 15 || vvvv.id > 15 || rm.id > 15)
      throw std::logic_error("VEX encoding limited to ymm0..15");
    vex3_rr(reg.id, rm.id, vvvv.id, map, pp, /*w=*/false, /*l256=*/true);
  }
  buf_.emit8(opcode);
  buf_.emit8(static_cast<std::uint8_t>(0xC0 | ((reg.id & 7) << 3) |
                                       (rm.id & 7)));
}

// --- control flow / GPR -------------------------------------------------------

void Assembler::ret() { buf_.emit8(0xC3); }

void Assembler::vzeroupper() {
  buf_.emit8(0xC5);
  buf_.emit8(0xF8);
  buf_.emit8(0x77);
}

void Assembler::push(Gpr r) {
  if (hi1(r)) buf_.emit8(0x41);
  buf_.emit8(static_cast<std::uint8_t>(0x50 + lo3(r)));
}

void Assembler::pop(Gpr r) {
  if (hi1(r)) buf_.emit8(0x41);
  buf_.emit8(static_cast<std::uint8_t>(0x58 + lo3(r)));
}

void Assembler::mov_ri(Gpr r, std::int64_t imm) {
  if (imm >= INT32_MIN && imm <= INT32_MAX) {
    rex(true, 0, 0, static_cast<int>(r));
    buf_.emit8(0xC7);
    buf_.emit8(static_cast<std::uint8_t>(0xC0 | lo3(r)));
    buf_.emit32(static_cast<std::uint32_t>(imm));
  } else {
    rex(true, 0, 0, static_cast<int>(r));
    buf_.emit8(static_cast<std::uint8_t>(0xB8 + lo3(r)));
    buf_.emit64(static_cast<std::uint64_t>(imm));
  }
}

void Assembler::mov_rr(Gpr dst, Gpr src) {
  rex(true, static_cast<int>(src), 0, static_cast<int>(dst));
  buf_.emit8(0x89);
  buf_.emit8(static_cast<std::uint8_t>(0xC0 | (lo3(src) << 3) | lo3(dst)));
}

namespace {
constexpr int kOpAdd = 0, kOpSub = 5, kOpCmp = 7;
}

static void alu_ri(CodeBuffer& buf, Gpr r, std::int32_t imm, int op) {
  const std::uint8_t rexb =
      0x48 | (((static_cast<int>(r) >> 3) & 1) ? 1 : 0);
  buf.emit8(rexb);
  if (imm >= -128 && imm <= 127) {
    buf.emit8(0x83);
    buf.emit8(static_cast<std::uint8_t>(0xC0 | (op << 3) |
                                        (static_cast<int>(r) & 7)));
    buf.emit8(static_cast<std::uint8_t>(imm & 0xff));
  } else {
    buf.emit8(0x81);
    buf.emit8(static_cast<std::uint8_t>(0xC0 | (op << 3) |
                                        (static_cast<int>(r) & 7)));
    buf.emit32(static_cast<std::uint32_t>(imm));
  }
}

void Assembler::add_ri(Gpr r, std::int32_t imm) { alu_ri(buf_, r, imm, kOpAdd); }
void Assembler::sub_ri(Gpr r, std::int32_t imm) { alu_ri(buf_, r, imm, kOpSub); }
void Assembler::cmp_ri(Gpr r, std::int32_t imm) { alu_ri(buf_, r, imm, kOpCmp); }

void Assembler::add_rr(Gpr dst, Gpr src) {
  rex(true, static_cast<int>(src), 0, static_cast<int>(dst));
  buf_.emit8(0x01);
  buf_.emit8(static_cast<std::uint8_t>(0xC0 | (lo3(src) << 3) | lo3(dst)));
}

void Assembler::jcc_back(Cond c, std::size_t target) {
  if (target > here()) throw std::logic_error("jcc_back: forward target");
  buf_.emit8(0x0F);
  buf_.emit8(static_cast<std::uint8_t>(0x80 | static_cast<int>(c)));
  const std::int64_t rel =
      static_cast<std::int64_t>(target) - static_cast<std::int64_t>(here() + 4);
  buf_.emit32(static_cast<std::uint32_t>(rel));
}

// --- SIMD ----------------------------------------------------------------------

void Assembler::vmovups_load(VecWidth w, Vec dst, Mem src) {
  vop_mem(w, 0x10, kMap0F, kPpNone, dst, Vec{0}, src, false);
}

void Assembler::vmovups_store(VecWidth w, Mem dst, Vec src) {
  vop_mem(w, 0x11, kMap0F, kPpNone, src, Vec{0}, dst, false);
}

void Assembler::vbroadcastss(VecWidth w, Vec dst, Mem src) {
  if (w == VecWidth::zmm512) {
    vop_mem(w, 0x18, kMap0F38, kPp66, dst, Vec{0}, src, /*bcast=*/false,
            /*disp8_scale=*/4);
  } else {
    vex3(dst.id, src, 0, kMap0F38, kPp66, false, true);
    buf_.emit8(0x18);
    modrm_mem(dst.id, src, 1);
  }
}

void Assembler::vfmadd231ps(VecWidth w, Vec dst, Vec a, Vec b) {
  vop_rr(w, 0xB8, kMap0F38, kPp66, dst, a, b);
}

void Assembler::vfmadd231ps_bcast(VecWidth w, Vec dst, Vec a, Mem b) {
  if (w != VecWidth::zmm512)
    throw std::logic_error("embedded broadcast requires EVEX (zmm512)");
  vop_mem(w, 0xB8, kMap0F38, kPp66, dst, a, b, true);
}

void Assembler::vxorps(VecWidth w, Vec dst, Vec a, Vec b) {
  if (w == VecWidth::zmm512) {
    // vpxord: AVX512F (vxorps zmm needs AVX512DQ, so prefer the F encoding).
    vop_rr(w, 0xEF, kMap0F, kPp66, dst, a, b);
  } else {
    vop_rr(w, 0x57, kMap0F, kPpNone, dst, a, b);
  }
}

void Assembler::vmaxps(VecWidth w, Vec dst, Vec a, Vec b) {
  vop_rr(w, 0x5F, kMap0F, kPpNone, dst, a, b);
}

void Assembler::vaddps(VecWidth w, Vec dst, Vec a, Vec b) {
  vop_rr(w, 0x58, kMap0F, kPpNone, dst, a, b);
}

void Assembler::vaddps_mem(VecWidth w, Vec dst, Vec a, Mem b) {
  vop_mem(w, 0x58, kMap0F, kPpNone, dst, a, b, false);
}

void Assembler::vminps(VecWidth w, Vec dst, Vec a, Vec b) {
  vop_rr(w, 0x5D, kMap0F, kPpNone, dst, a, b);
}

void Assembler::vsubps(VecWidth w, Vec dst, Vec a, Vec b) {
  vop_rr(w, 0x5C, kMap0F, kPpNone, dst, a, b);
}

void Assembler::vmulps(VecWidth w, Vec dst, Vec a, Vec b) {
  vop_rr(w, 0x59, kMap0F, kPpNone, dst, a, b);
}

void Assembler::vdivps(VecWidth w, Vec dst, Vec a, Vec b) {
  vop_rr(w, 0x5E, kMap0F, kPpNone, dst, a, b);
}

void Assembler::vshufps(VecWidth w, Vec dst, Vec a, Vec b, int imm) {
  // VEX.256.0F.WIG C6 /r ib | EVEX.512.0F.W0 C6 /r ib.
  vop_rr(w, 0xC6, kMap0F, kPpNone, dst, a, b);
  buf_.emit8(static_cast<std::uint8_t>(imm));
}

void Assembler::vshuff32x4(Vec dst, Vec a, Vec b, int imm) {
  // EVEX.512.66.0F3A.W0 23 /r ib.
  vop_rr(VecWidth::zmm512, 0x23, kMap0F3A, kPp66, dst, a, b);
  buf_.emit8(static_cast<std::uint8_t>(imm));
}

void Assembler::vperm2f128(Vec dst, Vec a, Vec b, int imm) {
  // VEX.256.66.0F3A.W0 06 /r ib.
  vop_rr(VecWidth::ymm256, 0x06, kMap0F3A, kPp66, dst, a, b);
  buf_.emit8(static_cast<std::uint8_t>(imm));
}

// --- AVX-512 integer / mask / pack (codec kernels) ---------------------------

void Assembler::vcvtps2dq(Vec dst, Vec src) {
  // EVEX.512.66.0F.W0 5B /r — rounds per MXCSR (RNE by default).
  vop_rr(VecWidth::zmm512, 0x5B, kMap0F, kPp66, dst, Vec{0}, src);
}

void Assembler::vpaddd(Vec dst, Vec a, Vec b) {
  vop_rr(VecWidth::zmm512, 0xFE, kMap0F, kPp66, dst, a, b);
}

void Assembler::vpaddd_bcast(Vec dst, Vec a, Mem b) {
  vop_mem(VecWidth::zmm512, 0xFE, kMap0F, kPp66, dst, a, b, /*bcast=*/true);
}

void Assembler::vpandd_bcast(Vec dst, Vec a, Mem b) {
  vop_mem(VecWidth::zmm512, 0xDB, kMap0F, kPp66, dst, a, b, /*bcast=*/true);
}

void Assembler::vpord_bcast(Vec dst, Vec a, Mem b) {
  vop_mem(VecWidth::zmm512, 0xEB, kMap0F, kPp66, dst, a, b, /*bcast=*/true);
}

void Assembler::vpminud_bcast(Vec dst, Vec a, Mem b) {
  vop_mem(VecWidth::zmm512, 0x3B, kMap0F38, kPp66, dst, a, b, /*bcast=*/true);
}

// vpsrld/vpslld by immediate are EVEX "NDD" forms: modrm.reg is the opcode
// extension (/2 shift right, /6 shift left), modrm.rm is the source and
// EVEX.vvvv names the *destination*.
void Assembler::vpsrld_i(Vec dst, Vec src, int imm) {
  evex_rr(/*reg=*/2, src.id, dst.id, kMap0F, kPp66, /*w=*/false);
  buf_.emit8(0x72);
  buf_.emit8(static_cast<std::uint8_t>(0xC0 | (2 << 3) | (src.id & 7)));
  buf_.emit8(static_cast<std::uint8_t>(imm));
}

void Assembler::vpslld_i(Vec dst, Vec src, int imm) {
  evex_rr(/*reg=*/6, src.id, dst.id, kMap0F, kPp66, /*w=*/false);
  buf_.emit8(0x72);
  buf_.emit8(static_cast<std::uint8_t>(0xC0 | (6 << 3) | (src.id & 7)));
  buf_.emit8(static_cast<std::uint8_t>(imm));
}

void Assembler::vpmovdw_store(Mem dst, Vec src) {
  // EVEX.512.F3.0F38.W0 33 /r, mem form — HalfMem tuple, N = 32.
  evex(src.id, dst, 0, kMap0F38, kPpF3, /*w=*/false, /*bcast=*/false, 32);
  buf_.emit8(0x33);
  modrm_mem(src.id, dst, 32);
}

void Assembler::vpmovsxwd_load(Vec dst, Mem src) {
  // EVEX.512.66.0F38.W0 23 /r — HalfMem tuple, N = 32.
  evex(dst.id, src, 0, kMap0F38, kPp66, /*w=*/false, /*bcast=*/false, 32);
  buf_.emit8(0x23);
  modrm_mem(dst.id, src, 32);
}

void Assembler::vpmovzxwd_load(Vec dst, Mem src) {
  // EVEX.512.66.0F38.W0 33 /r — same opcode as vpmovdw, distinguished by pp.
  evex(dst.id, src, 0, kMap0F38, kPp66, /*w=*/false, /*bcast=*/false, 32);
  buf_.emit8(0x33);
  modrm_mem(dst.id, src, 32);
}

void Assembler::vpcmpud(int k, Vec a, Vec b, int imm) {
  // EVEX.512.66.0F3A.W0 1E /r ib — mask destination in modrm.reg.
  evex_rr(k, b.id, a.id, kMap0F3A, kPp66, /*w=*/false);
  buf_.emit8(0x1E);
  buf_.emit8(static_cast<std::uint8_t>(0xC0 | ((k & 7) << 3) | (b.id & 7)));
  buf_.emit8(static_cast<std::uint8_t>(imm));
}

void Assembler::vpcmpud_bcast(int k, Vec a, Mem b, int imm) {
  evex(k, b, a.id, kMap0F3A, kPp66, /*w=*/false, /*bcast=*/true, 4);
  buf_.emit8(0x1E);
  modrm_mem(k, b, 4);
  buf_.emit8(static_cast<std::uint8_t>(imm));
}

void Assembler::vmovdqa32_merge(Vec dst, int k, Vec src) {
  // EVEX.512.66.0F.W0 6F /r with aaa = k, z = 0: masked-out lanes keep dst.
  evex_rr(dst.id, src.id, 0, kMap0F, kPp66, /*w=*/false, /*aaa=*/k);
  buf_.emit8(0x6F);
  buf_.emit8(static_cast<std::uint8_t>(0xC0 | ((dst.id & 7) << 3) |
                                       (src.id & 7)));
}

void Assembler::vpcompressd_store(Mem dst, int k, Vec src) {
  // EVEX.512.66.0F38.W0 8B /r mem{k} — Tuple1-Scalar, N = 4.
  evex(src.id, dst, 0, kMap0F38, kPp66, /*w=*/false, /*bcast=*/false, 4, k);
  buf_.emit8(0x8B);
  modrm_mem(src.id, dst, 4);
}

void Assembler::kmovw_rk(Gpr dst, int k) {
  // VEX.L0.0F.W0 93 /r — zero-extends the 16-bit mask into a GPR.
  vex3_rr(static_cast<int>(dst), k, 0, kMap0F, kPpNone, /*w=*/false,
          /*l256=*/false);
  buf_.emit8(0x93);
  buf_.emit8(static_cast<std::uint8_t>(0xC0 | (lo3(dst) << 3) | (k & 7)));
}

void Assembler::popcnt64(Gpr dst, Gpr src) {
  buf_.emit8(0xF3);
  rex(true, static_cast<int>(dst), 0, static_cast<int>(src));
  buf_.emit8(0x0F);
  buf_.emit8(0xB8);
  buf_.emit8(static_cast<std::uint8_t>(0xC0 | (lo3(dst) << 3) | lo3(src)));
}

void Assembler::shl_ri(Gpr r, int imm) {
  rex(true, 0, 0, static_cast<int>(r));
  buf_.emit8(0xC1);
  buf_.emit8(static_cast<std::uint8_t>(0xC0 | (4 << 3) | lo3(r)));
  buf_.emit8(static_cast<std::uint8_t>(imm));
}

void Assembler::vpdpwssd_mem(Vec dst, Vec a, Mem b) {
  vop_mem(VecWidth::zmm512, 0x52, kMap0F38, kPp66, dst, a, b, false);
}

void Assembler::vpdpwssd(Vec dst, Vec a, Vec b) {
  vop_rr(VecWidth::zmm512, 0x52, kMap0F38, kPp66, dst, a, b);
}

void Assembler::vpdpwssd_bcast(Vec dst, Vec a, Mem b) {
  vop_mem(VecWidth::zmm512, 0x52, kMap0F38, kPp66, dst, a, b, /*bcast=*/true);
}

void Assembler::vcvtdq2ps(Vec dst, Vec src) {
  // EVEX.512.0F.W0 5B /r (no pp prefix).
  vop_rr(VecWidth::zmm512, 0x5B, kMap0F, kPpNone, dst, Vec{0}, src);
}

// --- prefetch --------------------------------------------------------------------

void Assembler::prefetcht0(Mem m) {
  if (hi1(m.base)) buf_.emit8(0x41);
  buf_.emit8(0x0F);
  buf_.emit8(0x18);
  modrm_mem(/*reg=*/1, m, 1);
}

void Assembler::prefetcht1(Mem m) {
  if (hi1(m.base)) buf_.emit8(0x41);
  buf_.emit8(0x0F);
  buf_.emit8(0x18);
  modrm_mem(/*reg=*/2, m, 1);
}

}  // namespace xconv::jit
