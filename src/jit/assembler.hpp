// Minimal x86-64 assembler: exactly the instruction subset the runtime
// microkernel generators need (paper Section II-D/E).
//
//   * GPR: mov/add/sub/cmp with immediates, reg-reg mov/add, dec-and-branch
//     loops (backward rel32 jcc), push/pop, ret.
//   * vzeroupper: every kernel exits through `vzeroupper; ret`, so the
//     caller's legacy-SSE code never runs with dirty upper vector state.
//   * SIMD fp32: vmovups (load/store), vbroadcastss, vfmadd231ps
//     (reg-reg-reg, full-width memory operand, and EVEX embedded-broadcast
//     memory operand), vxorps, vmaxps, vaddps — in VEX.256 (AVX2) and
//     EVEX.512 (AVX-512) forms.
//   * Lane shuffles for horizontal-sum trees: vshufps (VEX.256/EVEX.512),
//     vshuff32x4 (EVEX.512) and vperm2f128 (VEX.256).
//   * AVX512-VNNI: vpdpwssd (int16 pair dot-product accumulate).
//   * AVX-512 integer/mask/pack subset for the codec kernels: vcvtps2dq,
//     vpaddd/vpandd/vpord/vpminud, immediate shifts, vpmovdw/vpmovsxwd/
//     vpmovzxwd i16<->i32 packs, vpcmpud->k compares, merge-masked moves,
//     vpcompressd compress-stores, kmovw, popcnt.
//   * prefetcht0/t1 (the two-level prefetch of Section II-E).
//
// Memory operands are always [base + disp32] with JIT-time-constant
// displacements — runtime code specialization makes every tensor offset a
// constant, which is the whole point of the approach. EVEX disp8*N
// compression is applied when the displacement permits.
#pragma once

#include <cstdint>

#include "jit/code_buffer.hpp"

namespace xconv::jit {

/// General-purpose registers (hardware encoding).
enum class Gpr : int {
  rax = 0, rcx = 1, rdx = 2, rbx = 3, rsp = 4, rbp = 5, rsi = 6, rdi = 7,
  r8 = 8, r9 = 9, r10 = 10, r11 = 11, r12 = 12, r13 = 13, r14 = 14, r15 = 15,
};

/// Vector register id: 0..15 for VEX (ymm), 0..31 for EVEX (zmm).
struct Vec {
  int id = 0;
};

/// [base + disp] memory operand.
struct Mem {
  Gpr base = Gpr::rax;
  std::int32_t disp = 0;
};

/// Vector width selecting the encoding: VEX.256 or EVEX.512.
enum class VecWidth { ymm256, zmm512 };

/// Condition codes for jcc (subset).
enum class Cond : std::uint8_t {
  ne = 0x5,  ///< jnz / jne
  l = 0xC,   ///< jl (signed)
  g = 0xF,   ///< jg (signed)
};

class Assembler {
 public:
  explicit Assembler(CodeBuffer& buf) : buf_(buf) {}

  // --- control flow / GPR ---------------------------------------------------
  void ret();
  /// Zero bits 128+ of every vector register (VEX2 `C5 F8 77`). Emitted
  /// immediately before `ret` by every generator; the verifier enforces it.
  void vzeroupper();
  void push(Gpr r);
  void pop(Gpr r);
  void mov_ri(Gpr r, std::int64_t imm);
  void add_ri(Gpr r, std::int32_t imm);
  void sub_ri(Gpr r, std::int32_t imm);
  void cmp_ri(Gpr r, std::int32_t imm);
  void add_rr(Gpr dst, Gpr src);
  /// Backward conditional jump to an absolute code offset (must be <= here()).
  void jcc_back(Cond c, std::size_t target);
  /// Current code offset, usable as a backward-jump target.
  std::size_t here() const { return buf_.size(); }

  // --- SIMD fp32 -------------------------------------------------------------
  void vmovups_load(VecWidth w, Vec dst, Mem src);
  void vmovups_store(VecWidth w, Mem dst, Vec src);
  void vbroadcastss(VecWidth w, Vec dst, Mem src);
  /// dst += a * b (all registers).
  void vfmadd231ps(VecWidth w, Vec dst, Vec a, Vec b);
  /// dst += a * broadcast32([mem]) — EVEX {1toN} form; zmm512 only.
  void vfmadd231ps_bcast(VecWidth w, Vec dst, Vec a, Mem b);
  void vxorps(VecWidth w, Vec dst, Vec a, Vec b);
  void vmaxps(VecWidth w, Vec dst, Vec a, Vec b);
  void vminps(VecWidth w, Vec dst, Vec a, Vec b);
  void vaddps(VecWidth w, Vec dst, Vec a, Vec b);
  void vaddps_mem(VecWidth w, Vec dst, Vec a, Mem b);
  void vsubps(VecWidth w, Vec dst, Vec a, Vec b);
  void vmulps(VecWidth w, Vec dst, Vec a, Vec b);
  void vdivps(VecWidth w, Vec dst, Vec a, Vec b);
  /// Per 128-bit lane: dst = {a[imm0], a[imm1], b[imm2], b[imm3]} (2-bit
  /// selectors, imm0 lowest).
  void vshufps(VecWidth w, Vec dst, Vec a, Vec b, int imm);
  /// 128-bit chunks: dst = {a[imm0], a[imm1], b[imm2], b[imm3]}; zmm512 only.
  void vshuff32x4(Vec dst, Vec a, Vec b, int imm);
  /// 128-bit halves: dst.lo/hi = chunk imm[1:0]/imm[5:4] of {a.lo, a.hi,
  /// b.lo, b.hi}; ymm256 only.
  void vperm2f128(Vec dst, Vec a, Vec b, int imm);

  // --- AVX-512 integer / mask / pack (codec kernels; zmm512 only) -------------
  /// dst(i32) = cvt_rne(src(fp32)) — rounding follows MXCSR (RNE by default),
  /// exactly like scalar nearbyintf.
  void vcvtps2dq(Vec dst, Vec src);
  void vpaddd(Vec dst, Vec a, Vec b);
  void vpaddd_bcast(Vec dst, Vec a, Mem b);
  void vpandd_bcast(Vec dst, Vec a, Mem b);
  void vpord_bcast(Vec dst, Vec a, Mem b);
  void vpminud_bcast(Vec dst, Vec a, Mem b);
  void vpsrld_i(Vec dst, Vec src, int imm);
  void vpslld_i(Vec dst, Vec src, int imm);
  /// Truncating i32 -> i16 pack: stores the low 16 bits of each of the 16
  /// lanes of `src` as 32 contiguous bytes at `dst`.
  void vpmovdw_store(Mem dst, Vec src);
  /// 16 x i16 (32 bytes) -> sign-extended i32 lanes.
  void vpmovsxwd_load(Vec dst, Mem src);
  /// 16 x u16 (32 bytes) -> zero-extended i32 lanes.
  void vpmovzxwd_load(Vec dst, Mem src);
  /// k = per-lane unsigned i32 compare (imm predicate: 0=eq,1=lt,2=le,4=ne,
  /// 5=nlt(ge),6=nle(gt)).
  void vpcmpud(int k, Vec a, Vec b, int imm);
  void vpcmpud_bcast(int k, Vec a, Mem b, int imm);
  /// dst{k} = src — merge-masked full-register move (lanes with k=0 keep dst).
  void vmovdqa32_merge(Vec dst, int k, Vec src);
  /// Compress-store the k-selected i32 lanes of src contiguously at dst.
  void vpcompressd_store(Mem dst, int k, Vec src);
  /// dst(gpr) = zero-extended 16-bit mask register k.
  void kmovw_rk(Gpr dst, int k);
  void popcnt64(Gpr dst, Gpr src);
  void shl_ri(Gpr r, int imm);

  // --- AVX512-VNNI ------------------------------------------------------------
  /// dst(i32) += dot2(a, broadcast32([mem])) — {1to16} form; zmm512 only.
  void vpdpwssd_bcast(Vec dst, Vec a, Mem b);
  /// dst(fp32) = cvt(src(i32)); zmm512 only.
  void vcvtdq2ps(Vec dst, Vec src);

  // --- prefetch ---------------------------------------------------------------
  void prefetcht0(Mem m);
  void prefetcht1(Mem m);

 private:
  // Encoding helpers (see .cpp for the bit layouts).
  void rex(bool w, int reg, int index, int base);
  void modrm_mem(int reg, Mem m, int disp8_scale);
  void vex3(int reg, Mem m, int vvvv, int map, int pp, bool w, bool l256);
  void vex3_rr(int reg, int rm, int vvvv, int map, int pp, bool w, bool l256);
  void evex(int reg, Mem m, int vvvv, int map, int pp, bool w, bool bcast,
            int disp8_scale, int aaa = 0);
  void evex_rr(int reg, int rm, int vvvv, int map, int pp, bool w,
               int aaa = 0);

  void vop_mem(VecWidth w, std::uint8_t opcode, int map, int pp, Vec reg,
               Vec vvvv, Mem m, bool bcast, int disp8_scale = 0);
  void vop_rr(VecWidth w, std::uint8_t opcode, int map, int pp, Vec reg,
              Vec vvvv, Vec rm);

  CodeBuffer& buf_;
};

}  // namespace xconv::jit
