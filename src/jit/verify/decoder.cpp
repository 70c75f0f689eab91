#include "jit/verify/decoder.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace xconv::jit::verify {

namespace {

// BEGIN-DECODER-COVERAGE
// Parsed by tools/lint/xconv_lint.py (rule decoder-coverage): one quoted
// Assembler instruction-method name per line, in Op enum order. op_name()
// indexes this table by Op, so the list can never drift from the enum.
const char* const kCoveredAssemblerOps[] = {
    "ret",
    "vzeroupper",
    "push",
    "pop",
    "mov_ri",
    "add_ri",
    "sub_ri",
    "cmp_ri",
    "add_rr",
    "jcc_back",
    "vmovups_load",
    "vmovups_store",
    "vbroadcastss",
    "vfmadd231ps",
    "vfmadd231ps_bcast",
    "vxorps",
    "vmaxps",
    "vminps",
    "vaddps",
    "vaddps_mem",
    "vsubps",
    "vmulps",
    "vdivps",
    "vshufps",
    "vshuff32x4",
    "vperm2f128",
    "vcvtps2dq",
    "vpaddd",
    "vpaddd_bcast",
    "vpandd_bcast",
    "vpord_bcast",
    "vpminud_bcast",
    "vpsrld_i",
    "vpslld_i",
    "vpmovdw_store",
    "vpmovsxwd_load",
    "vpmovzxwd_load",
    "vpcmpud",
    "vpcmpud_bcast",
    "vmovdqa32_merge",
    "vpcompressd_store",
    "kmovw_rk",
    "popcnt64",
    "shl_ri",
    "vpdpwssd_bcast",
    "vcvtdq2ps",
    "prefetcht0",
    "prefetcht1",
};
// END-DECODER-COVERAGE

constexpr int kMap0F = 1;
constexpr int kMap0F38 = 2;
constexpr int kMap0F3A = 3;
constexpr int kPpNone = 0;
constexpr int kPp66 = 1;
constexpr int kPpF3 = 2;

const char* const kGprNames[16] = {
    "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
    "r8",  "r9",  "r10", "r11", "r12", "r13", "r14", "r15"};

/// Bounds-checked byte reader over one instruction.
struct Reader {
  const std::uint8_t* p;
  std::size_t n;
  std::size_t i;
  bool ok = true;

  std::uint8_t u8() {
    if (i >= n) {
      ok = false;
      return 0;
    }
    return p[i++];
  }
  std::uint8_t peek() const { return i < n ? p[i] : 0; }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int k = 0; k < 4; ++k) v |= static_cast<std::uint32_t>(u8()) << (8 * k);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int k = 0; k < 8; ++k) v |= static_cast<std::uint64_t>(u8()) << (8 * k);
    return v;
  }
};

/// What one (map, pp, opcode, form) tuple decodes to.
struct VecSpec {
  Op op;
  int scale = 1;         ///< EVEX disp8*N compression factor
  unsigned mem_size = 0; ///< bytes accessed through the memory operand
  bool mem_write = false;
  bool imm8 = false;
  platform::Isa min_isa = platform::Isa::avx512;
};

/// [base + disp] operand following the opcode. `scale` is the EVEX disp8*N
/// factor (1 for VEX/legacy). Returns false on an encoding the Assembler's
/// modrm_mem() cannot have produced.
bool parse_mem(Reader& rd, int base_hi, int scale, int* reg_field, int* base,
               std::int32_t* disp) {
  const std::uint8_t modrm = rd.u8();
  const int mod = modrm >> 6;
  const int rm = modrm & 7;
  *reg_field = (modrm >> 3) & 7;
  if (mod == 3) return false;
  int base_lo = rm;
  if (rm == 4) {
    // SIB: the emitter only needs it for rsp/r12 bases and always writes
    // index=none, base=rm -> the single byte 0x24.
    if (rd.u8() != 0x24) return false;
    base_lo = 4;
  } else if (rm == 5 && mod == 0) {
    return false;  // RIP-relative: never emitted
  }
  *base = base_lo | (base_hi << 3);
  if (mod == 0) {
    *disp = 0;
  } else if (mod == 1) {
    *disp = static_cast<std::int8_t>(rd.u8()) * scale;
  } else {
    *disp = static_cast<std::int32_t>(rd.u32());
  }
  return rd.ok;
}

/// Resolve an EVEX-encoded op. `is_rr` = modrm.mod == 3; `reg_field` is the
/// raw modrm.reg low bits (opcode extension for the shift forms).
bool evex_lookup(int map, int pp, std::uint8_t opc, bool is_rr, bool bcast,
                 int aaa, int reg_field, VecSpec* s) {
  using platform::Isa;
  // Masks are legal only on the merge-move and the compress-store.
  const bool mask_ok = (map == kMap0F && pp == kPp66 && opc == 0x6F) ||
                       (map == kMap0F38 && pp == kPp66 && opc == 0x8B);
  if (aaa != 0 && !mask_ok) return false;
  if (bcast && is_rr) return false;
  if (map == kMap0F && pp == kPpNone) {
    if (bcast) return false;
    switch (opc) {
      case 0x10: if (is_rr) return false; *s = {Op::vmovups_load, 64, 64}; return true;
      case 0x11: if (is_rr) return false; *s = {Op::vmovups_store, 64, 64, true}; return true;
      case 0x58: *s = is_rr ? VecSpec{Op::vaddps} : VecSpec{Op::vaddps_mem, 64, 64}; return true;
      case 0x59: if (!is_rr) return false; *s = {Op::vmulps}; return true;
      case 0x5B: if (!is_rr) return false; *s = {Op::vcvtdq2ps}; return true;
      case 0x5C: if (!is_rr) return false; *s = {Op::vsubps}; return true;
      case 0x5D: if (!is_rr) return false; *s = {Op::vminps}; return true;
      case 0x5E: if (!is_rr) return false; *s = {Op::vdivps}; return true;
      case 0x5F: if (!is_rr) return false; *s = {Op::vmaxps}; return true;
      case 0xC6: if (!is_rr) return false; *s = {Op::vshufps, 1, 0, false, true}; return true;
      default: return false;
    }
  }
  if (map == kMap0F && pp == kPp66) {
    switch (opc) {
      case 0xEF: if (!is_rr) return false; *s = {Op::vxorps}; return true;  // vpxord
      case 0x5B: if (!is_rr) return false; *s = {Op::vcvtps2dq}; return true;
      case 0xFE:
        if (is_rr) { *s = {Op::vpaddd}; return true; }
        if (!bcast) return false;
        *s = {Op::vpaddd_bcast, 4, 4};
        return true;
      case 0xDB: if (is_rr || !bcast) return false; *s = {Op::vpandd_bcast, 4, 4}; return true;
      case 0xEB: if (is_rr || !bcast) return false; *s = {Op::vpord_bcast, 4, 4}; return true;
      case 0x72:
        // NDD immediate shifts: modrm.reg is the opcode extension.
        if (!is_rr) return false;
        if (reg_field == 2) { *s = {Op::vpsrld_i, 1, 0, false, true}; return true; }
        if (reg_field == 6) { *s = {Op::vpslld_i, 1, 0, false, true}; return true; }
        return false;
      case 0x6F: if (!is_rr || aaa == 0) return false; *s = {Op::vmovdqa32_merge}; return true;
      default: return false;
    }
  }
  if (map == kMap0F38 && pp == kPp66) {
    switch (opc) {
      case 0x18: if (is_rr || bcast) return false; *s = {Op::vbroadcastss, 4, 4}; return true;
      case 0xB8:
        if (is_rr) { *s = {Op::vfmadd231ps}; return true; }
        if (bcast) { *s = {Op::vfmadd231ps_bcast, 4, 4}; return true; }
        return false;
      case 0x3B: if (is_rr || !bcast) return false; *s = {Op::vpminud_bcast, 4, 4}; return true;
      case 0x23: if (is_rr || bcast) return false; *s = {Op::vpmovsxwd_load, 32, 32}; return true;
      case 0x33: if (is_rr || bcast) return false; *s = {Op::vpmovzxwd_load, 32, 32}; return true;
      case 0x8B:
        // Compress-store writes popcnt(k)*4 <= 64 bytes; the bounds pass
        // assumes the worst case.
        if (is_rr || bcast) return false;
        *s = {Op::vpcompressd_store, 4, 64, true};
        return true;
      case 0x52:
        if (is_rr || !bcast) return false;
        *s = {Op::vpdpwssd_bcast, 4, 4};
        s->min_isa = Isa::avx512_vnni;
        return true;
      default: return false;
    }
  }
  if (map == kMap0F38 && pp == kPpF3) {
    if (opc == 0x33 && !is_rr && !bcast) {
      *s = {Op::vpmovdw_store, 32, 32, true};
      return true;
    }
    return false;
  }
  if (map == kMap0F3A && pp == kPp66 && opc == 0x23) {
    if (!is_rr || bcast) return false;
    *s = {Op::vshuff32x4, 1, 0, false, true};
    return true;
  }
  if (map == kMap0F3A && pp == kPp66 && opc == 0x1E) {
    if (is_rr) { *s = {Op::vpcmpud, 1, 0, false, true}; return true; }
    if (!bcast) return false;
    *s = {Op::vpcmpud_bcast, 4, 4, false, true};
    return true;
  }
  return false;
}

/// Resolve a VEX-encoded op (l256 = VEX.L).
bool vex_lookup(int map, int pp, bool l256, std::uint8_t opc, bool is_rr,
                VecSpec* s) {
  using platform::Isa;
  if (!l256) {
    // The only VEX.L0 encoding emitted is kmovw gpr, k.
    if (map == kMap0F && pp == kPpNone && opc == 0x93 && is_rr) {
      *s = {Op::kmovw_rk, 1, 0, false, false, Isa::avx512};
      return true;
    }
    return false;
  }
  if (map == kMap0F && pp == kPpNone) {
    switch (opc) {
      case 0x10: if (is_rr) return false; *s = {Op::vmovups_load, 1, 32, false, false, Isa::avx2}; return true;
      case 0x11: if (is_rr) return false; *s = {Op::vmovups_store, 1, 32, true, false, Isa::avx2}; return true;
      case 0x57: if (!is_rr) return false; *s = {Op::vxorps, 1, 0, false, false, Isa::avx2}; return true;
      case 0x58:
        *s = is_rr ? VecSpec{Op::vaddps, 1, 0, false, false, Isa::avx2}
                   : VecSpec{Op::vaddps_mem, 1, 32, false, false, Isa::avx2};
        return true;
      case 0x59: if (!is_rr) return false; *s = {Op::vmulps, 1, 0, false, false, Isa::avx2}; return true;
      case 0x5C: if (!is_rr) return false; *s = {Op::vsubps, 1, 0, false, false, Isa::avx2}; return true;
      case 0x5D: if (!is_rr) return false; *s = {Op::vminps, 1, 0, false, false, Isa::avx2}; return true;
      case 0x5E: if (!is_rr) return false; *s = {Op::vdivps, 1, 0, false, false, Isa::avx2}; return true;
      case 0x5F: if (!is_rr) return false; *s = {Op::vmaxps, 1, 0, false, false, Isa::avx2}; return true;
      case 0xC6: if (!is_rr) return false; *s = {Op::vshufps, 1, 0, false, true, Isa::avx2}; return true;
      default: return false;
    }
  }
  if (map == kMap0F3A && pp == kPp66) {
    if (opc == 0x06 && is_rr) {
      *s = {Op::vperm2f128, 1, 0, false, true, Isa::avx2};
      return true;
    }
    return false;
  }
  if (map == kMap0F38 && pp == kPp66) {
    if (opc == 0x18 && !is_rr) {
      *s = {Op::vbroadcastss, 1, 4, false, false, Isa::avx2};
      return true;
    }
    if (opc == 0xB8 && is_rr) {
      *s = {Op::vfmadd231ps, 1, 0, false, false, Isa::avx2};
      return true;
    }
    return false;
  }
  return false;
}

bool decode_one(Reader& rd, Insn* out, std::string* err) {
  const std::size_t start = rd.i;
  out->offset = start;
  std::uint8_t b = rd.u8();
  auto fail = [&](const char* what) {
    *err = what;
    return false;
  };

  // --- single-byte / REX.B-prefixed GPR forms ------------------------------
  int rexb41 = 0;
  if (b == 0x41) {
    rexb41 = 1;
    b = rd.u8();
    if (!((b >= 0x50 && b <= 0x5F) || b == 0x0F))
      return fail("0x41 prefix on an instruction that never takes one");
  }

  if (b == 0xC3 && rexb41 == 0) {
    out->op = Op::ret;
  } else if (b == 0xC5 && rexb41 == 0) {
    // The only VEX2 encoding emitted: vzeroupper (C5 F8 77).
    if (rd.u8() != 0xF8 || rd.u8() != 0x77)
      return fail("VEX2 encoding other than vzeroupper");
    out->op = Op::vzeroupper;
    out->min_isa = platform::Isa::avx2;
  } else if (b >= 0x50 && b <= 0x57) {
    out->op = Op::push;
    out->gpr_dst = (b - 0x50) | (rexb41 << 3);
  } else if (b >= 0x58 && b <= 0x5F) {
    out->op = Op::pop;
    out->gpr_dst = (b - 0x58) | (rexb41 << 3);
  } else if (b == 0x0F) {
    const std::uint8_t b2 = rd.u8();
    if (b2 == 0x18) {
      int reg_field = 0, base = 0;
      std::int32_t disp = 0;
      if (!parse_mem(rd, rexb41, 1, &reg_field, &base, &disp))
        return fail("malformed prefetch memory operand");
      if (reg_field == 1) out->op = Op::prefetcht0;
      else if (reg_field == 2) out->op = Op::prefetcht1;
      else return fail("prefetch hint other than t0/t1");
      out->has_mem = true;
      out->is_prefetch = true;
      out->mem_base = base;
      out->mem_disp = disp;
    } else if (rexb41 == 0 && (b2 == 0x85 || b2 == 0x8C || b2 == 0x8F)) {
      out->op = Op::jcc_back;
      out->cond = b2 & 0xF;
      const std::int32_t rel = static_cast<std::int32_t>(rd.u32());
      const std::int64_t tgt =
          static_cast<std::int64_t>(start) + 6 + rel;
      if (tgt < 0 || tgt > static_cast<std::int64_t>(start))
        return fail("jcc target is not backward into the kernel");
      out->target = static_cast<std::size_t>(tgt);
    } else {
      return fail("unsupported 0x0F opcode");
    }
  } else if (b == 0xF3) {
    const std::uint8_t rex = rd.u8();
    if (rex != 0x48 && rex != 0x49 && rex != 0x4C && rex != 0x4D)
      return fail("0xF3 prefix without popcnt REX.W");
    if (rd.u8() != 0x0F || rd.u8() != 0xB8)
      return fail("0xF3 prefix on a non-popcnt opcode");
    const std::uint8_t modrm = rd.u8();
    if ((modrm >> 6) != 3) return fail("popcnt with a memory operand");
    out->op = Op::popcnt64;
    out->gpr_dst = ((modrm >> 3) & 7) | (((rex >> 2) & 1) << 3);
    out->gpr_src = (modrm & 7) | ((rex & 1) << 3);
  } else if (b == 0x48 || b == 0x49 || b == 0x4C || b == 0x4D) {
    const int r_hi = (b >> 2) & 1;
    const int b_hi = b & 1;
    const std::uint8_t opc = rd.u8();
    if (opc == 0xC7) {
      if (r_hi) return fail("mov_ri with REX.R");
      const std::uint8_t modrm = rd.u8();
      if ((modrm >> 6) != 3 || ((modrm >> 3) & 7) != 0)
        return fail("C7 /r form other than mov reg, imm32");
      out->op = Op::mov_ri;
      out->gpr_dst = (modrm & 7) | (b_hi << 3);
      out->imm = static_cast<std::int32_t>(rd.u32());
    } else if (opc >= 0xB8 && opc <= 0xBF) {
      if (r_hi) return fail("movabs with REX.R");
      out->op = Op::mov_ri;
      out->gpr_dst = (opc - 0xB8) | (b_hi << 3);
      out->imm = static_cast<std::int64_t>(rd.u64());
    } else if (opc == 0x01) {
      const std::uint8_t modrm = rd.u8();
      if ((modrm >> 6) != 3) return fail("GPR add with a memory operand");
      out->op = Op::add_rr;
      out->gpr_dst = (modrm & 7) | (b_hi << 3);
      out->gpr_src = ((modrm >> 3) & 7) | (r_hi << 3);
    } else if (opc == 0x83 || opc == 0x81) {
      if (r_hi) return fail("ALU-imm with REX.R");
      const std::uint8_t modrm = rd.u8();
      if ((modrm >> 6) != 3) return fail("ALU-imm with a memory operand");
      const int ext = (modrm >> 3) & 7;
      if (ext == 0) out->op = Op::add_ri;
      else if (ext == 5) out->op = Op::sub_ri;
      else if (ext == 7) out->op = Op::cmp_ri;
      else return fail("ALU-imm opcode extension other than add/sub/cmp");
      out->gpr_dst = (modrm & 7) | (b_hi << 3);
      out->imm = (opc == 0x83) ? static_cast<std::int8_t>(rd.u8())
                               : static_cast<std::int32_t>(rd.u32());
    } else if (opc == 0xC1) {
      if (r_hi) return fail("shift with REX.R");
      const std::uint8_t modrm = rd.u8();
      if ((modrm >> 6) != 3 || ((modrm >> 3) & 7) != 4)
        return fail("C1 shift form other than shl reg, imm8");
      out->op = Op::shl_ri;
      out->gpr_dst = (modrm & 7) | (b_hi << 3);
      out->imm = rd.u8();
    } else {
      return fail("unsupported REX.W opcode");
    }
  } else if (b == 0xC4) {
    // --- VEX3 ---------------------------------------------------------------
    const std::uint8_t p1 = rd.u8();
    const std::uint8_t p2 = rd.u8();
    const int map = p1 & 0x1F;
    if (map < kMap0F || map > kMap0F3A) return fail("VEX map out of range");
    if (((p1 >> 6) & 1) == 0) return fail("VEX with an index register");
    if ((p2 >> 7) & 1) return fail("VEX.W set");
    const int r3 = ((p1 >> 7) & 1) ^ 1;
    const int b3 = ((p1 >> 5) & 1) ^ 1;
    const int vvvv = (~(p2 >> 3)) & 0xF;
    const bool l256 = ((p2 >> 2) & 1) != 0;
    const int pp = p2 & 3;
    const std::uint8_t opc = rd.u8();
    const std::uint8_t modrm = rd.peek();
    const bool is_rr = (modrm >> 6) == 3;
    VecSpec s;
    if (!vex_lookup(map, pp, l256, opc, is_rr, &s))
      return fail("VEX encoding the assembler never emits");
    out->op = s.op;
    out->min_isa = s.min_isa;
    out->vex256 = l256;
    out->vvvv = vvvv;
    if (is_rr) {
      rd.u8();  // consume modrm
      if (s.op == Op::kmovw_rk) {
        if (b3) return fail("kmovw with a high mask register");
        out->gpr_dst = ((modrm >> 3) & 7) | (r3 << 3);
        out->gpr_src = modrm & 7;  // mask register id
      } else {
        out->vreg = ((modrm >> 3) & 7) | (r3 << 3);
        out->vrm = (modrm & 7) | (b3 << 3);
      }
    } else {
      int reg_field = 0, base = 0;
      std::int32_t disp = 0;
      if (!parse_mem(rd, b3, s.scale, &reg_field, &base, &disp))
        return fail("malformed VEX memory operand");
      out->vreg = reg_field | (r3 << 3);
      out->has_mem = true;
      out->mem_base = base;
      out->mem_disp = disp;
      out->mem_size = s.mem_size;
      out->mem_write = s.mem_write;
    }
    if (s.imm8) out->imm = rd.u8();
  } else if (b == 0x62) {
    // --- EVEX ---------------------------------------------------------------
    const std::uint8_t p0 = rd.u8();
    const std::uint8_t p1 = rd.u8();
    const std::uint8_t p2 = rd.u8();
    const int map = p0 & 3;
    if (map < kMap0F || map > kMap0F3A) return fail("EVEX map out of range");
    if ((p0 & 0x0C) != 0) return fail("EVEX reserved P0 bits set");
    if (((p1 >> 2) & 1) == 0) return fail("EVEX reserved P1 bit clear");
    if ((p1 >> 7) & 1) return fail("EVEX.W set");
    if ((p2 >> 7) & 1) return fail("EVEX.z set (zeroing-masking never emitted)");
    if (((p2 >> 5) & 3) != 2) return fail("EVEX vector length is not 512-bit");
    const int r3 = ((p0 >> 7) & 1) ^ 1;
    const int r4 = ((p0 >> 4) & 1) ^ 1;
    const bool bcast = ((p2 >> 4) & 1) != 0;
    const int v4 = ((p2 >> 3) & 1) ^ 1;
    const int vvvv = ((~(p1 >> 3)) & 0xF) | (v4 << 4);
    const int pp = p1 & 3;
    const int aaa = p2 & 7;
    const std::uint8_t opc = rd.u8();
    const std::uint8_t modrm = rd.peek();
    const bool is_rr = (modrm >> 6) == 3;
    VecSpec s;
    if (!evex_lookup(map, pp, opc, is_rr, bcast, aaa, (modrm >> 3) & 7, &s))
      return fail("EVEX encoding the assembler never emits");
    out->op = s.op;
    out->min_isa = s.min_isa;
    out->evex = true;
    out->bcast = bcast;
    out->mask = aaa;
    out->vvvv = vvvv;
    if (is_rr) {
      rd.u8();
      const int rm4 = ((p0 >> 6) & 1) ^ 1;
      const int rm3 = ((p0 >> 5) & 1) ^ 1;
      out->vreg = ((modrm >> 3) & 7) | (r3 << 3) | (r4 << 4);
      out->vrm = (modrm & 7) | (rm3 << 3) | (rm4 << 4);
    } else {
      if (((p0 >> 6) & 1) == 0) return fail("EVEX with an index register");
      const int b3 = ((p0 >> 5) & 1) ^ 1;
      int reg_field = 0, base = 0;
      std::int32_t disp = 0;
      if (!parse_mem(rd, b3, s.scale, &reg_field, &base, &disp))
        return fail("malformed EVEX memory operand");
      out->vreg = reg_field | (r3 << 3) | (r4 << 4);
      out->has_mem = true;
      out->mem_base = base;
      out->mem_disp = disp;
      out->mem_size = s.mem_size;
      out->mem_write = s.mem_write;
    }
    if (s.imm8) out->imm = rd.u8();
  } else {
    return fail("byte sequence outside the emitted instruction subset");
  }

  // Trailing imm8 operands (shuffle selectors, shift counts, compare
  // predicates) were consumed by the VEX/EVEX paths above.
  if (!rd.ok) return fail("truncated instruction");
  out->len = static_cast<unsigned>(rd.i - start);
  return true;
}

}  // namespace

const char* op_name(Op op) {
  return kCoveredAssemblerOps[static_cast<int>(op)];
}

DecodeResult decode(const std::uint8_t* code, std::size_t size) {
  DecodeResult res;
  Reader rd{code, size, 0};
  while (rd.i < size) {
    Insn insn;
    std::string err;
    if (!decode_one(rd, &insn, &err)) {
      res.error = err;
      res.error_offset = insn.offset;
      return res;
    }
    res.insns.push_back(insn);
  }
  return res;
}

std::string format_insn(const Insn& insn) {
  std::ostringstream os;
  char off[16];
  std::snprintf(off, sizeof(off), "0x%04zx", insn.offset);
  os << off << ": " << op_name(insn.op);

  const char* vpfx = insn.evex ? "zmm" : "ymm";
  auto mem = [&]() {
    os << " [" << kGprNames[insn.mem_base & 15];
    if (insn.mem_disp != 0) {
      char d[16];
      std::snprintf(d, sizeof(d), "%+d", insn.mem_disp);
      os << d;
    }
    os << "]";
    if (insn.bcast) os << "{1to" << (insn.evex ? 16 : 8) << "}";
  };

  switch (insn.op) {
    case Op::ret:
    case Op::vzeroupper:
      break;
    case Op::push:
    case Op::pop:
      os << " " << kGprNames[insn.gpr_dst & 15];
      break;
    case Op::mov_ri:
    case Op::add_ri:
    case Op::sub_ri:
    case Op::cmp_ri:
    case Op::shl_ri:
      os << " " << kGprNames[insn.gpr_dst & 15] << ", " << insn.imm;
      break;
    case Op::add_rr:
    case Op::popcnt64:
      os << " " << kGprNames[insn.gpr_dst & 15] << ", "
         << kGprNames[insn.gpr_src & 15];
      break;
    case Op::jcc_back: {
      const char* cc = insn.cond == 0x5 ? "ne" : insn.cond == 0xC ? "l" : "g";
      char t[16];
      std::snprintf(t, sizeof(t), "0x%04zx", insn.target);
      os << " " << cc << " -> " << t;
      break;
    }
    case Op::kmovw_rk:
      os << " " << kGprNames[insn.gpr_dst & 15] << ", k" << insn.gpr_src;
      break;
    case Op::vpcmpud:
      os << " k" << insn.vreg << ", " << vpfx << insn.vvvv << ", " << vpfx
         << insn.vrm << ", " << insn.imm;
      break;
    case Op::vpcmpud_bcast:
      os << " k" << insn.vreg << ", " << vpfx << insn.vvvv << ",";
      mem();
      os << ", " << insn.imm;
      break;
    case Op::vmovdqa32_merge:
      os << " " << vpfx << insn.vreg << "{k" << insn.mask << "}, " << vpfx
         << insn.vrm;
      break;
    case Op::vpcompressd_store:
      mem();
      os << "{k" << insn.mask << "}, " << vpfx << insn.vreg;
      break;
    case Op::vshufps:
    case Op::vshuff32x4:
    case Op::vperm2f128:
      os << " " << vpfx << insn.vreg << ", " << vpfx << insn.vvvv << ", "
         << vpfx << insn.vrm << ", " << insn.imm;
      break;
    case Op::vpsrld_i:
    case Op::vpslld_i:
      os << " " << vpfx << insn.vvvv << ", " << vpfx << insn.vrm << ", "
         << insn.imm;
      break;
    case Op::prefetcht0:
    case Op::prefetcht1:
      mem();
      break;
    default:
      if (insn.has_mem && insn.mem_write) {
        mem();
        os << ", " << vpfx << insn.vreg;
      } else {
        os << " " << vpfx << insn.vreg;
        if (insn.vvvv >= 0 &&
            (insn.op == Op::vfmadd231ps || insn.op == Op::vfmadd231ps_bcast ||
             insn.op == Op::vxorps || insn.op == Op::vmaxps ||
             insn.op == Op::vminps || insn.op == Op::vaddps ||
             insn.op == Op::vaddps_mem || insn.op == Op::vsubps ||
             insn.op == Op::vmulps || insn.op == Op::vdivps ||
             insn.op == Op::vpaddd || insn.op == Op::vpaddd_bcast ||
             insn.op == Op::vpandd_bcast || insn.op == Op::vpord_bcast ||
             insn.op == Op::vpminud_bcast || insn.op == Op::vpdpwssd_bcast))
          os << ", " << vpfx << insn.vvvv;
        if (insn.vrm >= 0) os << ", " << vpfx << insn.vrm;
        if (insn.has_mem) {
          os << ",";
          mem();
        }
      }
  }
  return os.str();
}

std::string disassemble(const std::uint8_t* code, std::size_t size) {
  std::ostringstream os;
  const DecodeResult res = decode(code, size);
  for (const Insn& insn : res.insns) os << format_insn(insn) << "\n";
  if (!res.ok()) {
    char off[16];
    std::snprintf(off, sizeof(off), "0x%04zx", res.error_offset);
    os << off << ": <undecodable: " << res.error << ">";
    for (std::size_t i = res.error_offset;
         i < size && i < res.error_offset + 16; ++i) {
      char b[8];
      std::snprintf(b, sizeof(b), " %02x", code[i]);
      os << b;
    }
    os << (size > res.error_offset + 16 ? " ...\n" : "\n");
  }
  return os.str();
}

}  // namespace xconv::jit::verify
