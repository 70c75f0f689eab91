// Decoder for the exact x86-64 subset the runtime Assembler emits
// (src/jit/assembler.cpp). This is deliberately NOT a general x86 decoder:
// it accepts precisely the encodings our generators produce — GPR
// moves/arith, push/pop/ret, vzeroupper, backward rel32 jcc, the VEX.256 /
// EVEX.512 vector ops of the conv/upd/reduce/kdot/codec/qconv kernels — and
// treats every other byte sequence as a decode failure. That strictness is the
// point: a kernel containing anything the emitter cannot have produced is
// corrupt by definition, and the verifier (verifier.hpp) wants to reason
// over a closed instruction set.
//
// The decoder doubles as the disassembler behind XCONV_JIT_DUMP; see
// `disassemble()` / `format_insn()`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "platform/cpu.hpp"

namespace xconv::jit::verify {

/// One decoded instruction, identified by the Assembler method that emitted
/// it (the encodings are injective: every accepted byte sequence maps back
/// to exactly one emitter method). Kept in sync with Assembler's public
/// instruction surface by the `decoder-coverage` lint rule, which diffs the
/// method list in assembler.hpp against kCoveredAssemblerOps in decoder.cpp.
enum class Op {
  // control flow / GPR
  ret,
  vzeroupper,
  push,
  pop,
  mov_ri,
  mov_rr,
  add_ri,
  sub_ri,
  cmp_ri,
  add_rr,
  jcc_back,
  // SIMD fp32
  vmovups_load,
  vmovups_store,
  vbroadcastss,
  vfmadd231ps,
  vfmadd231ps_bcast,
  vxorps,
  vmaxps,
  vminps,
  vaddps,
  vaddps_mem,
  vsubps,
  vmulps,
  vdivps,
  vshufps,
  vshuff32x4,
  vperm2f128,
  // AVX-512 integer / mask / pack
  vcvtps2dq,
  vpaddd,
  vpaddd_bcast,
  vpandd_bcast,
  vpord_bcast,
  vpminud_bcast,
  vpsrld_i,
  vpslld_i,
  vpmovdw_store,
  vpmovsxwd_load,
  vpmovzxwd_load,
  vpcmpud,
  vpcmpud_bcast,
  vmovdqa32_merge,
  vpcompressd_store,
  kmovw_rk,
  popcnt64,
  shl_ri,
  // AVX512-VNNI
  vpdpwssd_mem,
  vpdpwssd,
  vpdpwssd_bcast,
  vcvtdq2ps,
  // prefetch
  prefetcht0,
  prefetcht1,
};

const char* op_name(Op op);

struct Insn {
  std::size_t offset = 0;  ///< byte offset in the kernel
  unsigned len = 0;        ///< encoded length in bytes
  Op op = Op::ret;

  // GPR operands (hardware register ids, -1 when absent).
  int gpr_dst = -1;
  int gpr_src = -1;
  std::int64_t imm = 0;  ///< mov/alu/shift immediate

  // jcc_back
  int cond = -1;           ///< raw condition code (0x5 ne, 0xC l, 0xF g)
  std::size_t target = 0;  ///< absolute code offset of the jump target

  // Vector operands (register ids; mask registers for vpcmpud/kmovw live in
  // `vreg`/`gpr_src` per the encoding's modrm role).
  int vreg = -1;  ///< modrm.reg vector (or mask destination)
  int vvvv = -1;  ///< VEX/EVEX.vvvv operand
  int vrm = -1;   ///< modrm.rm vector for reg-reg forms
  int mask = 0;   ///< EVEX.aaa opmask (0 = unmasked)
  bool evex = false;
  bool vex256 = false;  ///< VEX.L=1 (256-bit) form: dirties the upper state
  bool bcast = false;  ///< EVEX.b embedded-broadcast memory operand

  // Memory operand ([base + disp]); prefetches carry size 0 and are exempt
  // from the bounds pass (they can never fault architecturally).
  bool has_mem = false;
  int mem_base = -1;
  std::int32_t mem_disp = 0;
  unsigned mem_size = 0;  ///< bytes accessed (worst case for compress-store)
  bool mem_write = false;
  bool is_prefetch = false;

  /// Minimum ISA tier that may execute this instruction.
  platform::Isa min_isa = platform::Isa::scalar;
};

struct DecodeResult {
  std::vector<Insn> insns;
  std::string error;            ///< empty on success
  std::size_t error_offset = 0; ///< offset of the undecodable byte
  bool ok() const { return error.empty(); }
};

/// Decode `size` bytes of kernel code. Stops at the first byte sequence the
/// Assembler cannot have emitted and reports it in `error`.
DecodeResult decode(const std::uint8_t* code, std::size_t size);

/// Human-readable form of one instruction (AT&T-free Intel-ish syntax).
std::string format_insn(const Insn& insn);

/// Full-kernel disassembly; undecodable tails are rendered as hex bytes.
std::string disassemble(const std::uint8_t* code, std::size_t size);

}  // namespace xconv::jit::verify
