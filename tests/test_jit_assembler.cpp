// Byte-exact encoder tests. Golden encodings were cross-checked against
// `objdump -D -b binary -m i386:x86-64` during development (see the
// disassembly listing in the repository history / DESIGN.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "jit/assembler.hpp"
#include "jit/code_buffer.hpp"

using namespace xconv::jit;

namespace {
std::vector<std::uint8_t> bytes(const CodeBuffer& b) {
  return {b.data(), b.data() + b.size()};
}
}  // namespace

TEST(CodeBuffer, EmitAndPatch) {
  CodeBuffer b(4096);
  b.emit8(0x90);
  b.emit32(0xdeadbeef);
  EXPECT_EQ(b.size(), 5u);
  b.patch32(1, 0x11223344);
  EXPECT_EQ(bytes(b), (std::vector<std::uint8_t>{0x90, 0x44, 0x33, 0x22, 0x11}));
}

TEST(CodeBuffer, FinalizeBlocksFurtherEmission) {
  CodeBuffer b(4096);
  b.emit8(0xC3);
  b.finalize();
  EXPECT_TRUE(b.finalized());
  EXPECT_THROW(b.emit8(0x90), std::logic_error);
}

TEST(CodeBuffer, CapacityIsEnforced) {
  CodeBuffer b(4096);
  std::vector<std::uint8_t> big(5000, 0x90);
  EXPECT_THROW(b.emit(big.data(), big.size()), std::runtime_error);
}

TEST(CodeBuffer, ExecutesAfterFinalize) {
  CodeBuffer b(4096);
  Assembler as(b);
  as.mov_ri(Gpr::rax, 42);
  as.ret();
  b.finalize();
  auto fn = b.entry<long (*)()>();
  EXPECT_EQ(fn(), 42);
}

TEST(Assembler, RetPushPop) {
  CodeBuffer b(256);
  Assembler as(b);
  as.push(Gpr::rbx);
  as.push(Gpr::r12);
  as.pop(Gpr::r12);
  as.pop(Gpr::rbx);
  as.ret();
  EXPECT_EQ(bytes(b), (std::vector<std::uint8_t>{0x53, 0x41, 0x54, 0x41, 0x5C,
                                                 0x5B, 0xC3}));
}

TEST(Assembler, MovImmediateForms) {
  CodeBuffer b(256);
  Assembler as(b);
  as.mov_ri(Gpr::r10, 7);  // imm32 form: 49 C7 C2 07 00 00 00
  EXPECT_EQ(bytes(b), (std::vector<std::uint8_t>{0x49, 0xC7, 0xC2, 7, 0, 0, 0}));
}

TEST(Assembler, AluImm8VsImm32) {
  CodeBuffer b(256);
  Assembler as(b);
  as.add_ri(Gpr::rdi, 0x1000);  // 48 81 C7 00 10 00 00
  as.sub_ri(Gpr::r10, 1);       // 49 83 EA 01
  as.cmp_ri(Gpr::r10, 0);       // 49 83 FA 00
  EXPECT_EQ(bytes(b),
            (std::vector<std::uint8_t>{0x48, 0x81, 0xC7, 0x00, 0x10, 0, 0,
                                       0x49, 0x83, 0xEA, 0x01, 0x49, 0x83,
                                       0xFA, 0x00}));
}

TEST(Assembler, EvexVmovupsLoadStore) {
  CodeBuffer b(256);
  Assembler as(b);
  // vmovups 0x80(%rsi), %zmm29 -> 62 61 7c 48 10 6e 02  (disp8*64)
  as.vmovups_load(VecWidth::zmm512, Vec{29}, {Gpr::rsi, 128});
  // vmovups %zmm2, 0x40(%rdi)  -> 62 f1 7c 48 11 57 01
  as.vmovups_store(VecWidth::zmm512, {Gpr::rdi, 64}, Vec{2});
  EXPECT_EQ(bytes(b),
            (std::vector<std::uint8_t>{0x62, 0x61, 0x7C, 0x48, 0x10, 0x6E,
                                       0x02, 0x62, 0xF1, 0x7C, 0x48, 0x11,
                                       0x57, 0x01}));
}

TEST(Assembler, EvexEmbeddedBroadcastFma) {
  CodeBuffer b(256);
  Assembler as(b);
  // vfmadd231ps 0x4(%rdi){1to16}, %zmm29, %zmm5 -> 62 f2 15 50 b8 6f 01
  as.vfmadd231ps_bcast(VecWidth::zmm512, Vec{5}, Vec{29}, {Gpr::rdi, 4});
  EXPECT_EQ(bytes(b), (std::vector<std::uint8_t>{0x62, 0xF2, 0x15, 0x50, 0xB8,
                                                 0x6F, 0x01}));
}

TEST(Assembler, EvexBroadcastssKeepsBbitClear) {
  CodeBuffer b(256);
  Assembler as(b);
  // vbroadcastss (%rdi), %zmm1 -> 62 f2 7d 48 18 0f (b-bit must be 0).
  as.vbroadcastss(VecWidth::zmm512, Vec{1}, {Gpr::rdi, 0});
  EXPECT_EQ(bytes(b),
            (std::vector<std::uint8_t>{0x62, 0xF2, 0x7D, 0x48, 0x18, 0x0F}));
}

TEST(Assembler, EvexHighRegistersRegReg) {
  CodeBuffer b(256);
  Assembler as(b);
  // vfmadd231ps %zmm30, %zmm29, %zmm5 -> 62 92 15 40 b8 ee
  as.vfmadd231ps(VecWidth::zmm512, Vec{5}, Vec{29}, Vec{30});
  // vpxord %zmm28, %zmm28, %zmm28 -> 62 01 1d 40 ef e4
  as.vxorps(VecWidth::zmm512, Vec{28}, Vec{28}, Vec{28});
  // vmaxps %zmm28, %zmm0, %zmm0 -> 62 91 7c 48 5f c4
  as.vmaxps(VecWidth::zmm512, Vec{0}, Vec{0}, Vec{28});
  EXPECT_EQ(bytes(b),
            (std::vector<std::uint8_t>{0x62, 0x92, 0x15, 0x40, 0xB8, 0xEE,
                                       0x62, 0x01, 0x1D, 0x40, 0xEF, 0xE4,
                                       0x62, 0x91, 0x7C, 0x48, 0x5F, 0xC4}));
}

TEST(Assembler, PrefetchEncodings) {
  CodeBuffer b(256);
  Assembler as(b);
  as.prefetcht1({Gpr::r8, 256});  // 41 0f 18 90 00 01 00 00
  as.prefetcht0({Gpr::rcx, 0});   // 0f 18 09
  EXPECT_EQ(bytes(b),
            (std::vector<std::uint8_t>{0x41, 0x0F, 0x18, 0x90, 0x00, 0x01, 0,
                                       0, 0x0F, 0x18, 0x09}));
}

TEST(Assembler, Disp8CompressionBoundaries) {
  // disp = 127*64 compresses to disp8 under N=64; disp = 128*64 cannot.
  CodeBuffer b(256);
  Assembler as(b);
  as.vmovups_load(VecWidth::zmm512, Vec{0}, {Gpr::rax, 127 * 64});
  const std::size_t first = b.size();
  as.vmovups_load(VecWidth::zmm512, Vec{0}, {Gpr::rax, 128 * 64});
  EXPECT_EQ(first, 7u);               // disp8 form
  EXPECT_EQ(b.size() - first, 10u);   // disp32 form
  // Unaligned disp (not a multiple of 64) must take disp32 even when small.
  CodeBuffer b2(256);
  Assembler as2(b2);
  as2.vmovups_load(VecWidth::zmm512, Vec{0}, {Gpr::rax, 4});
  EXPECT_EQ(b2.size(), 10u);
}

TEST(Assembler, SibAndRbpSpecialBases) {
  // rsp/r12 need a SIB byte; rbp/r13 need an explicit displacement.
  CodeBuffer b(256);
  Assembler as(b);
  as.vmovups_load(VecWidth::zmm512, Vec{0}, {Gpr::rsp, 0});  // SIB, no disp
  const std::size_t sib_len = b.size();
  as.vmovups_load(VecWidth::zmm512, Vec{0}, {Gpr::rbp, 0});  // disp8 = 0
  const std::size_t rbp_len = b.size() - sib_len;
  as.vmovups_load(VecWidth::zmm512, Vec{0}, {Gpr::r13, 0});  // disp8 = 0
  EXPECT_EQ(sib_len, 7u);
  EXPECT_EQ(rbp_len, 7u);
}

TEST(Assembler, VexYmmForms) {
  CodeBuffer b(256);
  Assembler as(b);
  as.vmovups_load(VecWidth::ymm256, Vec{1}, {Gpr::rdi, 32});
  as.vbroadcastss(VecWidth::ymm256, Vec{12}, {Gpr::rsi, 4});
  as.vfmadd231ps(VecWidth::ymm256, Vec{0}, Vec{13}, Vec{12});
  as.vxorps(VecWidth::ymm256, Vec{15}, Vec{15}, Vec{15});
  as.ret();
  b.finalize();
  EXPECT_GT(b.size(), 0u);  // executes below on any AVX2 machine via kernels
}

TEST(Assembler, ShuffleEncodings) {
  // Reference bytes from GNU as (vshufps VEX in the 3-byte form the
  // assembler always emits).
  CodeBuffer b(256);
  Assembler as(b);
  as.vshufps(VecWidth::ymm256, Vec{1}, Vec{2}, Vec{3}, 0x44);
  as.vshufps(VecWidth::zmm512, Vec{17}, Vec{2}, Vec{25}, 0xEE);
  as.vshuff32x4(Vec{1}, Vec{2}, Vec{3}, 0x88);
  as.vperm2f128(Vec{1}, Vec{2}, Vec{11}, 0x31);
  const std::vector<std::uint8_t> want = {
      0xC4, 0xE1, 0x6C, 0xC6, 0xCB, 0x44,        // vshufps ymm1,ymm2,ymm3
      0x62, 0x81, 0x6C, 0x48, 0xC6, 0xC9, 0xEE,  // vshufps zmm17,zmm2,zmm25
      0x62, 0xF3, 0x6D, 0x48, 0x23, 0xCB, 0x88,  // vshuff32x4 zmm1,zmm2,zmm3
      0xC4, 0xC3, 0x6D, 0x06, 0xCB, 0x31};       // vperm2f128 ymm1,ymm2,ymm11
  ASSERT_EQ(b.size(), want.size());
  EXPECT_EQ(std::memcmp(b.data(), want.data(), want.size()), 0);
}

TEST(Assembler, VexRejectsHighRegisters) {
  CodeBuffer b(256);
  Assembler as(b);
  EXPECT_THROW(as.vmovups_load(VecWidth::ymm256, Vec{16}, {Gpr::rdi, 0}),
               std::logic_error);
  EXPECT_THROW(as.vfmadd231ps(VecWidth::ymm256, Vec{0}, Vec{17}, Vec{1}),
               std::logic_error);
  EXPECT_THROW(as.vfmadd231ps_bcast(VecWidth::ymm256, Vec{0}, Vec{1},
                                    {Gpr::rdi, 0}),
               std::logic_error);
}

TEST(Assembler, BackwardJumpOnly) {
  CodeBuffer b(256);
  Assembler as(b);
  const std::size_t top = as.here();
  as.sub_ri(Gpr::r10, 1);
  as.jcc_back(Cond::g, top);
  EXPECT_THROW(as.jcc_back(Cond::ne, b.size() + 100), std::logic_error);
}

TEST(Assembler, LoopExecutes) {
  // Functional check of mov/add/sub/cmp/jg: sum 1..100 via a loop.
  CodeBuffer b(4096);
  Assembler as(b);
  as.mov_ri(Gpr::rax, 0);
  as.mov_ri(Gpr::r10, 100);
  const std::size_t top = as.here();
  as.add_rr(Gpr::rax, Gpr::r10);
  as.sub_ri(Gpr::r10, 1);
  as.cmp_ri(Gpr::r10, 0);
  as.jcc_back(Cond::g, top);
  as.ret();
  b.finalize();
  EXPECT_EQ(b.entry<long (*)()>()(), 5050);
}
