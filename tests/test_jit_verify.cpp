// Static JIT verifier (src/jit/verify): decoder round-trips over the full
// Assembler instruction surface, negative fixtures — hand-assembled broken
// kernels that must be rejected with the expected diagnostic — and the
// CodeBuffer hardening (page-size rounding, finalized pages not writable).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "jit/assembler.hpp"
#include "jit/code_buffer.hpp"
#include "jit/conv_kernel_gen.hpp"
#include "jit/verify/decoder.hpp"
#include "jit/verify/verifier.hpp"
#include "platform/cpu.hpp"

using namespace xconv;
using namespace xconv::jit;
namespace jv = xconv::jit::verify;

namespace {

jv::DecodeResult decode_buf(const CodeBuffer& b) {
  return jv::decode(b.data(), b.size());
}

/// Runs the verifier on a fixture and returns the diagnostic ("" = accepted).
std::string verify_message(const jv::Contract& c, const CodeBuffer& b) {
  try {
    jv::verify(c, b.data(), b.size(), "fixture");
  } catch (const jv::VerifyError& e) {
    return e.what();
  }
  return {};
}

/// A permissive contract for structural fixtures: one writable 64-byte
/// output region behind rdx, read-only 256-byte regions behind rdi/rsi, and
/// the generated-kernel `vzeroupper; ret` exit rule.
jv::Contract fixture_contract(platform::Isa isa = platform::Isa::avx512) {
  jv::Contract c;
  c.isa = isa;
  c.clean_upper_exit = true;
  c.regions = {{"in", 7 /*rdi*/, 256, 0, false},
               {"wt", 6 /*rsi*/, 256, 0, false},
               {"out", 2 /*rdx*/, 64, 0, true}};
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// Decoder: every public Assembler instruction round-trips.
// ---------------------------------------------------------------------------

namespace {
struct OpCase {
  jv::Op op;  ///< expected op of the LAST decoded instruction
  std::function<void(Assembler&)> emit;
};

const VecWidth kY = VecWidth::ymm256;
const VecWidth kZ = VecWidth::zmm512;

std::vector<OpCase> op_cases() {
  using jv::Op;
  const Mem m{Gpr::rdi, 0x40};
  return {
      {Op::ret, [](Assembler& a) { a.ret(); }},
      {Op::vzeroupper, [](Assembler& a) { a.vzeroupper(); }},
      {Op::push, [](Assembler& a) { a.push(Gpr::rbx); }},
      {Op::push, [](Assembler& a) { a.push(Gpr::r12); }},
      {Op::pop, [](Assembler& a) { a.pop(Gpr::rbx); }},
      {Op::pop, [](Assembler& a) { a.pop(Gpr::r15); }},
      {Op::mov_ri, [](Assembler& a) { a.mov_ri(Gpr::r10, 7); }},
      {Op::mov_ri,
       [](Assembler& a) { a.mov_ri(Gpr::rax, 0x123456789ALL); }},
      {Op::mov_rr, [](Assembler& a) { a.mov_rr(Gpr::rax, Gpr::r9); }},
      {Op::add_ri, [](Assembler& a) { a.add_ri(Gpr::rdi, 64); }},
      {Op::add_ri, [](Assembler& a) { a.add_ri(Gpr::rdi, 0x12345); }},
      {Op::sub_ri, [](Assembler& a) { a.sub_ri(Gpr::r10, 1); }},
      {Op::cmp_ri, [](Assembler& a) { a.cmp_ri(Gpr::r10, 0); }},
      {Op::add_rr, [](Assembler& a) { a.add_rr(Gpr::rsi, Gpr::r9); }},
      {Op::jcc_back, [](Assembler& a) { a.jcc_back(Cond::g, 0); }},
      {Op::vmovups_load,
       [=](Assembler& a) { a.vmovups_load(kY, Vec{3}, m); }},
      {Op::vmovups_load,
       [=](Assembler& a) { a.vmovups_load(kZ, Vec{25}, m); }},
      {Op::vmovups_store,
       [=](Assembler& a) { a.vmovups_store(kY, m, Vec{3}); }},
      {Op::vmovups_store,
       [=](Assembler& a) { a.vmovups_store(kZ, m, Vec{25}); }},
      {Op::vbroadcastss,
       [=](Assembler& a) { a.vbroadcastss(kY, Vec{12}, m); }},
      {Op::vbroadcastss,
       [=](Assembler& a) { a.vbroadcastss(kZ, Vec{30}, m); }},
      {Op::vfmadd231ps,
       [](Assembler& a) { a.vfmadd231ps(kY, Vec{0}, Vec{1}, Vec{2}); }},
      {Op::vfmadd231ps,
       [](Assembler& a) { a.vfmadd231ps(kZ, Vec{0}, Vec{21}, Vec{31}); }},
      {Op::vfmadd231ps_bcast,
       [=](Assembler& a) { a.vfmadd231ps_bcast(kZ, Vec{2}, Vec{28}, m); }},
      {Op::vxorps,
       [](Assembler& a) { a.vxorps(kY, Vec{0}, Vec{0}, Vec{0}); }},
      {Op::vxorps,
       [](Assembler& a) { a.vxorps(kZ, Vec{17}, Vec{17}, Vec{17}); }},
      {Op::vmaxps,
       [](Assembler& a) { a.vmaxps(kZ, Vec{1}, Vec{2}, Vec{3}); }},
      {Op::vminps,
       [](Assembler& a) { a.vminps(kZ, Vec{1}, Vec{2}, Vec{3}); }},
      {Op::vaddps,
       [](Assembler& a) { a.vaddps(kY, Vec{1}, Vec{2}, Vec{3}); }},
      {Op::vaddps_mem,
       [=](Assembler& a) { a.vaddps_mem(kZ, Vec{1}, Vec{2}, m); }},
      {Op::vsubps,
       [](Assembler& a) { a.vsubps(kZ, Vec{1}, Vec{2}, Vec{3}); }},
      {Op::vmulps,
       [](Assembler& a) { a.vmulps(kZ, Vec{1}, Vec{2}, Vec{3}); }},
      {Op::vdivps,
       [](Assembler& a) { a.vdivps(kZ, Vec{1}, Vec{2}, Vec{3}); }},
      {Op::vshufps,
       [](Assembler& a) { a.vshufps(kY, Vec{1}, Vec{2}, Vec{11}, 0x88); }},
      {Op::vshufps,
       [](Assembler& a) { a.vshufps(kZ, Vec{17}, Vec{2}, Vec{25}, 0xDD); }},
      {Op::vshuff32x4,
       [](Assembler& a) { a.vshuff32x4(Vec{1}, Vec{20}, Vec{3}, 0x88); }},
      {Op::vperm2f128,
       [](Assembler& a) { a.vperm2f128(Vec{1}, Vec{2}, Vec{11}, 0x31); }},
      {Op::vcvtps2dq, [](Assembler& a) { a.vcvtps2dq(Vec{4}, Vec{5}); }},
      {Op::vpaddd, [](Assembler& a) { a.vpaddd(Vec{4}, Vec{5}, Vec{6}); }},
      {Op::vpaddd_bcast,
       [=](Assembler& a) { a.vpaddd_bcast(Vec{4}, Vec{5}, m); }},
      {Op::vpandd_bcast,
       [=](Assembler& a) { a.vpandd_bcast(Vec{4}, Vec{5}, m); }},
      {Op::vpord_bcast,
       [=](Assembler& a) { a.vpord_bcast(Vec{4}, Vec{5}, m); }},
      {Op::vpminud_bcast,
       [=](Assembler& a) { a.vpminud_bcast(Vec{4}, Vec{5}, m); }},
      {Op::vpsrld_i, [](Assembler& a) { a.vpsrld_i(Vec{4}, Vec{5}, 16); }},
      {Op::vpslld_i, [](Assembler& a) { a.vpslld_i(Vec{4}, Vec{5}, 2); }},
      {Op::vpmovdw_store,
       [=](Assembler& a) { a.vpmovdw_store(m, Vec{4}); }},
      {Op::vpmovsxwd_load,
       [=](Assembler& a) { a.vpmovsxwd_load(Vec{4}, m); }},
      {Op::vpmovzxwd_load,
       [=](Assembler& a) { a.vpmovzxwd_load(Vec{4}, m); }},
      {Op::vpcmpud, [](Assembler& a) { a.vpcmpud(1, Vec{4}, Vec{5}, 6); }},
      {Op::vpcmpud_bcast,
       [=](Assembler& a) { a.vpcmpud_bcast(2, Vec{4}, m, 6); }},
      {Op::vmovdqa32_merge,
       [](Assembler& a) { a.vmovdqa32_merge(Vec{4}, 1, Vec{5}); }},
      {Op::vpcompressd_store,
       [=](Assembler& a) { a.vpcompressd_store(m, 1, Vec{4}); }},
      {Op::kmovw_rk, [](Assembler& a) { a.kmovw_rk(Gpr::r9, 1); }},
      {Op::popcnt64,
       [](Assembler& a) { a.popcnt64(Gpr::rax, Gpr::rcx); }},
      {Op::shl_ri, [](Assembler& a) { a.shl_ri(Gpr::r9, 2); }},
      {Op::vpdpwssd_mem,
       [=](Assembler& a) { a.vpdpwssd_mem(Vec{4}, Vec{5}, m); }},
      {Op::vpdpwssd,
       [](Assembler& a) { a.vpdpwssd(Vec{4}, Vec{5}, Vec{6}); }},
      {Op::vpdpwssd_bcast,
       [=](Assembler& a) { a.vpdpwssd_bcast(Vec{4}, Vec{5}, m); }},
      {Op::vcvtdq2ps, [](Assembler& a) { a.vcvtdq2ps(Vec{4}, Vec{5}); }},
      {Op::prefetcht0, [=](Assembler& a) { a.prefetcht0(m); }},
      {Op::prefetcht0,
       [](Assembler& a) { a.prefetcht0(Mem{Gpr::r8, 0x1000}); }},
      {Op::prefetcht1, [=](Assembler& a) { a.prefetcht1(m); }},
  };
}
}  // namespace

TEST(JitDecoder, RoundTripsEveryAssemblerOp) {
  std::set<jv::Op> seen;
  for (const OpCase& oc : op_cases()) {
    CodeBuffer b(4096);
    Assembler a(b);
    oc.emit(a);
    const jv::DecodeResult r = decode_buf(b);
    ASSERT_TRUE(r.ok()) << "decode failed for " << jv::op_name(oc.op) << ": "
                        << r.error << " at offset " << r.error_offset;
    ASSERT_FALSE(r.insns.empty());
    EXPECT_EQ(r.insns.back().op, oc.op)
        << "decoded as " << jv::op_name(r.insns.back().op) << ", expected "
        << jv::op_name(oc.op);
    std::size_t total = 0;
    for (const jv::Insn& in : r.insns) {
      EXPECT_EQ(in.offset, total);
      total += in.len;
    }
    EXPECT_EQ(total, b.size()) << "decoder did not consume every byte for "
                               << jv::op_name(oc.op);
    for (const jv::Insn& in : r.insns) seen.insert(in.op);
  }
  // The case table must exercise the full closed instruction set — one case
  // per Op enumerator (52 as of this writing; the decoder-coverage lint rule
  // keeps the enum itself in sync with assembler.hpp).
  EXPECT_EQ(seen.size(),
            static_cast<std::size_t>(jv::Op::prefetcht1) + 1);
}

TEST(JitDecoder, DecodesOperandFields) {
  CodeBuffer b(4096);
  Assembler a(b);
  a.vfmadd231ps_bcast(VecWidth::zmm512, Vec{2}, Vec{28}, Mem{Gpr::rdi, 0x40});
  const jv::DecodeResult r = decode_buf(b);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.insns.size(), 1u);
  const jv::Insn& in = r.insns[0];
  EXPECT_EQ(in.vreg, 2);
  EXPECT_EQ(in.vvvv, 28);
  EXPECT_TRUE(in.evex);
  EXPECT_TRUE(in.bcast);
  ASSERT_TRUE(in.has_mem);
  EXPECT_EQ(in.mem_base, 7);  // rdi
  EXPECT_EQ(in.mem_disp, 0x40);
  EXPECT_EQ(in.mem_size, 4u);  // broadcast reads one dword
  EXPECT_FALSE(in.mem_write);
  EXPECT_EQ(in.min_isa, platform::Isa::avx512);
}

TEST(JitDecoder, DecodesDispVariantsAndSibBase) {
  // disp8*64 compressed, disp32 uncompressed, disp0, and an r12 (SIB) base.
  CodeBuffer b(4096);
  Assembler a(b);
  a.vmovups_load(VecWidth::zmm512, Vec{0}, Mem{Gpr::rdi, 128});   // disp8*N
  a.vmovups_load(VecWidth::zmm512, Vec{0}, Mem{Gpr::rdi, 100});   // disp32
  a.vmovups_load(VecWidth::zmm512, Vec{0}, Mem{Gpr::rdi, 0});     // disp0
  a.vmovups_load(VecWidth::zmm512, Vec{0}, Mem{Gpr::r12, 64});    // SIB
  const jv::DecodeResult r = decode_buf(b);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.insns.size(), 4u);
  EXPECT_EQ(r.insns[0].mem_disp, 128);
  EXPECT_EQ(r.insns[1].mem_disp, 100);
  EXPECT_EQ(r.insns[2].mem_disp, 0);
  EXPECT_EQ(r.insns[3].mem_base, 12);
  EXPECT_EQ(r.insns[3].mem_disp, 64);
  for (const jv::Insn& in : r.insns) EXPECT_EQ(in.mem_size, 64u);
}

TEST(JitDecoder, DecodesJccTarget) {
  CodeBuffer b(4096);
  Assembler a(b);
  a.mov_ri(Gpr::r10, 3);
  const std::size_t top = a.here();
  a.sub_ri(Gpr::r10, 1);
  a.cmp_ri(Gpr::r10, 0);
  a.jcc_back(Cond::g, top);
  a.ret();
  const jv::DecodeResult r = decode_buf(b);
  ASSERT_TRUE(r.ok()) << r.error;
  const jv::Insn& j = r.insns[r.insns.size() - 2];
  ASSERT_EQ(j.op, jv::Op::jcc_back);
  EXPECT_EQ(j.target, top);
  EXPECT_EQ(j.cond, 0xF);  // g
}

TEST(JitDecoder, RejectsBytesTheAssemblerCannotEmit) {
  // 0x90 (nop) is real x86 but outside the emitter subset — corrupt by
  // definition.
  CodeBuffer b(64);
  b.emit8(0x90);
  jv::DecodeResult r = jv::decode(b.data(), b.size());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error_offset, 0u);

  CodeBuffer b2(64);
  b2.emit8(0xC3);  // ret
  b2.emit8(0xCC);  // int3: never emitted
  r = jv::decode(b2.data(), b2.size());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error_offset, 1u);
  EXPECT_EQ(r.insns.size(), 1u);  // the ret before the bad byte decoded
}

TEST(JitDecoder, DecodesVzeroupperAndNoOtherVex2Encoding) {
  CodeBuffer b(64);
  Assembler a(b);
  a.vzeroupper();
  a.ret();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b.data()[0], 0xC5);
  EXPECT_EQ(b.data()[1], 0xF8);
  EXPECT_EQ(b.data()[2], 0x77);
  const jv::DecodeResult r = decode_buf(b);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.insns.size(), 2u);
  EXPECT_EQ(r.insns[0].op, jv::Op::vzeroupper);
  EXPECT_EQ(r.insns[0].len, 3u);
  EXPECT_EQ(r.insns[0].min_isa, platform::Isa::avx2);
  EXPECT_FALSE(r.insns[0].vex256);
  EXPECT_EQ(jv::format_insn(r.insns[0]), "0x0000: vzeroupper");

  // vzeroall (VEX.L=1) and any other VEX2 opcode are outside the subset.
  for (const std::uint8_t p1 : {std::uint8_t{0xFC}, std::uint8_t{0xF8}}) {
    CodeBuffer bad(64);
    bad.emit8(0xC5);
    bad.emit8(p1);
    bad.emit8(p1 == 0xF8 ? 0x58 : 0x77);
    EXPECT_FALSE(jv::decode(bad.data(), bad.size()).ok());
  }
}

TEST(JitDecoder, DisassemblesWithHexTailForUndecodableBytes) {
  CodeBuffer b(64);
  Assembler a(b);
  a.mov_ri(Gpr::r10, 7);
  a.ret();
  b.emit8(0xCC);
  const std::string dis = jv::disassemble(b.data(), b.size());
  EXPECT_NE(dis.find("mov_ri"), std::string::npos) << dis;
  EXPECT_NE(dis.find("ret"), std::string::npos) << dis;
  EXPECT_NE(dis.find("cc"), std::string::npos) << dis;  // hex tail
}

// ---------------------------------------------------------------------------
// Negative fixtures: hand-assembled broken kernels the verifier must reject.
// ---------------------------------------------------------------------------

TEST(JitVerifyFixture, RejectsClobberedCalleeSavedRegister) {
  CodeBuffer b(256);
  Assembler a(b);
  a.mov_ri(Gpr::rbx, 0);  // clobbers callee-saved rbx without save/restore
  a.ret();
  const std::string msg = verify_message(fixture_contract(), b);
  EXPECT_NE(msg.find("callee-saved register 3"), std::string::npos) << msg;
}

TEST(JitVerifyFixture, AcceptsSavedAndRestoredCalleeSaved) {
  CodeBuffer b(256);
  Assembler a(b);
  a.push(Gpr::rbx);
  a.mov_ri(Gpr::rbx, 0);
  a.pop(Gpr::rbx);
  a.ret();
  EXPECT_EQ(verify_message(fixture_contract(), b), "");
}

TEST(JitVerifyFixture, RejectsOutOfBoundsStore) {
  CodeBuffer b(256);
  Assembler a(b);
  // Contract grants rdx 64 bytes; this stores [64, 128).
  a.vmovups_store(VecWidth::zmm512, Mem{Gpr::rdx, 64}, Vec{0});
  a.vzeroupper();
  a.ret();
  const std::string msg = verify_message(fixture_contract(), b);
  EXPECT_NE(msg.find("out-of-bounds store"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'out'"), std::string::npos) << msg;
}

TEST(JitVerifyFixture, RejectsStoreIntoReadOnlyRegion) {
  CodeBuffer b(256);
  Assembler a(b);
  a.vmovups_store(VecWidth::zmm512, Mem{Gpr::rdi, 0}, Vec{0});
  a.vzeroupper();
  a.ret();
  const std::string msg = verify_message(fixture_contract(), b);
  EXPECT_NE(msg.find("read-only region 'in'"), std::string::npos) << msg;
}

TEST(JitVerifyFixture, RejectsAccessOutsideDeclaredRegions) {
  CodeBuffer b(256);
  Assembler a(b);
  a.vmovups_load(VecWidth::zmm512, Vec{0}, Mem{Gpr::rcx, 0});  // no rcx region
  a.vzeroupper();
  a.ret();
  const std::string msg = verify_message(fixture_contract(), b);
  EXPECT_NE(msg.find("outside every declared"), std::string::npos) << msg;
}

TEST(JitVerifyFixture, RejectsEvexInstructionUnderAvx2Contract) {
  CodeBuffer b(256);
  Assembler a(b);
  a.vxorps(VecWidth::zmm512, Vec{0}, Vec{0}, Vec{0});  // EVEX encoding
  a.vzeroupper();
  a.ret();
  const std::string msg =
      verify_message(fixture_contract(platform::Isa::avx2), b);
  EXPECT_NE(msg.find("instruction requires"), std::string::npos) << msg;
  // Same kernel under an AVX-512 contract is fine.
  EXPECT_EQ(verify_message(fixture_contract(platform::Isa::avx512), b), "");
}

TEST(JitVerifyFixture, RejectsVnniInstructionUnderAvx512Contract) {
  CodeBuffer b(256);
  Assembler a(b);
  a.vpdpwssd(Vec{0}, Vec{1}, Vec{2});
  a.vzeroupper();
  a.ret();
  const std::string msg =
      verify_message(fixture_contract(platform::Isa::avx512), b);
  EXPECT_NE(msg.find("instruction requires"), std::string::npos) << msg;
}

TEST(JitVerifyFixture, RejectsVectorKernelThatReturnsWithoutVzeroupper) {
  // Writes a ymm, then returns with the upper state dirty.
  CodeBuffer b(256);
  {
    Assembler a(b);
    a.vxorps(VecWidth::ymm256, Vec{0}, Vec{0}, Vec{0});
    a.ret();
  }
  const std::string msg =
      verify_message(fixture_contract(platform::Isa::avx2), b);
  EXPECT_NE(msg.find("does not execute vzeroupper before ret"),
            std::string::npos)
      << msg;
  // Only contracts that opt in enforce the rule (every contract_for() does;
  // a hand-built measurement probe's contract may not).
  jv::Contract probe = fixture_contract(platform::Isa::avx2);
  probe.clean_upper_exit = false;
  EXPECT_EQ(verify_message(probe, b), "");

  // The EVEX form needs it too, and it must be the instruction right before
  // ret, not merely somewhere in the kernel.
  CodeBuffer early(256);
  {
    Assembler a(early);
    a.vzeroupper();
    a.vmovups_load(VecWidth::zmm512, Vec{1}, Mem{Gpr::rdi, 0});
    a.ret();
  }
  EXPECT_NE(verify_message(fixture_contract(), early)
                .find("does not execute vzeroupper before ret"),
            std::string::npos);

  // GPR-only kernels never touch the upper state and need no vzeroupper.
  CodeBuffer gpr(256);
  {
    Assembler a(gpr);
    a.mov_ri(Gpr::r10, 1);
    a.ret();
  }
  EXPECT_EQ(verify_message(fixture_contract(), gpr), "");

  CodeBuffer good(256);
  {
    Assembler a(good);
    a.vxorps(VecWidth::ymm256, Vec{0}, Vec{0}, Vec{0});
    a.vzeroupper();
    a.ret();
  }
  EXPECT_EQ(verify_message(fixture_contract(platform::Isa::avx2), good), "");
}

TEST(JitVerifyFixture, RejectsMissingRet) {
  CodeBuffer b(256);
  Assembler a(b);
  a.vxorps(VecWidth::ymm256, Vec{0}, Vec{0}, Vec{0});
  const std::string msg = verify_message(fixture_contract(), b);
  EXPECT_NE(msg.find("kernel has no ret"), std::string::npos) << msg;
}

TEST(JitVerifyFixture, RejectsRetThatIsNotLast) {
  CodeBuffer b(256);
  Assembler a(b);
  a.ret();
  a.ret();
  const std::string msg = verify_message(fixture_contract(), b);
  EXPECT_NE(msg.find("unique final instruction"), std::string::npos) << msg;
}

TEST(JitVerifyFixture, RejectsJumpIntoMiddleOfInstruction) {
  CodeBuffer b(256);
  Assembler a(b);
  a.mov_ri(Gpr::r10, 2);  // 7 bytes: offset 3 is mid-instruction
  a.sub_ri(Gpr::r10, 1);
  a.cmp_ri(Gpr::r10, 0);
  a.jcc_back(Cond::g, 3);
  a.ret();
  const std::string msg = verify_message(fixture_contract(), b);
  EXPECT_NE(msg.find("middle of an instruction"), std::string::npos) << msg;
}

TEST(JitVerifyFixture, RejectsPushPopImbalance) {
  CodeBuffer b(256);
  Assembler a(b);
  a.push(Gpr::rbx);
  a.ret();
  const std::string msg = verify_message(fixture_contract(), b);
  EXPECT_NE(msg.find("non-empty stack"), std::string::npos) << msg;
}

TEST(JitVerifyFixture, RejectsRuntimeLoopOverAdvancingItsRegion) {
  // Reduce-shaped contract: rdi may advance at most 64 bytes per iteration.
  jv::Contract c;
  c.isa = platform::Isa::avx512;
  c.iters_gpr = 2;  // rdx
  c.regions = {{"src", 7 /*rdi*/, 0, 64, false}};

  CodeBuffer ok(256);
  {
    Assembler a(ok);
    const std::size_t top = a.here();
    a.vmovups_load(VecWidth::zmm512, Vec{0}, Mem{Gpr::rdi, 0});
    a.add_ri(Gpr::rdi, 64);
    a.sub_ri(Gpr::rdx, 1);
    a.cmp_ri(Gpr::rdx, 0);
    a.jcc_back(Cond::g, top);
    a.vzeroupper();
    a.ret();
    EXPECT_EQ(verify_message(c, ok), "");
  }

  CodeBuffer bad(256);
  {
    Assembler a(bad);
    const std::size_t top = a.here();
    a.vmovups_load(VecWidth::zmm512, Vec{0}, Mem{Gpr::rdi, 0});
    a.add_ri(Gpr::rdi, 128);  // outruns the caller's iters * 64 buffer
    a.sub_ri(Gpr::rdx, 1);
    a.cmp_ri(Gpr::rdx, 0);
    a.jcc_back(Cond::g, top);
    a.vzeroupper();
    a.ret();
    const std::string msg = verify_message(c, bad);
    EXPECT_NE(msg.find("advances by"), std::string::npos) << msg;
  }
}

TEST(JitVerifyFixture, DiagnosticCarriesContextWindow) {
  CodeBuffer b(256);
  Assembler a(b);
  a.mov_ri(Gpr::r10, 1);
  a.mov_ri(Gpr::rbx, 0);
  a.ret();
  const std::string msg = verify_message(fixture_contract(), b);
  EXPECT_NE(msg.find("jit-verify: fixture"), std::string::npos) << msg;
  EXPECT_NE(msg.find("context:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("XCONV_JIT_DUMP"), std::string::npos) << msg;
}

TEST(JitVerify, EveryContractForRequiresTheCleanExit) {
  ConvKernelDesc conv;
  UpdKernelDesc upd;
  ReduceKernelDesc reduce;
  CodecKernelDesc codec;
  quant::QKernelDesc qconv;
  EXPECT_TRUE(jv::contract_for(conv).clean_upper_exit);
  EXPECT_TRUE(jv::contract_for(upd).clean_upper_exit);
  EXPECT_TRUE(jv::contract_for(reduce).clean_upper_exit);
  EXPECT_TRUE(jv::contract_for(codec).clean_upper_exit);
  EXPECT_TRUE(jv::contract_for(qconv).clean_upper_exit);
}

TEST(JitVerify, AcceptsAGeneratedConvKernel) {
  ConvKernelDesc d;
  d.isa = platform::Isa::avx512;
  d.vlen = 16;
  d.rbp = 2;
  d.rbq = 4;
  d.r = d.s = 3;
  d.in_row_stride = (4 + 3 + 8) * 16;
  d.out_row_stride = 8 * 16;
  d.c_iters = 16;
  auto k = generate_conv_kernel(d);
  EXPECT_NO_THROW(
      jv::verify(jv::contract_for(d), k->code(), k->code_size(), d.key()));
}

// ---------------------------------------------------------------------------
// CodeBuffer hardening.
// ---------------------------------------------------------------------------

namespace {
/// Permission string ("rwxp") of the /proc/self/maps entry covering `p`.
std::string mapping_perms(const void* p) {
  const std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(p);
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    std::istringstream ls(line);
    std::string range, perms;
    ls >> range >> perms;
    const std::size_t dash = range.find('-');
    if (dash == std::string::npos) continue;
    const std::uintptr_t lo = std::stoull(range.substr(0, dash), nullptr, 16);
    const std::uintptr_t hi = std::stoull(range.substr(dash + 1), nullptr, 16);
    if (addr >= lo && addr < hi) return perms;
  }
  return {};
}
}  // namespace

TEST(CodeBuffer, CapacityRoundsUpToThePageSize) {
  const long page = ::sysconf(_SC_PAGESIZE);
  ASSERT_GT(page, 0);
  CodeBuffer b(1);
  EXPECT_GE(b.capacity(), 1u);
  EXPECT_EQ(b.capacity() % static_cast<std::size_t>(page), 0u);
}

TEST(CodeBuffer, FinalizedBufferIsNoLongerWritable) {
  CodeBuffer b(64);
  Assembler a(b);
  a.ret();
  std::string perms = mapping_perms(b.data());
  ASSERT_EQ(perms.size(), 4u) << "mapping not found in /proc/self/maps";
  EXPECT_EQ(perms[1], 'w') << "fresh buffer should be writable";
  b.finalize();
  perms = mapping_perms(b.data());
  ASSERT_EQ(perms.size(), 4u);
  EXPECT_EQ(perms[0], 'r');
  EXPECT_EQ(perms[1], '-') << "finalized buffer must not stay writable";
  EXPECT_EQ(perms[2], 'x');
  // And the API agrees: further emission is refused.
  EXPECT_THROW(b.emit8(0xC3), std::logic_error);
}
