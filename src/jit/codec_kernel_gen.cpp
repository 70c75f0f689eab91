#include "jit/codec_kernel_gen.hpp"

#include <sstream>
#include <stdexcept>

#include "jit/assembler.hpp"

namespace xconv::jit {

namespace {
// codec_fn argument registers (System V).
constexpr Gpr kA = Gpr::rdi;
constexpr Gpr kB = Gpr::rsi;
constexpr Gpr kC = Gpr::rdx;
constexpr Gpr kIters = Gpr::rcx;
constexpr Gpr kParams = Gpr::r8;
constexpr Gpr kCount = Gpr::rax;
constexpr Gpr kTmp = Gpr::r9;

constexpr VecWidth kZ = VecWidth::zmm512;
}  // namespace

const char* codec_op_name(CodecOp op) {
  switch (op) {
    case CodecOp::fold_add: return "fold_add";
    case CodecOp::fold_amax: return "fold_amax";
    case CodecOp::int16_quant: return "int16_quant";
    case CodecOp::int16_dequant: return "int16_dequant";
    case CodecOp::int16_dequant_acc: return "int16_dequant_acc";
    case CodecOp::bf16_pack: return "bf16_pack";
    case CodecOp::bf16_unpack: return "bf16_unpack";
    case CodecOp::bf16_unpack_acc: return "bf16_unpack_acc";
    case CodecOp::topk_mag: return "topk_mag";
    case CodecOp::topk_compress: return "topk_compress";
  }
  return "?";
}

void CodecKernelDesc::validate() const {
  using platform::Isa;
  if (isa != Isa::avx512 && isa != Isa::avx512_vnni)
    throw std::invalid_argument("CodecKernelDesc: requires avx512");
  if (vlen != 16)
    throw std::invalid_argument("CodecKernelDesc: vlen must be 16");
}

std::string CodecKernelDesc::key() const {
  std::ostringstream os;
  os << "codec/" << codec_op_name(op) << "/" << platform::isa_name(isa) << "/v"
     << vlen;
  return os.str();
}

CodecKernel::CodecKernel(CodecKernelDesc desc, CodeBuffer buf)
    : desc_(desc), buf_(std::move(buf)), fn_(buf_.entry<codec_fn>()) {}

std::unique_ptr<CodecKernel> generate_codec_kernel(const CodecKernelDesc& d) {
  d.validate();
  CodeBuffer buf(4096);
  Assembler as(buf);

  // Every kernel: rax = running compress count (0 for non-compress ops),
  // then a single loop over kIters full vectors with pointer advancement.
  as.mov_ri(kCount, 0);

  // Loop-invariant register-resident constants.
  const Vec scale{24}, posq{25}, negq{26}, thr{24}, iota{30}, step{31};
  const Vec amax{27};
  switch (d.op) {
    case CodecOp::fold_amax:
      as.vxorps(kZ, amax, amax, amax);  // +0, compute_scale's seed
      break;
    case CodecOp::int16_quant:
      as.vbroadcastss(kZ, scale, Mem{kParams, 0});
      as.vbroadcastss(kZ, posq, Mem{kParams, 4});
      as.vbroadcastss(kZ, negq, Mem{kParams, 8});
      break;
    case CodecOp::int16_dequant:
    case CodecOp::int16_dequant_acc:
      as.vbroadcastss(kZ, scale, Mem{kParams, 0});
      break;
    case CodecOp::topk_compress:
      as.vbroadcastss(kZ, thr, Mem{kParams, 0});
      as.vmovups_load(kZ, iota, Mem{kParams, 4});
      as.vbroadcastss(kZ, step, Mem{kParams, 68});
      break;
    default:
      break;
  }

  const std::size_t top = as.here();
  switch (d.op) {
    case CodecOp::fold_add: {
      // res += src — same operand order as the scalar `res[i] += src[i]`.
      as.vmovups_load(kZ, Vec{0}, Mem{kB, 0});
      as.vaddps_mem(kZ, Vec{0}, Vec{0}, Mem{kA, 0});
      as.vmovups_store(kZ, Mem{kB, 0}, Vec{0});
      as.add_ri(kA, 64);
      as.add_ri(kB, 64);
      break;
    }
    case CodecOp::fold_amax: {
      // fold_add, then amax = vmaxps(|res|, amax): a NaN |res| selects the
      // second operand, so NaN lanes are skipped like std::max(amax, |res|).
      as.vmovups_load(kZ, Vec{0}, Mem{kB, 0});
      as.vaddps_mem(kZ, Vec{0}, Vec{0}, Mem{kA, 0});
      as.vmovups_store(kZ, Mem{kB, 0}, Vec{0});
      as.vpandd_bcast(Vec{1}, Vec{0}, Mem{kParams, 0});
      as.vmaxps(kZ, amax, Vec{1}, amax);
      as.add_ri(kA, 64);
      as.add_ri(kB, 64);
      break;
    }
    case CodecOp::int16_quant: {
      // t = res; y = t/s; q = cvt_rne(clamp(y)); wire = i16(q);
      // res = t - float(q)*s.
      as.vmovups_load(kZ, Vec{0}, Mem{kA, 0});
      as.vdivps(kZ, Vec{1}, Vec{0}, scale);
      as.vminps(kZ, Vec{1}, Vec{1}, posq);
      as.vmaxps(kZ, Vec{1}, Vec{1}, negq);
      as.vcvtps2dq(Vec{2}, Vec{1});
      as.vpmovdw_store(Mem{kB, 0}, Vec{2});
      as.vcvtdq2ps(Vec{3}, Vec{2});
      as.vmulps(kZ, Vec{4}, Vec{3}, scale);
      as.vsubps(kZ, Vec{5}, Vec{0}, Vec{4});
      as.vmovups_store(kZ, Mem{kA, 0}, Vec{5});
      as.add_ri(kA, 64);
      as.add_ri(kB, 32);
      break;
    }
    case CodecOp::int16_dequant:
    case CodecOp::int16_dequant_acc: {
      as.vpmovsxwd_load(Vec{0}, Mem{kA, 0});
      as.vcvtdq2ps(Vec{1}, Vec{0});
      as.vmulps(kZ, Vec{2}, Vec{1}, scale);
      if (d.op == CodecOp::int16_dequant_acc) {
        // dst += lane, src1 = dst like the scalar `dst[i] += lane`.
        as.vmovups_load(kZ, Vec{3}, Mem{kB, 0});
        as.vaddps(kZ, Vec{2}, Vec{3}, Vec{2});
      }
      as.vmovups_store(kZ, Mem{kB, 0}, Vec{2});
      as.add_ri(kA, 32);
      as.add_ri(kB, 64);
      break;
    }
    case CodecOp::bf16_pack: {
      // t = src + res; u = bits(t); a = u & abs_mask;
      // rounded = u + 0x7fff + ((u >> 16) & 1);
      // specials (a >= 0x7f800000) keep u, NaNs (a > 0x7f800000) get the
      // quiet bit; d = result & 0xffff0000; res = t - d; wire = d >> 16.
      as.vmovups_load(kZ, Vec{0}, Mem{kA, 0});
      as.vmovups_load(kZ, Vec{1}, Mem{kB, 0});
      as.vaddps(kZ, Vec{2}, Vec{0}, Vec{1});
      as.vpandd_bcast(Vec{3}, Vec{2}, Mem{kParams, 0});   // |u|
      as.vpsrld_i(Vec{4}, Vec{2}, 16);
      as.vpandd_bcast(Vec{4}, Vec{4}, Mem{kParams, 8});   // lsb
      as.vpaddd(Vec{5}, Vec{2}, Vec{4});
      as.vpaddd_bcast(Vec{5}, Vec{5}, Mem{kParams, 12});  // rounded
      as.vpcmpud_bcast(1, Vec{3}, Mem{kParams, 4}, 5);    // k1: Inf or NaN
      as.vpcmpud_bcast(2, Vec{3}, Mem{kParams, 4}, 6);    // k2: NaN
      as.vpord_bcast(Vec{6}, Vec{2}, Mem{kParams, 16});   // quieted
      as.vmovdqa32_merge(Vec{5}, 1, Vec{2});
      as.vmovdqa32_merge(Vec{5}, 2, Vec{6});
      as.vpandd_bcast(Vec{5}, Vec{5}, Mem{kParams, 20});  // d bits
      as.vsubps(kZ, Vec{7}, Vec{2}, Vec{5});              // res = t - d
      as.vmovups_store(kZ, Mem{kB, 0}, Vec{7});
      as.vpsrld_i(Vec{5}, Vec{5}, 16);
      as.vpmovdw_store(Mem{kC, 0}, Vec{5});
      as.add_ri(kA, 64);
      as.add_ri(kB, 64);
      as.add_ri(kC, 32);
      break;
    }
    case CodecOp::bf16_unpack:
    case CodecOp::bf16_unpack_acc: {
      as.vpmovzxwd_load(Vec{0}, Mem{kA, 0});
      as.vpslld_i(Vec{1}, Vec{0}, 16);
      if (d.op == CodecOp::bf16_unpack_acc) {
        as.vmovups_load(kZ, Vec{2}, Mem{kB, 0});
        as.vaddps(kZ, Vec{1}, Vec{2}, Vec{1});
      }
      as.vmovups_store(kZ, Mem{kB, 0}, Vec{1});
      as.add_ri(kA, 32);
      as.add_ri(kB, 64);
      break;
    }
    case CodecOp::topk_mag: {
      // mag = min(bits & 0x7fffffff, 0x7f800000): NaN maps to the +Inf key,
      // and unsigned order on these keys == float magnitude order.
      as.vmovups_load(kZ, Vec{0}, Mem{kA, 0});
      as.vpandd_bcast(Vec{1}, Vec{0}, Mem{kParams, 0});
      as.vpminud_bcast(Vec{1}, Vec{1}, Mem{kParams, 4});
      as.vmovups_store(kZ, Mem{kB, 0}, Vec{1});
      as.add_ri(kA, 64);
      as.add_ri(kB, 64);
      break;
    }
    case CodecOp::topk_compress: {
      // Compress-store the indices of lanes with mag > threshold, ascending.
      as.vmovups_load(kZ, Vec{0}, Mem{kA, 0});
      as.vpcmpud(1, Vec{0}, thr, 6);  // unsigned >
      as.vpcompressd_store(Mem{kB, 0}, 1, iota);
      as.kmovw_rk(kTmp, 1);
      as.popcnt64(kTmp, kTmp);
      as.add_rr(kCount, kTmp);
      as.shl_ri(kTmp, 2);
      as.add_rr(kB, kTmp);
      as.vpaddd(iota, iota, step);
      as.add_ri(kA, 64);
      break;
    }
  }
  as.sub_ri(kIters, 1);
  as.cmp_ri(kIters, 0);
  as.jcc_back(Cond::g, top);
  if (d.op == CodecOp::fold_amax) as.vmovups_store(kZ, Mem{kC, 0}, amax);
  as.vzeroupper();
  as.ret();

  buf.finalize();
  return std::make_unique<CodecKernel>(d, std::move(buf));
}

}  // namespace xconv::jit
