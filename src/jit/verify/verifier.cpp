#include "jit/verify/verifier.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "jit/verify/decoder.hpp"
#include "platform/envparse.hpp"

namespace xconv::jit::verify {

namespace {

// GPR hardware ids used by the kernel ABIs / interpreter.
constexpr int kRax = 0, kRcx = 1, kRdx = 2, kRbx = 3, kRsp = 4, kRbp = 5,
              kRsi = 6, kRdi = 7;
constexpr int kCalleeSaved[] = {kRbx, kRbp, 12, 13, 14, 15};

// Abstract interpretation exceeding this many executed instructions means a
// loop the descriptor does not bound (or a generator gone haywire).
constexpr std::size_t kStepBudget = 20'000'000;

/// Abstract GPR value: unknown, a constant interval, or a pointer derived
/// from one entry register plus a byte-offset interval.
struct AbsVal {
  enum Kind { kTop, kConst, kPtr };
  Kind kind = kTop;
  int base = -1;  ///< entry GPR id for kPtr
  std::int64_t lo = 0, hi = 0;

  static AbsVal top() { return AbsVal{}; }
  static AbsVal cst(std::int64_t l, std::int64_t h) {
    return AbsVal{kConst, -1, l, h};
  }
  static AbsVal ptr(int b, std::int64_t l, std::int64_t h) {
    return AbsVal{kPtr, b, l, h};
  }
  bool operator==(const AbsVal& o) const {
    return kind == o.kind && base == o.base && lo == o.lo && hi == o.hi;
  }
};

AbsVal abs_add(const AbsVal& a, const AbsVal& b) {
  if (a.kind == AbsVal::kTop || b.kind == AbsVal::kTop) return AbsVal::top();
  if (a.kind == AbsVal::kPtr && b.kind == AbsVal::kPtr) return AbsVal::top();
  AbsVal r = (a.kind == AbsVal::kPtr) ? a : b;
  const AbsVal& c = (a.kind == AbsVal::kPtr) ? b : a;
  r.lo += c.lo;
  r.hi += c.hi;
  return r;
}

AbsVal abs_add_imm(const AbsVal& a, std::int64_t imm) {
  if (a.kind == AbsVal::kTop) return a;
  AbsVal r = a;
  r.lo += imm;
  r.hi += imm;
  return r;
}

struct Interp {
  const Contract& c;
  const std::vector<Insn>& insns;
  const std::string& what;

  std::array<AbsVal, 16> g;
  std::vector<AbsVal> stack;
  std::unordered_map<std::size_t, std::size_t> index_at;  // offset -> index
  std::unordered_map<std::size_t, std::array<AbsVal, 16>> snap;  // loop tops

  Interp(const Contract& contract, const std::vector<Insn>& is,
         const std::string& label)
      : c(contract), insns(is), what(label) {
    for (int r = 0; r < 16; ++r) g[r] = AbsVal::ptr(r, 0, 0);
    for (std::size_t i = 0; i < insns.size(); ++i)
      index_at.emplace(insns[i].offset, i);
  }

  [[noreturn]] void fail(std::size_t idx, const std::string& msg) const {
    std::ostringstream os;
    os << "jit-verify: " << what << ": " << msg << "\n  at "
       << format_insn(insns[idx]) << "\n  context:\n";
    const std::size_t from = idx >= 4 ? idx - 4 : 0;
    const std::size_t to = std::min(insns.size(), idx + 5);
    for (std::size_t i = from; i < to; ++i)
      os << (i == idx ? "  > " : "    ") << format_insn(insns[i]) << "\n";
    os << "  hint: set XCONV_JIT_DUMP=1 for a full disassembly";
    throw VerifyError(os.str());
  }

  const Region* region_of(int entry_gpr) const {
    for (const Region& r : c.regions)
      if (r.base == entry_gpr) return &r;
    return nullptr;
  }

  void check_access(std::size_t idx) {
    const Insn& in = insns[idx];
    if (in.is_prefetch) return;  // cannot fault; conv intentionally prefetches
                                 // past the current input block
    const AbsVal& b = g[in.mem_base];
    if (b.kind != AbsVal::kPtr)
      fail(idx, "memory access through a register that is not a provable "
                "pointer");
    const Region* reg = region_of(b.base);
    if (reg == nullptr)
      fail(idx, "memory access through a pointer outside every declared "
                "buffer region");
    const std::int64_t lo = b.lo + in.mem_disp;
    const std::int64_t hi = b.hi + in.mem_disp + in.mem_size;
    const std::int64_t extent = reg->fixed + reg->per_iter;
    if (lo < 0 || hi > extent) {
      std::ostringstream os;
      os << "out-of-bounds " << (in.mem_write ? "store" : "load") << ": ["
         << lo << ", " << hi << ") exceeds region '" << reg->name << "' of "
         << extent << " bytes";
      fail(idx, os.str());
    }
    if (in.mem_write && !reg->writable)
      fail(idx, "store into read-only region '" + reg->name + "'");
  }

  void check_ret(std::size_t idx) const {
    if (!stack.empty())
      fail(idx, "ret with a non-empty stack (push/pop imbalance)");
    for (int r : kCalleeSaved) {
      const AbsVal& v = g[r];
      if (!(v == AbsVal::ptr(r, 0, 0))) {
        std::ostringstream os;
        os << "callee-saved register " << r
           << " does not hold its entry value at ret";
        fail(idx, os.str());
      }
    }
  }

  // The runtime-count loop (reduce/codec iters): prove the inductive step —
  // every region pointer advanced by [0, per_iter] bytes over the iteration —
  // then exit the loop with the changed registers widened away.
  void close_runtime_loop(std::size_t idx, const Insn& jcc, int counter) {
    auto it = snap.find(jcc.target);
    if (it == snap.end())
      fail(idx, "runtime loop whose body was never entered linearly");
    const std::array<AbsVal, 16>& s = it->second;
    for (int r = 0; r < 16; ++r) {
      if (r == counter) continue;
      const AbsVal &before = s[r], &after = g[r];
      if (before == after) continue;
      if (before.kind == AbsVal::kPtr) {
        const Region* reg = region_of(before.base);
        if (reg != nullptr) {
          if (after.kind != AbsVal::kPtr || after.base != before.base)
            fail(idx, "region pointer '" + reg->name +
                          "' lost across a runtime loop iteration");
          const std::int64_t dlo = after.lo - before.hi;
          const std::int64_t dhi = after.hi - before.lo;
          if (dlo < 0 || dhi > reg->per_iter) {
            std::ostringstream os;
            os << "region pointer '" << reg->name << "' advances by [" << dlo
               << ", " << dhi << "] per iteration, outside [0, "
               << reg->per_iter << "]";
            fail(idx, os.str());
          }
        }
      }
    }
    for (int r = 0; r < 16; ++r)
      if (!(g[r] == s[r])) g[r] = AbsVal::top();
    g[counter] = AbsVal::cst(0, 0);  // loop exits with iters == 0
  }

  void run() {
    std::size_t pc = 0;
    std::size_t steps = 0;
    while (pc < insns.size()) {
      if (++steps > kStepBudget)
        fail(pc, "abstract-interpretation step budget exceeded (loop not "
                 "bounded by the descriptor?)");
      const Insn& in = insns[pc];
      // First linear arrival at any jcc target records the loop-top state.
      snap.emplace(in.offset, g);

      if (in.has_mem) check_access(pc);

      const int dst = in.gpr_dst;
      switch (in.op) {
        case Op::ret:
          check_ret(pc);
          return;
        case Op::push:
          stack.push_back(g[dst]);
          break;
        case Op::pop:
          if (stack.empty()) fail(pc, "pop from an empty stack");
          if (dst == kRsp) fail(pc, "pop into rsp");
          g[dst] = stack.back();
          stack.pop_back();
          break;
        case Op::mov_ri:
          if (dst == kRsp) fail(pc, "direct write to rsp");
          g[dst] = AbsVal::cst(in.imm, in.imm);
          break;
        case Op::mov_rr:
          if (dst == kRsp) fail(pc, "direct write to rsp");
          g[dst] = g[in.gpr_src];
          break;
        case Op::add_ri:
          if (dst == kRsp) fail(pc, "direct rsp arithmetic");
          g[dst] = abs_add_imm(g[dst], in.imm);
          break;
        case Op::sub_ri:
          if (dst == kRsp) fail(pc, "direct rsp arithmetic");
          g[dst] = abs_add_imm(g[dst], -in.imm);
          break;
        case Op::add_rr:
          if (dst == kRsp) fail(pc, "direct rsp arithmetic");
          g[dst] = abs_add(g[dst], g[in.gpr_src]);
          break;
        case Op::cmp_ri:
          break;  // consumed by the following jcc
        case Op::kmovw_rk:
          g[dst] = AbsVal::cst(0, 0xFFFF);
          break;
        case Op::popcnt64: {
          const AbsVal& s = g[in.gpr_src];
          g[dst] = (s.kind == AbsVal::kConst && s.lo >= 0 && s.hi <= 0xFFFF)
                       ? AbsVal::cst(0, 16)
                       : AbsVal::top();
          break;
        }
        case Op::shl_ri: {
          const AbsVal& s = g[dst];
          if (dst == kRsp) fail(pc, "direct rsp arithmetic");
          g[dst] = (s.kind == AbsVal::kConst && s.lo >= 0 && in.imm >= 0 &&
                    in.imm < 32)
                       ? AbsVal::cst(s.lo << in.imm, s.hi << in.imm)
                       : AbsVal::top();
          break;
        }
        case Op::jcc_back: {
          if (pc == 0 || insns[pc - 1].op != Op::cmp_ri ||
              insns[pc - 1].imm != 0)
            fail(pc, "jcc not preceded by cmp reg, 0 (unrecognized loop "
                     "shape)");
          const int counter = insns[pc - 1].gpr_dst;
          const AbsVal& v = g[counter];
          if (v.kind == AbsVal::kConst) {
            // Descriptor-constant trip count: branch concretely.
            bool taken;
            if (in.cond == 0xF)
              taken = v.lo > 0 ? true
                               : (v.hi <= 0 ? false
                                            : (fail(pc, "ambiguous constant "
                                                        "loop condition"),
                                               false));
            else if (in.cond == 0xC)
              taken = v.hi < 0 ? true
                               : (v.lo >= 0 ? false
                                            : (fail(pc, "ambiguous constant "
                                                        "loop condition"),
                                               false));
            else  // ne
              taken = !(v.lo == 0 && v.hi == 0) &&
                      (v.lo > 0 || v.hi < 0 ||
                       (fail(pc, "ambiguous constant loop condition"), false));
            if (taken) {
              auto it = index_at.find(in.target);
              if (it == index_at.end())
                fail(pc, "jump target not on an instruction boundary");
              pc = it->second;
              continue;
            }
          } else if (v.kind == AbsVal::kPtr && v.base == c.iters_gpr) {
            close_runtime_loop(pc, in, counter);
            // fall through: the one abstract iteration stands for all
          } else {
            fail(pc, "loop counter is neither a descriptor constant nor the "
                     "runtime iteration count");
          }
          break;
        }
        default:
          break;  // vector ops: no GPR effect
      }
      ++pc;
    }
    fail(insns.size() - 1, "execution fell past the end of the kernel");
  }
};

}  // namespace

bool verify_enabled() {
#ifdef NDEBUG
  static const bool on = platform::env::flag_or("XCONV_VERIFY_JIT", false);
#else
  static const bool on = platform::env::flag_or("XCONV_VERIFY_JIT", true);
#endif
  return on;
}

bool dump_enabled() {
  static const bool on = platform::env::flag_or("XCONV_JIT_DUMP", false);
  return on;
}

// --- descriptor-derived contracts -------------------------------------------

namespace {
/// Contract skeleton for a generator's kernel: its ISA tier, and the
/// `vzeroupper; ret` exit every generator emits.
Contract generated_kernel(platform::Isa isa) {
  Contract c;
  c.isa = isa;
  c.clean_upper_exit = true;
  return c;
}
}  // namespace

Contract contract_for(const ConvKernelDesc& d) {
  const int ocs = d.out_col_stride > 0 ? d.out_col_stride : d.vlen;
  const std::int64_t vb = static_cast<std::int64_t>(d.vlen) * 4;
  // Highest input element touched: in_off(rbp-1, rbq-1, r-1, s-1, c_iters-1)
  // plus the feature-block advance, read 4 bytes at a time (broadcast).
  const std::int64_t in_top =
      (static_cast<std::int64_t>((d.rbp - 1) * d.stride_h + (d.r - 1)) *
           d.in_row_stride +
       static_cast<std::int64_t>((d.rbq - 1) * d.stride_w + (d.s - 1)) *
           d.vlen +
       (d.c_iters - 1)) *
          4 +
      4 + static_cast<std::int64_t>(d.c_blocks - 1) * d.in_cb_stride * 4;
  const std::int64_t wt_top =
      (static_cast<std::int64_t>((d.r - 1) * d.s + (d.s - 1)) * d.vlen +
       (d.c_iters - 1)) *
          d.vlen * 4 +
      vb + static_cast<std::int64_t>(d.c_blocks - 1) * d.wt_cb_stride * 4;
  const std::int64_t out_top =
      static_cast<std::int64_t>(d.rbp - 1) * d.out_row_stride * 4 +
      static_cast<std::int64_t>(d.rbq - 1) * ocs * 4 + vb;
  Contract c = generated_kernel(d.isa);
  c.regions = {{"in", kRdi, in_top, 0, false},
               {"wt", kRsi, wt_top, 0, false},
               {"out", kRdx, out_top, 0, true}};
  // rcx/r8/r9 are prefetch-only hint pointers: no regions on purpose — any
  // non-prefetch access through them must fail.
  return c;
}

Contract contract_for(const UpdKernelDesc& d) {
  const int n_acc = d.cmin > 0 ? d.cmin : d.vlen;
  const int n_store = d.beta0 ? d.vlen : n_acc;
  const std::int64_t vb = static_cast<std::int64_t>(d.vlen) * 4;
  const std::int64_t in_top =
      (static_cast<std::int64_t>(d.bp - 1) * d.stride_h * d.in_row_stride +
       static_cast<std::int64_t>(d.bq - 1) * d.stride_w * d.vlen +
       (n_acc - 1)) *
          4 +
      4;
  const std::int64_t do_top =
      (static_cast<std::int64_t>(d.bp - 1) * d.out_row_stride +
       static_cast<std::int64_t>(d.bq - 1) * d.vlen) *
          4 +
      vb;
  const std::int64_t dw_top = static_cast<std::int64_t>(n_store) * vb;
  Contract c = generated_kernel(d.isa);
  c.regions = {{"in", kRdi, in_top, 0, false},
               {"dO", kRsi, do_top, 0, false},
               {"dW", kRdx, dw_top, 0, true}};
  return c;
}

Contract contract_for(const ReduceKernelDesc& d) {
  const std::int64_t vb = static_cast<std::int64_t>(d.vlen) * 4;
  const std::int64_t chunk = static_cast<std::int64_t>(d.unroll) * vb;
  Contract c = generated_kernel(d.isa);
  c.iters_gpr = kRdx;
  c.regions = {
      {"src", kRdi, static_cast<std::int64_t>(d.copies - 1) * d.copy_stride * 4,
       chunk, false},
      {"dst", kRsi, 0, chunk, true}};
  return c;
}

Contract contract_for(const CodecKernelDesc& d) {
  Contract c = generated_kernel(d.isa);
  c.iters_gpr = kRcx;
  auto a = [&](std::int64_t per, bool w) {
    c.regions.push_back({"a", kRdi, 0, per, w});
  };
  auto b = [&](std::int64_t per, bool w) {
    c.regions.push_back({"b", kRsi, 0, per, w});
  };
  auto params = [&](std::int64_t bytes) {
    c.regions.push_back({"params", 8 /*r8*/, bytes, 0, false});
  };
  switch (d.op) {
    case CodecOp::fold_add:
      a(64, false);
      b(64, true);
      break;
    case CodecOp::fold_amax:
      a(64, false);
      b(64, true);
      c.regions.push_back({"c", kRdx, 64, 0, true});  // 16 lane maxima, once
      params(4);
      break;
    case CodecOp::int16_quant:
      a(64, true);   // residual written back
      b(32, true);   // int16 wire
      params(12);
      break;
    case CodecOp::int16_dequant:
    case CodecOp::int16_dequant_acc:
      a(32, false);
      b(64, true);
      params(4);
      break;
    case CodecOp::bf16_pack:
      a(64, false);
      b(64, true);
      c.regions.push_back({"c", kRdx, 0, 32, true});  // u16 wire
      params(24);
      break;
    case CodecOp::bf16_unpack:
    case CodecOp::bf16_unpack_acc:
      a(32, false);
      b(64, true);
      break;
    case CodecOp::topk_mag:
      a(64, false);
      b(64, true);
      params(8);
      break;
    case CodecOp::topk_compress:
      a(64, false);
      b(64, true);   // worst case: all 16 indices kept every iteration
      params(72);    // threshold + iota vector + step
      break;
  }
  return c;
}

Contract contract_for(const KdotKernelDesc& d) {
  const std::int64_t vb = static_cast<std::int64_t>(d.vlen) * 4;
  const int nt = d.taps_r(), nu = d.taps_s();
  // dO: the farthest tap is t = u = 0 of the last channel block, read for
  // the last pixel. Wp: the phase's last tap, channel C-1, last block. A
  // phase without taps reads neither.
  std::int64_t do_top = 0, wp_top = 0;
  if (nt > 0 && nu > 0) {
    do_top = (static_cast<std::int64_t>(d.kb - 1) * d.do_kb_stride +
              static_cast<std::int64_t>(nt - 1) * d.do_row_stride +
              static_cast<std::int64_t>(nu - 1 + d.rb - 1) * d.vlen) *
                 4 +
             vb;
    const std::int64_t r_last = d.r0 + (nt - 1) * d.stride_h;
    const std::int64_t s_last = d.s0 + (nu - 1) * d.stride_w;
    wp_top = (static_cast<std::int64_t>(d.kb - 1) * d.r * d.s * d.c +
              (r_last * d.s + s_last) * d.c + (d.c - 1)) *
                 vb +
             vb;
  }
  const std::int64_t di_top =
      static_cast<std::int64_t>(d.rb - 1) * d.di_px_stride * 4 + vb;
  Contract c = generated_kernel(d.isa);
  c.regions = {{"dO", kRdi, do_top, 0, false},
               {"Wp", kRsi, wp_top, 0, false},
               {"dI", kRdx, di_top, 0, true}};
  return c;
}

Contract contract_for(const quant::QKernelDesc& d) {
  const int ocs = d.out_col_stride > 0 ? d.out_col_stride : d.vlen;
  // int16 elements, 2 bytes each; the vpdpwssd broadcast reads one dword.
  const std::int64_t in_top =
      (static_cast<std::int64_t>(d.r - 1) * d.in_row_stride +
       static_cast<std::int64_t>((d.rbq - 1) * d.stride_w + (d.s - 1)) *
           d.vlen +
       (d.c2_iters - 1) * 2) *
          2 +
      4 + static_cast<std::int64_t>(d.c_blocks - 1) * d.in_cb_stride * 2;
  const std::int64_t wt_top =
      (static_cast<std::int64_t>((d.r - 1) * d.s + (d.s - 1)) * d.vlen *
           d.vlen +
       static_cast<std::int64_t>(d.c2_iters - 1) * 2 * d.vlen) *
          2 +
      static_cast<std::int64_t>(d.vlen) * 2 * 2 +
      static_cast<std::int64_t>(d.c_blocks - 1) * d.wt_cb_stride * 2;
  const std::int64_t out_top =
      static_cast<std::int64_t>(d.rbq - 1) * ocs * 4 +
      static_cast<std::int64_t>(d.vlen) * 4;
  // qconv kernels are VNNI by definition.
  Contract c = generated_kernel(platform::Isa::avx512_vnni);
  c.regions = {{"in", kRdi, in_top, 0, false},
               {"wt", kRsi, wt_top, 0, false},
               {"out", kRdx, out_top, 0, true},
               {"scale", kRcx, 4, 0, false}};
  return c;
}

// --- driver ------------------------------------------------------------------

void verify(const Contract& c, const std::uint8_t* code, std::size_t size,
            const std::string& what) {
  if (size == 0) throw VerifyError("jit-verify: " + what + ": empty kernel");

  // Pass 1: strict decode.
  const DecodeResult dr = decode(code, size);
  if (!dr.ok()) {
    std::ostringstream os;
    os << "jit-verify: " << what << ": undecodable byte sequence at offset 0x"
       << std::hex << dr.error_offset << std::dec << " (" << dr.error
       << ")\n" << disassemble(code, size);
    throw VerifyError(os.str());
  }

  Interp interp(c, dr.insns, what);

  // Pass 2: structure — exactly one ret, it terminates the kernel, and (for
  // generated kernels) a kernel that touched ymm/zmm state clears it with
  // vzeroupper first.
  std::size_t rets = 0;
  for (const Insn& in : dr.insns)
    if (in.op == Op::ret) ++rets;
  if (rets == 0) interp.fail(dr.insns.size() - 1, "kernel has no ret");
  if (rets > 1 || dr.insns.back().op != Op::ret)
    interp.fail(dr.insns.size() - 1,
                "ret is not the unique final instruction");
  const bool dirties_upper =
      std::any_of(dr.insns.begin(), dr.insns.end(),
                  [](const Insn& in) { return in.evex || in.vex256; });
  // ret is last and another instruction dirtied the state, so size >= 2.
  if (c.clean_upper_exit && dirties_upper &&
      dr.insns[dr.insns.size() - 2].op != Op::vzeroupper)
    interp.fail(dr.insns.size() - 1,
                "kernel uses VEX.256/EVEX instructions but does not execute "
                "vzeroupper before ret");
  for (std::size_t i = 0; i < dr.insns.size(); ++i)
    if (dr.insns[i].op == Op::jcc_back &&
        interp.index_at.find(dr.insns[i].target) == interp.index_at.end())
      interp.fail(i, "jump target inside the middle of an instruction");

  // Pass 3: ISA gate.
  for (std::size_t i = 0; i < dr.insns.size(); ++i)
    if (static_cast<int>(dr.insns[i].min_isa) > static_cast<int>(c.isa))
      interp.fail(i, std::string("instruction requires ") +
                         platform::isa_name(dr.insns[i].min_isa) +
                         " but the kernel is registered for " +
                         platform::isa_name(c.isa));

  // Pass 4: ABI + memory bounds via abstract interpretation.
  interp.run();
}

void maybe_verify(const Contract& c, const std::uint8_t* code,
                  std::size_t size, const std::string& what) {
  if (dump_enabled()) {
    std::fprintf(stderr, "=== XCONV_JIT_DUMP %s (%zu bytes) ===\n%s",
                 what.c_str(), size, disassemble(code, size).c_str());
  }
  if (verify_enabled()) verify(c, code, size, what);
}

}  // namespace xconv::jit::verify
