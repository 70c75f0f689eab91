// Static verifier over generated kernels (the post-emit checking pass of
// production codegen stacks, applied to our closed emitter subset).
//
// Four passes, all running on the finalized code bytes:
//   1. decode    — every byte must parse as an instruction the Assembler can
//                  emit (decoder.hpp); an undecodable byte is a failure.
//   2. structure — exactly one `ret`, and it is the last instruction (no
//                  fall-through past the buffer); a generated kernel
//                  containing any VEX.256 or EVEX instruction executes
//                  `vzeroupper` as the instruction before that `ret`, so the
//                  caller's legacy-SSE code never pays the dirty-upper-state
//                  transition penalty (Contract::clean_upper_exit);
//                  every jcc target lands on an instruction boundary;
//                  push/pop balance and callee-saved preservation are proven
//                  by pass 4's abstract stack.
//   3. ISA gate  — each instruction's minimum ISA tier must not exceed the
//                  descriptor's ISA: an AVX2 kernel must contain no
//                  EVEX/ZMM encodings, a non-VNNI kernel no vpdpwssd.
//   4. bounds    — abstract interpretation over the 16 GPRs, seeded with
//                  symbolic pointers for the SysV argument registers. Every
//                  load/store (including embedded-broadcast and masked
//                  forms) must stay inside a descriptor-derived buffer
//                  Region; writes need a writable Region. Constant-count
//                  loops are executed concretely (trip counts come from the
//                  descriptor via mov_ri); the single runtime-count loop
//                  shape (reduce/codec `iters`) is proven by induction: the
//                  first iteration's accesses fit in `fixed + per_iter`
//                  bytes and every region pointer advances by at most
//                  `per_iter` bytes per iteration, so iteration i stays
//                  inside the caller's `fixed + iters * per_iter` buffer.
//                  At `ret`, the abstract stack must be empty and
//                  rbx/rbp/r12..r15 (and rsp) must hold their entry values.
//
// Wired into kernel construction (the KernelRegistry's JIT wrappers, the
// only place kernels are generated) behind XCONV_VERIFY_JIT — on by default
// in Debug builds, opt-in (CI) for Release. Verification runs once per
// generated kernel at insert time; steady-state dispatch cost is zero.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "jit/codec_kernel_gen.hpp"
#include "jit/conv_kernel_gen.hpp"
#include "jit/kdot_kernel_gen.hpp"
#include "jit/upd_kernel_gen.hpp"
#include "platform/cpu.hpp"
#include "quant/qconv_kernels.hpp"

namespace xconv::jit::verify {

/// One caller-provided buffer reachable from an ABI argument register.
/// The proven extent is `fixed + per_iter` bytes for the code the abstract
/// interpreter walks directly; per_iter additionally bounds how far the
/// pointer may advance per runtime-loop iteration (0 = loop-invariant).
struct Region {
  std::string name;          ///< diagnostic label ("in", "wt", "out", ...)
  int base = -1;             ///< ABI GPR the pointer arrives in (hw id)
  std::int64_t fixed = 0;    ///< bytes addressed beyond the per-iteration window
  std::int64_t per_iter = 0; ///< bytes consumed per runtime-loop iteration
  bool writable = false;
};

/// Descriptor-derived verification contract for one kernel.
struct Contract {
  platform::Isa isa = platform::Isa::avx512;  ///< max ISA tier allowed
  std::vector<Region> regions;
  int iters_gpr = -1;  ///< GPR carrying the runtime iteration count, or -1
  /// Require `vzeroupper` right before `ret` when the kernel uses any
  /// VEX.256/EVEX instruction. Every contract_for() sets it; a hand-built
  /// contract (e.g. a measurement probe) opts in.
  bool clean_upper_exit = false;
};

class VerifyError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// XCONV_VERIFY_JIT: default on in Debug builds, off in Release (CI opts in).
bool verify_enabled();
/// XCONV_JIT_DUMP: disassemble every generated kernel to stderr.
bool dump_enabled();

Contract contract_for(const ConvKernelDesc& d);
Contract contract_for(const UpdKernelDesc& d);
Contract contract_for(const ReduceKernelDesc& d);
Contract contract_for(const CodecKernelDesc& d);
Contract contract_for(const KdotKernelDesc& d);
Contract contract_for(const quant::QKernelDesc& d);

/// Run all four passes; throws VerifyError with a diagnostic that includes
/// the offending instruction and a disassembly window. `what` labels the
/// kernel in the message (use the descriptor cache key).
void verify(const Contract& c, const std::uint8_t* code, std::size_t size,
            const std::string& what);

/// Env-gated entry point for kernel-construction sites: dumps the
/// disassembly when XCONV_JIT_DUMP is set, verifies when XCONV_VERIFY_JIT
/// is enabled. One-time per generated kernel.
void maybe_verify(const Contract& c, const std::uint8_t* code,
                  std::size_t size, const std::string& what);

}  // namespace xconv::jit::verify
