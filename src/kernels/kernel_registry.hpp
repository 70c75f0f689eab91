// Microkernel factory + cache.
//
// `KernelRegistry` resolves a kernel descriptor to an executable microkernel,
// JIT-compiling on first use and caching by descriptor key — the paper's
// "runtime and on-demand driven compiling infrastructure" that tames the
// combinatorial explosion of (layer shape x blocking x variant x fusion)
// kernels (Sections I, II-H). The cache is shared process-wide and guarded by
// a mutex; kernels are immutable after creation so lookups race-free after
// insertion.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "kernels/microkernel.hpp"
#include "platform/cpu.hpp"
#include "platform/sync.hpp"
#include "platform/thread_annotations.hpp"

namespace xconv::kernels {

/// Resolves every family's descriptor to its cached microkernel. The backend
/// follows from the descriptor's ISA: JIT exactly when `desc.isa` is a SIMD
/// ISA the family's generator accepts and the host supports, scalar
/// otherwise (Isa::scalar always resolves the scalar reference).
class KernelRegistry {
 public:
  /// Process-wide instance.
  static KernelRegistry& instance();

  /// Forward convolution (also the strided backward). JIT on
  /// avx2/avx512/avx512_vnni.
  const ConvMicrokernel* conv(const jit::ConvKernelDesc& desc);
  /// Weight-update microkernel. JIT on avx2/avx512/avx512_vnni.
  const UpdMicrokernel* upd(const jit::UpdKernelDesc& desc);
  /// dW reduce epilogue. JIT on avx2/avx512/avx512_vnni for >= 2 copies
  /// within disp32 (ReduceKernelDesc::span_bytes), scalar otherwise.
  const ReduceMicrokernel* reduce(const jit::ReduceKernelDesc& desc);
  /// k-dot backward (C < VLEN layers). JIT on avx2/avx512/avx512_vnni.
  const KdotMicrokernel* kdot(const jit::KdotKernelDesc& desc);
  /// Gradient-codec hot loop. JIT on avx512/avx512_vnni.
  const CodecMicrokernel* codec(const jit::CodecKernelDesc& desc);
  /// Int16 forward block. JIT on avx512_vnni.
  const QConvMicrokernel* qconv(const quant::QKernelDesc& desc);

  /// Number of distinct kernels JIT'ed/instantiated so far (for tests and
  /// the "kernels generated" statistics the benches print).
  std::size_t size() const;

  /// Cache traffic counters: `hits` served an existing kernel, `misses`
  /// triggered a build (both racing builders of one key count as misses —
  /// the counter tracks compilations requested, not map growth). Together
  /// with PlanCache::stats() this substantiates the "zero planning work in
  /// steady state" claim: a warm process re-constructing a layer must add
  /// only hits.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  Stats stats() const;
  void reset_stats();

 private:
  KernelRegistry() = default;

  /// The one resolve sequence every family runs: cached kernel for
  /// `desc.key()`, else `make_jit(desc)` when `jit_isa` and the host supports
  /// desc.isa, else `make_scalar(desc)`.
  template <class Kernel, class Desc>
  const Kernel* resolve(const Desc& desc, bool jit_isa,
                        std::unique_ptr<Kernel> (*make_jit)(const Desc&),
                        std::unique_ptr<Kernel> (*make_scalar)(const Desc&));

  // Guards the cache map only. Kernel *construction* (JIT compile) runs
  // outside the lock — see resolve() — so the returned pointers are the
  // unguarded, immutable payloads; the map holding them is the shared state.
  // The families' key prefixes (conv/, upd/, red/, kdot/, codec/, qconv/)
  // keep them apart in one map.
  mutable platform::Mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Microkernel>> kernels_
      XCONV_GUARDED_BY(mu_);
  Stats stats_ XCONV_GUARDED_BY(mu_);
};

// Backend constructors (exposed for direct use in tests).
std::unique_ptr<ConvMicrokernel> make_conv_scalar(const jit::ConvKernelDesc&);
std::unique_ptr<UpdMicrokernel> make_upd_scalar(const jit::UpdKernelDesc&);
std::unique_ptr<ConvMicrokernel> make_conv_jit(const jit::ConvKernelDesc&);
std::unique_ptr<UpdMicrokernel> make_upd_jit(const jit::UpdKernelDesc&);
std::unique_ptr<ReduceMicrokernel> make_reduce_scalar(
    const jit::ReduceKernelDesc&);
std::unique_ptr<ReduceMicrokernel> make_reduce_jit(
    const jit::ReduceKernelDesc&);
std::unique_ptr<KdotMicrokernel> make_kdot_scalar(const jit::KdotKernelDesc&);
std::unique_ptr<KdotMicrokernel> make_kdot_jit(const jit::KdotKernelDesc&);
std::unique_ptr<CodecMicrokernel> make_codec_scalar(
    const jit::CodecKernelDesc&);
std::unique_ptr<CodecMicrokernel> make_codec_jit(const jit::CodecKernelDesc&);
std::unique_ptr<QConvMicrokernel> make_qconv_scalar(const quant::QKernelDesc&);
std::unique_ptr<QConvMicrokernel> make_qconv_jit(const quant::QKernelDesc&);

}  // namespace xconv::kernels
