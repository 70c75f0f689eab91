#include "kernels/kernel_registry.hpp"

#include <algorithm>
#include <climits>

#include "jit/verify/verifier.hpp"
#include "quant/quantize.hpp"

namespace xconv::kernels {

namespace {

// Registry-insert-time static verification (XCONV_VERIFY_JIT): each wrapper
// verifies its freshly generated kernel exactly once, before it can be
// dispatched — zero steady-state cost, and a corrupt kernel throws here with
// a disassembly diagnostic instead of faulting at runtime.
template <class Kernel, class Desc>
const std::unique_ptr<Kernel>& verified(const std::unique_ptr<Kernel>& k,
                                        const Desc& d) {
  jit::verify::maybe_verify(jit::verify::contract_for(d), k->code(),
                            k->code_size(), d.key());
  return k;
}

class JitConvKernel final : public ConvMicrokernel {
 public:
  explicit JitConvKernel(const jit::ConvKernelDesc& d)
      : ConvMicrokernel(d), k_(jit::generate_conv_kernel(d)) {
    verified(k_, d);
  }

  void run(const float* in, const float* wt, float* out, const float* pf_in,
           const float* pf_wt, const float* pf_out) const override {
    (*k_)(in, wt, out, pf_in, pf_wt, pf_out);
  }
  Backend backend() const override { return Backend::jit; }

 private:
  std::unique_ptr<jit::ConvKernel> k_;
};

class JitUpdKernel final : public UpdMicrokernel {
 public:
  explicit JitUpdKernel(const jit::UpdKernelDesc& d)
      : UpdMicrokernel(d), k_(jit::generate_upd_kernel(d)) {
    verified(k_, d);
  }

  void run(const float* in, const float* dout, float* dw, const float* pf_in,
           const float* pf_dout, const float* pf_dw) const override {
    (*k_)(in, dout, dw, pf_in, pf_dout, pf_dw);
  }
  Backend backend() const override { return Backend::jit; }

 private:
  std::unique_ptr<jit::UpdKernel> k_;
};

class JitReduceKernel final : public ReduceMicrokernel {
 public:
  explicit JitReduceKernel(const jit::ReduceKernelDesc& d)
      : ReduceMicrokernel(d), k_(jit::generate_reduce_kernel(d)) {
    verified(k_, d);
  }

  void run(const float* src, float* dst, std::int64_t n) const override {
    const auto& d = desc_;
    const std::int64_t chunk = static_cast<std::int64_t>(d.unroll) * d.vlen;
    const std::int64_t nv = n / chunk;
    if (nv > 0) (*k_)(src, dst, nv);
    // Sub-chunk tail: the scalar loop, same copy order — fp addition is
    // associativity-sensitive but the order here is identical.
    for (std::int64_t e = nv * chunk; e < n; ++e) {
      float acc = src[e];
      for (int c = 1; c < d.copies; ++c) acc += src[d.copy_stride * c + e];
      dst[e] = acc;
    }
  }
  Backend backend() const override { return Backend::jit; }

 private:
  std::unique_ptr<jit::ReduceKernel> k_;
};

class JitKdotKernel final : public KdotMicrokernel {
 public:
  explicit JitKdotKernel(const jit::KdotKernelDesc& d)
      : KdotMicrokernel(d), k_(jit::generate_kdot_kernel(d)) {
    verified(k_, d);
  }

  void run(const float* dout, const float* wp, float* din) const override {
    (*k_)(dout, wp, din);
  }
  Backend backend() const override { return Backend::jit; }

 private:
  std::unique_ptr<jit::KdotKernel> k_;
};

class JitCodecKernel final : public CodecMicrokernel {
 public:
  explicit JitCodecKernel(const jit::CodecKernelDesc& d)
      : CodecMicrokernel(d), k_(jit::generate_codec_kernel(d)) {
    verified(k_, d);
  }

  std::int64_t run(const CodecCall& call) const override {
    const std::int64_t nv = call.n / desc_.vlen;
    const std::int64_t head = nv * desc_.vlen;
    const std::int64_t pos = nv > 0 ? dispatch(call, nv) : 0;
    return codec_scalar_span(desc_, call, head, call.n, pos);
  }
  Backend backend() const override { return Backend::jit; }

 private:
  // Build the op's params block (see codec_kernel_gen.hpp table) and route
  // the CodecCall pointers into the (a, b, c) ABI slots.
  std::int64_t dispatch(const CodecCall& call, std::int64_t nv) const {
    switch (desc_.op) {
      case jit::CodecOp::fold_add:
        return (*k_)(call.f_in, call.f_io, nullptr, nv, nullptr);
      case jit::CodecOp::fold_amax: {
        // The kernel leaves 16 lane maxima; folding them into the running
        // max before the scalar tail continues the scan is exact (max does
        // not round), whatever the lane order.
        static constexpr std::uint32_t params[1] = {0x7fffffffu};
        float lanes[16];
        (*k_)(call.f_in, call.f_io, lanes, nv, params);
        for (const float m : lanes) *call.amax = std::max(*call.amax, m);
        return 0;
      }
      case jit::CodecOp::int16_quant: {
        const float params[3] = {call.scale,
                                 static_cast<float>(quant::kQMax),
                                 -static_cast<float>(quant::kQMax)};
        return (*k_)(call.f_io, call.w_out, nullptr, nv, params);
      }
      case jit::CodecOp::int16_dequant:
      case jit::CodecOp::int16_dequant_acc: {
        const float params[1] = {call.scale};
        return (*k_)(call.w_in, call.f_io, nullptr, nv, params);
      }
      case jit::CodecOp::bf16_pack: {
        static constexpr std::uint32_t params[6] = {
            0x7fffffffu, 0x7f800000u, 1u, 0x7fffu, 0x400000u, 0xffff0000u};
        return (*k_)(call.f_in, call.f_io, call.w_out, nv, params);
      }
      case jit::CodecOp::bf16_unpack:
      case jit::CodecOp::bf16_unpack_acc:
        return (*k_)(call.w_in, call.f_io, nullptr, nv, nullptr);
      case jit::CodecOp::topk_mag: {
        static constexpr std::uint32_t params[2] = {0x7fffffffu, 0x7f800000u};
        return (*k_)(call.f_in, call.u_out, nullptr, nv, params);
      }
      case jit::CodecOp::topk_compress: {
        std::uint32_t params[18];
        params[0] = call.threshold;
        for (std::uint32_t i = 0; i < 16; ++i) params[1 + i] = i;
        params[17] = 16;
        return (*k_)(call.u_in, call.u_out, nullptr, nv, params);
      }
    }
    return 0;
  }

  std::unique_ptr<jit::CodecKernel> k_;
};

class JitQConvKernel final : public QConvMicrokernel {
 public:
  explicit JitQConvKernel(const quant::QKernelDesc& d)
      : QConvMicrokernel(d), k_(jit::generate_qconv_kernel(d)) {
    verified(k_, d);
  }

  void run(const std::int16_t* in, const std::int16_t* wt, float* out,
           float scale) const override {
    (*k_)(in, wt, out, scale);
  }
  Backend backend() const override { return Backend::jit; }

 private:
  std::unique_ptr<jit::QConvKernel> k_;
};

// The ISAs the conv/upd/reduce/kdot generators emit for.
bool isa_is_simd(platform::Isa isa) {
  return isa == platform::Isa::avx2 || isa == platform::Isa::avx512 ||
         isa == platform::Isa::avx512_vnni;
}

bool host_supports(platform::Isa isa) {
  return static_cast<int>(platform::max_isa()) >= static_cast<int>(isa);
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::jit: return "jit";
    case Backend::scalar: return "scalar";
  }
  return "unknown";
}

KernelRegistry& KernelRegistry::instance() {
  static KernelRegistry r;
  return r;
}

// Lookup and insertion both happen under mu_, but the (potentially slow) JIT
// compile runs unlocked so concurrent first-use resolution of *different*
// descriptors is not serialized. Two threads racing on the *same* key may both
// build; emplace keeps the first and the loser's kernel is discarded — kernels
// are immutable and returned pointers stay valid for the process lifetime
// because entries are never erased. The two-phase locking is written out
// inline (rather than through a helper taking the guarded map by reference)
// so thread-safety analysis can see both critical sections. The downcasts are
// safe because each family's keys carry its own prefix.
template <class Kernel, class Desc>
const Kernel* KernelRegistry::resolve(
    const Desc& desc, bool jit_isa,
    std::unique_ptr<Kernel> (*make_jit)(const Desc&),
    std::unique_ptr<Kernel> (*make_scalar)(const Desc&)) {
  const std::string key = desc.key();
  {
    const platform::MutexLock lock(mu_);
    auto it = kernels_.find(key);
    if (it != kernels_.end()) {
      ++stats_.hits;
      return static_cast<const Kernel*>(it->second.get());
    }
    ++stats_.misses;
  }
  // May throw; the cache stays untouched.
  std::unique_ptr<Kernel> built = jit_isa && host_supports(desc.isa)
                                      ? make_jit(desc)
                                      : make_scalar(desc);
  const platform::MutexLock lock(mu_);
  return static_cast<const Kernel*>(
      kernels_.emplace(key, std::move(built)).first->second.get());
}

const ConvMicrokernel* KernelRegistry::conv(const jit::ConvKernelDesc& desc) {
  return resolve(desc, isa_is_simd(desc.isa), &make_conv_jit,
                 &make_conv_scalar);
}

const UpdMicrokernel* KernelRegistry::upd(const jit::UpdKernelDesc& desc) {
  return resolve(desc, isa_is_simd(desc.isa), &make_upd_jit, &make_upd_scalar);
}

const ReduceMicrokernel* KernelRegistry::reduce(
    const jit::ReduceKernelDesc& desc) {
  // The generator sums >= 2 copies, each addressed as [src + disp32]. A
  // span past disp32 (or a one-copy copy-out) runs the scalar kernel.
  return resolve(desc,
                 isa_is_simd(desc.isa) && desc.copies >= 2 &&
                     desc.span_bytes() <= INT32_MAX,
                 &make_reduce_jit, &make_reduce_scalar);
}

const KdotMicrokernel* KernelRegistry::kdot(const jit::KdotKernelDesc& desc) {
  return resolve(desc, isa_is_simd(desc.isa), &make_kdot_jit,
                 &make_kdot_scalar);
}

const CodecMicrokernel* KernelRegistry::codec(
    const jit::CodecKernelDesc& desc) {
  // Codec generation is avx512-only (validate() rejects avx2).
  return resolve(desc,
                 desc.isa == platform::Isa::avx512 ||
                     desc.isa == platform::Isa::avx512_vnni,
                 &make_codec_jit, &make_codec_scalar);
}

const QConvMicrokernel* KernelRegistry::qconv(const quant::QKernelDesc& desc) {
  // The int16 generator emits vpdpwssd.
  return resolve(desc, desc.isa == platform::Isa::avx512_vnni,
                 &make_qconv_jit, &make_qconv_scalar);
}

std::size_t KernelRegistry::size() const {
  const platform::MutexLock lock(mu_);
  return kernels_.size();
}

KernelRegistry::Stats KernelRegistry::stats() const {
  const platform::MutexLock lock(mu_);
  return stats_;
}

void KernelRegistry::reset_stats() {
  const platform::MutexLock lock(mu_);
  stats_ = Stats{};
}

std::unique_ptr<ConvMicrokernel> make_conv_jit(const jit::ConvKernelDesc& d) {
  return std::make_unique<JitConvKernel>(d);
}

std::unique_ptr<UpdMicrokernel> make_upd_jit(const jit::UpdKernelDesc& d) {
  return std::make_unique<JitUpdKernel>(d);
}

std::unique_ptr<ReduceMicrokernel> make_reduce_jit(
    const jit::ReduceKernelDesc& d) {
  return std::make_unique<JitReduceKernel>(d);
}

std::unique_ptr<KdotMicrokernel> make_kdot_jit(const jit::KdotKernelDesc& d) {
  return std::make_unique<JitKdotKernel>(d);
}

std::unique_ptr<CodecMicrokernel> make_codec_jit(
    const jit::CodecKernelDesc& d) {
  return std::make_unique<JitCodecKernel>(d);
}

std::unique_ptr<QConvMicrokernel> make_qconv_jit(const quant::QKernelDesc& d) {
  return std::make_unique<JitQConvKernel>(d);
}

}  // namespace xconv::kernels
