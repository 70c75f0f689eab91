#include "platform/cpu.hpp"

#include <array>
#include <cstring>
#include <mutex>

#include "platform/envparse.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define XCONV_X86 1
#endif

namespace xconv::platform {
namespace {

#if XCONV_X86
struct Regs {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
};

Regs cpuid(unsigned leaf, unsigned subleaf) {
  Regs r;
  __cpuid_count(leaf, subleaf, r.eax, r.ebx, r.ecx, r.edx);
  return r;
}

uint64_t xgetbv0() {
  unsigned lo = 0, hi = 0;
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0" : "=a"(lo), "=d"(hi) : "c"(0));
  return (static_cast<uint64_t>(hi) << 32) | lo;
}
#endif

CpuFeatures detect() {
  CpuFeatures f;
#if XCONV_X86
  const Regs r0 = cpuid(0, 0);
  char vendor[13] = {};
  std::memcpy(vendor + 0, &r0.ebx, 4);
  std::memcpy(vendor + 4, &r0.edx, 4);
  std::memcpy(vendor + 8, &r0.ecx, 4);
  f.vendor = vendor;

  const Regs r1 = cpuid(1, 0);
  const bool osxsave = (r1.ecx >> 27) & 1;
  f.fma = (r1.ecx >> 12) & 1;

  if (osxsave) {
    const uint64_t xcr0 = xgetbv0();
    // bit1: SSE state, bit2: AVX (YMM) state; bits 5..7: opmask/ZMM state.
    f.os_avx = (xcr0 & 0x6) == 0x6;
    f.os_avx512 = (xcr0 & 0xe6) == 0xe6;
  }

  if (r0.eax >= 7) {
    const Regs r7 = cpuid(7, 0);
    f.avx2 = (r7.ebx >> 5) & 1;
    f.avx512f = (r7.ebx >> 16) & 1;
    f.avx512bw = (r7.ebx >> 30) & 1;
    f.avx512vl = (r7.ebx >> 31) & 1;
    f.avx512vnni = (r7.ecx >> 11) & 1;
  }

  const Regs rext = cpuid(0x80000000u, 0);
  if (rext.eax >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned i = 0; i < 3; ++i) {
      const Regs rb = cpuid(0x80000002u + i, 0);
      std::memcpy(brand + 16 * i + 0, &rb.eax, 4);
      std::memcpy(brand + 16 * i + 4, &rb.ebx, 4);
      std::memcpy(brand + 16 * i + 8, &rb.ecx, 4);
      std::memcpy(brand + 16 * i + 12, &rb.edx, 4);
    }
    f.brand = brand;
  }
#endif
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = detect();
  return f;
}

Isa max_isa() {
  const CpuFeatures& f = cpu_features();
  if (f.avx512f && f.avx512bw && f.avx512vl && f.os_avx512) {
    return f.avx512vnni ? Isa::avx512_vnni : Isa::avx512;
  }
  if (f.avx2 && f.fma && f.os_avx) return Isa::avx2;
  return Isa::scalar;
}

Isa isa_clamped(const char* request, Isa ceiling) {
  if (request == nullptr) return ceiling;
  Isa req = ceiling;
  if (std::strcmp(request, "scalar") == 0) req = Isa::scalar;
  else if (std::strcmp(request, "avx2") == 0) req = Isa::avx2;
  else if (std::strcmp(request, "avx512") == 0) req = Isa::avx512;
  else if (std::strcmp(request, "avx512_vnni") == 0) req = Isa::avx512_vnni;
  return static_cast<int>(req) < static_cast<int>(ceiling) ? req : ceiling;
}

Isa effective_isa() {
  return isa_clamped(env::get("XCONV_ISA"), max_isa());
}

int vlen_fp32(Isa isa) {
  switch (isa) {
    case Isa::avx512:
    case Isa::avx512_vnni:
      return 16;
    case Isa::avx2:
      return 8;
    case Isa::scalar:
      return 1;
  }
  return 1;
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::scalar: return "scalar";
    case Isa::avx2: return "avx2";
    case Isa::avx512: return "avx512";
    case Isa::avx512_vnni: return "avx512_vnni";
  }
  return "unknown";
}

}  // namespace xconv::platform
