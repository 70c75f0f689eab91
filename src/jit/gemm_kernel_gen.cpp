#include "jit/gemm_kernel_gen.hpp"

#include <sstream>
#include <stdexcept>

#include "jit/assembler.hpp"
#include "jit/conv_kernel_gen.hpp"  // for max_accumulators

namespace xconv::jit {

namespace {
constexpr Gpr kB = Gpr::rdi;   // "in"
constexpr Gpr kA = Gpr::rsi;   // "wt"
constexpr Gpr kC = Gpr::rdx;   // "out"
}  // namespace

void GemmKernelDesc::validate() const {
  using platform::Isa;
  if (isa != Isa::avx2 && isa != Isa::avx512 && isa != Isa::avx512_vnni)
    throw std::invalid_argument("GemmKernelDesc: JIT requires avx2 or avx512");
  const int want_vlen = (isa == Isa::avx2) ? 8 : 16;
  if (vlen != want_vlen)
    throw std::invalid_argument("GemmKernelDesc: vlen inconsistent with isa");
  if (n < 1 || n > ConvKernelDesc::max_accumulators(isa))
    throw std::invalid_argument("GemmKernelDesc: n outside register budget");
  if (k < 1) throw std::invalid_argument("GemmKernelDesc: k < 1");
  if (lda < vlen || ldc < vlen || ldb < 1)
    throw std::invalid_argument("GemmKernelDesc: bad leading dimension");
}

std::string GemmKernelDesc::key() const {
  std::ostringstream os;
  os << "gemm/" << platform::isa_name(isa) << "/v" << vlen << "/n" << n
     << "/k" << k << "/ld" << lda << "." << ldb << "." << ldc
     << (beta0 ? "/b0" : "/b1");
  return os.str();
}

GemmKernel::GemmKernel(GemmKernelDesc desc, CodeBuffer buf)
    : desc_(desc), buf_(std::move(buf)), fn_(buf_.entry<conv_fn>()) {}

std::unique_ptr<GemmKernel> generate_gemm_kernel(const GemmKernelDesc& d) {
  d.validate();
  const bool z = (d.isa != platform::Isa::avx2);
  const VecWidth vw = z ? VecWidth::zmm512 : VecWidth::ymm256;
  const int first_a = z ? 28 : 13;
  const int n_a = 3;
  const Vec bcst{12};

  const std::size_t cap =
      1024 + static_cast<std::size_t>(d.k) * (d.n + 1) * 24 +
      static_cast<std::size_t>(d.n) * 24;
  CodeBuffer buf(cap);
  Assembler as(buf);

  if (d.beta0) {
    for (int r = 0; r < d.n; ++r) as.vxorps(vw, Vec{r}, Vec{r}, Vec{r});
  } else {
    for (int r = 0; r < d.n; ++r)
      as.vmovups_load(vw, Vec{r}, Mem{kC, r * d.ldc * 4});
  }

  int arot = 0;
  for (int kk = 0; kk < d.k; ++kk) {
    const Vec av{first_a + (arot++ % n_a)};
    as.vmovups_load(vw, av, Mem{kA, kk * d.lda * 4});
    for (int r = 0; r < d.n; ++r) {
      const Mem m{kB, (r * d.ldb + kk) * 4};
      if (z) {
        as.vfmadd231ps_bcast(vw, Vec{r}, av, m);
      } else {
        as.vbroadcastss(vw, bcst, m);
        as.vfmadd231ps(vw, Vec{r}, av, bcst);
      }
    }
  }

  for (int r = 0; r < d.n; ++r)
    as.vmovups_store(vw, Mem{kC, r * d.ldc * 4}, Vec{r});
  as.vzeroupper();
  as.ret();

  buf.finalize();
  return std::make_unique<GemmKernel>(d, std::move(buf));
}

}  // namespace xconv::jit
