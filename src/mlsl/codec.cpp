#include "mlsl/codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "kernels/kernel_registry.hpp"
#include "platform/cpu.hpp"
#include "quant/bfloat16.hpp"
#include "quant/quantize.hpp"

namespace xconv::mlsl {

const char* codec_name(Codec c) {
  switch (c) {
    case Codec::kInt16:
      return "int16";
    case Codec::kBf16:
      return "bf16";
    case Codec::kTopK:
      return "topk";
    default:
      return "fp32";
  }
}

Codec codec_from_name(const std::string& s) {
  if (s == "fp32") return Codec::kFp32;
  if (s == "int16") return Codec::kInt16;
  if (s == "bf16") return Codec::kBf16;
  if (s == "topk") return Codec::kTopK;
  throw std::invalid_argument("unknown gradient codec '" + s +
                              "' (expected fp32, int16, bf16 or topk)");
}

std::size_t payload_elems(PayloadSegments segs) {
  std::size_t n = 0;
  for (const PayloadSegment& seg : segs) n += seg.elems;
  return n;
}

std::size_t PayloadCodec::encode(const float* src, float* residual,
                                 std::size_t n, std::uint8_t* wire) const {
  CodecWorkspace ws;
  const PayloadSegment one{0, n};
  return encode(src, residual, PayloadSegments(&one, 1), wire, ws);
}

void PayloadCodec::decode(const std::uint8_t* wire, std::size_t wire_bytes,
                          float* dst, std::size_t n) const {
  const PayloadSegment one{0, n};
  decode(wire, wire_bytes, dst, PayloadSegments(&one, 1));
}

void PayloadCodec::decode_accumulate(const std::uint8_t* wire,
                                     std::size_t wire_bytes, float* dst,
                                     std::size_t n) const {
  const PayloadSegment one{0, n};
  decode_accumulate(wire, wire_bytes, dst, PayloadSegments(&one, 1));
}

void PayloadCodec::transmit(float* x, float* residual, std::size_t n) const {
  std::vector<std::uint8_t> wire(max_encoded_bytes(n));
  const std::size_t wb = encode(x, residual, n, wire.data());
  decode(wire.data(), wb, x, n);
}

namespace {

// Unaligned typed access into wire buffers (payload layouts are packed, and
// e.g. the int16 lane array starts 4 bytes in).
template <typename T>
T load(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void store(std::uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

/// Resolve the kernel for a codec hot loop at the effective ISA (after the
/// XCONV_ISA clamp): the generated AVX-512 kernel on an AVX-512 host, else
/// the scalar reference span (kernels::codec_scalar_span). Every generated
/// kernel is bitwise-equal to that span (the per-op proofs live in
/// jit/codec_kernel_gen.hpp), so the choice can never change a wire byte;
/// XCONV_ISA=scalar (or avx2) runs the reference loops end to end.
const kernels::CodecMicrokernel& codec_kernel(jit::CodecOp op) {
  static const platform::Isa isa = platform::effective_isa();
  jit::CodecKernelDesc d;
  d.op = op;
  d.isa = isa;
  return *kernels::KernelRegistry::instance().codec(d);
}

/// res[i] += src[i] over every segment — the error-feedback fold shared by
/// the lossy codecs. Given `amax`, the same sweep also folds max|res| into
/// *amax (the fold_amax op).
void fold_payload(const float* src, float* res, PayloadSegments segs,
                  float* amax = nullptr) {
  const kernels::CodecMicrokernel& fold = codec_kernel(
      amax != nullptr ? jit::CodecOp::fold_amax : jit::CodecOp::fold_add);
  for (const PayloadSegment& seg : segs) {
    kernels::CodecCall c;
    c.f_in = src + seg.offset;
    c.f_io = res + seg.offset;
    c.amax = amax;
    c.n = static_cast<std::int64_t>(seg.elems);
    fold.run(c);
  }
}

/// Run a streaming wire op (quantize/pack or dequantize/unpack) segment by
/// segment: `f` is the float operand (f_io) base, and the wire cursor
/// advances `lane_bytes` per element in segment order.
template <typename Wire>
void run_wire_op(jit::CodecOp op, const float* src, float* f, Wire* wire,
                 std::size_t lane_bytes, float scale, PayloadSegments segs) {
  const kernels::CodecMicrokernel& k = codec_kernel(op);
  for (const PayloadSegment& seg : segs) {
    kernels::CodecCall c;
    if (src != nullptr) c.f_in = src + seg.offset;
    c.f_io = f + seg.offset;
    if constexpr (std::is_const_v<Wire>)
      c.w_in = wire;
    else
      c.w_out = wire;
    c.scale = scale;
    c.n = static_cast<std::int64_t>(seg.elems);
    k.run(c);
    wire += seg.elems * lane_bytes;
  }
}

class Fp32Codec final : public PayloadCodec {
 public:
  Codec kind() const override { return Codec::kFp32; }
  bool uses_residual() const override { return false; }
  std::size_t max_encoded_bytes(std::size_t n) const override {
    return n * sizeof(float);
  }
  std::size_t encode(const float* src, float* /*residual*/,
                     PayloadSegments segs, std::uint8_t* wire,
                     CodecWorkspace& /*ws*/) const override {
    // Exact passthrough: the wire carries the bits unchanged, so the
    // residual (when a caller keeps one) stays identically zero.
    std::uint8_t* w = wire;
    for (const PayloadSegment& seg : segs) {
      std::memcpy(w, src + seg.offset, seg.elems * sizeof(float));
      w += seg.elems * sizeof(float);
    }
    return static_cast<std::size_t>(w - wire);
  }
  void decode(const std::uint8_t* wire, std::size_t /*wire_bytes*/,
              float* dst, PayloadSegments segs) const override {
    for (const PayloadSegment& seg : segs) {
      std::memcpy(dst + seg.offset, wire, seg.elems * sizeof(float));
      wire += seg.elems * sizeof(float);
    }
  }
  void decode_accumulate(const std::uint8_t* wire, std::size_t /*wire_bytes*/,
                         float* dst, PayloadSegments segs) const override {
    for (const PayloadSegment& seg : segs) {
      float* d = dst + seg.offset;
      for (std::size_t i = 0; i < seg.elems; ++i)
        d[i] += load<float>(wire + i * sizeof(float));
      wire += seg.elems * sizeof(float);
    }
  }
};

// Wire layout: [f32 scale][n x i16 lanes].
class Int16Codec final : public PayloadCodec {
 public:
  Codec kind() const override { return Codec::kInt16; }
  std::size_t max_encoded_bytes(std::size_t n) const override {
    return sizeof(float) + n * sizeof(std::int16_t);
  }
  std::size_t encode(const float* src, float* res, PayloadSegments segs,
                     std::uint8_t* wire,
                     CodecWorkspace& /*ws*/) const override {
    // Pass 1 folds the carried-over error into the residual buffer and
    // scans max|res| in the same sweep, so the quant:: scale covers the
    // folded values (an element whose residual pushed it past the raw amax
    // must not clamp). Pass 2 quantizes with the one common scale.
    float amax = 0.0f;
    fold_payload(src, res, segs, &amax);
    const float s = quant::scale_for_amax(amax);
    store<float>(wire, s);
    run_wire_op(jit::CodecOp::int16_quant, nullptr, res, wire + sizeof(float),
                sizeof(std::int16_t), s, segs);
    return max_encoded_bytes(payload_elems(segs));
  }
  void decode(const std::uint8_t* wire, std::size_t /*wire_bytes*/,
              float* dst, PayloadSegments segs) const override {
    run_wire_op(jit::CodecOp::int16_dequant, nullptr, dst,
                wire + sizeof(float), sizeof(std::int16_t),
                load<float>(wire), segs);
  }
  void decode_accumulate(const std::uint8_t* wire, std::size_t /*wire_bytes*/,
                         float* dst, PayloadSegments segs) const override {
    run_wire_op(jit::CodecOp::int16_dequant_acc, nullptr, dst,
                wire + sizeof(float), sizeof(std::int16_t),
                load<float>(wire), segs);
  }
};

// Wire layout: [n x u16 bf16 lanes] (fp32 high halves after RNE rounding).
class Bf16Codec final : public PayloadCodec {
 public:
  Codec kind() const override { return Codec::kBf16; }
  std::size_t max_encoded_bytes(std::size_t n) const override {
    return n * sizeof(std::uint16_t);
  }
  std::size_t encode(const float* src, float* res, PayloadSegments segs,
                     std::uint8_t* wire,
                     CodecWorkspace& /*ws*/) const override {
    run_wire_op(jit::CodecOp::bf16_pack, src, res, wire,
                sizeof(std::uint16_t), 1.0f, segs);
    return max_encoded_bytes(payload_elems(segs));
  }
  void decode(const std::uint8_t* wire, std::size_t /*wire_bytes*/,
              float* dst, PayloadSegments segs) const override {
    run_wire_op(jit::CodecOp::bf16_unpack, nullptr, dst, wire,
                sizeof(std::uint16_t), 1.0f, segs);
  }
  void decode_accumulate(const std::uint8_t* wire, std::size_t /*wire_bytes*/,
                         float* dst, PayloadSegments segs) const override {
    run_wire_op(jit::CodecOp::bf16_unpack_acc, nullptr, dst, wire,
                sizeof(std::uint16_t), 1.0f, segs);
  }
};

/// Maps ascending payload positions (the element numbering in segment
/// order) onto flat-vector offsets by a merge walk over the segments.
class SegmentCursor {
 public:
  explicit SegmentCursor(PayloadSegments segs) : segs_(segs) {}
  /// Flat offset of payload position `i`. Positions must arrive in
  /// ascending order; throws std::out_of_range on one past the payload or
  /// behind the current segment (a malformed wire must not write out of
  /// bounds).
  std::size_t flat(std::size_t i) {
    while (s_ < segs_.size() && i >= base_ + segs_[s_].elems)
      base_ += segs_[s_++].elems;
    if (s_ == segs_.size() || i < base_)
      throw std::out_of_range(
          "topk payload: index out of range or not ascending");
    return segs_[s_].offset + (i - base_);
  }

 private:
  PayloadSegments segs_;
  std::size_t s_ = 0;     ///< current segment
  std::size_t base_ = 0;  ///< payload position of segs_[s_]'s first element
};

// Sparsified top-k payload. Wire layout: [u32 k][k x u32 index, ascending]
// [k x f32 value]. Indices are payload positions (segment order). The kept
// coordinates travel as exact fp32, so their residual is zero; every
// dropped coordinate lands whole in the residual and is re-injected next
// round (classic error-feedback sparsification).
class TopKCodec final : public PayloadCodec {
 public:
  explicit TopKCodec(double fraction) : fraction_(fraction) {}
  Codec kind() const override { return Codec::kTopK; }
  std::size_t max_encoded_bytes(std::size_t n) const override {
    return sizeof(std::uint32_t) +
           n * (sizeof(std::uint32_t) + sizeof(float));
  }
  /// Kept coordinates for an n-element payload: round(fraction*n) clamped
  /// to [1, n] — a fraction that rounds to zero still ships one coordinate,
  /// so every bucket makes forward progress each round.
  std::size_t k_of(std::size_t n) const {
    if (n == 0) return 0;
    const auto k = static_cast<std::size_t>(
        std::llround(fraction_ * static_cast<double>(n)));
    return std::clamp<std::size_t>(k, 1, n);
  }
  std::size_t encode(const float* src, float* res, PayloadSegments segs,
                     std::uint8_t* wire, CodecWorkspace& ws) const override {
    // Fold the carried-over error first: a coordinate dropped for several
    // rounds grows in the residual until it out-ranks fresher entries.
    fold_payload(src, res, segs);
    const std::size_t n = payload_elems(segs);
    const std::size_t k = k_of(n);
    // Selection is a pure function of the folded values: magnitude order
    // with ties broken by lowest payload position, so every rank / comm
    // thread / pool size / backend produces the identical wire payload for
    // identical inputs.
    if (k < n) {
      ws.mag.resize(n);
      run_mag(res, segs, ws.mag.data());
      select(n, k, ws);
    } else {
      ws.idx.resize(n);
      std::iota(ws.idx.begin(), ws.idx.end(), 0u);
    }
    store<std::uint32_t>(wire, static_cast<std::uint32_t>(k));
    std::uint8_t* iw = wire + sizeof(std::uint32_t);
    std::uint8_t* vw = iw + k * sizeof(std::uint32_t);
    SegmentCursor cur(segs);
    for (std::size_t j = 0; j < k; ++j) {
      const std::uint32_t i = ws.idx[j];
      float& r = res[cur.flat(i)];
      store<std::uint32_t>(iw + j * sizeof(std::uint32_t), i);
      store<float>(vw + j * sizeof(float), r);
      r = 0.0f;  // kept coordinates ship exactly: no encoding error
    }
    return sizeof(std::uint32_t) + k * (sizeof(std::uint32_t) + sizeof(float));
  }
  void decode(const std::uint8_t* wire, std::size_t /*wire_bytes*/,
              float* dst, PayloadSegments segs) const override {
    for (const PayloadSegment& seg : segs)
      std::memset(dst + seg.offset, 0, seg.elems * sizeof(float));
    decode_accumulate(wire, 0, dst, segs);
  }
  void decode_accumulate(const std::uint8_t* wire, std::size_t /*wire_bytes*/,
                         float* dst, PayloadSegments segs) const override {
    const std::size_t k = load<std::uint32_t>(wire);
    const std::uint8_t* iw = wire + sizeof(std::uint32_t);
    const std::uint8_t* vw = iw + k * sizeof(std::uint32_t);
    SegmentCursor cur(segs);
    for (std::size_t j = 0; j < k; ++j)
      dst[cur.flat(load<std::uint32_t>(iw + j * sizeof(std::uint32_t)))] +=
          load<float>(vw + j * sizeof(float));
  }

 private:
  /// Magnitude keys of the folded payload, in payload order:
  /// mag = min(bits & 0x7fffffff, 0x7f800000), strictly monotone in the
  /// float magnitude with every NaN collapsed onto the +inf key — so NaNs
  /// ship first (propagating like the dense codecs would) and the key order
  /// is a strict weak ordering even for NaN payloads.
  static void run_mag(const float* res, PayloadSegments segs,
                      std::uint32_t* mag) {
    const kernels::CodecMicrokernel& k = codec_kernel(jit::CodecOp::topk_mag);
    for (const PayloadSegment& seg : segs) {
      kernels::CodecCall c;
      c.f_in = res + seg.offset;
      c.u_out = mag;
      c.n = static_cast<std::int64_t>(seg.elems);
      k.run(c);
      mag += seg.elems;
    }
  }

  /// Select the k (< n) largest keys of ws.mag, ties to the lowest
  /// position, into ws.idx[0..k) ascending: a pivot from nth_element on a
  /// key copy (u32 compares, no per-compare gather through an index
  /// permutation), the strictly-greater positions through the
  /// topk_compress op, and a scalar tie fill. {key > pivot} ∪ {lowest
  /// positions with key == pivot} is exactly the set the reference
  /// comparator (magnitude desc, position asc) picks; both halves come out
  /// ascending and are merged.
  static void select(std::size_t n, std::size_t k, CodecWorkspace& ws) {
    ws.tmp.assign(ws.mag.begin(), ws.mag.end());
    std::nth_element(ws.tmp.begin(), ws.tmp.begin() + static_cast<long>(k) - 1,
                     ws.tmp.end(), std::greater<std::uint32_t>());
    const std::uint32_t pivot = ws.tmp[k - 1];
    // Strictly-greater positions, ascending. g <= k-1 by definition of the
    // k-th-largest pivot, so idx never overflows its k slots.
    ws.idx.resize(k);
    std::size_t g;
    {
      kernels::CodecCall c;
      c.u_in = ws.mag.data();
      c.u_out = ws.idx.data();
      c.threshold = pivot;
      c.n = static_cast<std::int64_t>(n);
      g = static_cast<std::size_t>(
          codec_kernel(jit::CodecOp::topk_compress).run(c));
    }
    // The remaining k-g slots go to the lowest positions whose key equals
    // the pivot — the reference comparator's tie break. At least k-g such
    // keys exist, again by definition of the pivot.
    ws.tmp.clear();
    std::size_t need = k - g;
    for (std::size_t i = 0; i < n && need > 0; ++i) {
      if (ws.mag[i] == pivot) {
        ws.tmp.push_back(static_cast<std::uint32_t>(i));
        --need;
      }
    }
    std::copy(ws.tmp.begin(), ws.tmp.end(),
              ws.idx.begin() + static_cast<long>(g));
    std::inplace_merge(ws.idx.begin(), ws.idx.begin() + static_cast<long>(g),
                       ws.idx.end());
  }

  double fraction_;
};

void validate_topk_fraction(double f) {
  if (!(f > 0.0) || f > 1.0)
    throw std::invalid_argument(
        "topk fraction must be in (0, 1], got " + std::to_string(f));
}

}  // namespace

std::unique_ptr<const PayloadCodec> make_codec(Codec c, double topk_fraction) {
  switch (c) {
    case Codec::kInt16:
      return std::make_unique<Int16Codec>();
    case Codec::kBf16:
      return std::make_unique<Bf16Codec>();
    case Codec::kTopK:
      validate_topk_fraction(topk_fraction);
      return std::make_unique<TopKCodec>(topk_fraction);
    default:
      return std::make_unique<Fp32Codec>();
  }
}

const PayloadCodec& get_codec(Codec c) {
  static const Fp32Codec fp32;
  static const Int16Codec int16;
  static const Bf16Codec bf16;
  switch (c) {
    case Codec::kInt16:
      return int16;
    case Codec::kBf16:
      return bf16;
    case Codec::kTopK:
      // No singleton: a shared instance would silently pin the fraction,
      // disagreeing with any configured topk_fraction.
      throw std::invalid_argument(
          "get_codec: topk is parameterized — use make_codec(Codec::kTopK, "
          "fraction)");
    default:
      return fp32;
  }
}

}  // namespace xconv::mlsl
