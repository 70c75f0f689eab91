// Pluggable gradient-payload codecs for the simulated MLSL allreduce
// (ROADMAP: low-precision gradient allreduce — the paper Section II-K
// quantization machinery extended from compute to communication).
//
// A codec defines what a bucket's bytes look like on the (simulated) wire.
// Since PR 5 the interface is an explicit *variable-rate* wire format: a
// codec encodes a contribution into a self-describing byte payload whose
// size is data-dependent (`encode` returns the actual wire bytes), and the
// receive side reconstructs (`decode`) or reduces (`decode_accumulate`)
// from those bytes. Fixed-rate codecs are the degenerate case where the
// byte count depends only on the element count:
//   * fp32  — passthrough, 4 B/element raw. Bit-identical to the
//             uncompressed path; the reference the others are measured
//             against.
//   * int16 — symmetric per-payload scaling through the quant:: scale/clamp
//             machinery (q = clamp(round(x/s)), s = amax / kQMax): one fp32
//             scale header + 2 B/element.
//   * bf16  — round-to-nearest-even truncation to bfloat16: 2 B/element,
//             fp32 exponent range retained, no scale management.
//   * topk  — sparsified index+value payload: only the top-k fraction of
//             the payload's coordinates by magnitude (after the residual
//             fold) go on the wire, as exact fp32 values; every dropped
//             coordinate is absorbed whole by the error-feedback residual.
//             Wire bytes shrink with k (a count header + 8 B per kept
//             coordinate), so compression grows with gradient sparsity
//             instead of being pinned at the fixed 2x of int16/bf16.
//
// Compression is lossy, so both compression points of the allreduce carry
// error feedback: each rank keeps a per-element residual for its own
// contribution, and the reduced sum keeps one shared residual for the
// re-encode on the allgather leg. The encoding error (for top-k: the entire
// dropped coordinate) of iteration t is re-injected at iteration t+1, so
// the *average* transmitted gradient converges to the true gradient and
// compressed trajectories track fp32 within a bounded loss gap (asserted in
// tests). The master weights stay fp32 on every rank throughout — only wire
// payloads are narrowed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace xconv::mlsl {

/// One slice [offset, offset + elems) of a flat float vector. A payload is
/// a list of segments over flat base pointers: an allreduce bucket carries
/// the (possibly non-adjacent) slices of the layers it holds, a contiguous
/// payload is the single segment {0, n}.
struct PayloadSegment {
  std::size_t offset = 0;
  std::size_t elems = 0;
};
using PayloadSegments = std::span<const PayloadSegment>;

/// Element count of a payload (the sum of its segment lengths).
std::size_t payload_elems(PayloadSegments segs);

/// Reusable encode scratch. Top-k selection needs O(n) index/magnitude
/// workspaces per encode; a caller that encodes many buckets (the allreduce
/// comm threads) passes one workspace per thread so the buffers are
/// allocated once and grow to the largest bucket instead of being
/// re-allocated per call. The contiguous encode() convenience builds a
/// transient one.
struct CodecWorkspace {
  std::vector<std::uint32_t> idx;  ///< selected indices (ascending)
  std::vector<std::uint32_t> mag;  ///< magnitude keys (NaN -> +inf key)
  std::vector<std::uint32_t> tmp;  ///< selection scratch (pivot / ties)
};

enum class Codec { kFp32, kInt16, kBf16, kTopK };

const char* codec_name(Codec c);
/// Parse "fp32" | "int16" | "bf16" | "topk"; throws std::invalid_argument
/// otherwise.
Codec codec_from_name(const std::string& s);

/// One hop's payload transform. Stateless and thread-safe: all persistent
/// state (residuals) is owned by the caller, so disjoint buckets can be
/// transmitted concurrently by a comm-thread pool. Encoding is deterministic
/// in its inputs (top-k breaks magnitude ties by lowest index), so replicas
/// and comm-thread pool sizes can never make wire payloads diverge.
///
/// Payloads are segment lists (PayloadSegment): the source, the residual and
/// the destination of one call share the segment offsets, and the n payload
/// elements are numbered in segment order. The wire is contiguous in that
/// order, so a segmented call produces byte for byte the wire of the same
/// elements gathered into one contiguous payload, and per-payload codec
/// state (an int16 scale, a top-k selection) covers every segment.
class PayloadCodec {
 public:
  virtual ~PayloadCodec() = default;
  virtual Codec kind() const = 0;

  /// False for exact codecs (fp32) that never produce an encoding error;
  /// callers may then skip residual storage and pass nullptr to encode().
  virtual bool uses_residual() const { return true; }

  /// Upper bound on encode()'s output size for an n-element payload — the
  /// wire-buffer sizing contract.
  virtual std::size_t max_encoded_bytes(std::size_t n) const = 0;

  /// Encode src[i] + residual[i] over the payload `segs` into `wire` and
  /// return the actual wire byte count (<= max_encoded_bytes(n)). On return
  /// residual[i] holds the new encoding error (for top-k the entire dropped
  /// coordinate), so a later decode(wire) + residual reconstructs the folded
  /// input exactly. `residual` may be nullptr iff !uses_residual(). src is
  /// not modified; it may alias neither residual nor wire. `ws` is selection
  /// scratch (see CodecWorkspace).
  virtual std::size_t encode(const float* src, float* residual,
                             PayloadSegments segs, std::uint8_t* wire,
                             CodecWorkspace& ws) const = 0;

  /// Reconstruct the payload `segs` of dst from `wire_bytes` of wire
  /// (overwrite; sparse payloads zero the coordinates they dropped).
  virtual void decode(const std::uint8_t* wire, std::size_t wire_bytes,
                      float* dst, PayloadSegments segs) const = 0;

  /// dst[i] += decoded[i] over the payload `segs` — the reduction entry
  /// point. Sparse payloads touch only the coordinates present on the wire.
  virtual void decode_accumulate(const std::uint8_t* wire,
                                 std::size_t wire_bytes, float* dst,
                                 PayloadSegments segs) const = 0;

  // Contiguous n-element payloads: the single segment {0, n}.
  std::size_t encode(const float* src, float* residual, std::size_t n,
                     std::uint8_t* wire) const;
  void decode(const std::uint8_t* wire, std::size_t wire_bytes, float* dst,
              std::size_t n) const;
  void decode_accumulate(const std::uint8_t* wire, std::size_t wire_bytes,
                         float* dst, std::size_t n) const;

  /// Convenience in-place wire round trip (encode + decode through a
  /// temporary wire buffer) with error feedback: on return x holds the
  /// decoded (wire-faithful) values and residual the new encoding error.
  /// fp32 is the exact identity and leaves residual at 0.
  void transmit(float* x, float* residual, std::size_t n) const;
};

/// Construct a codec instance. `topk_fraction` (in (0, 1]) is the kept
/// fraction for Codec::kTopK (at least one coordinate is always kept;
/// fraction 1.0 degenerates to a dense exact payload) and is ignored by the
/// fixed-rate codecs. Throws std::invalid_argument on a bad fraction.
std::unique_ptr<const PayloadCodec> make_codec(Codec c,
                                               double topk_fraction = 0.1);

/// Stateless singleton for a dense (parameterless) codec kind. Throws
/// std::invalid_argument for Codec::kTopK, whose fraction must be chosen
/// explicitly through make_codec.
const PayloadCodec& get_codec(Codec c);

}  // namespace xconv::mlsl
