// Shared helpers for the mlsl test suites: canonical reference sums, bucket
// layouts, and one-round drivers for the bucketized allreduce — including
// the one-bucket round, the bulk-synchronous allreduce expressed on the
// bucket API.
#pragma once

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "gxm/graph.hpp"
#include "mlsl/allreduce.hpp"

namespace xconv::testing {

/// Canonical rank-order serial sum — the bit pattern every fp32 round must
/// produce on every rank.
inline std::vector<float> canonical_sum(
    const std::vector<std::vector<float>>& data) {
  std::vector<float> want(data[0].size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    float acc = data[0][i];
    for (std::size_t r = 1; r < data.size(); ++r) acc += data[r][i];
    want[i] = acc;
  }
  return want;
}

/// One contiguous single-segment bucket per (offset, elems) range.
inline std::vector<mlsl::GradBucket> make_buckets(
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges) {
  std::vector<mlsl::GradBucket> out;
  for (const auto& [off, elems] : ranges) {
    mlsl::GradBucket b;
    b.segments.push_back({off, elems});
    b.elems = elems;
    out.push_back(std::move(b));
  }
  return out;
}

/// Bucket cap that packs any gradient into one bucket.
inline constexpr std::size_t kOneBucketCap =
    std::numeric_limits<std::size_t>::max();

/// One rank's share of a round (call from within `comm.parallel`): open the
/// round on `buf`, post every installed bucket in order, wait for all.
inline void rank_round(mlsl::Communicator& comm, int rank, float* buf) {
  comm.overlap_begin(rank, buf);
  for (std::size_t b = 0; b < comm.bucket_count(); ++b)
    comm.post_bucket(rank, b);
  comm.wait_all(rank);
}

/// One round over the installed buckets on fresh copies of `data`; returns
/// the rank buffers after the reduction.
inline std::vector<std::vector<float>> overlap_round(
    mlsl::Communicator& comm, const std::vector<std::vector<float>>& data) {
  std::vector<std::vector<float>> bufs = data;
  comm.parallel([&](int rank) { rank_round(comm, rank, bufs[rank].data()); });
  return bufs;
}

/// Install one bucket spanning [0, n) on `comm`.
inline void set_one_bucket(mlsl::Communicator& comm, std::size_t n) {
  comm.set_buckets(make_buckets({{0, n}}));
}

/// The bulk allreduce: one bucket over the whole vector, one round.
inline std::vector<std::vector<float>> one_bucket_round(
    mlsl::Communicator& comm, const std::vector<std::vector<float>>& data) {
  set_one_bucket(comm, data[0].size());
  return overlap_round(comm, data);
}

/// Single-threaded replica options for the multi-node trainer tests.
inline gxm::GraphOptions mini_opt(unsigned seed = 5) {
  gxm::GraphOptions opt;
  opt.threads = 1;
  opt.seed = seed;
  return opt;
}

/// Weights of every parameter-owning node, serialized in the flat layout.
inline std::vector<float> all_params(gxm::Graph& g) {
  std::vector<float> out(g.grad_elems());
  g.export_params(out.data());
  return out;
}

}  // namespace xconv::testing
