#include "gxm/data.hpp"

#include <cmath>
#include <random>

namespace xconv::gxm {

void synth_batch(tensor::ActTensor& batch, std::vector<int>& labels,
                 int classes, unsigned seed) {
  std::mt19937 rng(seed * 2654435761u + 97);
  std::uniform_int_distribution<int> label_dist(0, classes - 1);
  std::normal_distribution<float> noise(0.0f, 0.15f);

  const int N = batch.n(), C = batch.channels(), H = batch.h(), W = batch.w();
  const int lanes = batch.vlen();
  std::vector<float> col(W), row(H);
  labels.resize(N);
  for (int n = 0; n < N; ++n) {
    const int label = label_dist(rng);
    labels[n] = label;
    // Class-dependent low-frequency pattern: each class gets a distinct
    // orientation/phase so a small CNN can separate them.
    const float fx = 1.0f + static_cast<float>(label % 4);
    const float fy = 1.0f + static_cast<float>((label / 4) % 4);
    const float phase = 0.7f * static_cast<float>(label);
    for (int c = 0; c < C; ++c) {
      // The pattern separates into a column and a row factor, each
      // evaluated once per channel; the noise draws keep (y, x) order.
      for (int x = 0; x < W; ++x) {
        const float u = static_cast<float>(x) / W;
        col[x] = std::sin(6.28318f * (fx * u + 0.3f * c) + phase);
      }
      for (int y = 0; y < H; ++y) {
        const float v = static_cast<float>(y) / H;
        row[y] = std::cos(6.28318f * fy * v + 0.5f * c);
      }
      for (int y = 0; y < H; ++y) {
        float* px = batch.at(n, c / lanes, y, 0) + c % lanes;
        for (int x = 0; x < W; ++x)
          px[static_cast<std::size_t>(x) * lanes] =
              col[x] * row[y] + noise(rng);
      }
    }
  }
}

}  // namespace xconv::gxm
