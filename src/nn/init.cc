#include "nn/init.h"

#include <cmath>

namespace mamdr {
namespace nn {
namespace init {

Tensor XavierUniform(int64_t fan_in, int64_t fan_out, Rng* rng) {
  const float limit =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  Tensor t({fan_in, fan_out});
  float* p = t.data();
  for (int64_t i = 0; i < t.size(); ++i) {
    p[i] = static_cast<float>(rng->Uniform(-limit, limit));
  }
  return t;
}

Tensor Normal(const Shape& shape, float stddev, Rng* rng) {
  Tensor t(shape);
  float* p = t.data();
  for (int64_t i = 0; i < t.size(); ++i) {
    p[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return t;
}

Tensor Zeros(const Shape& shape) { return Tensor(shape); }

Tensor Ones(const Shape& shape) { return Tensor(shape, 1.0f); }

}  // namespace init
}  // namespace nn
}  // namespace mamdr
