// Weight initializers.
#ifndef MAMDR_NN_INIT_H_
#define MAMDR_NN_INIT_H_

#include "common/random.h"
#include "tensor/tensor.h"

namespace mamdr {
namespace nn {
namespace init {

/// Glorot/Xavier uniform: U(-limit, limit), limit = sqrt(6/(fan_in+fan_out)).
Tensor XavierUniform(int64_t fan_in, int64_t fan_out, Rng* rng);

/// N(0, stddev) of arbitrary shape (embedding tables).
Tensor Normal(const Shape& shape, float stddev, Rng* rng);

/// All zeros (biases).
Tensor Zeros(const Shape& shape);

/// All ones (norm scales).
Tensor Ones(const Shape& shape);

}  // namespace init
}  // namespace nn
}  // namespace mamdr

#endif  // MAMDR_NN_INIT_H_
