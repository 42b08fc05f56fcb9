#include "nn/embedding.h"

#include "nn/init.h"

namespace mamdr {
namespace nn {

Embedding::Embedding(int64_t vocab_size, int64_t dim, Rng* rng, bool trainable,
                     float init_stddev)
    : vocab_size_(vocab_size), dim_(dim) {
  Tensor t = init::Normal({vocab_size, dim}, init_stddev, rng);
  if (trainable) {
    table_ = RegisterParameter("table", std::move(t));
  } else {
    table_ = Var(std::move(t), /*requires_grad=*/false, "frozen_table");
  }
}

Var Embedding::Forward(const std::vector<int64_t>& ids) const {
  return autograd::EmbeddingLookup(table_, ids);
}

void Embedding::CopyOwnBuffersFrom(const Module& src) {
  const auto& o = dynamic_cast<const Embedding&>(src);
  MAMDR_CHECK(o.table_.shape() == table_.shape());
  if (!table_.requires_grad()) table_ = o.table_;
}

}  // namespace nn
}  // namespace mamdr
