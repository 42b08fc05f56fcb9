// Embedding table layer.
#ifndef MAMDR_NN_EMBEDDING_H_
#define MAMDR_NN_EMBEDDING_H_

#include <vector>

#include "nn/module.h"

namespace mamdr {
namespace nn {

/// Lookup table [vocab, dim] -> per-id rows [B, dim].
///
/// `trainable=false` freezes the table (used for the Taobao-style pretrained
/// features the paper keeps fixed during training).
class Embedding : public Module {
 public:
  Embedding(int64_t vocab_size, int64_t dim, Rng* rng, bool trainable = true,
            float init_stddev = 0.05f);

  Var Forward(const std::vector<int64_t>& ids) const;

  int64_t vocab_size() const { return vocab_size_; }
  int64_t dim() const { return dim_; }
  const Var& table() const { return table_; }

 protected:
  /// A frozen table is not among Parameters(): share src's.
  void CopyOwnBuffersFrom(const Module& src) override;

 private:
  int64_t vocab_size_;
  int64_t dim_;
  Var table_;
};

}  // namespace nn
}  // namespace mamdr

#endif  // MAMDR_NN_EMBEDDING_H_
