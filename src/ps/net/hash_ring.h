// Consistent-hash ring assigning parameter-server keys to shards.
//
// Every embedding row and every dense tensor is a *key*; the ring maps keys
// to shard ids so that (a) the assignment is a pure function of
// (num_shards, vnodes, seed) — every client and every shard derive the same
// ownership map with no coordination, and (b) keys spread evenly: each
// shard projects `vnodes` points onto the 64-bit ring and a key belongs to
// the first point at or after its own hash (wrapping). The classic
// consistent-hashing property — adding/removing a shard only moves the keys
// adjacent to its points — is what makes resharding incremental if the
// shard count ever becomes dynamic; today the count is fixed per run and
// the ring is simply the deterministic placement function.
#ifndef MAMDR_PS_NET_HASH_RING_H_
#define MAMDR_PS_NET_HASH_RING_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace mamdr {
namespace ps {
namespace net {

class HashRing {
 public:
  /// `num_shards` >= 1. Clients and shards route with the default geometry,
  /// so they always agree; only tests pass other values.
  explicit HashRing(int num_shards, int vnodes_per_shard = 64,
                    uint64_t seed = 0x6d616d6472u /* "mamdr" */);

  int num_shards() const { return num_shards_; }

  /// Owning shard of an arbitrary 64-bit key.
  int ShardForKey(uint64_t key) const;

  /// Key of a dense parameter tensor.
  static uint64_t DenseKey(int64_t param_idx);

  /// Key of one row of an embedding parameter.
  static uint64_t RowKey(int64_t param_idx, int64_t row);

  int ShardForDense(int64_t param_idx) const {
    return ShardForKey(DenseKey(param_idx));
  }
  int ShardForRow(int64_t param_idx, int64_t row) const {
    return ShardForKey(RowKey(param_idx, row));
  }

 private:
  int num_shards_;
  /// (ring point, shard id), sorted by point.
  std::vector<std::pair<uint64_t, int>> points_;
};

}  // namespace net
}  // namespace ps
}  // namespace mamdr

#endif  // MAMDR_PS_NET_HASH_RING_H_
