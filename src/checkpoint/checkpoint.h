// Binary checkpointing of model parameters and MAMDR parameter stores.
//
// Format v2 (little-endian): magic "MAMDRCKP", u32 version, u64 tensor
// count, then per tensor: u32 name length, name bytes, u32 rank,
// i64 dims..., float32 data; finally a u32 CRC-32 footer over every
// preceding byte. Loading matches tensors by name and verifies shapes, so a
// checkpoint survives refactors that only reorder parameters.
//
// Durability contract: SaveTensors writes to `<path>.tmp` and renames into
// place, so `path` always holds either the previous or the new complete
// checkpoint — never a torn write. LoadTensors verifies magic, version, and
// CRC before deserializing and returns a descriptive InvalidArgument Status
// for truncated, bad-magic, or bit-flipped files.
#ifndef MAMDR_CHECKPOINT_CHECKPOINT_H_
#define MAMDR_CHECKPOINT_CHECKPOINT_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/param_store.h"
#include "nn/module.h"

namespace mamdr {
namespace checkpoint {

/// Save named tensors to `path`.
Status SaveTensors(
    const std::vector<std::pair<std::string, Tensor>>& named_tensors,
    const std::string& path);

/// Load all tensors from `path`.
Result<std::vector<std::pair<std::string, Tensor>>> LoadTensors(
    const std::string& path);

using NamedTensors = std::vector<std::pair<std::string, Tensor>>;

/// Parameter-server checkpoints (a network shard's, and DistributedMamdr's
/// beside its "epoch" counter) name parameter i "param/<i>". Append
/// `params` under those names.
void AppendPsParams(const std::vector<Tensor>& params, NamedTensors* named);

/// The parameters of a parameter-server checkpoint, in index order.
/// `named` must hold exactly the tensors named in `extra` (the caller reads
/// those) plus one "param/<i>" with shape shapes[i] for every
/// i < shapes.size(). A count mismatch, any other name, a bad or repeated
/// index, a missing index or a shape mismatch fails kInvalidArgument.
Result<std::vector<Tensor>> ReadPsParams(const NamedTensors& named,
                                         const std::vector<Shape>& shapes,
                                         const std::vector<std::string>& extra);

/// Save a module's parameters (by qualified name).
Status SaveModule(const nn::Module& module, const std::string& path);

/// Restore a module's parameters in place. Fails if any parameter is
/// missing from the checkpoint or has a different shape; extra tensors in
/// the checkpoint are ignored.
Status LoadModule(nn::Module* module, const std::string& path);

/// Save a MAMDR shared/specific store: writes "shared/<i>" and
/// "domain<d>/<i>" tensors.
Status SaveStore(const core::SharedSpecificStore& store,
                 const std::string& path);

/// Restore a store saved by SaveStore into `store` (same layout and domain
/// count required). The store's own parameter vector is untouched; call
/// InstallShared()/InstallComposite() afterwards to push values into the
/// model.
Status LoadStore(core::SharedSpecificStore* store, const std::string& path);

}  // namespace checkpoint
}  // namespace mamdr

#endif  // MAMDR_CHECKPOINT_CHECKPOINT_H_
