#include "checkpoint/checkpoint.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_map>

#include "common/crc32.h"
#include "common/logging.h"

namespace mamdr {
namespace checkpoint {
namespace {

constexpr char kMagic[8] = {'M', 'A', 'M', 'D', 'R', 'C', 'K', 'P'};
// v2 appends a CRC-32 footer over every preceding byte and is written
// atomically (tmp + rename); v1 files predate the integrity footer and are
// rejected so a corrupted legacy file can't be silently accepted.
constexpr uint32_t kVersion = 2;
constexpr size_t kFooterBytes = sizeof(uint32_t);

template <typename T>
void AppendPod(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Bounds-checked forward reader over an in-memory checkpoint image.
class Cursor {
 public:
  Cursor(const char* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Read(T* v) {
    if (size_ - pos_ < sizeof(T)) return false;
    std::memcpy(v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadBytes(void* dst, size_t n) {
    if (size_ - pos_ < n) return false;
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace

Status SaveTensors(
    const std::vector<std::pair<std::string, Tensor>>& named_tensors,
    const std::string& path) {
  std::string buf;
  buf.append(kMagic, sizeof(kMagic));
  AppendPod(&buf, kVersion);
  AppendPod(&buf, static_cast<uint64_t>(named_tensors.size()));
  for (const auto& [name, tensor] : named_tensors) {
    AppendPod(&buf, static_cast<uint32_t>(name.size()));
    buf.append(name);
    AppendPod(&buf, static_cast<uint32_t>(tensor.rank()));
    for (int64_t i = 0; i < tensor.rank(); ++i) AppendPod(&buf, tensor.dim(i));
    buf.append(reinterpret_cast<const char*>(tensor.data()),
               tensor.size() * sizeof(float));
  }
  AppendPod(&buf, Crc32(buf.data(), buf.size()));

  // Write to a sibling temp file, then rename into place: a crash mid-write
  // leaves the previous checkpoint intact, never a half-written one.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot open " + tmp);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return Status::Internal("short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Result<std::vector<std::pair<std::string, Tensor>>> LoadTensors(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::string buf((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::Internal("read error on " + path);
  }

  if (buf.size() < sizeof(kMagic)) {
    return Status::InvalidArgument(path + ": truncated checkpoint (" +
                                   std::to_string(buf.size()) + " bytes)");
  }
  if (std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + " is not a MAMDR checkpoint");
  }
  if (buf.size() < sizeof(kMagic) + sizeof(uint32_t) + kFooterBytes) {
    return Status::InvalidArgument(path + ": truncated checkpoint header");
  }
  uint32_t version = 0;
  std::memcpy(&version, buf.data() + sizeof(kMagic), sizeof(version));
  if (version != kVersion) {
    return Status::InvalidArgument(
        path + ": unsupported checkpoint version " + std::to_string(version));
  }
  const size_t body = buf.size() - kFooterBytes;
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, buf.data() + body, kFooterBytes);
  if (Crc32(buf.data(), body) != stored_crc) {
    return Status::InvalidArgument(
        path + ": checkpoint CRC mismatch (corrupted or truncated file)");
  }

  Cursor cur(buf.data(), body);
  char magic[sizeof(kMagic)];
  MAMDR_CHECK(cur.ReadBytes(magic, sizeof(magic)));  // sizes verified above
  MAMDR_CHECK(cur.Read(&version));
  uint64_t count = 0;
  if (!cur.Read(&count)) {
    return Status::InvalidArgument(path + ": truncated checkpoint header");
  }
  std::vector<std::pair<std::string, Tensor>> out;
  out.reserve(count);
  for (uint64_t t = 0; t < count; ++t) {
    uint32_t name_len = 0;
    if (!cur.Read(&name_len) || name_len > 4096 || name_len > cur.remaining()) {
      return Status::InvalidArgument(path + ": corrupt tensor name length");
    }
    std::string name(name_len, '\0');
    MAMDR_CHECK(cur.ReadBytes(name.data(), name_len));
    uint32_t rank = 0;
    if (!cur.Read(&rank) || rank > 8) {
      return Status::InvalidArgument(path + ": corrupt tensor rank");
    }
    Shape shape(rank);
    for (auto& d : shape) {
      if (!cur.Read(&d) || d < 0) {
        return Status::InvalidArgument(path + ": corrupt tensor shape");
      }
    }
    Tensor tensor(shape);
    const size_t payload = static_cast<size_t>(tensor.size()) * sizeof(float);
    if (!cur.ReadBytes(tensor.data(), payload)) {
      return Status::InvalidArgument(path + ": truncated tensor data");
    }
    out.emplace_back(std::move(name), std::move(tensor));
  }
  if (cur.remaining() != 0) {
    return Status::InvalidArgument(path + ": trailing bytes after tensors");
  }
  return out;
}

namespace {

std::string PsParamName(size_t i) { return "param/" + std::to_string(i); }

}  // namespace

void AppendPsParams(const std::vector<Tensor>& params, NamedTensors* named) {
  for (size_t i = 0; i < params.size(); ++i) {
    named->emplace_back(PsParamName(i), params[i]);
  }
}

Result<std::vector<Tensor>> ReadPsParams(
    const NamedTensors& named, const std::vector<Shape>& shapes,
    const std::vector<std::string>& extra) {
  if (named.size() != shapes.size() + extra.size()) {
    return Status::InvalidArgument(
        "ps checkpoint has " + std::to_string(named.size()) +
        " tensors, expected " + std::to_string(shapes.size() + extra.size()));
  }
  // Each expected name is consumed once, so a repeated one reads as
  // unexpected the second time.
  std::unordered_map<std::string, size_t> expected;
  for (size_t i = 0; i < shapes.size(); ++i) expected.emplace(PsParamName(i), i);
  std::vector<Tensor> params(shapes.size());
  for (const auto& [name, tensor] : named) {
    if (std::find(extra.begin(), extra.end(), name) != extra.end()) continue;
    const auto it = expected.find(name);
    if (it == expected.end()) {
      return Status::InvalidArgument(
          "ps checkpoint: unexpected or repeated tensor '" + name + "'");
    }
    if (tensor.shape() != shapes[it->second]) {
      return Status::InvalidArgument("ps checkpoint: tensor '" + name +
                                     "' shape mismatch");
    }
    params[it->second] = tensor;
    expected.erase(it);
  }
  // The counts matched, so a name left over means a repeated extra name
  // took its place.
  if (!expected.empty()) {
    return Status::InvalidArgument("ps checkpoint missing " +
                                   expected.begin()->first);
  }
  return params;
}

Status SaveModule(const nn::Module& module, const std::string& path) {
  std::vector<std::pair<std::string, Tensor>> named;
  for (const auto& [name, param] : module.NamedParameters()) {
    named.emplace_back(name, param.value());
  }
  return SaveTensors(named, path);
}

Status LoadModule(nn::Module* module, const std::string& path) {
  auto loaded = LoadTensors(path);
  MAMDR_RETURN_NOT_OK(loaded.status());
  std::unordered_map<std::string, const Tensor*> by_name;
  for (const auto& [name, tensor] : loaded.value()) {
    by_name[name] = &tensor;
  }
  for (auto& [name, param] : module->NamedParameters()) {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::NotFound("checkpoint missing parameter '" + name + "'");
    }
    if (it->second->shape() != param.value().shape()) {
      return Status::InvalidArgument("shape mismatch for '" + name + "'");
    }
    autograd::Var p = param;
    std::copy(it->second->data(), it->second->data() + it->second->size(),
              p.mutable_value().data());
  }
  return Status::OK();
}

Status SaveStore(const core::SharedSpecificStore& store,
                 const std::string& path) {
  std::vector<std::pair<std::string, Tensor>> named;
  for (size_t i = 0; i < store.shared().size(); ++i) {
    named.emplace_back("shared/" + std::to_string(i), store.shared()[i]);
  }
  for (int64_t d = 0; d < store.num_domains(); ++d) {
    const auto& spec = store.specific(d);
    for (size_t i = 0; i < spec.size(); ++i) {
      named.emplace_back(
          "domain" + std::to_string(d) + "/" + std::to_string(i), spec[i]);
    }
  }
  return SaveTensors(named, path);
}

Status LoadStore(core::SharedSpecificStore* store, const std::string& path) {
  auto loaded = LoadTensors(path);
  MAMDR_RETURN_NOT_OK(loaded.status());
  std::unordered_map<std::string, const Tensor*> by_name;
  for (const auto& [name, tensor] : loaded.value()) {
    by_name[name] = &tensor;
  }
  auto restore_into = [&](const std::string& prefix,
                          std::vector<Tensor>* target) -> Status {
    for (size_t i = 0; i < target->size(); ++i) {
      auto it = by_name.find(prefix + std::to_string(i));
      if (it == by_name.end()) {
        return Status::NotFound("checkpoint missing " + prefix +
                                std::to_string(i));
      }
      if (it->second->shape() != (*target)[i].shape()) {
        return Status::InvalidArgument("shape mismatch for " + prefix +
                                       std::to_string(i));
      }
      std::copy(it->second->data(), it->second->data() + it->second->size(),
                (*target)[i].data());
    }
    return Status::OK();
  };
  MAMDR_RETURN_NOT_OK(restore_into("shared/", store->mutable_shared()));
  for (int64_t d = 0; d < store->num_domains(); ++d) {
    MAMDR_RETURN_NOT_OK(restore_into("domain" + std::to_string(d) + "/",
                                     store->mutable_specific(d)));
  }
  return Status::OK();
}

}  // namespace checkpoint
}  // namespace mamdr
