#include <cstring>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "checkpoint/checkpoint.h"
#include "common/crc32.h"
#include "core/mamdr.h"
#include "models/registry.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace mamdr {
namespace checkpoint {
namespace {

namespace fs = std::filesystem;

class CheckpointTest : public ::testing::Test {
 protected:
  mamdr::testing::ScopedTempDir tmp_{"mamdr_ckpt"};
  std::string path_ = tmp_.file("ckpt");
};

TEST_F(CheckpointTest, TensorRoundTrip) {
  std::vector<std::pair<std::string, Tensor>> named{
      {"a", Tensor::FromVector({1, 2, 3})},
      {"b", Tensor::FromMatrix({{4, 5}, {6, 7}})},
  };
  ASSERT_TRUE(SaveTensors(named, path_).ok());
  auto loaded = LoadTensors(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value()[0].first, "a");
  EXPECT_TRUE(ops::AllClose(loaded.value()[0].second, named[0].second));
  EXPECT_EQ(loaded.value()[1].second.rows(), 2);
  EXPECT_TRUE(ops::AllClose(loaded.value()[1].second, named[1].second));
}

TEST_F(CheckpointTest, LoadMissingFileFails) {
  auto loaded = LoadTensors(path_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointTest, RejectsGarbageFile) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "definitely not a checkpoint";
  }
  auto loaded = LoadTensors(path_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, ModuleRoundTripRestoresScores) {
  auto ds = mamdr::testing::TinyDataset();
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng1(5);
  auto model = models::CreateModel("MLP", mc, &rng1).value();
  data::Batch batch = data::Batcher::All(ds.domain(0).test);
  const auto scores_before = model->Score(batch, 0);
  ASSERT_TRUE(SaveModule(*model, path_).ok());

  // A differently-initialized replica scores differently...
  Rng rng2(999);
  auto replica = models::CreateModel("MLP", mc, &rng2).value();
  const auto replica_scores = replica->Score(batch, 0);
  bool differs = false;
  for (size_t i = 0; i < scores_before.size(); ++i) {
    if (scores_before[i] != replica_scores[i]) differs = true;
  }
  EXPECT_TRUE(differs);

  // ...until the checkpoint is restored.
  ASSERT_TRUE(LoadModule(replica.get(), path_).ok());
  const auto restored = replica->Score(batch, 0);
  for (size_t i = 0; i < scores_before.size(); ++i) {
    EXPECT_FLOAT_EQ(scores_before[i], restored[i]);
  }
}

TEST_F(CheckpointTest, LoadModuleRejectsWrongArchitecture) {
  auto ds = mamdr::testing::TinyDataset();
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(5);
  auto mlp = models::CreateModel("MLP", mc, &rng).value();
  ASSERT_TRUE(SaveModule(*mlp, path_).ok());
  auto wdl = models::CreateModel("WDL", mc, &rng).value();
  auto status = LoadModule(wdl.get(), path_);
  EXPECT_FALSE(status.ok());  // WDL has params the MLP checkpoint lacks
}

TEST_F(CheckpointTest, StoreRoundTrip) {
  auto ds = mamdr::testing::TinyDataset(2, 120, 5);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(5);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  core::TrainConfig tc;
  tc.epochs = 1;
  tc.dr_sample_k = 1;
  tc.dr_max_batches = 1;
  core::Mamdr mamdr(model.get(), &ds, tc);
  mamdr.Train();
  ASSERT_TRUE(SaveStore(*mamdr.store(), path_).ok());

  // Fresh store starts at zero specific params; restore brings them back.
  core::SharedSpecificStore fresh(model->Parameters(), ds.num_domains());
  ASSERT_TRUE(LoadStore(&fresh, path_).ok());
  for (int64_t d = 0; d < ds.num_domains(); ++d) {
    const auto& a = mamdr.store()->specific(d);
    const auto& b = fresh.specific(d);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(ops::AllClose(a[i], b[i]));
    }
  }
  for (size_t i = 0; i < fresh.shared().size(); ++i) {
    EXPECT_TRUE(ops::AllClose(fresh.shared()[i], mamdr.store()->shared()[i]));
  }
}

// ---------------------------------------------------------------------------
// Corruption matrix: a checkpoint that was truncated, bit-flipped, or saved
// for a different layout must be rejected with a clear non-OK Status — never
// crash, never silently load garbage.

class CheckpointCorruptionTest : public CheckpointTest {
 protected:
  /// Bytes of a small valid checkpoint (two tensors).
  std::string ValidImage() {
    std::vector<std::pair<std::string, Tensor>> named{
        {"w", Tensor::FromMatrix({{1, 2}, {3, 4}})},
        {"b", Tensor::FromVector({5, 6})},
    };
    MAMDR_CHECK(SaveTensors(named, path_).ok());
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  void WriteBytes(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
};

TEST_F(CheckpointCorruptionTest, TruncationAtEveryByteIsRejected) {
  const std::string image = ValidImage();
  ASSERT_GT(image.size(), 16u);
  // Every prefix — which covers truncation at every section boundary
  // (mid-magic, mid-header, mid-name, mid-shape, mid-payload, mid-footer).
  for (size_t len = 0; len < image.size(); ++len) {
    WriteBytes(image.substr(0, len));
    auto loaded = LoadTensors(path_);
    EXPECT_FALSE(loaded.ok()) << "accepted truncation to " << len << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "truncation to " << len << ": " << loaded.status().ToString();
  }
}

TEST_F(CheckpointCorruptionTest, EveryFlippedByteIsRejected) {
  const std::string image = ValidImage();
  // CRC-32 detects any single-byte change anywhere in the file, including
  // in the payload floats and in the footer itself.
  for (size_t i = 0; i < image.size(); ++i) {
    std::string corrupt = image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    WriteBytes(corrupt);
    auto loaded = LoadTensors(path_);
    EXPECT_FALSE(loaded.ok()) << "accepted flipped byte at offset " << i;
  }
}

TEST_F(CheckpointCorruptionTest, BadMagicHasClearMessage) {
  std::string image = ValidImage();
  image[0] = 'X';
  WriteBytes(image);
  auto loaded = LoadTensors(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("not a MAMDR checkpoint"),
            std::string::npos);
}

TEST_F(CheckpointCorruptionTest, CrcMismatchHasClearMessage) {
  std::string image = ValidImage();
  image[image.size() / 2] = static_cast<char>(image[image.size() / 2] ^ 0x01);
  WriteBytes(image);
  auto loaded = LoadTensors(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("CRC mismatch"),
            std::string::npos);
}

TEST_F(CheckpointCorruptionTest, UnsupportedVersionIsRejected) {
  // Version field lives right after the 8-byte magic; the CRC is recomputed
  // so only the version check can fire.
  std::string image = ValidImage();
  image[8] = 99;
  const uint32_t crc = Crc32(image.data(), image.size() - 4);
  std::memcpy(image.data() + image.size() - 4, &crc, sizeof(crc));
  WriteBytes(image);
  auto loaded = LoadTensors(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST_F(CheckpointCorruptionTest, LoadModuleRejectsShapeMismatch) {
  auto ds = mamdr::testing::TinyDataset();
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(5);
  auto model = models::CreateModel("MLP", mc, &rng).value();
  ASSERT_TRUE(SaveModule(*model, path_).ok());

  auto wide = mc;
  wide.embedding_dim = 8;  // same parameter names, different shapes
  Rng rng2(5);
  auto other = models::CreateModel("MLP", wide, &rng2).value();
  Status status = LoadModule(other.get(), path_);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("shape mismatch"), std::string::npos);
}

TEST_F(CheckpointCorruptionTest, SaveIsAtomicNoTmpLeftBehind) {
  std::vector<std::pair<std::string, Tensor>> named{
      {"a", Tensor::FromVector({1, 2, 3})}};
  ASSERT_TRUE(SaveTensors(named, path_).ok());
  EXPECT_TRUE(fs::exists(path_));
  EXPECT_FALSE(fs::exists(path_ + ".tmp"));
  // Overwrite goes through the same tmp+rename path.
  named[0].second = Tensor::FromVector({9, 9, 9});
  ASSERT_TRUE(SaveTensors(named, path_).ok());
  EXPECT_FALSE(fs::exists(path_ + ".tmp"));
  auto loaded = LoadTensors(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FLOAT_EQ(loaded.value()[0].second.at(0), 9.0f);
}

TEST(PsParamsTest, RoundTripsAndRejectsEveryMalformedLayout) {
  const std::vector<Shape> shapes{{2}, {3, 2}};
  NamedTensors good{{"epoch", Tensor({1}, 4.0f)}};
  AppendPsParams({Tensor({2}, 1.0f), Tensor({3, 2}, 2.0f)}, &good);
  EXPECT_EQ(good[1].first, "param/0");
  EXPECT_EQ(good[2].first, "param/1");
  // Names, not positions, place a tensor.
  std::swap(good[1], good[2]);
  auto read = ReadPsParams(good, shapes, {"epoch"});
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value()[0].shape(), shapes[0]);
  EXPECT_FLOAT_EQ(read.value()[1].at(2, 1), 2.0f);

  auto with = [&](size_t i, std::string name, Tensor t) {
    NamedTensors bad = good;
    bad[i] = {std::move(name), std::move(t)};
    return ReadPsParams(bad, shapes, {"epoch"}).status();
  };
  const Tensor p0({2}, 1.0f);
  const std::vector<Status> rejected{
      ReadPsParams(good, shapes, {}).status(),         // count mismatch
      with(2, "weights", p0),                          // unknown name
      with(2, "param/2", p0),                          // index out of range
      with(2, "param/00", p0),                         // non-canonical index
      with(1, "param/0", p0),                          // repeated index
      with(2, "param/0", Tensor({3}, 1.0f)),           // shape mismatch
  };
  for (size_t k = 0; k < rejected.size(); ++k) {
    EXPECT_EQ(rejected[k].code(), StatusCode::kInvalidArgument) << k;
  }
  // A repeated extra name standing in for a parameter leaves it missing.
  NamedTensors twice = good;
  twice[2] = {"epoch", Tensor({1}, 4.0f)};
  const Status missing = ReadPsParams(twice, shapes, {"epoch"}).status();
  EXPECT_EQ(missing.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(missing.message().find("missing param/0"), std::string::npos);
}

TEST(Crc32Test, KnownVectorAndChaining) {
  // "123456789" -> 0xCBF43926 is the canonical CRC-32 check value.
  const char* s = "123456789";
  EXPECT_EQ(Crc32(s, 9), 0xCBF43926u);
  // Chaining across a split matches the one-shot CRC.
  EXPECT_EQ(Crc32(s + 4, 5, Crc32(s, 4)), 0xCBF43926u);
  EXPECT_NE(Crc32(s, 8), Crc32(s, 9));
}

}  // namespace
}  // namespace checkpoint
}  // namespace mamdr
