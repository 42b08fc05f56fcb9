// Tests for the sharded networked parameter server (src/ps/net).
//
// The heart of this file is the wire-format corruption matrix: every
// truncated prefix and every flipped byte of every message, at both the
// frame layer (CRC/framing) and the protocol layer (ShardServer's request
// decoding), must come back as a clean kInvalidArgument / kUnavailable —
// never an abort, never a silent partial apply. The rest covers the hash
// ring, the NetPsClient <-> ShardServer round trip across shard counts,
// kill/respawn recovery, the per-connection I/O deadline, and the seeded
// network fault proxy.
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/net.h"
#include "common/retry.h"
#include "lockdep_guard.h"
#include "obs/clock.h"
#include "ps/fault_injector.h"
#include "ps/net/fault_proxy.h"
#include "ps/net/hash_ring.h"
#include "ps/net/net_ps_client.h"
#include "ps/net/shard_directory.h"
#include "ps/net/shard_group.h"
#include "ps/net/shard_server.h"
#include "ps/net/wire.h"
#include "ps/parameter_server.h"
#include "ps/ps_client.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

// The net PS suite doubles as a lockdep clean-run: client pool, shard
// accept loops, group kill/respawn, and the proxy must order their locks.
MAMDR_ASSERT_LOCKDEP_CLEAN();

namespace mamdr {
namespace ps {
namespace net {
namespace {

namespace cnet = ::mamdr::net;

RetryConfig TestRetry(int attempts = 4) {
  RetryConfig r;
  r.max_attempts = attempts;
  r.initial_backoff_us = 1;
  r.max_backoff_us = 16;
  r.sleep = false;
  return r;
}

/// Shared tiny layout: two dense tensors (one rank-1, like a bias) and one
/// embedding table big enough to spread rows across four shards.
std::vector<Tensor> TinyParams() {
  return {Tensor({2, 2}, 1.0f), Tensor({6, 3}, 2.0f), Tensor({3}, 0.5f)};
}
std::vector<bool> TinyIsEmb() { return {false, true, false}; }

NetPsClientConfig ClientConfig(int num_shards) {
  NetPsClientConfig cc;
  cc.num_shards = num_shards;
  cc.retry = TestRetry();
  cc.rpc_deadline_us = 5'000'000;  // generous: only true stalls trip it
  return cc;
}

// ---------------------------------------------------------------------------
// HashRing.

TEST(HashRingTest, SameArgumentsSamePlacement) {
  const HashRing a(4), b(4);
  for (int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(a.ShardForDense(i), b.ShardForDense(i));
    for (int64_t r = 0; r < 32; ++r) {
      EXPECT_EQ(a.ShardForRow(i, r), b.ShardForRow(i, r));
    }
  }
}

TEST(HashRingTest, EveryShardOwnsKeysAndAllInRange) {
  const HashRing ring(4);
  std::vector<int> hits(4, 0);
  for (int64_t r = 0; r < 400; ++r) {
    const int s = ring.ShardForRow(1, r);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    ++hits[static_cast<size_t>(s)];
  }
  for (int s = 0; s < 4; ++s) EXPECT_GT(hits[static_cast<size_t>(s)], 0);
}

TEST(HashRingTest, DenseAndRowKeySpacesAreDistinct) {
  // Same numeric index must not collide across the two key spaces.
  EXPECT_NE(HashRing::DenseKey(3), HashRing::RowKey(3, 0));
  EXPECT_NE(HashRing::RowKey(1, 2), HashRing::RowKey(2, 1));
}

TEST(HashRingTest, DifferentSeedMovesKeys) {
  const HashRing a(4, 64, 1), b(4, 64, 2);
  int moved = 0;
  for (int64_t r = 0; r < 200; ++r) {
    if (a.ShardForRow(0, r) != b.ShardForRow(0, r)) ++moved;
  }
  EXPECT_GT(moved, 0);
}

// ---------------------------------------------------------------------------
// Wire payload encoding.

TEST(WireTest, PayloadRoundTrip) {
  PayloadWriter w;
  w.PutU8(7);
  w.PutU32(0xdeadbeefu);
  w.PutU64(0x0123456789abcdefull);
  w.PutI64(-42);
  w.PutF32(1.5f);
  const float xs[3] = {0.25f, -2.0f, 3.5f};
  w.PutF32Array(xs, 3);
  w.PutString("hello");
  const std::string buf = w.Take();

  PayloadReader r(buf);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  float f = 0;
  float arr[3] = {0, 0, 0};
  std::string s;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  ASSERT_TRUE(r.GetF32(&f).ok());
  ASSERT_TRUE(r.GetF32Array(arr, 3).ok());
  ASSERT_TRUE(r.GetString(&s, 64).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(u8, 7u);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i64, -42);
  EXPECT_FLOAT_EQ(f, 1.5f);
  for (int i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(arr[i], xs[i]);
  EXPECT_EQ(s, "hello");
}

TEST(WireTest, ReaderRejectsShortStringAndTrailingBytes) {
  PayloadWriter w;
  w.PutU32(4);
  const std::string buf = w.Take();  // claims 4 string bytes, has none
  PayloadReader r(buf);
  std::string s;
  EXPECT_EQ(r.GetString(&s, 64).code(), StatusCode::kInvalidArgument);

  PayloadWriter w2;
  w2.PutU8(1);
  w2.PutU8(2);
  PayloadReader r2(w2.buffer());
  uint8_t v = 0;
  ASSERT_TRUE(r2.GetU8(&v).ok());
  EXPECT_EQ(r2.ExpectEnd().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, StringLengthCapIsEnforced) {
  PayloadWriter w;
  w.PutString(std::string(100, 'x'));
  PayloadReader r(w.buffer());
  std::string s;
  EXPECT_EQ(r.GetString(&s, 10).code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, StatusCodeRoundTripAndUnknownByteRejected) {
  const StatusCode codes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kOutOfRange,   StatusCode::kNotFound,
      StatusCode::kUnavailable,  StatusCode::kDeadlineExceeded,
      StatusCode::kInternal,     StatusCode::kAborted,
  };
  for (const StatusCode c : codes) {
    const auto round = StatusCodeFromWire(StatusCodeToWire(c));
    ASSERT_TRUE(round.ok());
    EXPECT_EQ(round.value(), c);
  }
  EXPECT_FALSE(StatusCodeFromWire(0xff).ok());
}

TEST(WireTest, ErrorResponseCarriesCodeAndMessage) {
  const std::string resp =
      EncodeErrorResponse(Status::Unavailable("shard rebooting"));
  PayloadReader r(resp);
  const Status s = DecodeResponseHeader(&r);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(s.message(), "shard rebooting");
}

// ---------------------------------------------------------------------------
// Frame-layer corruption matrix (socket-free, via DecodeFrame).

TEST(FrameMatrixTest, RoundTrip) {
  for (const std::string& payload : {std::string(), std::string("x"),
                                     std::string("the quick brown fox")}) {
    const auto decoded = cnet::DecodeFrame(cnet::EncodeFrame(payload), 1024);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), payload);
  }
}

TEST(FrameMatrixTest, EveryTruncatedPrefixIsUnavailable) {
  const std::string frame = cnet::EncodeFrame("the quick brown fox");
  for (size_t n = 0; n < frame.size(); ++n) {
    const auto decoded = cnet::DecodeFrame(frame.substr(0, n), 1024);
    ASSERT_FALSE(decoded.ok()) << "prefix " << n;
    // A cut is indistinguishable from a transient transport failure, so it
    // must surface as the retryable code.
    EXPECT_EQ(decoded.status().code(), StatusCode::kUnavailable)
        << "prefix " << n << ": " << decoded.status().ToString();
  }
}

TEST(FrameMatrixTest, EveryFlippedByteIsRejected) {
  const std::string payload = "the quick brown fox";
  const std::string frame = cnet::EncodeFrame(payload);
  for (size_t i = 0; i < frame.size(); ++i) {
    for (const char mask : {char(0x01), char(0x80)}) {
      std::string bad = frame;
      bad[i] = static_cast<char>(bad[i] ^ mask);
      const auto decoded = cnet::DecodeFrame(bad, 1024);
      ASSERT_FALSE(decoded.ok()) << "flip at byte " << i;
      const StatusCode code = decoded.status().code();
      if (i < 4 || (i >= 8 && i < 8 + payload.size()) ||
          i >= 8 + payload.size()) {
        // Magic, payload, or CRC damage: unambiguously corrupted bytes.
        EXPECT_EQ(code, StatusCode::kInvalidArgument) << "byte " << i;
      } else {
        // A flipped length byte reads as either an oversize/short frame
        // (kUnavailable, looks truncated) or a CRC mismatch.
        EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                    code == StatusCode::kUnavailable)
            << "byte " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Protocol-layer corruption matrix: ShardServer::HandleRequest is the whole
// RPC semantics without the socket.

class ProtocolMatrixTest : public ::testing::Test {
 protected:
  static ShardServerConfig OneShard() {
    ShardServerConfig c;
    c.shard_id = 0;
    c.num_shards = 1;  // shard 0 owns every key
    return c;
  }

  ProtocolMatrixTest() : server_(OneShard(), TinyParams(), TinyIsEmb()) {}

  StatusCode Code(const std::string& request) {
    const std::string resp = server_.HandleRequest(request);
    EXPECT_FALSE(resp.empty());
    PayloadReader r(resp);
    return DecodeResponseHeader(&r).code();
  }

  /// One well-formed request per op, exercising every body field.
  static std::vector<std::pair<std::string, std::string>> ValidRequests() {
    std::vector<std::pair<std::string, std::string>> out;
    {
      PayloadWriter w;
      w.PutU8(static_cast<uint8_t>(PsOp::kPing));
      out.emplace_back("ping", w.Take());
    }
    {
      PayloadWriter w;
      w.PutU8(static_cast<uint8_t>(PsOp::kPullParams));
      w.PutU32(2);
      w.PutU32(0);
      w.PutU32(2);
      out.emplace_back("pull_params", w.Take());
    }
    {
      PayloadWriter w;
      w.PutU8(static_cast<uint8_t>(PsOp::kPushParams));
      w.PutF32(0.5f);
      w.PutU32(1);
      w.PutU32(0);
      w.PutU64(4);
      const float d[4] = {1, 2, 3, 4};
      w.PutF32Array(d, 4);
      out.emplace_back("push_params", w.Take());
    }
    {
      PayloadWriter w;
      w.PutU8(static_cast<uint8_t>(PsOp::kPullRows));
      w.PutU32(1);
      w.PutU64(2);
      w.PutI64(0);
      w.PutI64(5);
      out.emplace_back("pull_rows", w.Take());
    }
    {
      PayloadWriter w;
      w.PutU8(static_cast<uint8_t>(PsOp::kPushRows));
      w.PutU32(1);
      w.PutF32(0.25f);
      w.PutU64(1);
      w.PutI64(2);
      w.PutU64(3);
      const float d[3] = {1, 1, 1};
      w.PutF32Array(d, 3);
      out.emplace_back("push_rows", w.Take());
    }
    {
      PayloadWriter w;
      w.PutU8(static_cast<uint8_t>(PsOp::kRestoreParams));
      w.PutU32(1);
      w.PutU32(2);
      w.PutU64(3);
      const float d[3] = {9, 9, 9};
      w.PutF32Array(d, 3);
      out.emplace_back("restore_params", w.Take());
    }
    {
      PayloadWriter w;
      w.PutU8(static_cast<uint8_t>(PsOp::kRestoreRows));
      w.PutU32(1);
      w.PutU64(1);
      w.PutI64(4);
      w.PutU64(3);
      const float d[3] = {7, 7, 7};
      w.PutF32Array(d, 3);
      out.emplace_back("restore_rows", w.Take());
    }
    return out;
  }

  ShardServer server_;
};

TEST_F(ProtocolMatrixTest, EveryFullRequestSucceeds) {
  for (const auto& [name, req] : ValidRequests()) {
    EXPECT_EQ(Code(req), StatusCode::kOk) << name;
  }
}

TEST_F(ProtocolMatrixTest, EveryTruncatedPrefixIsInvalidArgument) {
  for (const auto& [name, req] : ValidRequests()) {
    for (size_t n = 0; n < req.size(); ++n) {
      EXPECT_EQ(Code(req.substr(0, n)), StatusCode::kInvalidArgument)
          << name << " truncated to " << n << " of " << req.size();
    }
  }
}

TEST_F(ProtocolMatrixTest, EveryFlippedByteIsHandledCleanly) {
  // A flipped byte inside a CRC-valid frame either still parses (the flip
  // landed in a value, e.g. a float) or is rejected as kInvalidArgument.
  // Either way the server answers with a well-formed response and never
  // aborts — Code() itself asserts the response decodes.
  for (const auto& [name, req] : ValidRequests()) {
    for (size_t i = 0; i < req.size(); ++i) {
      std::string bad = req;
      bad[i] = static_cast<char>(bad[i] ^ 0x20);  // the proxy's flip
      const StatusCode code = Code(bad);
      EXPECT_TRUE(code == StatusCode::kOk ||
                  code == StatusCode::kInvalidArgument)
          << name << " flip at byte " << i << " -> "
          << static_cast<int>(code);
    }
  }
}

TEST_F(ProtocolMatrixTest, UnknownOpAndTrailingGarbageRejected) {
  PayloadWriter w;
  w.PutU8(0x7f);
  EXPECT_EQ(Code(w.Take()), StatusCode::kInvalidArgument);
  for (const auto& [name, req] : ValidRequests()) {
    EXPECT_EQ(Code(req + std::string("zz")), StatusCode::kInvalidArgument)
        << name;
  }
}

TEST_F(ProtocolMatrixTest, MalformedPushLeavesStateUntouched) {
  // Validate-fully-then-apply: a push whose *last* field is bad must not
  // have applied its earlier (valid) entries.
  PayloadWriter w;
  w.PutU8(static_cast<uint8_t>(PsOp::kPushParams));
  w.PutF32(1.0f);
  w.PutU32(2);
  w.PutU32(0);  // valid entry first
  w.PutU64(4);
  const float d[4] = {5, 5, 5, 5};
  w.PutF32Array(d, 4);
  w.PutU32(9);  // second entry: param index out of range
  w.PutU64(4);
  w.PutF32Array(d, 4);
  EXPECT_EQ(Code(w.Take()), StatusCode::kInvalidArgument);

  PayloadWriter pull;
  pull.PutU8(static_cast<uint8_t>(PsOp::kPullParams));
  pull.PutU32(1);
  pull.PutU32(0);
  const std::string resp = server_.HandleRequest(pull.Take());
  PayloadReader r(resp);
  ASSERT_TRUE(DecodeResponseHeader(&r).ok());
  uint32_t idx = 0;
  uint64_t size = 0;
  float vals[4] = {0, 0, 0, 0};
  ASSERT_TRUE(r.GetU32(&idx).ok());
  ASSERT_TRUE(r.GetU64(&size).ok());
  ASSERT_TRUE(r.GetF32Array(vals, 4).ok());
  for (int k = 0; k < 4; ++k) EXPECT_FLOAT_EQ(vals[k], 1.0f) << k;
}

TEST(ShardOwnershipTest, RejectsKeysOwnedByOtherShards) {
  // A 4-shard shard 0 must refuse dense params and rows the ring assigns
  // elsewhere: with a correct client that only happens on routing bugs or
  // corrupted-but-CRC-valid messages.
  ShardServerConfig c;
  c.shard_id = 0;
  c.num_shards = 4;
  std::vector<Tensor> params;
  std::vector<bool> is_emb;
  for (int i = 0; i < 8; ++i) {
    params.emplace_back(Shape{2, 2}, 1.0f);
    is_emb.push_back(false);
  }
  params.emplace_back(Shape{64, 3}, 2.0f);
  is_emb.push_back(true);
  ShardServer server(c, params, is_emb);
  const HashRing ring(4);

  uint32_t foreign_dense = 0;
  while (foreign_dense < 8 &&
         ring.ShardForDense(static_cast<int64_t>(foreign_dense)) == 0) {
    ++foreign_dense;
  }
  ASSERT_LT(foreign_dense, 8u) << "ring assigned every dense param to 0";
  int64_t foreign_row = 0;
  while (foreign_row < 64 && ring.ShardForRow(8, foreign_row) == 0) {
    ++foreign_row;
  }
  ASSERT_LT(foreign_row, 64);

  auto code = [&](const std::string& req) {
    // PayloadReader keeps a view of its input: bind the response first.
    const std::string response = server.HandleRequest(req);
    PayloadReader r(response);
    return DecodeResponseHeader(&r).code();
  };
  PayloadWriter w;
  w.PutU8(static_cast<uint8_t>(PsOp::kPullParams));
  w.PutU32(1);
  w.PutU32(foreign_dense);
  EXPECT_EQ(code(w.Take()), StatusCode::kInvalidArgument);

  PayloadWriter w2;
  w2.PutU8(static_cast<uint8_t>(PsOp::kPullRows));
  w2.PutU32(8);
  w2.PutU64(1);
  w2.PutI64(foreign_row);
  EXPECT_EQ(code(w2.Take()), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// NetPsClient <-> ShardGroup round trips.

class NetClientTest : public ::testing::TestWithParam<int> {
 protected:
  void StartGroup(const std::string& ckpt_dir = "") {
    ShardGroupConfig gc;
    gc.num_shards = GetParam();
    gc.checkpoint_dir = ckpt_dir;
    gc.read_deadline_us = 200'000;
    group_ = std::make_unique<ShardGroup>(gc, TinyParams(), TinyIsEmb());
    ASSERT_TRUE(group_->Start().ok());
  }

  std::unique_ptr<NetPsClient> Client() {
    return std::make_unique<NetPsClient>(ClientConfig(GetParam()),
                                         group_->directory(), TinyParams(),
                                         TinyIsEmb());
  }

  std::unique_ptr<ShardGroup> group_;
};

TEST_P(NetClientTest, PullPushSnapshotRestoreRoundTrip) {
  StartGroup();
  auto client = Client();
  EXPECT_EQ(client->num_params(), 3);
  EXPECT_FALSE(client->is_embedding(0));
  EXPECT_TRUE(client->is_embedding(1));
  for (int s = 0; s < GetParam(); ++s) {
    EXPECT_TRUE(client->Ping(s).ok()) << "shard " << s;
  }

  // Initial pulls see the construction values on every shard.
  std::vector<Tensor> out{Tensor({2, 2}), Tensor({6, 3}), Tensor({3})};
  ASSERT_TRUE(client->PullDense(&out).ok());
  EXPECT_FLOAT_EQ(out[0].at(0), 1.0f);
  EXPECT_FLOAT_EQ(out[2].at(2), 0.5f);
  Tensor table({6, 3});
  ASSERT_TRUE(client->PullFullTable(1, &table).ok());
  for (int64_t r = 0; r < 6; ++r) EXPECT_FLOAT_EQ(table.at(r, 0), 2.0f);

  // Dense push: the shard applies += beta*delta scalar-exactly.
  std::vector<Tensor> delta{Tensor({2, 2}, 0.3f), Tensor(), Tensor({3}, 2.0f)};
  ASSERT_TRUE(client->PushDenseDelta(delta, 0.5f).ok());
  ASSERT_TRUE(client->PullDense(&out).ok());
  EXPECT_FLOAT_EQ(out[0].at(3), 1.0f + 0.5f * 0.3f);
  EXPECT_FLOAT_EQ(out[2].at(0), 0.5f + 0.5f * 2.0f);

  // Row push to a subset of rows, spread across owners.
  Tensor row_delta({6, 3}, 1.0f);
  ASSERT_TRUE(client->PushRowDeltas(1, {0, 2, 5}, row_delta, 0.25f).ok());
  Tensor pulled({6, 3});
  ASSERT_TRUE(client->PullRows(1, {0, 1, 2, 5}, &pulled).ok());
  EXPECT_FLOAT_EQ(pulled.at(0, 0), 2.25f);
  EXPECT_FLOAT_EQ(pulled.at(1, 0), 2.0f);  // untouched row
  EXPECT_FLOAT_EQ(pulled.at(2, 2), 2.25f);
  EXPECT_FLOAT_EQ(pulled.at(5, 1), 2.25f);

  // Snapshot assembles the full layout from all shards; Restore is its
  // inverse and overwrites every owner.
  auto snap = client->Snapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_FLOAT_EQ(snap.value()[1].at(2, 0), 2.25f);
  std::vector<Tensor> replacement{Tensor({2, 2}, -1.0f), Tensor({6, 3}, -2.0f),
                                  Tensor({3}, -3.0f)};
  ASSERT_TRUE(client->Restore(replacement).ok());
  auto snap2 = client->Snapshot();
  ASSERT_TRUE(snap2.ok());
  for (size_t i = 0; i < snap2.value().size(); ++i) {
    const Tensor& got = snap2.value()[i];
    for (int64_t k = 0; k < got.size(); ++k) {
      ASSERT_FLOAT_EQ(got.at(k), replacement[i].at(k))
          << "param " << i << " elem " << k;
    }
  }
}

TEST_P(NetClientTest, ValidationFailsFastWithInvalidArgument) {
  StartGroup();
  auto client = Client();
  Tensor table({6, 3});
  EXPECT_EQ(client->PullRows(9, {0}, &table).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client->PullRows(0, {0}, &table).code(),
            StatusCode::kInvalidArgument);  // not an embedding
  EXPECT_EQ(client->PullRows(1, {-1}, &table).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client->PullRows(1, {6}, &table).code(),
            StatusCode::kInvalidArgument);
  Tensor wrong({4, 3});
  EXPECT_EQ(client->PullFullTable(1, &wrong).code(),
            StatusCode::kInvalidArgument);
  std::vector<Tensor> short_delta{Tensor({2, 2})};
  EXPECT_EQ(client->PushDenseDelta(short_delta, 1.0f).code(),
            StatusCode::kInvalidArgument);
  std::vector<Tensor> bad_restore{Tensor({2, 2}), Tensor({6, 3}), Tensor({4})};
  EXPECT_EQ(client->Restore(bad_restore).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client->Ping(GetParam()).code(), StatusCode::kInvalidArgument);
  // The group is untouched and healthy after the rejected ops.
  std::vector<Tensor> out{Tensor({2, 2}), Tensor({6, 3}), Tensor({3})};
  ASSERT_TRUE(client->PullDense(&out).ok());
  EXPECT_FLOAT_EQ(out[0].at(0), 1.0f);
}

TEST_P(NetClientTest, DeadShardIsUnavailableNeverFatal) {
  StartGroup();
  auto client = Client();
  ASSERT_TRUE(group_->KillShard(0).ok());
  EXPECT_FALSE(group_->up(0));
  // Every op that routes to the dead shard fails with the retryable code;
  // nothing aborts.
  EXPECT_EQ(client->Ping(0).code(), StatusCode::kUnavailable);
  std::vector<Tensor> out{Tensor({2, 2}), Tensor({6, 3}), Tensor({3})};
  Tensor table({6, 3});
  for (const Status& s :
       {client->PullDense(&out), client->PullFullTable(1, &table)}) {
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kUnavailable);
    }
  }
  // Snapshot touches every owned key; with this tiny layout shard 0 might
  // own nothing under 4 shards, so gate the expectation on the ring.
  const HashRing ring(GetParam());
  bool shard0_owns = false;
  for (const int64_t idx : {int64_t{0}, int64_t{2}}) {
    if (ring.ShardForDense(idx) == 0) shard0_owns = true;
  }
  for (int64_t r = 0; r < 6; ++r) {
    if (ring.ShardForRow(1, r) == 0) shard0_owns = true;
  }
  const auto snap = client->Snapshot();
  if (shard0_owns) {
    EXPECT_EQ(snap.status().code(), StatusCode::kUnavailable);
  } else {
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  }

  // Respawn (no checkpoint configured): back to pristine initial values on
  // a fresh port, found through the directory with no client changes.
  ASSERT_TRUE(group_->RespawnShard(0).ok());
  EXPECT_TRUE(group_->up(0));
  EXPECT_TRUE(client->Ping(0).ok());
  ASSERT_TRUE(client->PullDense(&out).ok());
  EXPECT_FLOAT_EQ(out[0].at(0), 1.0f);
}

TEST_P(NetClientTest, RespawnRestoresLastCheckpointAndLosesTail) {
  mamdr::testing::ScopedTempDir tmp("mamdr_netps_ckpt");
  StartGroup(tmp.str());
  auto client = Client();

  std::vector<Tensor> delta{Tensor({2, 2}, 1.0f), Tensor(), Tensor({3}, 1.0f)};
  Tensor row_delta({6, 3}, 1.0f);
  std::vector<int64_t> all_rows{0, 1, 2, 3, 4, 5};
  ASSERT_TRUE(client->PushDenseDelta(delta, 1.0f).ok());       // -> 2.0
  ASSERT_TRUE(client->PushRowDeltas(1, all_rows, row_delta, 1.0f).ok());
  ASSERT_TRUE(group_->CheckpointAll().ok());
  ASSERT_TRUE(client->PushDenseDelta(delta, 1.0f).ok());       // -> 3.0, lost
  ASSERT_TRUE(client->PushRowDeltas(1, all_rows, row_delta, 1.0f).ok());

  for (int s = 0; s < GetParam(); ++s) {
    ASSERT_TRUE(group_->KillShard(s).ok());
    ASSERT_TRUE(group_->RespawnShard(s).ok());
  }
  auto snap = client->Snapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  // Exactly the checkpointed state: the first push survives, the tail after
  // the checkpoint is lost — the dropped-push loss class, never garbage.
  EXPECT_FLOAT_EQ(snap.value()[0].at(0), 2.0f);
  EXPECT_FLOAT_EQ(snap.value()[2].at(1), 1.5f);
  for (int64_t r = 0; r < 6; ++r) {
    EXPECT_FLOAT_EQ(snap.value()[1].at(r, 0), 3.0f) << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, NetClientTest, ::testing::Values(1, 4));

// ---------------------------------------------------------------------------
// DirectPsClient validation (same contract, in-process backend).

TEST(DirectClientValidationTest, MalformedOpsReturnInvalidArgument) {
  std::vector<Tensor> params = TinyParams();
  ParameterServer server(params, TinyIsEmb());
  DirectPsClient client(&server);

  std::vector<Tensor> short_out{Tensor({2, 2})};
  EXPECT_EQ(client.PullDense(&short_out).code(),
            StatusCode::kInvalidArgument);
  std::vector<Tensor> bad_shape{Tensor({3, 2}), Tensor({6, 3}), Tensor({3})};
  EXPECT_EQ(client.PullDense(&bad_shape).code(),
            StatusCode::kInvalidArgument);
  Tensor table({6, 3});
  EXPECT_EQ(client.PullRows(7, {0}, &table).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.PullRows(0, {0}, &table).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.PullRows(1, {6}, &table).code(),
            StatusCode::kInvalidArgument);
  Tensor wrong({4, 3});
  EXPECT_EQ(client.PullFullTable(1, &wrong).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.PushRowDeltas(1, {-1}, table, 0.5f).code(),
            StatusCode::kInvalidArgument);
  std::vector<Tensor> bad_delta{Tensor({2, 3}), Tensor(), Tensor()};
  EXPECT_EQ(client.PushDenseDelta(bad_delta, 0.5f).code(),
            StatusCode::kInvalidArgument);
  std::vector<Tensor> bad_restore{Tensor({2, 2}), Tensor({5, 3}), Tensor({3})};
  EXPECT_EQ(client.Restore(bad_restore).code(),
            StatusCode::kInvalidArgument);

  // The happy path still works after every rejection, and the server never
  // saw the malformed ops.
  std::vector<Tensor> out{Tensor({2, 2}), Tensor({6, 3}), Tensor({3})};
  ASSERT_TRUE(client.PullDense(&out).ok());
  EXPECT_FLOAT_EQ(out[0].at(0), 1.0f);
  auto snap = client.Snapshot();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(client.Restore(snap.value()).ok());
}

TEST(DirectClientValidationTest, FaultInjectorRestoreNeverSilentlyDrops) {
  // Restore is not a push: the injector's drop draw must never be honored
  // for it — a silently lost restore would desync a resumed run.
  std::vector<Tensor> params = TinyParams();
  ParameterServer server(params, TinyIsEmb());
  FaultConfig fc;
  fc.drop_push_prob = 1.0;  // every push dropped
  FaultInjector client(std::make_unique<DirectPsClient>(&server), fc);
  std::vector<Tensor> target{Tensor({2, 2}, 9.0f), Tensor({6, 3}, 9.0f),
                             Tensor({3}, 9.0f)};
  ASSERT_TRUE(client.Restore(target).ok());
  EXPECT_EQ(client.stats().dropped_pushes, 0u);
  EXPECT_FLOAT_EQ(server.SnapshotAll()[0].at(0), 9.0f);  // actually applied
}

// ---------------------------------------------------------------------------
// I/O deadline.

TEST(DeadlineTest, IoDeadlineCutsAStalledServer) {
  // A listener that never accepts: connects succeed (backlog), the request
  // is buffered, and the response never comes. Only the client's own
  // deadline can unblock it.
  cnet::Listener stalled;
  ASSERT_TRUE(stalled.Bind(0).ok());
  ShardDirectory dir(1);
  dir.SetPort(0, stalled.port());

  NetPsClientConfig cc;
  cc.num_shards = 1;
  cc.retry = TestRetry(/*attempts=*/2);
  cc.rpc_deadline_us = 50'000;  // 50ms per attempt
  NetPsClient client(cc, &dir, TinyParams(), TinyIsEmb());
  const Status s = client.Ping(0);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
  EXPECT_GE(client.deadline_cuts(), 1u);
  stalled.Close();
}

TEST(DeadlineTest, DisabledDeadlineNeverCuts) {
  ShardGroupConfig gc;
  gc.num_shards = 1;
  ShardGroup group(gc, TinyParams(), TinyIsEmb());
  ASSERT_TRUE(group.Start().ok());
  NetPsClientConfig cc;
  cc.num_shards = 1;
  cc.retry = TestRetry();
  cc.rpc_deadline_us = 0;  // disabled
  NetPsClient client(cc, group.directory(), TinyParams(), TinyIsEmb());
  EXPECT_TRUE(client.Ping(0).ok());
  EXPECT_EQ(client.deadline_cuts(), 0u);
}

TEST(DeadlineTest, StalledShardInFanoutIsCutWithinBoundedTime) {
  // Eight dense tensors spread over two shards, so PullDense fans out to
  // both. Shard 0 is a real server; shard 1 is a listener that never
  // accepts, so its request is buffered and its response never comes.
  std::vector<Tensor> layout;
  std::vector<bool> is_emb;
  for (int i = 0; i < 8; ++i) {
    layout.emplace_back(Shape{2}, static_cast<float>(i));
    is_emb.push_back(false);
  }
  NetPsClientConfig cc = ClientConfig(2);
  cc.retry = TestRetry(/*attempts=*/2);
  cc.rpc_deadline_us = 50'000;
  const HashRing ring(2);
  bool owns[2] = {false, false};
  for (int i = 0; i < 8; ++i) owns[ring.ShardForDense(i)] = true;
  ASSERT_TRUE(owns[0] && owns[1]) << "layout must fan out to both shards";

  ShardGroupConfig gc;
  gc.num_shards = 2;
  ShardGroup group(gc, layout, is_emb);
  ASSERT_TRUE(group.Start().ok());
  cnet::Listener stalled;
  ASSERT_TRUE(stalled.Bind(0).ok());
  ShardDirectory dir(2);
  dir.SetPort(0, group.port(0));
  dir.SetPort(1, stalled.port());

  NetPsClient client(cc, &dir, layout, is_emb);
  std::vector<Tensor> out;
  for (int i = 0; i < 8; ++i) out.emplace_back(Shape{2}, 0.0f);
  const int64_t start_us = obs::MonotonicMicros();
  const Status s = client.PullDense(&out);
  const int64_t elapsed_us = obs::MonotonicMicros() - start_us;
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
  // One cut in the pipelined phase, one per serial attempt.
  EXPECT_GE(client.deadline_cuts(), 1u);
  // Three 50 ms deadlines plus loopback work; far below this bound even
  // under sanitizers.
  EXPECT_LT(elapsed_us, 2'000'000);
  stalled.Close();
}

TEST(DeadlineTest, DialToFullBacklogIsBounded) {
  // A listener that never accepts, with its accept backlog full: the
  // kernel drops every further SYN, so a dial ends only by its own
  // deadline (without one, Linux retries the SYN for about two minutes).
  cnet::Listener wedged;
  ASSERT_TRUE(wedged.Bind(0).ok());
  constexpr int64_t kDialDeadlineUs = 100'000;
  std::vector<cnet::ScopedFd> parked;
  Status dial = Status::OK();
  int64_t dial_us = 0;
  for (int i = 0; i < 64 && dial.ok(); ++i) {
    const int64_t start_us = obs::MonotonicMicros();
    const Result<int> conn =
        cnet::ConnectLoopback(wedged.port(), kDialDeadlineUs);
    dial_us = obs::MonotonicMicros() - start_us;
    if (conn.ok()) {
      parked.emplace_back(conn.value());
    } else {
      dial = conn.status();
    }
  }
  ASSERT_FALSE(dial.ok()) << "backlog still open after " << parked.size()
                          << " dials";
  EXPECT_EQ(dial.code(), StatusCode::kUnavailable) << dial.ToString();
  // The deadline plus scheduling slack, far below the SYN retry horizon.
  EXPECT_LT(dial_us, 10 * kDialDeadlineUs);

  // The client's rpc deadline bounds its dials the same way.
  ShardDirectory dir(1);
  dir.SetPort(0, wedged.port());
  NetPsClientConfig cc;
  cc.num_shards = 1;
  cc.retry = TestRetry(/*attempts=*/2);
  cc.rpc_deadline_us = 50'000;
  NetPsClient client(cc, &dir, TinyParams(), TinyIsEmb());
  const int64_t start_us = obs::MonotonicMicros();
  const Status s = client.Ping(0);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
  EXPECT_LT(obs::MonotonicMicros() - start_us, 2'000'000);
  wedged.Close();
}

/// Threads of this process, one /proc/self/task entry each.
std::ptrdiff_t CountThreads() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator());
}

TEST(DeadlineTest, DefaultDeadlineStartsNoThread) {
  // The deadline lives in the kernel (SO_RCVTIMEO/SO_SNDTIMEO on each
  // pooled fd), so a client with the default deadline adds no thread.
  ShardDirectory dir(1);
  NetPsClientConfig cc;
  cc.num_shards = 1;
  ASSERT_GT(cc.rpc_deadline_us, 0);
  const std::ptrdiff_t before = CountThreads();
  NetPsClient client(cc, &dir, TinyParams(), TinyIsEmb());
  EXPECT_EQ(CountThreads(), before);
}

// ---------------------------------------------------------------------------
// Fault proxy.

TEST(FaultProxyTest, CleanProxyIsTransparent) {
  ShardGroupConfig gc;
  gc.num_shards = 1;
  ShardGroup group(gc, TinyParams(), TinyIsEmb());
  ASSERT_TRUE(group.Start().ok());
  FaultProxyConfig pc;  // all probabilities zero
  FaultProxy proxy(pc, [&group] { return group.port(0); });
  ASSERT_TRUE(proxy.Start().ok());
  ShardDirectory dir(1);
  dir.SetPort(0, proxy.port());
  NetPsClient client(ClientConfig(1), &dir, TinyParams(), TinyIsEmb());

  std::vector<Tensor> out{Tensor({2, 2}), Tensor({6, 3}), Tensor({3})};
  ASSERT_TRUE(client.PullDense(&out).ok());
  EXPECT_FLOAT_EQ(out[0].at(0), 1.0f);
  ASSERT_TRUE(client.Ping(0).ok());
  const FaultProxyStats st = proxy.stats();
  EXPECT_GT(st.connections, 0u);
  EXPECT_EQ(st.refused + st.cut_requests + st.corrupted_requests +
                st.cut_responses + st.corrupted_responses + st.relay_errors,
            0u);
  proxy.Stop();
}

TEST(FaultProxyTest, SameSeedSameDamageSchedule) {
  auto run = [](uint64_t seed) {
    ShardGroupConfig gc;
    gc.num_shards = 1;
    ShardGroup group(gc, TinyParams(), TinyIsEmb());
    MAMDR_CHECK(group.Start().ok());
    FaultProxyConfig pc;
    pc.seed = seed;
    pc.refuse_prob = 0.15;
    pc.cut_request_prob = 0.1;
    pc.corrupt_request_prob = 0.1;
    pc.cut_response_prob = 0.1;
    pc.corrupt_response_prob = 0.1;
    pc.latency_prob = 0.1;
    pc.latency_us = 50;
    FaultProxy proxy(pc, [&group] { return group.port(0); });
    MAMDR_CHECK(proxy.Start().ok());
    ShardDirectory dir(1);
    dir.SetPort(0, proxy.port());
    NetPsClient client(ClientConfig(1), &dir, TinyParams(), TinyIsEmb());
    std::vector<StatusCode> codes;
    std::vector<Tensor> out{Tensor({2, 2}), Tensor({6, 3}), Tensor({3})};
    for (int i = 0; i < 30; ++i) {
      codes.push_back(client.PullDense(&out).code());
      codes.push_back(client.Ping(0).code());
    }
    const FaultProxyStats st = proxy.stats();
    proxy.Stop();
    return std::make_pair(codes, st);
  };
  const auto [codes_a, stats_a] = run(41);
  const auto [codes_b, stats_b] = run(41);
  EXPECT_EQ(codes_a, codes_b);
  EXPECT_EQ(stats_a.connections, stats_b.connections);
  EXPECT_EQ(stats_a.refused, stats_b.refused);
  EXPECT_EQ(stats_a.cut_requests, stats_b.cut_requests);
  EXPECT_EQ(stats_a.corrupted_requests, stats_b.corrupted_requests);
  EXPECT_EQ(stats_a.cut_responses, stats_b.cut_responses);
  EXPECT_EQ(stats_a.corrupted_responses, stats_b.corrupted_responses);
  EXPECT_EQ(stats_a.delayed, stats_b.delayed);
  EXPECT_GT(stats_a.refused + stats_a.cut_requests + stats_a.cut_responses +
                stats_a.corrupted_requests + stats_a.corrupted_responses,
            0u);
}

TEST(FaultProxyTest, CorruptionNeverSurfacesAsSemanticRejection) {
  // End-to-end transport-retryability policy: bytes damaged in transit (in
  // either direction) must come back kUnavailable — retried — and a pull
  // that eventually succeeds returns the true values. kInvalidArgument is
  // reserved for genuinely malformed *messages*.
  ShardGroupConfig gc;
  gc.num_shards = 1;
  gc.read_deadline_us = 100'000;
  ShardGroup group(gc, TinyParams(), TinyIsEmb());
  ASSERT_TRUE(group.Start().ok());
  FaultProxyConfig pc;
  pc.seed = 99;
  pc.corrupt_request_prob = 0.25;
  pc.corrupt_response_prob = 0.25;
  pc.cut_response_prob = 0.1;
  FaultProxy proxy(pc, [&group] { return group.port(0); });
  ASSERT_TRUE(proxy.Start().ok());
  ShardDirectory dir(1);
  dir.SetPort(0, proxy.port());
  NetPsClientConfig cc = ClientConfig(1);
  cc.retry = TestRetry(/*attempts=*/8);
  NetPsClient client(cc, &dir, TinyParams(), TinyIsEmb());

  int ok_pulls = 0;
  for (int i = 0; i < 40; ++i) {
    std::vector<Tensor> out{Tensor({2, 2}), Tensor({6, 3}), Tensor({3})};
    const Status s = client.PullDense(&out);
    if (s.ok()) {
      ++ok_pulls;
      EXPECT_FLOAT_EQ(out[0].at(0), 1.0f);
      EXPECT_FLOAT_EQ(out[2].at(2), 0.5f);
    } else {
      EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
    }
  }
  EXPECT_GT(ok_pulls, 0);
  const FaultProxyStats st = proxy.stats();
  EXPECT_GT(st.corrupted_requests, 0u);
  EXPECT_GT(st.corrupted_responses, 0u);
  proxy.Stop();
}

// ---------------------------------------------------------------------------
// Multi-frame connections: damage in the SECOND frame of a pipelined
// stream. PR 8's matrix only damaged connect-per-op traffic; with pooling
// the interesting corruption arrives mid-session, after a healthy
// exchange already succeeded on the same connection.

std::string PingRequestPayload() {
  PayloadWriter w;
  w.PutU8(static_cast<uint8_t>(PsOp::kPing));
  return w.Take();
}

TEST(MultiFrameMatrixTest, SecondFrameDamageClosesCleanlyServerStaysUp) {
  ShardServerConfig c;
  c.shard_id = 0;
  c.num_shards = 1;
  // Short kernel deadline so a truncated second frame (which leaves the
  // worker mid-read) resolves quickly; flips resolve instantly at the CRC.
  c.read_deadline_us = 150'000;
  ShardServer server(c, TinyParams(), TinyIsEmb());
  ASSERT_TRUE(server.Start(0).ok());

  const std::string frame = cnet::EncodeFrame(PingRequestPayload());
  uint64_t want_bad = 0;

  // One damaged stream per case: a healthy first exchange completes, then
  // frame 2 arrives damaged. The stream may end with a FIN, a deadline
  // cut, or — when the server aborts with our bytes still unread — a TCP
  // reset; what it must NEVER carry is another decodable frame (a stray
  // response would desync every later exchange) or a non-retryable error
  // class. Response 1 is read before the damage is sent so a racing reset
  // can't discard it.
  auto run_case = [&](const std::string& second, const std::string& label) {
    const Result<int> conn = cnet::ConnectLoopback(server.port());
    ASSERT_TRUE(conn.ok()) << label;
    cnet::ScopedFd fd(conn.value());
    ASSERT_TRUE(cnet::SendAll(fd.get(), frame.data(), frame.size()).ok())
        << label;
    const Result<std::string> resp1 =
        cnet::ReadFrame(fd.get(), size_t{1} << 20);
    ASSERT_TRUE(resp1.ok()) << label << ": " << resp1.status().ToString();
    PayloadReader r(resp1.value());
    EXPECT_EQ(DecodeResponseHeader(&r).code(), StatusCode::kOk) << label;
    if (!second.empty()) {
      ASSERT_TRUE(
          cnet::SendAll(fd.get(), second.data(), second.size()).ok())
          << label;
    }
    const Result<std::string> resp2 =
        cnet::ReadFrame(fd.get(), size_t{1} << 20);
    EXPECT_FALSE(resp2.ok()) << label << ": got a frame after damage";
    EXPECT_EQ(resp2.status().code(), StatusCode::kUnavailable)
        << label << ": " << resp2.status().ToString();
    ++want_bad;
  };

  // The empty prefix of frame 2 is an idle connection. The server keeps it
  // open past the read deadline, counts nothing against it, and answers a
  // third intact frame on it.
  {
    const Result<int> conn = cnet::ConnectLoopback(server.port());
    ASSERT_TRUE(conn.ok());
    cnet::ScopedFd fd(conn.value());
    auto exchange = [&](const std::string& label) {
      ASSERT_TRUE(cnet::SendAll(fd.get(), frame.data(), frame.size()).ok())
          << label;
      const Result<std::string> resp =
          cnet::ReadFrame(fd.get(), size_t{1} << 20);
      ASSERT_TRUE(resp.ok()) << label << ": " << resp.status().ToString();
      PayloadReader r(resp.value());
      EXPECT_EQ(DecodeResponseHeader(&r).code(), StatusCode::kOk) << label;
    };
    exchange("prefix 0, frame 1");
    std::this_thread::sleep_for(
        std::chrono::microseconds(3 * c.read_deadline_us));
    EXPECT_TRUE(cnet::ProbeConnAlive(fd.get())) << "idle session was cut";
    exchange("prefix 0, frame 3");
    EXPECT_EQ(server.stats().bad_requests, 0u);
  }
  // Every non-empty strict prefix of frame 2 strands the worker mid-frame
  // until the read deadline cuts it — a stream failure, so each counts
  // against bad_requests.
  for (size_t n = 1; n < frame.size(); ++n) {
    run_case(frame.substr(0, n), "prefix " + std::to_string(n));
  }
  // Every flipped byte of frame 2: dies at magic/length/CRC validation.
  for (size_t i = 0; i < frame.size(); ++i) {
    for (const char mask : {char(0x01), char(0x80)}) {
      std::string bad = frame;
      bad[i] = static_cast<char>(bad[i] ^ mask);
      run_case(bad, "flip byte " + std::to_string(i) + " mask " +
                        std::to_string(static_cast<int>(mask)));
    }
  }

  // Exactly the damaged streams (and nothing else) counted against the
  // server, and it still serves a pristine client.
  const ShardStats st = server.stats();
  EXPECT_EQ(st.bad_requests, want_bad);
  ShardDirectory dir(1);
  dir.SetPort(0, server.port());
  NetPsClient client(ClientConfig(1), &dir, TinyParams(), TinyIsEmb());
  EXPECT_TRUE(client.Ping(0).ok());
  server.Stop();
}

// ---------------------------------------------------------------------------
// Pooled-client fault surface, scripted byte-for-byte: what exactly the
// client does when a REUSED connection goes bad mid-session.

/// Runs `script(fd)` for each accepted connection, in order, on a
/// background thread. The scripts speak raw frames so tests can inject
/// precise damage.
class ScriptedServer {
 public:
  using Script = std::function<void(int fd)>;

  explicit ScriptedServer(std::vector<Script> scripts)
      : scripts_(std::move(scripts)) {
    MAMDR_CHECK(listener_.Bind(0).ok());
    thread_ = std::thread([this] { Run(); });
  }

  ~ScriptedServer() {
    Join();
    listener_.Close();
  }

  int port() const { return listener_.port(); }

  /// Closes the listener so further dials are refused (not parked in the
  /// accept backlog). Only safe while no script remains unstarted — the
  /// serving thread must not be in PollAccept.
  void RefuseNewConnections() { listener_.Close(); }

  /// Waits for every script to finish and closes the listener.
  void Join() {
    if (thread_.joinable()) thread_.join();
    listener_.Close();
  }

 private:
  void Run() {
    for (const Script& script : scripts_) {
      const Result<int> conn = listener_.PollAccept(/*timeout_ms=*/-1);
      if (!conn.ok() || conn.value() < 0) return;
      cnet::ScopedFd fd(conn.value());
      script(fd.get());
    }
  }

  cnet::Listener listener_;
  std::vector<Script> scripts_;
  std::thread thread_;
};

/// A well-formed ok-response frame for a ping, produced by the real server
/// logic so the encoding can never drift from production.
std::string PingOkResponseFrame() {
  ShardServerConfig c;
  c.shard_id = 0;
  c.num_shards = 1;
  ShardServer oracle(c, TinyParams(), TinyIsEmb());
  return cnet::EncodeFrame(oracle.HandleRequest(PingRequestPayload()));
}

NetPsClientConfig OneAttemptConfig() {
  NetPsClientConfig cc = ClientConfig(1);
  cc.retry = TestRetry(/*attempts=*/1);  // any retry-budget spend is fatal
  return cc;
}

TEST(PooledClientFaultTest, CorruptReusedResponseRedialsWithinOneAttempt) {
  // Exchange 2 arrives on a reused connection and its response is
  // corrupted. The client must poison the pooled fd and complete the op on
  // ONE internal fresh dial — with max_attempts=1, success proves the
  // redial consumed no retry budget (the determinism contract: the
  // FIN-vs-probe race never perturbs seeded retry schedules).
  const std::string ok = PingOkResponseFrame();
  const std::string corrupt = [&] {
    std::string c = ok;
    c[8] ^= 0x01;  // first payload byte: client-side CRC mismatch
    return c;
  }();
  ScriptedServer server({
      [&](int fd) {
        // Session 1: healthy exchange (pools the connection), then a
        // corrupted response to the next request on the same stream.
        for (const std::string* resp : {&ok, &corrupt}) {
          const auto req = cnet::ReadFrame(fd, size_t{1} << 20);
          if (!req.ok()) return;
          if (!cnet::SendAll(fd, resp->data(), resp->size()).ok()) return;
        }
      },
      [&](int fd) {
        // Session 2: the internal redial, served healthily.
        const auto req = cnet::ReadFrame(fd, size_t{1} << 20);
        if (!req.ok()) return;
        (void)cnet::SendAll(fd, ok.data(), ok.size());
      },
  });
  ShardDirectory dir(1);
  dir.SetPort(0, server.port());
  NetPsClient client(OneAttemptConfig(), &dir, TinyParams(), TinyIsEmb());

  EXPECT_TRUE(client.Ping(0).ok());
  const Status second = client.Ping(0);
  EXPECT_TRUE(second.ok()) << second.ToString();
  const ConnectionPool::Stats ps = client.pool_stats();
  EXPECT_EQ(ps.dials, 2u);      // original + internal redial
  EXPECT_EQ(ps.reuses, 1u);     // exchange 2 rode the pooled fd
  EXPECT_EQ(ps.poisoned, 1u);   // the damaged fd never re-entered the pool
  server.Join();
}

TEST(PooledClientFaultTest, HalfFrameThenCloseIsRetryableAndPoisons) {
  // Exchange 2's response dies half-written and the peer closes. The
  // client must surface the clean retryable code (never kInvalidArgument,
  // never a hang) and poison the connection; with the listener closed the
  // internal redial is refused, so the op fails kUnavailable.
  const std::string ok = PingOkResponseFrame();
  ScriptedServer server({
      [&](int fd) {
        const auto req1 = cnet::ReadFrame(fd, size_t{1} << 20);
        if (!req1.ok()) return;
        if (!cnet::SendAll(fd, ok.data(), ok.size()).ok()) return;
        const auto req2 = cnet::ReadFrame(fd, size_t{1} << 20);
        if (!req2.ok()) return;
        (void)cnet::SendAll(fd, ok.data(), 5);  // half a header, then FIN
      },
  });
  ShardDirectory dir(1);
  dir.SetPort(0, server.port());
  NetPsClient client(OneAttemptConfig(), &dir, TinyParams(), TinyIsEmb());

  EXPECT_TRUE(client.Ping(0).ok());
  // The script thread is now parked inside session 1 (waiting for request
  // 2), so the listener can be closed: the internal redial during the next
  // ping is refused instead of languishing in the accept backlog.
  server.RefuseNewConnections();
  const Status second = client.Ping(0);
  EXPECT_EQ(second.code(), StatusCode::kUnavailable) << second.ToString();
  const ConnectionPool::Stats ps = client.pool_stats();
  EXPECT_EQ(ps.reuses, 1u);
  EXPECT_GE(ps.poisoned, 1u);
  server.Join();
}

// ---------------------------------------------------------------------------
// Cross-shard pipelining of the multi-frame ops.

TEST(NetClientPipelineTest, SnapshotAndRestoreWriteEveryShardBeforeReadingAny) {
  // Two scripted shards. Each reads a whole batch of request frames, then
  // holds its replies until the other shard has read its own batch too. A
  // client that finishes one shard before writing to the next makes the
  // first shard wait out the (bounded) hold; a client that writes every
  // shard's frames before reading any response never does.
  constexpr int kShards = 2;
  const NetPsClientConfig cc = ClientConfig(kShards);
  const HashRing ring(kShards);
  const std::vector<Tensor> params = TinyParams();
  // Requests per shard per op: one if it owns either dense tensor (0 and
  // 2), one if it owns any of table 1's six rows.
  int frames[kShards] = {0, 0};
  for (int s = 0; s < kShards; ++s) {
    const bool dense = ring.ShardForDense(0) == s || ring.ShardForDense(2) == s;
    bool rows = false;
    for (int64_t r = 0; r < 6; ++r) rows = rows || ring.ShardForRow(1, r) == s;
    frames[s] = (dense ? 1 : 0) + (rows ? 1 : 0);
    ASSERT_GT(frames[s], 0) << "layout must give shard " << s << " keys";
  }

  std::vector<std::unique_ptr<ShardServer>> oracles;
  for (int s = 0; s < kShards; ++s) {
    ShardServerConfig c;
    c.shard_id = s;
    c.num_shards = kShards;
    oracles.push_back(std::make_unique<ShardServer>(c, params, TinyIsEmb()));
  }
  // The session serves Snapshot, Restore, then Snapshot again.
  constexpr int kOps = 3;
  std::atomic<int> batches_read[kShards] = {0, 0};
  std::atomic<int> timed_out_waits{0};
  auto script = [&](int s) {
    return [&, s](int fd) {
      // Never let a broken client wedge the script (and the test's join).
      (void)cnet::SetIoTimeout(fd, 5'000'000);
      for (int op = 1; op <= kOps; ++op) {
        std::vector<std::string> replies;
        for (int f = 0; f < frames[s]; ++f) {
          const auto req = cnet::ReadFrame(fd, size_t{1} << 20);
          if (!req.ok()) return;
          replies.push_back(cnet::EncodeFrame(
              oracles[static_cast<size_t>(s)]->HandleRequest(req.value())));
        }
        batches_read[s].store(op);
        const int64_t hold_until_us = obs::MonotonicMicros() + 1'000'000;
        while (batches_read[1 - s].load() < op) {
          if (obs::MonotonicMicros() > hold_until_us) {
            ++timed_out_waits;
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        for (const std::string& reply : replies) {
          if (!cnet::SendAll(fd, reply.data(), reply.size()).ok()) return;
        }
      }
    };
  };
  ScriptedServer shard0({script(0)});
  ScriptedServer shard1({script(1)});
  ShardDirectory dir(kShards);
  dir.SetPort(0, shard0.port());
  dir.SetPort(1, shard1.port());
  NetPsClient client(cc, &dir, params, TinyIsEmb());

  const auto snap = client.Snapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(ops::AllClose(snap.value()[i], params[i], 0.0f))
        << "param " << i;
  }
  const std::vector<Tensor> target{Tensor({2, 2}, 4.0f), Tensor({6, 3}, 5.0f),
                                   Tensor({3}, 6.0f)};
  ASSERT_TRUE(client.Restore(target).ok());
  const auto restored = client.Snapshot();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (size_t i = 0; i < target.size(); ++i) {
    EXPECT_TRUE(ops::AllClose(restored.value()[i], target[i], 0.0f))
        << "param " << i;
  }
  EXPECT_EQ(timed_out_waits.load(), 0)
      << "a shard held its replies until the other shard's frames arrived";
  shard0.Join();
  shard1.Join();
}

}  // namespace
}  // namespace net
}  // namespace ps
}  // namespace mamdr
