#include <atomic>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace mamdr {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesRender) {
  EXPECT_EQ(Status::OutOfRange("x").ToString(), "OutOfRange: x");
  EXPECT_EQ(Status::NotFound("x").ToString(), "NotFound: x");
  EXPECT_EQ(Status::AlreadyExists("x").ToString(), "AlreadyExists: x");
  EXPECT_EQ(Status::FailedPrecondition("x").ToString(),
            "FailedPrecondition: x");
  EXPECT_EQ(Status::Internal("x").ToString(), "Internal: x");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status::NotFound("nothing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.UniformInt(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, NormalMoments) {
  Rng rng(31);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(77);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(5);
  auto s = rng.SampleWithoutReplacement(20, 10);
  EXPECT_EQ(s.size(), 10u);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
  for (size_t v : s) EXPECT_LT(v, 20u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(10);
  Rng child = a.Fork();
  EXPECT_NE(a.NextU64(), child.NextU64());
}

TEST(StringUtilTest, FormatFloat) {
  EXPECT_EQ(FormatFloat(0.75644, 4), "0.7564");
  EXPECT_EQ(FormatFloat(1.5, 1), "1.5");
}

TEST(StringUtilTest, JoinAndPad) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadRight("abcd", 2), "abcd");
}

TEST(StringUtilTest, RenderTableAligns) {
  const std::string t =
      RenderTable({"Name", "V"}, {{"x", "1"}, {"longer", "23"}});
  EXPECT_NE(t.find("| Name   | V  |"), std::string::npos);
  EXPECT_NE(t.find("| longer | 23 |"), std::string::npos);
}

TEST(Crc32Test, KnownVectors) {
  // Pinned reflected-IEEE answers: wire frames and checkpoint files bake
  // these bits in, so any implementation change must reproduce them.
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
  EXPECT_EQ(Crc32("abc", 3), 0x352441C2u);
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  const std::string q = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(Crc32(q.data(), q.size()), 0x414FA339u);
}

TEST(Crc32Test, SeedChainsLikeOneShot) {
  // Incremental use (checkpoint writer streams sections) must equal the
  // one-shot CRC of the concatenation, at every split point of a buffer
  // long enough to cross the sliced fast path and its scalar tail.
  std::string buf;
  Rng rng(4242);
  for (int i = 0; i < 1000; ++i) {
    buf.push_back(static_cast<char>(rng.UniformInt(256)));
  }
  const uint32_t whole = Crc32(buf.data(), buf.size());
  for (const size_t cut : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                           size_t{9}, size_t{500}, size_t{999}, buf.size()}) {
    const uint32_t part = Crc32(buf.data(), cut);
    EXPECT_EQ(Crc32(buf.data() + cut, buf.size() - cut, part), whole)
        << "cut " << cut;
  }
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

}  // namespace
}  // namespace mamdr
