#include <algorithm>
#include <thread>

#include <gtest/gtest.h>

#include "core/mamdr.h"
#include "models/registry.h"
#include "serve/recommender.h"
#include "test_util.h"

namespace mamdr {
namespace serve {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = mamdr::testing::TinyDataset(2, 200, 51);
    mc_ = mamdr::testing::TinyModelConfig(ds_);
    rng_ = std::make_unique<Rng>(3);
    model_ = models::CreateModel("MLP", mc_, rng_.get()).value();
  }

  data::MultiDomainDataset ds_;
  models::ModelConfig mc_;
  std::unique_ptr<Rng> rng_;
  std::unique_ptr<models::CtrModel> model_;
};

TEST_F(ServeTest, TopKReturnsSortedScores) {
  Recommender rec(model_.get());
  rec.SetCandidates(0, {1, 2, 3, 4, 5, 6, 7, 8});
  auto top = rec.TopK(/*user=*/3, /*domain=*/0, /*k=*/5);
  ASSERT_EQ(top.size(), 5u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].score, top[i].score);
  }
}

TEST_F(ServeTest, KClampedToCandidateCount) {
  Recommender rec(model_.get());
  rec.SetCandidates(0, {1, 2, 3});
  EXPECT_EQ(rec.TopK(0, 0, 10).size(), 3u);
  EXPECT_TRUE(rec.TopK(0, 1, 10).empty());  // no candidates registered
}

TEST_F(ServeTest, RankIsDeterministicAndComplete) {
  Recommender rec(model_.get());
  std::vector<int64_t> items{9, 4, 17, 2};
  auto a = rec.Rank(5, 0, items);
  auto b = rec.Rank(5, 0, items);
  ASSERT_EQ(a.size(), items.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item);
    EXPECT_EQ(a[i].score, b[i].score);
  }
  // Every input item appears exactly once.
  std::vector<int64_t> returned;
  for (const auto& r : a) returned.push_back(r.item);
  std::sort(returned.begin(), returned.end());
  std::sort(items.begin(), items.end());
  EXPECT_EQ(returned, items);
}

TEST_F(ServeTest, ScorerOverrideChangesRanking) {
  // A scorer that inverts preference ordering produces a different TopK
  // than the model's own scores (checks the override is actually used).
  metrics::ScoreFn inverted = [this](const data::Batch& b, int64_t d) {
    auto s = model_->Score(b, d);
    for (auto& v : s) v = 1.0f - v;
    return s;
  };
  Recommender plain(model_.get());
  Recommender flipped(model_.get(), inverted);
  std::vector<int64_t> items{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto a = plain.Rank(2, 0, items);
  auto b = flipped.Rank(2, 0, items);
  EXPECT_EQ(a.front().item, b.back().item);
}

TEST_F(ServeTest, TiedScoresBreakByAscendingItemId) {
  // With a constant scorer every candidate ties; the deterministic
  // tie-break contract says the result is then exactly ascending item id,
  // regardless of candidate registration order.
  metrics::ScoreFn constant = [](const data::Batch& b, int64_t) {
    return std::vector<float>(b.items.size(), 0.5f);
  };
  Recommender rec(model_.get(), constant);
  rec.SetCandidates(0, {42, 7, 19, 3, 55, 28});
  const auto top = rec.TopK(/*user=*/1, /*domain=*/0, /*k=*/4);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0].item, 3);
  EXPECT_EQ(top[1].item, 7);
  EXPECT_EQ(top[2].item, 19);
  EXPECT_EQ(top[3].item, 28);

  // Partial ties: items sharing a score stay grouped by score first, then
  // ascend by id within the tie.
  metrics::ScoreFn two_level = [](const data::Batch& b, int64_t) {
    std::vector<float> s(b.items.size());
    for (size_t i = 0; i < s.size(); ++i) {
      s[i] = b.items[i] % 2 == 0 ? 0.9f : 0.1f;
    }
    return s;
  };
  Recommender rec2(model_.get(), two_level);
  const auto ranked = rec2.Rank(1, 0, {5, 4, 2, 9, 8});
  ASSERT_EQ(ranked.size(), 5u);
  EXPECT_EQ(ranked[0].item, 2);
  EXPECT_EQ(ranked[1].item, 4);
  EXPECT_EQ(ranked[2].item, 8);
  EXPECT_EQ(ranked[3].item, 5);
  EXPECT_EQ(ranked[4].item, 9);
}

TEST_F(ServeTest, EvaluateTopKZeroedWhenNoTestPositives) {
  // A domain whose test split holds only negatives (and one with an empty
  // test split outright) must yield the zeroed report — zero cases, zero
  // rates, never NaN.
  data::MultiDomainDataset ds("edge", /*num_users=*/10, /*num_items=*/20);
  data::DomainData only_negatives;
  only_negatives.name = "only_negatives";
  only_negatives.train = {{0, 1, 1.0f}, {1, 2, 0.0f}};
  only_negatives.test = {{0, 3, 0.0f}, {1, 4, 0.0f}};
  ASSERT_TRUE(ds.AddDomain(only_negatives).ok());
  data::DomainData empty_test;
  empty_test.name = "empty_test";
  empty_test.train = {{0, 1, 1.0f}};
  ASSERT_TRUE(ds.AddDomain(empty_test).ok());

  Recommender rec(model_.get());
  Rng rng(5);
  for (int64_t d = 0; d < ds.num_domains(); ++d) {
    const auto report = EvaluateTopK(rec, ds, d, 10, 20, &rng);
    EXPECT_EQ(report.num_cases, 0) << ds.domain(d).name;
    EXPECT_EQ(report.hit_rate, 0.0) << ds.domain(d).name;
    EXPECT_EQ(report.ndcg, 0.0) << ds.domain(d).name;
  }
}

TEST_F(ServeTest, EvaluateTopKZeroedWhenNoItems) {
  // No candidate id space at all: the negative-sampling protocol cannot
  // draw, so the report is zeroed before any model call happens.
  data::MultiDomainDataset ds("no_items", /*num_users=*/5, /*num_items=*/0);
  data::DomainData d;
  d.name = "d0";
  d.test = {{0, 0, 1.0f}};  // a positive, but nothing to rank it against
  ASSERT_TRUE(ds.AddDomain(d).ok());

  Recommender rec(model_.get());
  Rng rng(5);
  const auto report = EvaluateTopK(rec, ds, 0, 10, 20, &rng);
  EXPECT_EQ(report.num_cases, 0);
  EXPECT_EQ(report.hit_rate, 0.0);
  EXPECT_EQ(report.ndcg, 0.0);
}

TEST_F(ServeTest, EvaluateTopKBoundsAndCases) {
  Recommender rec(model_.get());
  Rng rng(5);
  auto report = EvaluateTopK(rec, ds_, /*domain=*/0, /*k=*/5,
                             /*num_negatives=*/20, &rng);
  EXPECT_GT(report.num_cases, 0);
  EXPECT_GE(report.hit_rate, 0.0);
  EXPECT_LE(report.hit_rate, 1.0);
  EXPECT_GE(report.ndcg, 0.0);
  EXPECT_LE(report.ndcg, 1.0);
  EXPECT_LE(report.ndcg, report.hit_rate + 1e-12);  // ndcg discounts hits
}

// Every (item, score) pair must match — score BITS included.
void ExpectSameRanking(const std::vector<RankedItem>& a,
                       const std::vector<RankedItem>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].item, b[i].item) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;  // exact bits
  }
}

// --- Determinism under concurrent serving threads ---
//
// The serving contract says results are a pure function of (user, domain,
// candidates, weights): N threads hammering one Recommender must produce
// exactly the bits a serial run produces.

TEST_F(ServeTest, ConcurrentTopKMatchesSerialBitwise) {
  Recommender rec(model_.get());
  rec.SetCandidates(0, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  rec.SetCandidates(1, {11, 12, 13, 14, 15});

  constexpr int64_t kRequests = 64;
  auto user_of = [](int64_t g) { return (g * 13) % 7; };
  auto domain_of = [](int64_t g) { return g % 2; };

  // Serial reference.
  std::vector<std::vector<RankedItem>> want;
  for (int64_t g = 0; g < kRequests; ++g) {
    want.push_back(rec.TopK(user_of(g), domain_of(g), 5));
  }

  for (const int64_t threads : {int64_t{1}, int64_t{2}, int64_t{4},
                                int64_t{8}}) {
    std::vector<std::vector<RankedItem>> got(kRequests);
    std::vector<std::thread> pool;
    for (int64_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (int64_t g = t; g < kRequests; g += threads) {
          got[g] = rec.TopK(user_of(g), domain_of(g), 5);
        }
      });
    }
    for (auto& th : pool) th.join();
    for (int64_t g = 0; g < kRequests; ++g) {
      ExpectSameRanking(got[g], want[g]);
    }
  }
}

TEST_F(ServeTest, TrainedModelBeatsUntrainedAtTopK) {
  // Larger dataset than the fixture's: top-K protocols need enough test
  // positives per domain to be stable.
  auto ds = mamdr::testing::TinyDataset(2, 600, 51);
  auto mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(3);
  auto model = models::CreateModel("MLP", mc, &rng).value();

  auto both_domains = [&](const Recommender& rec, uint64_t seed) {
    double hits = 0.0;
    for (int64_t d = 0; d < ds.num_domains(); ++d) {
      Rng eval_rng(seed);
      hits += EvaluateTopK(rec, ds, d, 10, 30, &eval_rng).hit_rate;
    }
    return hits / static_cast<double>(ds.num_domains());
  };

  Recommender before(model.get());
  const double untrained = both_domains(before, 5);

  core::TrainConfig tc;
  tc.epochs = 8;
  tc.batch_size = 128;
  core::Mamdr mamdr(model.get(), &ds, tc);
  mamdr.Train();
  Recommender after(model.get(), mamdr.Scorer());
  const double trained = both_domains(after, 5);
  EXPECT_GT(trained, untrained);
}

}  // namespace
}  // namespace serve
}  // namespace mamdr
