// Chaos coverage for the serving concurrency contract (run under TSan in
// CI via the `chaos` label).
//
// The Recommender's contract is setup-then-serve with one carve-out:
// SetCandidates may run under live traffic — it publishes a copy-on-write
// snapshot, in-flight requests finish against the snapshot they started
// with, and subsequent requests see either the old or the new pool,
// never a mix. These tests drive exactly that carve-out: serving threads
// hammer TopK/Rank across domains while a mutator thread
// republishes candidate pools the whole time. Assertions are structural
// (every response is well-formed and drawn from one of the published
// pools) because under concurrent mutation there is no single expected
// ranking — the bitwise-equivalence claims live in serve_test.cc where
// the world holds still. TSan provides the memory-model verdict.
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lockdep_guard.h"
#include "models/registry.h"
#include "serve/recommender.h"
#include "test_util.h"

// The serving carve-out is also the lockdep clean-run for serve/: every
// test in this binary must finish with zero lock-order violations.
MAMDR_ASSERT_LOCKDEP_CLEAN();

namespace mamdr {
namespace serve {
namespace {

class ServeChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = mamdr::testing::TinyDataset(3, 150, 71);
    mc_ = mamdr::testing::TinyModelConfig(ds_);
    rng_ = std::make_unique<Rng>(11);
    model_ = models::CreateModel("MLP", mc_, rng_.get()).value();
  }

  data::MultiDomainDataset ds_;
  models::ModelConfig mc_;
  std::unique_ptr<Rng> rng_;
  std::unique_ptr<models::CtrModel> model_;
};

/// Candidate pool published at `gen`: 8–12 distinct items, window sliding
/// with the generation, always inside TinyDataset's 60-item id space.
std::vector<int64_t> PoolForGeneration(int64_t gen) {
  std::vector<int64_t> items;
  const int64_t base = gen % 40;
  for (int64_t i = 0; i < 8 + gen % 5; ++i) items.push_back(base + i);
  return items;
}

/// Every item a pool generation can contain: the union of all pools the
/// mutator ever publishes (responses may be served from any generation).
std::set<int64_t> AllPublishedItems(int64_t generations) {
  std::set<int64_t> all;
  for (int64_t gen = 0; gen < generations; ++gen) {
    for (int64_t item : PoolForGeneration(gen)) all.insert(item);
  }
  return all;
}

TEST_F(ServeChaosTest, ConcurrentTopKUnderLiveSetCandidates) {
  Recommender rec(model_.get());
  const int64_t domains = ds_.num_domains();
  for (int64_t d = 0; d < domains; ++d) {
    rec.SetCandidates(d, PoolForGeneration(0));
  }

  constexpr int64_t kGenerations = 60;
  constexpr int64_t kServingThreads = 4;
  constexpr int64_t kRequestsPerThread = 150;
  const std::set<int64_t> valid = AllPublishedItems(kGenerations);
  std::atomic<int64_t> servers_done{0};
  std::atomic<int64_t> requests_served{0};

  // Mutator: republish every domain's pool, generation after generation,
  // for as long as any server is still issuing requests — the overlap is
  // the whole point of the test.
  std::thread mutator([&] {
    int64_t gen = 1;
    while (servers_done.load(std::memory_order_relaxed) < kServingThreads) {
      for (int64_t d = 0; d < domains; ++d) {
        rec.SetCandidates(d, PoolForGeneration(gen % kGenerations));
      }
      ++gen;
    }
  });

  std::vector<std::thread> servers;
  std::vector<std::string> errors(kServingThreads);
  for (int64_t t = 0; t < kServingThreads; ++t) {
    servers.emplace_back([&, t] {
      for (int64_t i = 0; i < kRequestsPerThread; ++i) {
        const int64_t g = t * kRequestsPerThread + i;
        const int64_t user = (g * 31) % 50;
        const int64_t domain = g % domains;
        const int64_t k = 1 + g % 6;
        std::vector<std::vector<RankedItem>> responses;
        if (g % 4 == 0) {
          responses.push_back(rec.TopK(user, domain, k));
          responses.push_back(rec.TopK(user + 1, (domain + 1) % domains, k));
          responses.push_back(rec.TopK(user, domain, k + 1));
        } else if (g % 4 == 1) {
          responses.push_back(rec.Rank(user, domain, PoolForGeneration(
              g % kGenerations)));
        } else {
          responses.push_back(rec.TopK(user, domain, k));
        }
        for (const auto& resp : responses) {
          for (size_t r = 0; r < resp.size(); ++r) {
            if (r > 0 && resp[r - 1].score < resp[r].score) {
              errors[t] = "scores not sorted descending";
            }
            if (valid.count(resp[r].item) == 0) {
              errors[t] = "item outside every published pool";
            }
          }
        }
        requests_served.fetch_add(1, std::memory_order_relaxed);
      }
      servers_done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& s : servers) s.join();
  mutator.join();
  for (const auto& e : errors) EXPECT_EQ(e, "");
  EXPECT_EQ(requests_served.load(), kServingThreads * kRequestsPerThread);
}

TEST_F(ServeChaosTest, FirstTouchDomainRegistrationRaces) {
  // EnsureDomain's slow path (first request ever seen for a domain) takes
  // the setup lock and republishes the snapshot; many threads discovering
  // many fresh domains at once must neither crash nor lose a domain's
  // metrics wiring. Exercises the double-checked publish under TSan.
  Recommender rec(model_.get());
  constexpr int64_t kThreads = 8;
  std::vector<std::thread> pool;
  for (int64_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int64_t d = 0; d < ds_.num_domains(); ++d) {
        // Unregistered domains: empty but well-defined responses.
        EXPECT_TRUE(rec.TopK(t, d, 3).empty());
        EXPECT_TRUE(
            rec.Rank(t, d, {}).empty());
      }
    });
  }
  for (auto& th : pool) th.join();
  // After the stampede each domain still accepts candidates normally.
  rec.SetCandidates(0, {1, 2, 3});
  EXPECT_EQ(rec.TopK(0, 0, 3).size(), 3u);
}

}  // namespace
}  // namespace serve
}  // namespace mamdr
