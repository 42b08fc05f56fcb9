// mamdr-lint: hot-path — steady-state request code in this file must not
// acquire a mutex; setup-only acquisitions carry an explicit allow comment.
#include "serve/recommender.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/logging.h"

namespace mamdr {
namespace serve {

namespace {

/// Resolve the per-domain registry metrics (one-time, setup path).
/// Request counts and pool sizes are pure functions of the served
/// workload, so they stay in the deterministic export (kStable).
void ResolveDomainMetrics(int64_t domain, obs::Counter** topk,
                          obs::Counter** rank, obs::Gauge** pool) {
  const std::string label = "{domain=\"" + std::to_string(domain) + "\"}";
  obs::Registry& reg = obs::Registry::Global();
  *topk = reg.counter("serve.topk.requests" + label);
  *rank = reg.counter("serve.rank.requests" + label);
  *pool = reg.gauge("serve.candidates" + label);
}

/// Deterministic sort of scored candidates. Total order: descending score,
/// ties broken by ascending item id, so golden/bench runs are bit-stable
/// across platforms and sort implementations.
std::vector<RankedItem> SortRanked(const std::vector<int64_t>& items,
                                   const std::vector<float>& scores) {
  MAMDR_CHECK_EQ(scores.size(), items.size());
  std::vector<RankedItem> ranked(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    ranked[i] = {items[i], scores[i]};
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedItem& a, const RankedItem& b) {
              return a.score > b.score ||
                     (a.score == b.score && a.item < b.item);
            });
  return ranked;
}

}  // namespace

Recommender::Recommender(models::CtrModel* model, metrics::ScoreFn scorer)
    : model_(model),
      scorer_(std::move(scorer)),
      topk_latency_(obs::LatencyHistogram(&obs::Registry::Global(),
                                          "serve.topk.latency_micros")),
      rank_latency_(obs::LatencyHistogram(&obs::Registry::Global(),
                                          "serve.rank.latency_micros")) {
  MAMDR_CHECK(model != nullptr);
  MutexLock lock(&setup_mu_);  // mamdr-lint: allow(hot-path-lock) ctor
  Publish(std::make_unique<const Snapshot>());
}

Recommender::~Recommender() = default;

const Recommender::Snapshot* Recommender::Publish(
    std::unique_ptr<const Snapshot> next) const {
  const Snapshot* raw = next.get();
  retired_.push_back(std::move(next));
  // Release pairs with the acquire in FindDomain: a reader that sees the
  // new pointer sees the fully built snapshot behind it. Old snapshots
  // stay alive in retired_ for readers still holding them.
  snapshot_.store(raw, std::memory_order_release);
  return raw;
}

const Recommender::DomainState* Recommender::FindDomain(
    int64_t domain) const {
  const Snapshot* snap = snapshot_.load(std::memory_order_acquire);
  auto it = snap->domains.find(domain);
  return it == snap->domains.end() ? nullptr : &it->second;
}

const Recommender::DomainState& Recommender::EnsureDomain(
    int64_t domain) const {
  if (const DomainState* state = FindDomain(domain)) return *state;
  // First request ever for this domain: copy-on-write publish of a
  // snapshot that carries its resolved metric pointers (and an empty
  // candidate pool). One-time setup cost per domain, never steady state.
  MutexLock lock(&setup_mu_);  // mamdr-lint: allow(hot-path-lock) setup path
  const Snapshot* cur = snapshot_.load(std::memory_order_relaxed);
  auto it = cur->domains.find(domain);
  if (it != cur->domains.end()) return it->second;  // raced with a writer
  auto next = std::make_unique<Snapshot>(*cur);
  DomainState state;
  ResolveDomainMetrics(domain, &state.topk_requests, &state.rank_requests,
                       &state.pool_size);
  auto inserted = next->domains.emplace(domain, std::move(state)).first;
  const DomainState& ref = inserted->second;
  Publish(std::unique_ptr<const Snapshot>(next.release()));
  return ref;
}

void Recommender::SetCandidates(int64_t domain, std::vector<int64_t> items) {
  MutexLock lock(&setup_mu_);  // mamdr-lint: allow(hot-path-lock) setup path
  const Snapshot* cur = snapshot_.load(std::memory_order_relaxed);
  auto next = std::make_unique<Snapshot>(*cur);
  DomainState& state = next->domains[domain];
  if (state.topk_requests == nullptr) {
    ResolveDomainMetrics(domain, &state.topk_requests, &state.rank_requests,
                         &state.pool_size);
  }
  state.candidates = std::move(items);
  state.pool_size->Set(static_cast<double>(state.candidates.size()));
  Publish(std::unique_ptr<const Snapshot>(next.release()));
}

const std::vector<int64_t>& Recommender::candidates(int64_t domain) const {
  const DomainState* state = FindDomain(domain);
  return state == nullptr ? empty_ : state->candidates;
}

std::vector<RankedItem> Recommender::RankImpl(
    int64_t user, int64_t domain, const std::vector<int64_t>& items) const {
  data::Batch batch;
  batch.users.assign(items.size(), user);
  batch.items = items;
  batch.labels.assign(items.size(), 0.0f);
  std::vector<float> scores = scorer_ ? scorer_(batch, domain)
                                      : model_->Score(batch, domain);
  return SortRanked(items, scores);
}

std::vector<RankedItem> Recommender::Rank(
    int64_t user, int64_t domain, const std::vector<int64_t>& items) const {
  EnsureDomain(domain).rank_requests->Add();
  obs::ScopedLatencyTimer timer(rank_latency_);
  return RankImpl(user, domain, items);
}

std::vector<RankedItem> Recommender::TopK(int64_t user, int64_t domain,
                                          int64_t k) const {
  const DomainState& state = EnsureDomain(domain);
  state.topk_requests->Add();
  obs::ScopedLatencyTimer timer(topk_latency_);
  std::vector<RankedItem> ranked = RankImpl(user, domain, state.candidates);
  if (static_cast<int64_t>(ranked.size()) > k) {
    ranked.resize(static_cast<size_t>(k));
  }
  return ranked;
}

TopKReport EvaluateTopK(const Recommender& rec,
                        const data::MultiDomainDataset& ds, int64_t domain,
                        int64_t k, int64_t num_negatives, Rng* rng) {
  MAMDR_CHECK(rng != nullptr);
  TopKReport report;
  const auto& d = ds.domain(domain);
  // Edge cases first: with no candidate id space there is nothing to rank
  // against, and with no test positives the protocol has no cases. Both
  // yield the zeroed report rather than NaN rates or a UB negative-sample
  // draw from an empty range.
  if (ds.num_items() <= 0) return report;
  bool has_positive = false;
  for (const auto& it : d.test) {
    if (it.label > 0.5f) {
      has_positive = true;
      break;
    }
  }
  if (!has_positive) return report;

  // Per-user interacted items (any split) must not be sampled as negatives.
  std::unordered_set<uint64_t> interacted;
  auto key = [](int64_t u, int64_t v) {
    return (static_cast<uint64_t>(u) << 26) ^ static_cast<uint64_t>(v);
  };
  for (const auto* split : {&d.train, &d.val, &d.test}) {
    for (const auto& it : *split) {
      if (it.label > 0.5f) interacted.insert(key(it.user, it.item));
    }
  }

  double hits = 0.0, ndcg = 0.0;
  for (const auto& it : d.test) {
    if (it.label < 0.5f) continue;
    std::vector<int64_t> cands{it.item};
    int64_t attempts = 0;
    while (static_cast<int64_t>(cands.size()) < num_negatives + 1 &&
           attempts < num_negatives * 50) {
      ++attempts;
      const int64_t v =
          static_cast<int64_t>(rng->UniformInt(
              static_cast<uint64_t>(ds.num_items())));
      if (interacted.count(key(it.user, v)) > 0) continue;
      cands.push_back(v);
    }
    const auto ranked = rec.Rank(it.user, domain, cands);
    int64_t pos = -1;
    for (size_t i = 0; i < ranked.size(); ++i) {
      if (ranked[i].item == it.item) {
        pos = static_cast<int64_t>(i);
        break;
      }
    }
    MAMDR_CHECK_GE(pos, 0);
    ++report.num_cases;
    if (pos < k) {
      hits += 1.0;
      ndcg += 1.0 / std::log2(static_cast<double>(pos) + 2.0);
    }
  }
  if (report.num_cases > 0) {
    report.hit_rate = hits / static_cast<double>(report.num_cases);
    report.ndcg = ndcg / static_cast<double>(report.num_cases);
  }
  return report;
}

}  // namespace serve
}  // namespace mamdr
