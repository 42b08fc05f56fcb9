// Top-K item ranking on top of a trained CTR model — the serving-side API
// of the MDR platform (Fig. 2's "provide services for thousands of
// domains").
#ifndef MAMDR_SERVE_RECOMMENDER_H_
#define MAMDR_SERVE_RECOMMENDER_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "metrics/evaluator.h"
#include "models/ctr_model.h"
#include "obs/histogram.h"

namespace mamdr {
namespace serve {

struct RankedItem {
  int64_t item = 0;
  float score = 0.0f;
};

/// Ranks candidate items for a (user, domain) pair.
///
/// By default scores come from the model directly; pass the owning
/// framework's Scorer() to serve with its per-domain parameters (for
/// MAMDR, Θ = θS + θi installed before each domain's scoring pass).
///
/// ## Concurrency contract (setup-then-serve, lock-free steady state)
///
/// The per-domain state (candidate pool + resolved metric pointers) lives
/// in an immutable snapshot published through one atomic pointer.
/// `TopK`/`Rank` are safe to call from any number of threads
/// concurrently and take NO lock in the steady state: a request is one
/// acquire-load of the snapshot pointer, a hash lookup, relaxed atomic
/// metric bumps, and the scoring pass. Writers (`SetCandidates`, plus the
/// one-time lazy registration of a never-seen domain) serialize on a setup
/// mutex, rebuild the snapshot copy-on-write, and publish it with a
/// release store — concurrent readers keep using the snapshot they loaded.
/// Retired snapshots are kept alive until the Recommender is destroyed, so
/// references handed out (e.g. `candidates()`) never dangle; the intended
/// lifecycle is still "register pools, then serve" — SetCandidates is
/// correct under live traffic but costs a full snapshot copy, so it is not
/// a hot-path operation.
///
/// Thread safety of the scoring pass itself is inherited from the scorer:
/// the default model path is safe for concurrent read-only inference; a
/// ScoreFn that installs parameters into the model per domain (a
/// framework's Scorer() whenever Framework::ScorerIsThreadSafe() is false)
/// must be externally serialized.
class Recommender {
 public:
  explicit Recommender(models::CtrModel* model,
                       metrics::ScoreFn scorer = nullptr);
  ~Recommender();

  /// Register the serving candidate pool of a domain (typically the items
  /// appearing in that domain's interactions). Copy-on-write snapshot
  /// publish: safe concurrently with readers, serialized against other
  /// writers. Not a hot-path call (see class comment).
  void SetCandidates(int64_t domain, std::vector<int64_t> items);

  /// Candidates registered for a domain (empty vector if none). The
  /// reference stays valid for the Recommender's lifetime but goes stale
  /// if SetCandidates replaces the pool.
  const std::vector<int64_t>& candidates(int64_t domain) const;

  /// Score all candidates of the domain for the user and return the top k,
  /// highest score first; equal scores order by ascending item id so the
  /// result is bit-stable across platforms. k is clamped to the candidate
  /// count.
  std::vector<RankedItem> TopK(int64_t user, int64_t domain,
                               int64_t k) const;

  /// Score an explicit candidate list (used by offline evaluation). Same
  /// deterministic ordering contract as TopK.
  std::vector<RankedItem> Rank(int64_t user, int64_t domain,
                               const std::vector<int64_t>& items) const;

 private:
  /// Immutable per-domain serving state. Metric pointers are resolved once
  /// per domain (registry-lifetime) and carried from snapshot to snapshot.
  struct DomainState {
    std::vector<int64_t> candidates;
    obs::Counter* topk_requests = nullptr;
    obs::Counter* rank_requests = nullptr;
    obs::Gauge* pool_size = nullptr;
  };
  struct Snapshot {
    std::unordered_map<int64_t, DomainState> domains;
  };

  /// Lock-free lookup in the current snapshot; nullptr when the domain has
  /// never been seen.
  const DomainState* FindDomain(int64_t domain) const;

  /// FindDomain, or (first request for the domain) copy-on-write publish
  /// of a snapshot that includes it. Returns a reference that lives until
  /// the Recommender is destroyed.
  const DomainState& EnsureDomain(int64_t domain) const
      MAMDR_EXCLUDES(setup_mu_);

  /// Install `next` as the current snapshot, retiring the previous one
  /// (kept alive for concurrent readers until destruction).
  const Snapshot* Publish(std::unique_ptr<const Snapshot> next) const
      MAMDR_REQUIRES(setup_mu_);

  /// The uninstrumented scoring + sort core shared by TopK and Rank (so
  /// each public API observes its own end-to-end latency exactly once).
  std::vector<RankedItem> RankImpl(int64_t user, int64_t domain,
                                   const std::vector<int64_t>& items) const;

  models::CtrModel* model_;
  metrics::ScoreFn scorer_;
  std::vector<int64_t> empty_;

  obs::Histogram* topk_latency_;  // registry-lifetime, cached at ctor
  obs::Histogram* rank_latency_;

  /// Writers serialize here; readers never touch it.
  mutable Mutex setup_mu_{MAMDR_LOCK_CLASS("serve.recommender.setup")};
  /// Current snapshot (acquire-load on every request; release-store on
  /// publish). Owned by retired_.
  mutable std::atomic<const Snapshot*> snapshot_;
  /// Every snapshot ever published, newest last. Grows by one entry per
  /// SetCandidates / first-seen domain — bounded by the setup-then-serve
  /// lifecycle, freed in the destructor.
  mutable std::vector<std::unique_ptr<const Snapshot>> retired_
      MAMDR_GUARDED_BY(setup_mu_);
};

/// Offline top-K quality on a domain's test positives, with the standard
/// sampled-negatives protocol: each positive (u, v) is ranked against
/// `num_negatives` random un-interacted items; HitRate@K counts v in the
/// top K, NDCG@K discounts by rank position. A domain with no test
/// positives (or a dataset with no items to sample candidates from) yields
/// a zeroed report — never NaN.
struct TopKReport {
  double hit_rate = 0.0;
  double ndcg = 0.0;
  int64_t num_cases = 0;
};

TopKReport EvaluateTopK(const Recommender& rec,
                        const data::MultiDomainDataset& ds, int64_t domain,
                        int64_t k, int64_t num_negatives, Rng* rng);

}  // namespace serve
}  // namespace mamdr

#endif  // MAMDR_SERVE_RECOMMENDER_H_
