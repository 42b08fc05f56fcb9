// Model-agnostic per-domain evaluation.
#ifndef MAMDR_METRICS_EVALUATOR_H_
#define MAMDR_METRICS_EVALUATOR_H_

#include <functional>
#include <vector>

#include "data/batch.h"
#include "data/dataset.h"

namespace mamdr {
namespace metrics {

/// Scoring callback: CTR scores for a batch in the given domain. Keeping the
/// evaluator callback-based keeps metrics independent of model structure —
/// the same theme as the paper's framework.
using ScoreFn =
    std::function<std::vector<float>(const data::Batch&, int64_t domain)>;

/// Which split to evaluate.
enum class Split { kTrain, kVal, kTest };

/// AUC of one domain's split.
double EvaluateDomain(const data::MultiDomainDataset& ds, int64_t domain,
                      Split split, const ScoreFn& score);

/// Whether EvaluateAllDomains may fan domains out, one task per domain, over
/// a ThreadPool of min(KernelThreads(), num_domains) threads built per call.
/// Only pass kParallel when `score` is safe to call concurrently from
/// multiple threads (a pure forward pass is; scorers that install
/// per-domain parameters into a shared model, like MAMDR composites, are
/// not). Each domain writes a disjoint output slot and the per-domain
/// computation is unchanged, so the result is identical either way.
enum class EvalParallel { kSerial, kParallel };

/// AUC of every domain's split.
std::vector<double> EvaluateAllDomains(
    const data::MultiDomainDataset& ds, Split split, const ScoreFn& score,
    EvalParallel parallel = EvalParallel::kSerial);

/// Mean of EvaluateAllDomains.
double AverageAuc(const data::MultiDomainDataset& ds, Split split,
                  const ScoreFn& score);

}  // namespace metrics
}  // namespace mamdr

#endif  // MAMDR_METRICS_EVALUATOR_H_
