#include "metrics/evaluator.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/thread_pool.h"
#include "metrics/auc.h"

namespace mamdr {
namespace metrics {
namespace {

const std::vector<data::Interaction>& SelectSplit(const data::DomainData& d,
                                                  Split split) {
  switch (split) {
    case Split::kTrain:
      return d.train;
    case Split::kVal:
      return d.val;
    case Split::kTest:
      return d.test;
  }
  MAMDR_CHECK(false) << "unreachable";
  return d.test;
}

}  // namespace

double EvaluateDomain(const data::MultiDomainDataset& ds, int64_t domain,
                      Split split, const ScoreFn& score) {
  const auto& interactions = SelectSplit(ds.domain(domain), split);
  data::Batch batch = data::Batcher::All(interactions);
  std::vector<float> scores = score(batch, domain);
  MAMDR_CHECK_EQ(scores.size(), batch.labels.size());
  return Auc(scores, batch.labels);
}

std::vector<double> EvaluateAllDomains(const data::MultiDomainDataset& ds,
                                       Split split, const ScoreFn& score,
                                       EvalParallel parallel) {
  const int64_t n = ds.num_domains();
  std::vector<double> out(static_cast<size_t>(n), 0.0);
  const int64_t width = parallel == EvalParallel::kParallel
                            ? std::min(KernelThreads(), n)
                            : 1;
  if (width <= 1) {
    for (int64_t d = 0; d < n; ++d) {
      out[static_cast<size_t>(d)] = EvaluateDomain(ds, d, split, score);
    }
    return out;
  }
  // One task per domain, each writing its own slot with exactly the serial
  // computation, so the result is bit-identical at any width. Wait()
  // rethrows the first scorer exception once every task has finished.
  ThreadPool pool(static_cast<size_t>(width));
  for (int64_t d = 0; d < n; ++d) {
    pool.Submit([&, d] {
      out[static_cast<size_t>(d)] = EvaluateDomain(ds, d, split, score);
    });
  }
  pool.Wait();
  return out;
}

double AverageAuc(const data::MultiDomainDataset& ds, Split split,
                  const ScoreFn& score) {
  const auto aucs = EvaluateAllDomains(ds, split, score);
  double sum = 0.0;
  for (double a : aucs) sum += a;
  return aucs.empty() ? 0.5 : sum / static_cast<double>(aucs.size());
}

}  // namespace metrics
}  // namespace mamdr
