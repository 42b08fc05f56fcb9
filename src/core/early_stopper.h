// Patience-based early stopping on a validation metric.
//
// The paper trains with early stopping on validation AUC (§V-C practice);
// this utility packages that loop for library users and the CLI:
//
//   core::EarlyStopper stopper(/*patience=*/3);
//   while (!stopper.ShouldStop()) {
//     fw->TrainEpoch();
//     stopper.Observe(AvgVal(fw), fw->model());   // snapshots best params
//   }
//   stopper.RestoreBest(fw->model());
#ifndef MAMDR_CORE_EARLY_STOPPER_H_
#define MAMDR_CORE_EARLY_STOPPER_H_

#include <vector>

#include "nn/module.h"

namespace mamdr {
namespace core {

class EarlyStopper {
 public:
  /// Stop after `patience` consecutive non-improving observations.
  /// `min_delta` is the smallest improvement that counts.
  explicit EarlyStopper(int64_t patience, double min_delta = 0.0);

  /// Record a validation metric (higher is better). If it improves on the
  /// best seen, snapshots the module's parameters. Returns true if this
  /// observation improved.
  bool Observe(double metric, const nn::Module& module);

  /// True once `patience` observations in a row failed to improve.
  bool ShouldStop() const { return bad_streak_ >= patience_; }

  double best_metric() const { return best_metric_; }
  int64_t best_epoch() const { return best_epoch_; }

  /// Copy the best snapshot back into the module. No-op if nothing was
  /// ever observed.
  void RestoreBest(nn::Module* module) const;

 private:
  int64_t patience_;
  double min_delta_;
  double best_metric_ = -1e300;
  int64_t best_epoch_ = -1;
  int64_t observed_ = 0;
  int64_t bad_streak_ = 0;
  std::vector<Tensor> best_params_;
};

}  // namespace core
}  // namespace mamdr

#endif  // MAMDR_CORE_EARLY_STOPPER_H_
