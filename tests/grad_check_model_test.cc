// End-to-end finite-difference gradient check for a whole model (not just
// single ops): builds MLP on the tiny dataset and verifies every parameter's
// analytic gradient against central differences. Runs in the sanitizer CI
// matrix (tier1), where ASan+UBSan additionally sweep the full
// forward/backward path with MAMDR_DCHECK invariants armed.
#include <gtest/gtest.h>

#include <memory>

#include "testing/grad_check.h"
#include "models/registry.h"
#include "test_util.h"

namespace mamdr {
namespace {

TEST(ModelGradCheckTest, MlpModelGradientsMatchFiniteDifferences) {
  auto ds = mamdr::testing::TinyDataset(/*num_domains=*/2,
                                        /*pos_per_domain=*/40);
  models::ModelConfig mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(13);
  auto created = models::CreateModel("MLP", mc, &rng);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<models::CtrModel> model = std::move(created).value();

  Rng batch_rng(29);
  const data::Batch batch =
      data::Batcher::Sample(ds.domain(0).train, 8, &batch_rng);

  // Eval-mode context: no dropout, so the loss surface is deterministic and
  // finite differences are valid.
  nn::Context ctx;
  const auto forward = [&]() { return model->Loss(batch, 0, ctx); };

  const auto params = model->Parameters();
  ASSERT_FALSE(params.empty());
  const auto result =
      autograd::CheckGradients(forward, params, /*eps=*/1e-2f, /*tol=*/5e-2f);
  EXPECT_TRUE(result.ok) << "max_abs_err=" << result.max_abs_err
                         << " max_rel_err=" << result.max_rel_err;
}

TEST(ModelGradCheckTest, GradCheckIsDomainConsistent) {
  // The same model must pass the check in a second domain too (routing by
  // domain id must not leave stale gradients behind).
  auto ds = mamdr::testing::TinyDataset(/*num_domains=*/2,
                                        /*pos_per_domain=*/40);
  models::ModelConfig mc = mamdr::testing::TinyModelConfig(ds);
  Rng rng(17);
  auto created = models::CreateModel("MLP", mc, &rng);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<models::CtrModel> model = std::move(created).value();

  Rng batch_rng(31);
  const data::Batch batch =
      data::Batcher::Sample(ds.domain(1).train, 8, &batch_rng);
  nn::Context ctx;
  const auto forward = [&]() { return model->Loss(batch, 1, ctx); };
  const auto result = autograd::CheckGradients(forward, model->Parameters(),
                                               /*eps=*/1e-2f, /*tol=*/5e-2f);
  EXPECT_TRUE(result.ok) << "max_abs_err=" << result.max_abs_err
                         << " max_rel_err=" << result.max_rel_err;
}

}  // namespace
}  // namespace mamdr
