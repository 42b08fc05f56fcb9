#include "data/dataset.h"

#include "common/logging.h"

namespace mamdr {
namespace data {

MultiDomainDataset::MultiDomainDataset(std::string name, int64_t num_users,
                                       int64_t num_items)
    : name_(std::move(name)), num_users_(num_users), num_items_(num_items) {}

const DomainData& MultiDomainDataset::domain(int64_t i) const {
  MAMDR_CHECK_GE(i, 0);
  MAMDR_CHECK_LT(i, num_domains());
  return domains_[static_cast<size_t>(i)];
}

Status MultiDomainDataset::AddDomain(DomainData domain) {
  for (const auto& d : domains_) {
    if (d.name == domain.name) {
      return Status::AlreadyExists("domain '" + domain.name + "'");
    }
  }
  domains_.push_back(std::move(domain));
  return Status::OK();
}

int64_t MultiDomainDataset::TotalTrain() const {
  int64_t n = 0;
  for (const auto& d : domains_) n += static_cast<int64_t>(d.train.size());
  return n;
}

int64_t MultiDomainDataset::TotalVal() const {
  int64_t n = 0;
  for (const auto& d : domains_) n += static_cast<int64_t>(d.val.size());
  return n;
}

int64_t MultiDomainDataset::TotalTest() const {
  int64_t n = 0;
  for (const auto& d : domains_) n += static_cast<int64_t>(d.test.size());
  return n;
}

Status MultiDomainDataset::Validate() const {
  if (domains_.empty()) return Status::FailedPrecondition("no domains");
  for (const auto& d : domains_) {
    if (d.train.empty()) {
      return Status::FailedPrecondition("domain '" + d.name +
                                        "' has empty train split");
    }
    if (d.test.empty()) {
      return Status::FailedPrecondition("domain '" + d.name +
                                        "' has empty test split");
    }
    auto check_split = [&](const std::vector<Interaction>& split) -> Status {
      for (const auto& it : split) {
        if (it.user < 0 || it.user >= num_users_) {
          return Status::OutOfRange("user id out of range in '" + d.name +
                                    "'");
        }
        if (it.item < 0 || it.item >= num_items_) {
          return Status::OutOfRange("item id out of range in '" + d.name +
                                    "'");
        }
        if (it.label != 0.0f && it.label != 1.0f) {
          return Status::InvalidArgument("label not in {0,1} in '" + d.name +
                                         "'");
        }
      }
      return Status::OK();
    };
    MAMDR_RETURN_NOT_OK(check_split(d.train));
    MAMDR_RETURN_NOT_OK(check_split(d.val));
    MAMDR_RETURN_NOT_OK(check_split(d.test));
  }
  return Status::OK();
}

}  // namespace data
}  // namespace mamdr
