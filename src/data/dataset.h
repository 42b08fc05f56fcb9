// Multi-domain dataset container with global user/item id spaces.
#ifndef MAMDR_DATA_DATASET_H_
#define MAMDR_DATA_DATASET_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "data/types.h"

namespace mamdr {
namespace data {

/// A set of domains sharing one global user/item feature storage, mirroring
/// the Taobao MDR platform of Fig. 2: users and items may overlap across
/// domains; ids are global.
class MultiDomainDataset {
 public:
  MultiDomainDataset() = default;
  MultiDomainDataset(std::string name, int64_t num_users, int64_t num_items);

  const std::string& name() const { return name_; }
  int64_t num_users() const { return num_users_; }
  int64_t num_items() const { return num_items_; }
  int64_t num_domains() const { return static_cast<int64_t>(domains_.size()); }

  const DomainData& domain(int64_t i) const;
  const std::vector<DomainData>& domains() const { return domains_; }

  /// Append a domain; the platform analogue of onboarding a new scenario.
  /// Fails if a domain with the same name exists.
  Status AddDomain(DomainData domain);

  /// Totals across domains.
  int64_t TotalTrain() const;
  int64_t TotalVal() const;
  int64_t TotalTest() const;

  /// Validate invariants: ids within range, labels in {0,1}, non-empty
  /// splits for every domain.
  Status Validate() const;

 private:
  std::string name_;
  int64_t num_users_ = 0;
  int64_t num_items_ = 0;
  std::vector<DomainData> domains_;
};

}  // namespace data
}  // namespace mamdr

#endif  // MAMDR_DATA_DATASET_H_
