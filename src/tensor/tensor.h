// Dense row-major float32 tensor — the numeric workhorse of the library.
#ifndef MAMDR_TENSOR_TENSOR_H_
#define MAMDR_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/logging.h"

namespace mamdr {

/// Shape of a tensor; rank 1 or 2 in practice (vectors / matrices).
using Shape = std::vector<int64_t>;

/// Number of elements implied by a shape.
int64_t NumElements(const Shape& shape);

/// Render "[2, 3]".
std::string ShapeToString(const Shape& shape);

/// Dense float32 tensor with shared storage and value semantics on shape.
///
/// Copies share the underlying buffer (like a shared_ptr); use Clone() for a
/// deep copy. All kernels live in tensor_ops.h; Tensor itself only manages
/// storage and indexing. Inside a training step, new storage may be a
/// buffer reused from the previous step (see tensor/step_buffers.h).
class Tensor {
 public:
  /// Empty tensor (rank 0, no storage).
  Tensor() = default;

  /// Allocate zero-initialized storage of the given shape.
  explicit Tensor(Shape shape);

  /// Allocate and fill with a constant.
  Tensor(Shape shape, float fill);

  /// Storage whose contents are unspecified: zero, or inside a training
  /// step the previous step's values. For outputs the caller overwrites in
  /// full, which then skip the zero fill.
  static Tensor Uninit(Shape shape);

  /// Wrap explicit data (size must match shape).
  Tensor(Shape shape, std::vector<float> data);

  /// 1-D convenience constructor from a list: Tensor::FromVector({1,2,3}).
  static Tensor FromVector(const std::vector<float>& v);

  /// 2-D convenience constructor from nested lists (rows must be equal size).
  static Tensor FromMatrix(
      const std::vector<std::vector<float>>& rows);

  /// Deep copy.
  Tensor Clone() const;

  const Shape& shape() const { return shape_; }
  int64_t rank() const { return static_cast<int64_t>(shape_.size()); }
  int64_t dim(int64_t i) const;
  int64_t size() const { return data_ ? static_cast<int64_t>(data_->size()) : 0; }
  bool empty() const { return size() == 0; }

  /// For matrices: number of rows / cols.
  int64_t rows() const { return dim(0); }
  int64_t cols() const { return dim(1); }

  float* data() { return data_ ? data_->data() : nullptr; }
  const float* data() const { return data_ ? data_->data() : nullptr; }

  float& at(int64_t i) {
    MAMDR_DCHECK_GE(i, 0);
    MAMDR_CHECK_LT(i, size());
    return (*data_)[static_cast<size_t>(i)];
  }
  float at(int64_t i) const {
    MAMDR_DCHECK_GE(i, 0);
    MAMDR_CHECK_LT(i, size());
    return (*data_)[static_cast<size_t>(i)];
  }
  float& at(int64_t r, int64_t c) {
    MAMDR_CHECK_EQ(rank(), 2);
    MAMDR_DCHECK_GE(r, 0);
    MAMDR_DCHECK_LT(r, rows());
    MAMDR_DCHECK_GE(c, 0);
    MAMDR_DCHECK_LT(c, cols());
    return (*data_)[static_cast<size_t>(r * cols() + c)];
  }
  float at(int64_t r, int64_t c) const {
    MAMDR_CHECK_EQ(rank(), 2);
    MAMDR_DCHECK_GE(r, 0);
    MAMDR_DCHECK_LT(r, rows());
    MAMDR_DCHECK_GE(c, 0);
    MAMDR_DCHECK_LT(c, cols());
    return (*data_)[static_cast<size_t>(r * cols() + c)];
  }

  /// True if this and other share the same underlying buffer.
  bool SharesStorageWith(const Tensor& other) const {
    return data_ != nullptr && data_ == other.data_;
  }

  /// Reinterpret with a new shape of the same element count (shares storage).
  Tensor Reshaped(Shape new_shape) const;

  /// Set every element to v.
  void Fill(float v);

  /// Debug rendering (truncated for large tensors).
  std::string ToString() const;

 private:
  Shape shape_;
  std::shared_ptr<std::vector<float>> data_;
};

}  // namespace mamdr

#endif  // MAMDR_TENSOR_TENSOR_H_
