#include "tensor/tensor.h"

#include <algorithm>
#include <sstream>

#include "tensor/step_buffers.h"

namespace mamdr {

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    MAMDR_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

Tensor::Tensor(Shape shape) : Tensor(std::move(shape), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)),
      data_(AllocateTensorStorage(static_cast<size_t>(NumElements(shape_)),
                                  /*fill=*/true, fill)) {}

Tensor::Tensor(Shape shape, std::vector<float> data) : shape_(std::move(shape)) {
  MAMDR_CHECK_EQ(NumElements(shape_), static_cast<int64_t>(data.size()));
  CountTensorAllocation();
  data_ = std::make_shared<std::vector<float>>(std::move(data));
}

Tensor Tensor::Uninit(Shape shape) {
  Tensor out;
  out.data_ = AllocateTensorStorage(static_cast<size_t>(NumElements(shape)),
                                    /*fill=*/false, 0.0f);
  out.shape_ = std::move(shape);
  return out;
}

Tensor Tensor::FromVector(const std::vector<float>& v) {
  return Tensor({static_cast<int64_t>(v.size())}, v);
}

Tensor Tensor::FromMatrix(const std::vector<std::vector<float>>& rows) {
  MAMDR_CHECK(!rows.empty());
  const int64_t r = static_cast<int64_t>(rows.size());
  const int64_t c = static_cast<int64_t>(rows[0].size());
  std::vector<float> flat;
  flat.reserve(static_cast<size_t>(r * c));
  for (const auto& row : rows) {
    MAMDR_CHECK_EQ(static_cast<int64_t>(row.size()), c);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return Tensor({r, c}, std::move(flat));
}

Tensor Tensor::Clone() const {
  Tensor out;
  out.shape_ = shape_;
  if (data_) {
    out.data_ = AllocateTensorStorage(data_->size(), /*fill=*/false, 0.0f);
    std::copy(data_->begin(), data_->end(), out.data_->begin());
  }
  return out;
}

int64_t Tensor::dim(int64_t i) const {
  MAMDR_CHECK_LT(i, rank());
  return shape_[static_cast<size_t>(i)];
}

Tensor Tensor::Reshaped(Shape new_shape) const {
  MAMDR_CHECK_EQ(NumElements(new_shape), size());
  Tensor out = *this;
  out.shape_ = std::move(new_shape);
  return out;
}

void Tensor::Fill(float v) {
  if (data_) std::fill(data_->begin(), data_->end(), v);
}

std::string Tensor::ToString() const {
  std::ostringstream os;
  os << "Tensor" << ShapeToString(shape_) << " {";
  const int64_t n = std::min<int64_t>(size(), 16);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) os << ", ";
    os << at(i);
  }
  if (size() > n) os << ", ...";
  os << "}";
  return os.str();
}

}  // namespace mamdr
