#ifndef HPDR_CORE_NDARRAY_HPP
#define HPDR_CORE_NDARRAY_HPP

/// \file ndarray.hpp
/// Owning row-major n-dimensional array plus a non-owning view. These are the
/// currency types of the public compression API: compressors consume an
/// NDView<const T> and produce byte buffers.

#include <cstring>
#include <span>
#include <vector>

#include "core/error.hpp"
#include "core/shape.hpp"

namespace hpdr {

/// Non-owning view of a dense row-major tensor.
template <class T>
class NDView {
 public:
  NDView() = default;
  NDView(T* data, Shape shape) : data_(data), shape_(shape) {}

  T* data() const { return data_; }
  const Shape& shape() const { return shape_; }
  std::size_t size() const { return shape_.size(); }
  std::size_t size_bytes() const { return size() * sizeof(T); }

  T& operator[](std::size_t i) const {
    HPDR_ASSERT(i < size());
    return data_[i];
  }

  std::span<T> span() const { return {data_, size()}; }

  /// View the same memory as const.
  operator NDView<const T>() const { return {data_, shape_}; }

 private:
  T* data_ = nullptr;
  Shape shape_;
};

/// Owning dense row-major tensor.
template <class T>
class NDArray {
 public:
  NDArray() = default;
  explicit NDArray(Shape shape) : shape_(shape), data_(shape.size()) {}
  NDArray(Shape shape, T fill) : shape_(shape), data_(shape.size(), fill) {}

  static NDArray from(Shape shape, std::span<const T> values) {
    HPDR_REQUIRE(shape.size() == values.size(),
                 "shape/size mismatch: " << shape.to_string() << " vs "
                                         << values.size());
    NDArray a(shape);
    std::memcpy(a.data(), values.data(), values.size() * sizeof(T));
    return a;
  }

  const Shape& shape() const { return shape_; }
  std::size_t size() const { return data_.size(); }
  std::size_t size_bytes() const { return size() * sizeof(T); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  T& operator[](std::size_t i) {
    HPDR_ASSERT(i < data_.size());
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    HPDR_ASSERT(i < data_.size());
    return data_[i];
  }

  /// Multidimensional accessors for the common ranks.
  T& at(std::size_t i) { return (*this)[i]; }
  T& at(std::size_t i, std::size_t j) {
    HPDR_ASSERT(shape_.rank() == 2);
    return data_[i * shape_[1] + j];
  }
  T& at(std::size_t i, std::size_t j, std::size_t k) {
    HPDR_ASSERT(shape_.rank() == 3);
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }
  const T& at(std::size_t i, std::size_t j, std::size_t k) const {
    HPDR_ASSERT(shape_.rank() == 3);
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }

  NDView<T> view() { return {data_.data(), shape_}; }
  NDView<const T> view() const { return {data_.data(), shape_}; }

  std::span<T> span() { return {data_.data(), data_.size()}; }
  std::span<const T> span() const { return {data_.data(), data_.size()}; }

 private:
  Shape shape_;
  std::vector<T> data_;
};

}  // namespace hpdr

#endif  // HPDR_CORE_NDARRAY_HPP
