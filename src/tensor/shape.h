// Tensor shape: an ordered list of dimension extents plus the broadcasting
// rules (NumPy semantics) shared by the whole tensor library.
#ifndef URCL_TENSOR_SHAPE_H_
#define URCL_TENSOR_SHAPE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace urcl {

// Immutable-by-convention list of dimension sizes. Rank-0 (scalar) is allowed.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<int64_t> dims) : dims_(dims) {}
  explicit Shape(std::vector<int64_t> dims) : dims_(std::move(dims)) {}

  int64_t rank() const { return static_cast<int64_t>(dims_.size()); }
  int64_t dim(int64_t axis) const;
  const std::vector<int64_t>& dims() const { return dims_; }

  // Product of all dims; 1 for rank-0.
  int64_t NumElements() const;

  // Row-major strides (in elements) for a contiguous layout.
  std::vector<int64_t> Strides() const;

  // Resolves a possibly-negative axis (e.g. -1 = last) and checks bounds.
  int64_t CanonicalAxis(int64_t axis) const;

  std::string ToString() const;

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

 private:
  std::vector<int64_t> dims_;
};

// NumPy-style broadcast of two shapes into *out: per axis the extents must
// match or one must be 1, and the other extent wins (so 0 against 1 is 0).
// Returns false, leaving *out untouched, when the shapes are incompatible.
bool TryBroadcastShapes(const Shape& a, const Shape& b, Shape* out);

// TryBroadcastShapes that aborts when the shapes are incompatible.
Shape BroadcastShapes(const Shape& a, const Shape& b);

// True when `from` can broadcast to `to`.
bool IsBroadcastableTo(const Shape& from, const Shape& to);

}  // namespace urcl

#endif  // URCL_TENSOR_SHAPE_H_
