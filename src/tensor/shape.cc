#include "tensor/shape.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace urcl {

int64_t Shape::dim(int64_t axis) const {
  const int64_t canonical = CanonicalAxis(axis);
  return dims_[static_cast<size_t>(canonical)];
}

int64_t Shape::NumElements() const {
  int64_t total = 1;
  for (const int64_t d : dims_) total *= d;
  return total;
}

std::vector<int64_t> Shape::Strides() const {
  std::vector<int64_t> strides(dims_.size(), 1);
  for (int64_t i = rank() - 2; i >= 0; --i) {
    strides[static_cast<size_t>(i)] =
        strides[static_cast<size_t>(i + 1)] * dims_[static_cast<size_t>(i + 1)];
  }
  return strides;
}

int64_t Shape::CanonicalAxis(int64_t axis) const {
  const int64_t r = rank();
  if (axis < 0) axis += r;
  URCL_CHECK(axis >= 0 && axis < r) << "axis out of range for shape " << ToString();
  return axis;
}

std::string Shape::ToString() const {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i > 0) out << ", ";
    out << dims_[i];
  }
  out << "]";
  return out.str();
}

bool TryBroadcastShapes(const Shape& a, const Shape& b, Shape* out) {
  const int64_t rank = std::max(a.rank(), b.rank());
  std::vector<int64_t> dims(static_cast<size_t>(rank), 1);
  for (int64_t i = 0; i < rank; ++i) {
    const int64_t da = i < a.rank() ? a.dim(a.rank() - 1 - i) : 1;
    const int64_t db = i < b.rank() ? b.dim(b.rank() - 1 - i) : 1;
    if (da != db && da != 1 && db != 1) return false;
    // The non-1 extent wins, so an empty axis stays empty against a 1.
    dims[static_cast<size_t>(rank - 1 - i)] = da == 1 ? db : da;
  }
  *out = Shape(std::move(dims));
  return true;
}

Shape BroadcastShapes(const Shape& a, const Shape& b) {
  Shape out;
  const bool compatible = TryBroadcastShapes(a, b, &out);
  URCL_CHECK(compatible) << "cannot broadcast " << a.ToString() << " with " << b.ToString();
  return out;
}

bool IsBroadcastableTo(const Shape& from, const Shape& to) {
  if (from.rank() > to.rank()) return false;
  for (int64_t i = 0; i < from.rank(); ++i) {
    const int64_t df = from.dim(from.rank() - 1 - i);
    const int64_t dt = to.dim(to.rank() - 1 - i);
    if (df != dt && df != 1) return false;
  }
  return true;
}

}  // namespace urcl
