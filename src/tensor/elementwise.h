// Shared broadcasting machinery, the coalesced two-stride walk that strided
// copies, broadcast binaries and reductions share, and template elementwise
// kernels. The templates here are the inlining fast path used by the hot ops
// in tensor_ops.cc and by ops::Map in tensor_ops.h (no per-element dispatch).
//
// All loops go through runtime::ParallelFor with shape-derived grains, so
// results are bitwise identical at any thread count (each output element is
// written by exactly one chunk).
//
// Vectorization: the named-op functors below provide a simd::F32x8 overload
// alongside the scalar one. When a functor has the vector form (detected via
// kHasVectorForm*), the kernels process 8 independent output elements per
// step with a scalar tail — each element still computes the identical scalar
// expression, so outputs are bitwise unchanged (see DESIGN.md
// "Vectorization contract"). Lambdas (ops::Map's, and the elementwise ops
// without a vector form) take the scalar path.
#ifndef URCL_TENSOR_ELEMENTWISE_H_
#define URCL_TENSOR_ELEMENTWISE_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "runtime/parallel.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace urcl {
namespace ops {
namespace detail {

// Chunk sizes in elements. Shape-derived only — never a function of the
// thread count — so chunk boundaries (and therefore results) are identical
// at any pool size.
inline constexpr int64_t kContiguousGrain = 1 << 15;
inline constexpr int64_t kStridedGrain = 1 << 12;

// True when Fn offers the 8-lane form in addition to the scalar one.
template <typename Fn>
inline constexpr bool kHasVectorForm2 =
    std::is_invocable_r_v<simd::F32x8, Fn, simd::F32x8, simd::F32x8>;
template <typename Fn>
inline constexpr bool kHasVectorForm1 = std::is_invocable_r_v<simd::F32x8, Fn, simd::F32x8>;

// --- Named-op functors -------------------------------------------------------
// Each vector overload is lane-wise bitwise identical to the scalar one,
// including NaN and signed-zero cases (see tensor/simd.h for the per-helper
// arguments). Operand order matters for Max/Min/Clamp: simd::Max(a, b)
// returns b on equal/unordered compares, so the scalar expression each op
// mirrors is spelled out next to it.

struct AddOp {
  float operator()(float x, float y) const { return x + y; }
  simd::F32x8 operator()(simd::F32x8 x, simd::F32x8 y) const { return simd::Add(x, y); }
};
struct SubOp {
  float operator()(float x, float y) const { return x - y; }
  simd::F32x8 operator()(simd::F32x8 x, simd::F32x8 y) const { return simd::Sub(x, y); }
};
struct MulOp {
  float operator()(float x, float y) const { return x * y; }
  simd::F32x8 operator()(simd::F32x8 x, simd::F32x8 y) const { return simd::Mul(x, y); }
};
struct DivOp {
  float operator()(float x, float y) const { return x / y; }
  simd::F32x8 operator()(simd::F32x8 x, simd::F32x8 y) const { return simd::Div(x, y); }
};
struct MaximumOp {  // x > y ? x : y == simd::Max(x, y)
  float operator()(float x, float y) const { return x > y ? x : y; }
  simd::F32x8 operator()(simd::F32x8 x, simd::F32x8 y) const { return simd::Max(x, y); }
};
struct MinimumOp {  // x < y ? x : y == simd::Min(x, y)
  float operator()(float x, float y) const { return x < y ? x : y; }
  simd::F32x8 operator()(simd::F32x8 x, simd::F32x8 y) const { return simd::Min(x, y); }
};

struct NegOp {
  float operator()(float x) const { return -x; }
  simd::F32x8 operator()(simd::F32x8 x) const { return simd::Neg(x); }
};
struct AbsOp {
  float operator()(float x) const { return std::fabs(x); }
  simd::F32x8 operator()(simd::F32x8 x) const { return simd::Abs(x); }
};
struct SqrtOp {
  float operator()(float x) const { return std::sqrt(x); }
  simd::F32x8 operator()(simd::F32x8 x) const { return simd::Sqrt(x); }
};
struct ReluOp {  // x > 0 ? x : 0 == simd::Max(x, 0), including NaN -> 0, -0 -> +0
  float operator()(float x) const { return x > 0.0f ? x : 0.0f; }
  simd::F32x8 operator()(simd::F32x8 x) const { return simd::Max(x, simd::Zero()); }
};
struct SquareOp {
  float operator()(float x) const { return x * x; }
  simd::F32x8 operator()(simd::F32x8 x) const { return simd::Mul(x, x); }
};
struct AddScalarOp {
  float s;
  float operator()(float x) const { return x + s; }
  simd::F32x8 operator()(simd::F32x8 x) const { return simd::Add(x, simd::Broadcast(s)); }
};
struct MulScalarOp {
  float s;
  float operator()(float x) const { return x * s; }
  simd::F32x8 operator()(simd::F32x8 x) const { return simd::Mul(x, simd::Broadcast(s)); }
};
struct ClampOp {
  // std::max(x, lo) == (x < lo ? lo : x) == simd::Max(Broadcast(lo), x) and
  // std::min(., hi) == simd::Min(Broadcast(hi), .) — these operand orders are
  // load-bearing for NaN (clamp of NaN stays NaN) and -0/+0 bit patterns.
  float lo;
  float hi;
  float operator()(float x) const { return std::min(std::max(x, lo), hi); }
  simd::F32x8 operator()(simd::F32x8 x) const {
    return simd::Min(simd::Broadcast(hi), simd::Max(simd::Broadcast(lo), x));
  }
};

// Strides for input of shape `in` when broadcast to output shape `out`:
// 0 where the input dim is 1 (or absent), contiguous stride otherwise.
inline std::vector<int64_t> BroadcastStrides(const Shape& in, const Shape& out) {
  const std::vector<int64_t> in_strides = in.Strides();
  std::vector<int64_t> result(static_cast<size_t>(out.rank()), 0);
  const int64_t offset = out.rank() - in.rank();
  for (int64_t i = 0; i < in.rank(); ++i) {
    if (in.dim(i) != 1) {
      result[static_cast<size_t>(i + offset)] = in_strides[static_cast<size_t>(i)];
    }
  }
  return result;
}

// Incrementally walks a multi-index over `dims` while tracking flat offsets
// for several operand stride sets. Avoids per-element div/mod; SeekTo allows
// each ParallelFor chunk to start mid-range.
class MultiCursor {
 public:
  MultiCursor(const std::vector<int64_t>& dims, std::vector<std::vector<int64_t>> strides)
      : dims_(dims), strides_(std::move(strides)), index_(dims.size(), 0),
        offsets_(strides_.size(), 0) {}

  int64_t offset(size_t operand) const { return offsets_[operand]; }

  void Advance() {
    for (int64_t axis = static_cast<int64_t>(dims_.size()) - 1; axis >= 0; --axis) {
      const size_t a = static_cast<size_t>(axis);
      ++index_[a];
      for (size_t op = 0; op < strides_.size(); ++op) offsets_[op] += strides_[op][a];
      if (index_[a] < dims_[a]) return;
      // Carry: reset this axis.
      for (size_t op = 0; op < strides_.size(); ++op) offsets_[op] -= strides_[op][a] * dims_[a];
      index_[a] = 0;
    }
  }

  // Positions the cursor at row-major flat index `flat` over dims.
  void SeekTo(int64_t flat) {
    for (size_t op = 0; op < offsets_.size(); ++op) offsets_[op] = 0;
    for (int64_t axis = static_cast<int64_t>(dims_.size()) - 1; axis >= 0; --axis) {
      const size_t a = static_cast<size_t>(axis);
      index_[a] = flat % dims_[a];
      flat /= dims_[a];
      for (size_t op = 0; op < strides_.size(); ++op) {
        offsets_[op] += index_[a] * strides_[op][a];
      }
    }
  }

 private:
  std::vector<int64_t> dims_;
  std::vector<std::vector<int64_t>> strides_;
  std::vector<int64_t> index_;
  std::vector<int64_t> offsets_;
};

// --- Coalesced walks --------------------------------------------------------
// A strided copy (source and destination), a broadcast binary op (its two
// operands) and a reduction (its reduced axes, one stride set given twice)
// each walk an index space with two stride sets. Coalescing drops size-1
// axes and merges each axis into its outer neighbour when both stride sets
// walk the pair as one run (contiguous across it, or 0 along both), so a
// channel-axis Concat copies one run per batch item, [B, C, N, T] +
// [1, C, 1, 1] adds one broadcast scalar per contiguous N*T run, and a
// [1, C, 1, 1] bias gradient sums B runs of N*T.

inline constexpr int kMaxWalkRank = 8;

// An index space after coalescing: extents plus both strides in elements,
// outermost axis first.
struct WalkAxes {
  int rank = 0;
  std::array<int64_t, kMaxWalkRank> dims{};
  std::array<int64_t, kMaxWalkRank> a{};
  std::array<int64_t, kMaxWalkRank> b{};

  void Push(int64_t dim, int64_t a_stride, int64_t b_stride) {
    URCL_CHECK_LT(rank, kMaxWalkRank) << "strided walk: more than " << kMaxWalkRank
                                      << " axes that cannot be merged";
    dims[static_cast<size_t>(rank)] = dim;
    a[static_cast<size_t>(rank)] = a_stride;
    b[static_cast<size_t>(rank)] = b_stride;
    ++rank;
  }
};

inline WalkAxes Coalesce(const std::vector<int64_t>& dims, const std::vector<int64_t>& a,
                         const std::vector<int64_t>& b) {
  WalkAxes axes;
  for (size_t i = 0; i < dims.size(); ++i) {
    if (dims[i] == 1) continue;
    if (axes.rank > 0) {
      const auto last = static_cast<size_t>(axes.rank - 1);
      if (axes.a[last] == a[i] * dims[i] && axes.b[last] == b[i] * dims[i]) {
        axes.dims[last] *= dims[i];
        axes.a[last] = a[i];
        axes.b[last] = b[i];
        continue;
      }
    }
    axes.Push(dims[i], a[i], b[i]);
  }
  return axes;
}

// Row-major walk over coalesced axes, tracking both offsets. Fixed size,
// unlike MultiCursor, so a parallel body that copies one never allocates.
struct Walk {
  WalkAxes axes;
  std::array<int64_t, kMaxWalkRank> index{};
  int64_t a = 0;
  int64_t b = 0;

  // Every axis of `all` but the innermost (its run).
  static Walk Outer(const WalkAxes& all) {
    Walk walk;
    for (int i = 0; i + 1 < all.rank; ++i) {
      const auto s = static_cast<size_t>(i);
      walk.axes.Push(all.dims[s], all.a[s], all.b[s]);
    }
    return walk;
  }

  void SeekTo(int64_t flat) {
    a = b = 0;
    for (int i = axes.rank - 1; i >= 0; --i) {
      const auto s = static_cast<size_t>(i);
      index[s] = flat % axes.dims[s];
      flat /= axes.dims[s];
      a += index[s] * axes.a[s];
      b += index[s] * axes.b[s];
    }
  }

  void Advance() {
    for (int i = axes.rank - 1; i >= 0; --i) {
      const auto s = static_cast<size_t>(i);
      a += axes.a[s];
      b += axes.b[s];
      if (++index[s] < axes.dims[s]) return;
      a -= axes.a[s] * axes.dims[s];
      b -= axes.b[s] * axes.dims[s];
      index[s] = 0;
    }
  }
};

template <typename Fn>
Tensor BinaryElementwise(const Tensor& a, const Tensor& b, Fn fn) {
  if (a.shape() == b.shape()) {  // fast path, no broadcasting
    Tensor out = Tensor::Uninitialized(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.mutable_data();
    runtime::ParallelFor(0, a.NumElements(), kContiguousGrain,
                         [&](int64_t chunk_begin, int64_t chunk_end) {
                           int64_t i = chunk_begin;
                           if constexpr (kHasVectorForm2<Fn>) {
                             for (; i + simd::kLanes <= chunk_end; i += simd::kLanes) {
                               simd::StoreU(po + i, fn(simd::LoadU(pa + i), simd::LoadU(pb + i)));
                             }
                           }
                           for (; i < chunk_end; ++i) po[i] = fn(pa[i], pb[i]);
                         });
    return out;
  }
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  Tensor out = Tensor::Uninitialized(out_shape);
  if (out.NumElements() == 0) return out;
  // Row walk over the coalesced output axes: the innermost one has operand
  // strides of 0 or 1 (a broadcast stride is 0 where the input dim is 1 and
  // the contiguous stride otherwise, and every axis inside it has size 1), so
  // each output row is elementwise over two dense-or-broadcast operand rows
  // and vectorizes when Fn has the vector form. Chunks are flat element
  // ranges and may start or end mid-row; every element is the scalar
  // expression of its two operands, so the result is bitwise identical to a
  // flat walk at any thread count.
  const WalkAxes axes = Coalesce(out_shape.dims(), BroadcastStrides(a.shape(), out_shape),
                                 BroadcastStrides(b.shape(), out_shape));
  const auto last = static_cast<size_t>(std::max(axes.rank - 1, 0));
  const int64_t inner = axes.rank > 0 ? axes.dims[last] : 1;  // rank 0: one element
  const int64_t sa = axes.a[last];
  const int64_t sb = axes.b[last];
  const Walk outer = Walk::Outer(axes);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.mutable_data();
  runtime::ParallelFor(0, out.NumElements(), kStridedGrain, [&](int64_t begin, int64_t end) {
    int64_t row = begin / inner;
    Walk cursor = outer;
    cursor.SeekTo(row);
    for (int64_t i = begin; i < end; ++row) {
      const int64_t j0 = i - row * inner;
      const int64_t j1 = std::min(inner, j0 + (end - i));
      const float* ra = pa + cursor.a;
      const float* rb = pb + cursor.b;
      float* ro = po + row * inner;
      int64_t j = j0;
      if constexpr (kHasVectorForm2<Fn>) {
        if (sa == 1 && sb == 1) {
          for (; j + simd::kLanes <= j1; j += simd::kLanes) {
            simd::StoreU(ro + j, fn(simd::LoadU(ra + j), simd::LoadU(rb + j)));
          }
        } else if (sa == 1 && sb == 0) {
          const simd::F32x8 vb = simd::Broadcast(rb[0]);
          for (; j + simd::kLanes <= j1; j += simd::kLanes) {
            simd::StoreU(ro + j, fn(simd::LoadU(ra + j), vb));
          }
        } else if (sa == 0 && sb == 1) {
          const simd::F32x8 va = simd::Broadcast(ra[0]);
          for (; j + simd::kLanes <= j1; j += simd::kLanes) {
            simd::StoreU(ro + j, fn(va, simd::LoadU(rb + j)));
          }
        }  // (0, 0) only for a one-element output; the scalar loop covers it.
      }
      for (; j < j1; ++j) ro[j] = fn(ra[j * sa], rb[j * sb]);
      i += j1 - j0;
      cursor.Advance();
    }
  });
  return out;
}

template <typename Fn>
Tensor UnaryElementwise(const Tensor& a, Fn fn) {
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.data();
  float* po = out.mutable_data();
  runtime::ParallelFor(0, a.NumElements(), kContiguousGrain,
                       [&](int64_t chunk_begin, int64_t chunk_end) {
                         int64_t i = chunk_begin;
                         if constexpr (kHasVectorForm1<Fn>) {
                           for (; i + simd::kLanes <= chunk_end; i += simd::kLanes) {
                             simd::StoreU(po + i, fn(simd::LoadU(pa + i)));
                           }
                         }
                         for (; i < chunk_end; ++i) po[i] = fn(pa[i]);
                       });
  return out;
}

}  // namespace detail
}  // namespace ops
}  // namespace urcl

#endif  // URCL_TENSOR_ELEMENTWISE_H_
