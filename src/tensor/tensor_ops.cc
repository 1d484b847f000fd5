#include "tensor/tensor_ops.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "runtime/parallel.h"
#include "tensor/simd.h"

namespace urcl {
namespace ops {
namespace {

using detail::BroadcastStrides;
using detail::Coalesce;
using detail::MultiCursor;
using detail::Walk;
using detail::WalkAxes;

// Canonicalizes reduction axes; empty input means "all axes".
std::vector<int64_t> CanonicalAxes(const Shape& shape, const std::vector<int64_t>& axes) {
  std::vector<int64_t> result;
  if (axes.empty()) {
    result.resize(static_cast<size_t>(shape.rank()));
    for (int64_t i = 0; i < shape.rank(); ++i) result[static_cast<size_t>(i)] = i;
    return result;
  }
  for (const int64_t axis : axes) result.push_back(shape.CanonicalAxis(axis));
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

// Generic reduction: combine with `fn`, starting at `init`; optional
// post-scale (for Mean). Output-major so it parallelizes over output slots:
// each slot accumulates its reduced elements in increasing input-offset
// order — the same per-slot order a serial input-major walk produces — so
// results are bitwise identical at any thread count. The reduced axes are
// walked as runs (size-1 axes dropped, each axis merged into its outer
// neighbour when the pair is contiguous), so a slot combines each run in a
// plain loop and moves its cursor once per run, not once per element: the
// [1, C, 1, 1] bias gradient of a [B, C, N, T] tensor sums B runs of N*T.
//
// When the innermost KEPT axis is the input's stride-1 axis and `fn` has a
// vector form, groups of 8 adjacent output slots accumulate together: each
// SIMD lane runs one slot's serial accumulation, so no reduction is ever
// reassociated and results stay bitwise identical to the scalar walk.
template <typename Fn>
Tensor Reduce(const Tensor& a, const std::vector<int64_t>& axes_in, bool keepdims, float init,
              Fn fn, float post_scale = 1.0f) {
  const std::vector<int64_t> axes = CanonicalAxes(a.shape(), axes_in);
  const Shape kept = ReducedShape(a.shape(), axes, /*keepdims=*/true);
  Tensor accum = Tensor::Full(kept, init);
  if (a.NumElements() > 0) {
    // Split the input axes into kept (outer, one output slot each) and
    // reduced (inner, walked per slot as runs of `run` elements `run_stride`
    // apart, at the offsets of a walk over the other reduced axes) parts.
    const std::vector<int64_t> in_strides = a.shape().Strides();
    std::vector<int64_t> outer_dims, outer_strides, inner_dims, inner_strides;
    for (int64_t i = 0; i < a.rank(); ++i) {
      const size_t s = static_cast<size_t>(i);
      if (std::binary_search(axes.begin(), axes.end(), i)) {
        inner_dims.push_back(a.dim(i));
        inner_strides.push_back(in_strides[s]);
      } else {
        outer_dims.push_back(a.dim(i));
        outer_strides.push_back(in_strides[s]);
      }
    }
    int64_t inner_count = 1;
    for (const int64_t d : inner_dims) inner_count *= d;
    const WalkAxes inner = Coalesce(inner_dims, inner_strides, inner_strides);
    const auto last = static_cast<size_t>(std::max(inner.rank - 1, 0));
    const int64_t run = inner.rank > 0 ? inner.dims[last] : 1;  // rank 0: reduced dims all 1
    const int64_t run_stride = inner.a[last];
    const int64_t runs = inner_count / run;
    const Walk runs_walk = Walk::Outer(inner);
    const int64_t outer_count = accum.NumElements();
    const float* pa = a.data();
    float* po = accum.mutable_data();
    const int64_t grain =
        std::max<int64_t>(1, detail::kStridedGrain / std::max<int64_t>(1, inner_count));
    runtime::ParallelFor(0, outer_count, grain, [&](int64_t chunk_begin, int64_t chunk_end) {
      MultiCursor outer(outer_dims, {outer_strides});
      outer.SeekTo(chunk_begin);
      // The run walk wraps back to the origin after a full pass, so it is
      // seeded once per chunk rather than once per slot (or slot group).
      Walk runs_at = runs_walk;
      int64_t o = chunk_begin;
      if constexpr (detail::kHasVectorForm2<Fn>) {
        if (!outer_strides.empty() && outer_strides.back() == 1) {
          // Adjacent output slots within a run of the last kept axis read
          // from adjacent input bases, so 8 slots can accumulate lane-wise.
          // Groups never cross a run boundary (bases stop being adjacent
          // there); leftover slots fall through to the per-slot loop below.
          const int64_t last_dim = outer_dims.back();
          while (o < chunk_end) {
            const int64_t group_end = std::min(chunk_end, o + (last_dim - (o % last_dim)));
            const int64_t base = outer.offset(0);
            int64_t s = o;
            for (; s + simd::kLanes <= group_end; s += simd::kLanes) {
              simd::F32x8 acc = simd::LoadU(po + s);
              for (int64_t r = 0; r < runs; ++r) {
                const float* src = pa + base + (s - o) + runs_at.a;
                for (int64_t i = 0; i < run; ++i) acc = fn(acc, simd::LoadU(src + i * run_stride));
                runs_at.Advance();
              }
              simd::StoreU(po + s, acc);
            }
            for (; s < group_end; ++s) {
              float acc = po[s];
              for (int64_t r = 0; r < runs; ++r) {
                const float* src = pa + base + (s - o) + runs_at.a;
                for (int64_t i = 0; i < run; ++i) acc = fn(acc, src[i * run_stride]);
                runs_at.Advance();
              }
              po[s] = acc;
            }
            for (int64_t step = o; step < group_end; ++step) outer.Advance();
            o = group_end;
          }
          return;
        }
      }
      for (; o < chunk_end; ++o) {
        const int64_t base = outer.offset(0);
        float acc = po[o];
        for (int64_t r = 0; r < runs; ++r) {
          const float* src = pa + base + runs_at.a;
          for (int64_t i = 0; i < run; ++i) acc = fn(acc, src[i * run_stride]);
          runs_at.Advance();
        }
        po[o] = acc;
        outer.Advance();
      }
    });
  }
  if (post_scale != 1.0f) accum.MulInPlace(post_scale);
  if (keepdims) return accum;
  return accum.Reshape(ReducedShape(a.shape(), axes, /*keepdims=*/false));
}

// --- Strided copy ---------------------------------------------------------
// Transpose and Slice gather a strided view into a contiguous output; UnSlice,
// Concat and Pad scatter a contiguous input into a strided window of a larger
// one. All five go through CopyStrided. A copy does no arithmetic, so every
// walk order writes the same bytes; the routine picks the walk with the
// longest contiguous runs.

constexpr int64_t kCopyTile = 16;

// Copies n contiguous floats. Runs are often one short time row, so this
// stays inline rather than calling memcpy: whole vectors, then one vector
// ending at n that may rewrite a few floats with the same bytes.
inline void CopyRun(const float* src, float* dst, int64_t n) {
  if (n < simd::kLanes) {
    for (int64_t i = 0; i < n; ++i) dst[i] = src[i];
    return;
  }
  int64_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) simd::StoreU(dst + i, simd::LoadU(src + i));
  if (i < n) simd::StoreU(dst + n - simd::kLanes, simd::LoadU(src + n - simd::kLanes));
}

// dst[sum_i idx_i * dst_strides_i] = src[sum_i idx_i * src_strides_i] over
// every index of `dims` (non-empty). The innermost coalesced axis is copied
// as one run when it is contiguous on both sides. When only the destination
// is contiguous there and some outer axis is contiguous in the source (a
// transpose), that axis and the innermost one are swapped tile by tile, so
// both sides touch whole cache lines. Anything else walks element by element.
void CopyStrided(const std::vector<int64_t>& dims, const std::vector<int64_t>& src_strides,
                 const std::vector<int64_t>& dst_strides, const float* src, float* dst) {
  // Stride set a is the source, b the destination.
  const WalkAxes axes = Coalesce(dims, src_strides, dst_strides);
  if (axes.rank == 0) {
    *dst = *src;
    return;
  }
  const auto inner = static_cast<size_t>(axes.rank - 1);
  const int64_t cols = axes.dims[inner];
  const int64_t src_col = axes.a[inner];
  const int64_t dst_col = axes.b[inner];
  int swap = -1;
  if (src_col != 1 && dst_col == 1) {
    for (int i = 0; i < axes.rank - 1; ++i) {
      if (axes.a[static_cast<size_t>(i)] == 1) swap = i;
    }
  }
  Walk outer;
  for (int i = 0; i < axes.rank - 1; ++i) {
    const auto s = static_cast<size_t>(i);
    if (i != swap) outer.axes.Push(axes.dims[s], axes.a[s], axes.b[s]);
  }
  const int64_t rows = swap >= 0 ? axes.dims[static_cast<size_t>(swap)] : 1;
  const int64_t dst_row = swap >= 0 ? axes.b[static_cast<size_t>(swap)] : 0;
  int64_t outer_count = 1;
  for (int i = 0; i < outer.axes.rank; ++i) outer_count *= outer.axes.dims[static_cast<size_t>(i)];
  const int64_t grain = std::max<int64_t>(1, detail::kContiguousGrain / (rows * cols));
  runtime::ParallelFor(0, outer_count, grain, [&](int64_t begin, int64_t end) {
    Walk walk = outer;
    walk.SeekTo(begin);
    for (int64_t o = begin; o < end; ++o) {
      const float* s = src + walk.a;
      float* d = dst + walk.b;
      if (swap >= 0) {
        for (int64_t i0 = 0; i0 < rows; i0 += kCopyTile) {
          const int64_t i1 = std::min(rows, i0 + kCopyTile);
          for (int64_t j0 = 0; j0 < cols; j0 += kCopyTile) {
            const int64_t j1 = std::min(cols, j0 + kCopyTile);
            for (int64_t i = i0; i < i1; ++i) {
              for (int64_t j = j0; j < j1; ++j) d[i * dst_row + j] = s[i + j * src_col];
            }
          }
        }
      } else if (src_col == 1 && dst_col == 1) {
        CopyRun(s, d, cols);
      } else {
        for (int64_t j = 0; j < cols; ++j) d[j * dst_col] = s[j * src_col];
      }
      walk.Advance();
    }
  });
}

// --- MatMul row -----------------------------------------------------------
// out_row[j] = sum over kk of a_row[kk * a_step] * b[kk, j], each column
// summed from +0 in increasing kk with zero a_row entries skipped — the
// scalar i-k-j loop's per-element order. Lanes run over output columns; a
// block of columns keeps its accumulators in registers for the whole kk loop,
// so each output element is stored once instead of loaded and stored once
// per kk. MatMul reads a row (a_step 1); GraphMatMul reads a node column of
// an [N, T] plane (a_step T) in place.
template <int kVectors>
inline void MatMulColumns(const float* a_row, int64_t a_step, const float* b, int64_t k,
                          int64_t n, float* out) {
  simd::F32x8 acc[kVectors];
  for (int v = 0; v < kVectors; ++v) acc[v] = simd::Zero();
  for (int64_t kk = 0; kk < k; ++kk) {
    const float scale = a_row[kk * a_step];
    if (scale == 0.0f) continue;
    const simd::F32x8 vs = simd::Broadcast(scale);
    const float* row_b = b + kk * n;
    for (int v = 0; v < kVectors; ++v) {
      acc[v] = simd::Add(acc[v], simd::Mul(vs, simd::LoadU(row_b + v * simd::kLanes)));
    }
  }
  for (int v = 0; v < kVectors; ++v) simd::StoreU(out + v * simd::kLanes, acc[v]);
}

void MatMulRow(const float* a_row, int64_t a_step, const float* b, int64_t k, int64_t n,
               float* out_row) {
  if (n < simd::kLanes) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float scale = a_row[kk * a_step];
        if (scale == 0.0f) continue;
        acc += scale * b[kk * n + j];
      }
      out_row[j] = acc;
    }
    return;
  }
  // Blocks of 64 columns (8 independent accumulator chains per kk), then at
  // most one block of 32.
  int64_t j = 0;
  for (; j + 8 * simd::kLanes <= n; j += 8 * simd::kLanes) {
    MatMulColumns<8>(a_row, a_step, b + j, k, n, out_row + j);
  }
  if (j + 4 * simd::kLanes <= n) {
    MatMulColumns<4>(a_row, a_step, b + j, k, n, out_row + j);
    j += 4 * simd::kLanes;
  }
  // Leftover columns in single vectors; the last one ends at column n and may
  // overlap columns already stored, which it rewrites with identical bits.
  for (; j < n; j += simd::kLanes) {
    const int64_t start = std::min(j, n - simd::kLanes);
    MatMulColumns<1>(a_row, a_step, b + start, k, n, out_row + start);
  }
}

// --- Graph operator along the node axis -------------------------------------
// The [N, T] plane of one (batch, channel) is contiguous. Output column
// y[b, c, :, t] is the MatMulRow of node column x[b, c, :, t], read in place
// as an a-row with step T, against an [N, N] matrix, so every element has
// the products, the order from +0 and the zero skip of MatMul over x
// transposed to [B, C, T, N]. A plane's T output rows are staged and then
// transposed into its [N, T] layout.

// Transposes the row-major [rows, cols] block src into dst as [cols, rows],
// eight source columns at a time.
void TransposeBlock(const float* src, int64_t rows, int64_t cols, float* dst) {
  for (int64_t c0 = 0; c0 < cols; c0 += simd::kLanes) {
    const int64_t c1 = std::min(cols, c0 + simd::kLanes);
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = c0; c < c1; ++c) dst[c * rows + r] = src[r * cols + c];
    }
  }
}

// out[b, c, i, t] = sum over j of x[b, c, j, t] * matrix[j, i]: the
// transposed adjacency for GraphMatMul, the adjacency for its input gradient
// (x is then the upstream gradient). Each task owns whole planes.
void NodeAxisMatMul(const Tensor& x, const Tensor& matrix, Tensor* out) {
  const int64_t nodes = x.dim(2), time = x.dim(3);
  const int64_t plane = nodes * time;
  const float* px = x.data();
  const float* pm = matrix.data();
  float* po = out->mutable_data();
  const int64_t grain = std::max<int64_t>(1, (1 << 16) / std::max<int64_t>(1, plane * nodes));
  runtime::ParallelFor(0, x.dim(0) * x.dim(1), grain, [&](int64_t begin, int64_t end) {
    std::vector<float> rows(static_cast<size_t>(plane));
    for (int64_t p = begin; p < end; ++p) {
      for (int64_t t = 0; t < time; ++t) {
        MatMulRow(px + p * plane + t, time, pm, nodes, nodes, rows.data() + t * nodes);
      }
      TransposeBlock(rows.data(), time, nodes, po + p * plane);
    }
  });
}

// total[i] = total[i] + row[i] for i < n.
void AccumulateRow(const float* row, int64_t n, float* total) {
  int64_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    simd::StoreU(total + i, simd::Add(simd::LoadU(total + i), simd::LoadU(row + i)));
  }
  for (; i < n; ++i) total[i] += row[i];
}

void CheckGraphOperands(const Tensor& adjacency, const Tensor& x) {
  URCL_CHECK_EQ(x.rank(), 4) << "GraphMatMul expects x as [B, C, N, T], got "
                             << x.shape().ToString();
  URCL_CHECK(adjacency.rank() == 2 && adjacency.dim(0) == x.dim(2) &&
             adjacency.dim(1) == x.dim(2))
      << "adjacency " << adjacency.shape().ToString() << " does not match node count of "
      << x.shape().ToString();
}

}  // namespace

// The named ops pass the dual-form functors from elementwise.h so the
// kernels can take the vectorized paths; semantics are identical to the old
// scalar lambdas.
Tensor Add(const Tensor& a, const Tensor& b) {
  return detail::BinaryElementwise(a, b, detail::AddOp{});
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return detail::BinaryElementwise(a, b, detail::SubOp{});
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return detail::BinaryElementwise(a, b, detail::MulOp{});
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return detail::BinaryElementwise(a, b, detail::DivOp{});
}

Tensor AddScalar(const Tensor& a, float s) {
  return detail::UnaryElementwise(a, detail::AddScalarOp{s});
}
Tensor MulScalar(const Tensor& a, float s) {
  return detail::UnaryElementwise(a, detail::MulScalarOp{s});
}

Tensor Neg(const Tensor& a) { return detail::UnaryElementwise(a, detail::NegOp{}); }
Tensor Exp(const Tensor& a) { return detail::UnaryElementwise(a, detail::ExpOp{}); }
Tensor Log(const Tensor& a) {
  return detail::UnaryElementwise(a, [](float x) { return std::log(x); });
}
Tensor Sqrt(const Tensor& a) { return detail::UnaryElementwise(a, detail::SqrtOp{}); }
Tensor Abs(const Tensor& a) { return detail::UnaryElementwise(a, detail::AbsOp{}); }
Tensor Sign(const Tensor& a) {
  return detail::UnaryElementwise(
      a, [](float x) { return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f); });
}
Tensor Tanh(const Tensor& a) { return detail::UnaryElementwise(a, detail::TanhOp{}); }
Tensor Sigmoid(const Tensor& a) { return detail::UnaryElementwise(a, detail::SigmoidOp{}); }
Tensor Relu(const Tensor& a) { return detail::UnaryElementwise(a, detail::ReluOp{}); }
Tensor Square(const Tensor& a) { return detail::UnaryElementwise(a, detail::SquareOp{}); }

Tensor TanhGrad(const Tensor& g, const Tensor& y) {
  return detail::BinaryElementwise(g, y, detail::TanhGradOp{});
}
Tensor SigmoidGrad(const Tensor& g, const Tensor& s) {
  return detail::BinaryElementwise(g, s, detail::SigmoidGradOp{});
}

Shape ReducedShape(const Shape& shape, const std::vector<int64_t>& axes, bool keepdims) {
  const std::vector<int64_t> reduced = CanonicalAxes(shape, axes);
  std::vector<int64_t> dims;
  for (int64_t i = 0; i < shape.rank(); ++i) {
    if (std::binary_search(reduced.begin(), reduced.end(), i)) {
      if (keepdims) dims.push_back(1);
    } else {
      dims.push_back(shape.dim(i));
    }
  }
  return Shape(std::move(dims));
}

Tensor Sum(const Tensor& a, const std::vector<int64_t>& axes, bool keepdims) {
  return Reduce(a, axes, keepdims, 0.0f, detail::AddOp{});
}

Tensor Mean(const Tensor& a, const std::vector<int64_t>& axes, bool keepdims) {
  const std::vector<int64_t> canonical = CanonicalAxes(a.shape(), axes);
  int64_t count = 1;
  for (const int64_t axis : canonical) count *= a.shape().dim(axis);
  URCL_CHECK_GT(count, 0) << "Mean over empty extent";
  return Reduce(a, axes, keepdims, 0.0f, detail::AddOp{}, 1.0f / static_cast<float>(count));
}

Tensor Max(const Tensor& a, const std::vector<int64_t>& axes, bool keepdims) {
  URCL_CHECK_GT(a.NumElements(), 0);
  // MaximumOp(acc, x) == acc > x ? acc : x — the accumulator comes first.
  return Reduce(a, axes, keepdims, -std::numeric_limits<float>::infinity(),
                detail::MaximumOp{});
}

Tensor Min(const Tensor& a, const std::vector<int64_t>& axes, bool keepdims) {
  URCL_CHECK_GT(a.NumElements(), 0);
  return Reduce(a, axes, keepdims, std::numeric_limits<float>::infinity(),
                detail::MinimumOp{});
}

Tensor ReduceTo(const Tensor& a, const Shape& target) {
  if (a.shape() == target) return a;
  URCL_CHECK(IsBroadcastableTo(target, a.shape()))
      << "ReduceTo: " << target.ToString() << " is not a broadcast source of "
      << a.shape().ToString();
  // Reduce the leading extra axes plus any axis where target dim == 1.
  std::vector<int64_t> axes;
  const int64_t extra = a.rank() - target.rank();
  for (int64_t i = 0; i < extra; ++i) axes.push_back(i);
  for (int64_t i = 0; i < target.rank(); ++i) {
    if (target.dim(i) == 1 && a.dim(i + extra) != 1) axes.push_back(i + extra);
  }
  Tensor reduced = Sum(a, axes, /*keepdims=*/true);
  return reduced.Reshape(target);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  URCL_CHECK_GE(a.rank(), 2);
  URCL_CHECK_GE(b.rank(), 2);
  const int64_t m = a.dim(-2);
  const int64_t k = a.dim(-1);
  const int64_t k2 = b.dim(-2);
  const int64_t n = b.dim(-1);
  URCL_CHECK_EQ(k, k2) << "MatMul inner-dim mismatch: " << a.shape().ToString() << " x "
                       << b.shape().ToString();

  // Broadcast batch dims.
  std::vector<int64_t> a_batch(a.shape().dims().begin(), a.shape().dims().end() - 2);
  std::vector<int64_t> b_batch(b.shape().dims().begin(), b.shape().dims().end() - 2);
  const Shape batch = BroadcastShapes(Shape(a_batch), Shape(b_batch));

  std::vector<int64_t> out_dims = batch.dims();
  out_dims.push_back(m);
  out_dims.push_back(n);
  Tensor out = Tensor::Uninitialized(Shape(out_dims));
  if (out.NumElements() == 0) return out;

  const int64_t batch_count = batch.NumElements();
  const std::vector<int64_t> a_bstrides = BroadcastStrides(Shape(a_batch), batch);
  const std::vector<int64_t> b_bstrides = BroadcastStrides(Shape(b_batch), batch);
  const int64_t a_mat = m * k;
  const int64_t b_mat = k * n;
  const int64_t o_mat = m * n;

  // Per-batch operand offsets (broadcast-aware) in units of whole matrices.
  std::vector<int64_t> a_scaled(a_bstrides), b_scaled(b_bstrides);
  for (auto& s : a_scaled) s *= a_mat;
  for (auto& s : b_scaled) s *= b_mat;

  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.mutable_data();

  // Row-blocked: the parallel index space is every output row across every
  // batch; each row is produced wholly by one chunk, so any scheduling gives
  // identical results. The grain targets ~64k multiply-adds per chunk and
  // depends only on the shapes.
  const int64_t total_rows = batch_count * m;
  const int64_t grain = std::max<int64_t>(1, (1 << 16) / std::max<int64_t>(1, k * n));
  runtime::ParallelFor(0, total_rows, grain, [&](int64_t row_begin, int64_t row_end) {
    int64_t batch_index = row_begin / m;
    MultiCursor cursor(batch.dims(), {a_scaled, b_scaled});
    cursor.SeekTo(batch_index);
    int64_t row = row_begin;
    while (row < row_end) {
      const float* ma = pa + cursor.offset(0);
      const float* mb = pb + cursor.offset(1);
      float* mo = po + batch_index * o_mat;
      const int64_t batch_row_end = std::min(row_end, (batch_index + 1) * m);
      for (; row < batch_row_end; ++row) {
        const int64_t i = row - batch_index * m;
        MatMulRow(ma + i * k, 1, mb, k, n, mo + i * n);
      }
      ++batch_index;
      cursor.Advance();
    }
  });
  return out;
}

Tensor GraphMatMul(const Tensor& adjacency, const Tensor& x) {
  CheckGraphOperands(adjacency, x);
  Tensor out = Tensor::Uninitialized(x.shape());
  if (out.NumElements() == 0) return out;
  NodeAxisMatMul(x, Transpose(adjacency, {1, 0}), &out);
  return out;
}

void GraphMatMulBackward(const Tensor& g, const Tensor& adjacency, const Tensor& x,
                         Tensor* d_adjacency, Tensor* d_x) {
  CheckGraphOperands(adjacency, x);
  URCL_CHECK(g.shape() == x.shape()) << "GraphMatMul gradient " << g.shape().ToString()
                                     << " does not match " << x.shape().ToString();
  if (d_x != nullptr) {
    URCL_CHECK(d_x->shape() == x.shape());
    if (x.NumElements() > 0) NodeAxisMatMul(g, adjacency, d_x);
  }
  if (d_adjacency == nullptr) return;
  URCL_CHECK(d_adjacency->shape() == adjacency.shape());
  const int64_t nodes = x.dim(2), time = x.dim(3);
  if (nodes == 0) return;
  // sums[m, n] is d_adjacency[n, m]: row m adds, plane by plane in (b, c)
  // order from +0, the plane's MatMulRow of x[b, c, m, :] against g[b, c]
  // as [T, N] — the per-plane product and the batch order of ReduceTo.
  Tensor sums(Shape{nodes, nodes});
  if (x.NumElements() > 0) {
    const Tensor g_rows = Transpose(g, {0, 1, 3, 2});
    const int64_t plane = nodes * time;
    const int64_t planes = x.dim(0) * x.dim(1);
    const float* px = x.data();
    const float* pg = g_rows.data();
    float* ps = sums.mutable_data();
    const int64_t grain = std::max<int64_t>(1, (1 << 16) / (planes * plane));
    runtime::ParallelFor(0, nodes, grain, [&](int64_t begin, int64_t end) {
      std::vector<float> row(static_cast<size_t>(nodes));
      for (int64_t m = begin; m < end; ++m) {
        float* total = ps + m * nodes;
        for (int64_t p = 0; p < planes; ++p) {
          MatMulRow(px + p * plane + m * time, 1, pg + p * plane, time, nodes, row.data());
          AccumulateRow(row.data(), nodes, total);
        }
      }
    });
  }
  CopyStrided({nodes, nodes}, {1, nodes}, {nodes, 1}, sums.data(), d_adjacency->mutable_data());
}

Tensor BroadcastTo(const Tensor& a, const Shape& target) {
  if (a.shape() == target) return a;
  URCL_CHECK(IsBroadcastableTo(a.shape(), target))
      << "cannot broadcast " << a.shape().ToString() << " to " << target.ToString();
  Tensor out = Tensor::Uninitialized(target);
  if (out.NumElements() == 0) return out;
  const std::vector<int64_t> gather_strides = BroadcastStrides(a.shape(), target);
  const float* pa = a.data();
  float* po = out.mutable_data();
  runtime::ParallelFor(0, out.NumElements(), detail::kStridedGrain,
                       [&](int64_t chunk_begin, int64_t chunk_end) {
                         MultiCursor cursor(target.dims(), {gather_strides});
                         cursor.SeekTo(chunk_begin);
                         for (int64_t i = chunk_begin; i < chunk_end; ++i) {
                           po[i] = pa[cursor.offset(0)];
                           cursor.Advance();
                         }
                       });
  return out;
}

Tensor Transpose(const Tensor& a, const std::vector<int64_t>& perm) {
  URCL_CHECK_EQ(static_cast<int64_t>(perm.size()), a.rank());
  std::vector<int64_t> out_dims(perm.size());
  const std::vector<int64_t> in_strides = a.shape().Strides();
  std::vector<int64_t> gather_strides(perm.size());
  std::vector<bool> seen(perm.size(), false);
  for (size_t i = 0; i < perm.size(); ++i) {
    const int64_t axis = a.shape().CanonicalAxis(perm[i]);
    URCL_CHECK(!seen[static_cast<size_t>(axis)]) << "duplicate axis in permutation";
    seen[static_cast<size_t>(axis)] = true;
    out_dims[i] = a.dim(axis);
    gather_strides[i] = in_strides[static_cast<size_t>(axis)];
  }
  Tensor out = Tensor::Uninitialized(Shape(out_dims));
  if (out.NumElements() == 0) return out;
  CopyStrided(out_dims, gather_strides, out.shape().Strides(), a.data(), out.mutable_data());
  return out;
}

Tensor TransposeLast2(const Tensor& a) {
  URCL_CHECK_GE(a.rank(), 2);
  std::vector<int64_t> perm(static_cast<size_t>(a.rank()));
  for (int64_t i = 0; i < a.rank(); ++i) perm[static_cast<size_t>(i)] = i;
  std::swap(perm[static_cast<size_t>(a.rank() - 1)], perm[static_cast<size_t>(a.rank() - 2)]);
  return Transpose(a, perm);
}

Tensor Slice(const Tensor& a, const std::vector<int64_t>& starts,
             const std::vector<int64_t>& sizes) {
  URCL_CHECK_EQ(static_cast<int64_t>(starts.size()), a.rank());
  URCL_CHECK_EQ(static_cast<int64_t>(sizes.size()), a.rank());
  for (int64_t i = 0; i < a.rank(); ++i) {
    const size_t s = static_cast<size_t>(i);
    URCL_CHECK(starts[s] >= 0 && sizes[s] >= 0 && starts[s] + sizes[s] <= a.dim(i))
        << "slice [" << starts[s] << ", " << starts[s] + sizes[s] << ") out of bounds on axis "
        << i << " of " << a.shape().ToString();
  }
  Tensor out = Tensor::Uninitialized(Shape(sizes));
  if (out.NumElements() == 0) return out;
  const std::vector<int64_t> in_strides = a.shape().Strides();
  int64_t base = 0;
  for (int64_t i = 0; i < a.rank(); ++i) {
    base += starts[static_cast<size_t>(i)] * in_strides[static_cast<size_t>(i)];
  }
  CopyStrided(sizes, in_strides, out.shape().Strides(), a.data() + base, out.mutable_data());
  return out;
}

Tensor UnSlice(const Tensor& src, const Shape& full, const std::vector<int64_t>& starts) {
  URCL_CHECK_EQ(src.rank(), full.rank());
  Tensor out(full);
  if (src.NumElements() == 0) return out;
  const std::vector<int64_t> out_strides = full.Strides();
  int64_t base = 0;
  for (int64_t i = 0; i < full.rank(); ++i) {
    const size_t s = static_cast<size_t>(i);
    URCL_CHECK(starts[s] >= 0 && starts[s] + src.dim(i) <= full.dim(i));
    base += starts[s] * out_strides[s];
  }
  CopyStrided(src.shape().dims(), src.shape().Strides(), out_strides, src.data(),
              out.mutable_data() + base);
  return out;
}

Tensor Concat(const std::vector<Tensor>& tensors, int64_t axis) {
  URCL_CHECK(!tensors.empty());
  const int64_t canonical = tensors[0].shape().CanonicalAxis(axis);
  std::vector<int64_t> out_dims = tensors[0].shape().dims();
  int64_t total = 0;
  for (const Tensor& t : tensors) {
    URCL_CHECK_EQ(t.rank(), tensors[0].rank());
    for (int64_t i = 0; i < t.rank(); ++i) {
      if (i != canonical) {
        URCL_CHECK_EQ(t.dim(i), tensors[0].dim(i))
            << "Concat: mismatched non-concat dims on axis " << i;
      }
    }
    total += t.dim(canonical);
  }
  out_dims[static_cast<size_t>(canonical)] = total;
  // Every element of `out` is written: the per-tensor copies below tile the
  // full concat axis, so uninitialized storage is safe.
  Tensor out = Tensor::Uninitialized(Shape(out_dims));
  const std::vector<int64_t> out_strides = out.shape().Strides();
  float* po = out.mutable_data();
  int64_t offset = 0;
  for (const Tensor& t : tensors) {
    if (t.NumElements() > 0) {
      CopyStrided(t.shape().dims(), t.shape().Strides(), out_strides, t.data(),
                  po + offset * out_strides[static_cast<size_t>(canonical)]);
    }
    offset += t.dim(canonical);
  }
  return out;
}

Tensor Stack(const std::vector<Tensor>& tensors, int64_t axis) {
  URCL_CHECK(!tensors.empty());
  std::vector<Tensor> expanded;
  expanded.reserve(tensors.size());
  for (const Tensor& t : tensors) {
    std::vector<int64_t> dims = t.shape().dims();
    int64_t a = axis;
    if (a < 0) a += t.rank() + 1;
    URCL_CHECK(a >= 0 && a <= t.rank());
    dims.insert(dims.begin() + a, 1);
    expanded.push_back(t.Reshape(Shape(dims)));
  }
  int64_t a = axis;
  if (a < 0) a += tensors[0].rank() + 1;
  return Concat(expanded, a);
}

Tensor Pad(const Tensor& a, int64_t axis, int64_t before, int64_t after, float value) {
  const int64_t canonical = a.shape().CanonicalAxis(axis);
  URCL_CHECK(before >= 0 && after >= 0);
  std::vector<int64_t> out_dims = a.shape().dims();
  out_dims[static_cast<size_t>(canonical)] += before + after;
  Tensor out = Tensor::Full(Shape(out_dims), value);
  if (a.NumElements() == 0) return out;
  const std::vector<int64_t> out_strides = out.shape().Strides();
  CopyStrided(a.shape().dims(), a.shape().Strides(), out_strides, a.data(),
              out.mutable_data() + before * out_strides[static_cast<size_t>(canonical)]);
  return out;
}

Tensor Flip(const Tensor& a, int64_t axis) {
  const int64_t canonical = a.shape().CanonicalAxis(axis);
  Tensor out = Tensor::Uninitialized(a.shape());
  if (a.NumElements() == 0) return out;
  const std::vector<int64_t> strides = a.shape().Strides();
  const int64_t extent = a.dim(canonical);
  const int64_t stride = strides[static_cast<size_t>(canonical)];
  // For each element, mirror the index along `canonical`.
  MultiCursor cursor(a.shape().dims(), {strides});
  const float* pa = a.data();
  float* po = out.mutable_data();
  const int64_t n = a.NumElements();
  // offset = base + idx*stride; mirrored = base + (extent-1-idx)*stride
  //        = offset + (extent-1-2*idx)*stride. Track idx along the axis.
  for (int64_t i = 0; i < n; ++i) {
    const int64_t offset = cursor.offset(0);
    const int64_t idx = (offset / stride) % extent;
    const int64_t mirrored = offset + (extent - 1 - 2 * idx) * stride;
    po[mirrored] = pa[offset];
    cursor.Advance();
  }
  return out;
}

Tensor Softmax(const Tensor& a, int64_t axis) {
  const int64_t canonical = a.shape().CanonicalAxis(axis);
  const Tensor max = Max(a, {canonical}, /*keepdims=*/true);
  const Tensor shifted = Sub(a, max);
  const Tensor exps = Exp(shifted);
  const Tensor total = Sum(exps, {canonical}, /*keepdims=*/true);
  return Div(exps, total);
}

bool AllClose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.NumElements(); ++i) {
    const float diff = std::fabs(pa[i] - pb[i]);
    if (diff > atol + rtol * std::fabs(pb[i])) return false;
  }
  return true;
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  URCL_CHECK(a.shape() == b.shape());
  float max_diff = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.NumElements(); ++i) {
    max_diff = std::max(max_diff, std::fabs(pa[i] - pb[i]));
  }
  return max_diff;
}

bool AllFinite(const Tensor& a) { return a.AllFinite(); }

namespace {

// TemporalConv2d kernels. The [N, T] plane of one (batch, channel) is
// contiguous, and tap k of output step t reads input step t + dilation*k of
// the same row, so over the flattened plane every position p = n*T + t reads
// p + dilation*k: one shift for the whole plane. The kernels therefore run
// their SIMD lanes along the flat plane rather than along one 2-12 step row.
// Lanes at row positions t >= t_out (the row tail the taps run past) compute
// values no output needs and are dropped.
constexpr int64_t kConvBlock = 8 * simd::kLanes;   // forward lanes per register block
constexpr int64_t kGradBlock = 8 * simd::kLanes;   // input-gradient lanes per task
constexpr int64_t kGradTaps = 32;                  // (co, k) taps staged per input-gradient pass
constexpr int64_t kWeightTile = 64;                // steps staged per weight-gradient pass
constexpr int64_t kWeightPairs = 64;               // (co, k) sums per weight-gradient task

struct ConvDims {
  int64_t c_in, nodes, time, c_out, kernel, dilation, t_out;
  int64_t in_plane() const { return nodes * time; }
  int64_t out_plane() const { return nodes * t_out; }
};

// Forward lanes [p, p + 8*kVectors) of one output plane into dst: each lane
// sums w[co, ci, k] * in[ci, p + dilation*k] over ci then k from +0, skipping
// zero weights, which is the scalar kernel's per-output order.
template <int kVectors>
void ConvForwardLanes(const ConvDims& d, const float* in_b, const float* w_co, int64_t p,
                      float* dst) {
  simd::F32x8 acc[kVectors];
  for (int v = 0; v < kVectors; ++v) acc[v] = simd::Zero();
  for (int64_t ci = 0; ci < d.c_in; ++ci) {
    const float* in_plane = in_b + ci * d.in_plane() + p;
    for (int64_t k = 0; k < d.kernel; ++k) {
      const float w = w_co[ci * d.kernel + k];
      if (w == 0.0f) continue;
      const simd::F32x8 vw = simd::Broadcast(w);
      const float* src = in_plane + d.dilation * k;
      for (int v = 0; v < kVectors; ++v) {
        acc[v] = simd::Add(acc[v], simd::Mul(vw, simd::LoadU(src + v * simd::kLanes)));
      }
    }
  }
  for (int v = 0; v < kVectors; ++v) simd::StoreU(dst + v * simd::kLanes, acc[v]);
}

// One output plane, block by block along the flat input plane. Lanes span
// [0, span), ending at the last output; a block's lanes at row positions
// t >= t_out are dropped on the way out. With kernel 1 the rows match and
// the lanes are stored straight into the output.
void ConvForwardPlane(const ConvDims& d, const float* in_b, const float* w_co, int64_t span,
                      float* out_plane) {
  float lanes[kConvBlock] = {};
  const bool direct = d.t_out == d.time;
  int64_t n = 0, t = 0;  // row and step of the block start
  for (int64_t p0 = 0; p0 < span; p0 += kConvBlock) {
    const int64_t width = std::min(kConvBlock, span - p0);
    float* dst = direct ? out_plane + p0 : lanes;
    if (width == kConvBlock) {
      ConvForwardLanes<kConvBlock / simd::kLanes>(d, in_b, w_co, p0, dst);
    } else if (width >= simd::kLanes) {
      // The last vector ends at the block end and may recompute lanes of the
      // one before it, with identical bits.
      for (int64_t i = 0; i < width; i += simd::kLanes) {
        const int64_t start = std::min(i, width - simd::kLanes);
        ConvForwardLanes<1>(d, in_b, w_co, p0 + start, dst + start);
      }
    } else {
      for (int64_t i = 0; i < width; ++i) {
        float acc = 0.0f;
        for (int64_t ci = 0; ci < d.c_in; ++ci) {
          const float* src = in_b + ci * d.in_plane() + p0 + i;
          for (int64_t k = 0; k < d.kernel; ++k) {
            const float w = w_co[ci * d.kernel + k];
            if (w == 0.0f) continue;
            acc += w * src[d.dilation * k];
          }
        }
        dst[i] = acc;
      }
    }
    if (direct) continue;
    for (int64_t i = 0; i < width;) {
      const int64_t run = std::min(width - i, d.time - t);
      const int64_t kept = std::clamp<int64_t>(d.t_out - t, 0, run);
      float* row_out = out_plane + n * d.t_out + t;
      for (int64_t j = 0; j < kept; ++j) row_out[j] = lanes[i + j];
      i += run;
      t += run;
      if (t == d.time) {
        t = 0;
        ++n;
      }
    }
  }
}

// stage[i] = g "stretched" to row length T at flat position j0 + i: the g
// value of row n, step t for t < t_out, and 0 at the row tail t >= t_out and
// before the plane start.
void StageStretched(const ConvDims& d, const float* g_plane, int64_t j0, int64_t width,
                    float* stage) {
  int64_t i = 0;
  for (; i < width && j0 + i < 0; ++i) stage[i] = 0.0f;
  int64_t n = (j0 + i) / d.time;
  int64_t t = (j0 + i) - n * d.time;
  for (; i < width; t = 0, ++n) {
    const int64_t run = std::min(width - i, d.time - t);
    const int64_t kept = std::clamp<int64_t>(d.t_out - t, 0, run);
    for (int64_t v = 0; v < kept; ++v) stage[i + v] = g_plane[n * d.t_out + t + v];
    for (int64_t v = kept; v < run; ++v) stage[i + v] = 0.0f;
    i += run;
  }
}

// Input gradient: d_in[ci, p] += g[co, p - dilation*k] * w[co, ci, k] over
// co then k — the scalar kernel's per-slot order — over the taps that reach
// p. The g value lane p needs sits at p - dilation*k of g stretched to row
// length T (StageStretched), where the taps that do not reach p find a staged
// zero. A finite weight times that zero is +-0, and adding +-0 leaves any sum
// that starts from +0 bitwise unchanged (such a sum is never -0), so those
// lanes cost work but change nothing. A non-finite weight would turn the zero
// into NaN, so its taps add only over the lanes they reach.

// The (co, k) taps of one input-gradient pass over a block of lanes.
struct GradTaps {
  int64_t count = 0;
  const float* src[kGradTaps] = {};  // g window of the tap, aligned with the block
  int64_t weight[kGradTaps] = {};    // offset of w[co, 0, k]
  int64_t shift[kGradTaps] = {};     // dilation * k
};

bool TapReaches(const ConvDims& d, int64_t p, int64_t shift) {
  return p >= shift && (p - shift) % d.time < d.t_out;
}

// Lanes [p, p + 8*kVectors) of one input channel's d_in plane: the
// accumulators stay in registers across every tap of the pass.
template <int kVectors>
void ConvInputGradLanes(const ConvDims& d, const GradTaps& taps, const float* w_ci, int64_t p,
                        const float* const* src, float* dst) {
  constexpr int64_t kWidth = kVectors * simd::kLanes;
  simd::F32x8 acc[kVectors];
  for (int v = 0; v < kVectors; ++v) acc[v] = simd::LoadU(dst + v * simd::kLanes);
  for (int64_t j = 0; j < taps.count; ++j) {
    const float wk = w_ci[taps.weight[j]];
    if (d.t_out != d.time && !std::isfinite(wk)) {
      float lanes[kWidth] = {};
      for (int v = 0; v < kVectors; ++v) simd::StoreU(lanes + v * simd::kLanes, acc[v]);
      for (int64_t l = 0; l < kWidth; ++l) {
        if (TapReaches(d, p + l, taps.shift[j])) lanes[l] += src[j][l] * wk;
      }
      for (int v = 0; v < kVectors; ++v) acc[v] = simd::LoadU(lanes + v * simd::kLanes);
      continue;
    }
    const simd::F32x8 vw = simd::Broadcast(wk);
    for (int v = 0; v < kVectors; ++v) {
      acc[v] = simd::Add(acc[v], simd::Mul(simd::LoadU(src[j] + v * simd::kLanes), vw));
    }
  }
  for (int v = 0; v < kVectors; ++v) simd::StoreU(dst + v * simd::kLanes, acc[v]);
}

// Input-gradient lanes [p0, p0 + width) of every input plane of one batch
// item, in passes of up to kGradTaps taps whose g windows are staged once and
// reused by every input channel.
void ConvInputGradBlock(const ConvDims& d, const float* g_b, const float* w, int64_t p0,
                        int64_t width, float* din_b) {
  // Not zero-filled per block: StageStretched writes every lane a tap reads
  // before the read.
  float stage[kGradTaps * kGradBlock];
  const bool stretched = d.t_out != d.time;  // kernel > 1: rows differ in length
  const int64_t total = d.c_out * d.kernel;
  GradTaps taps;
  for (int64_t q0 = 0; q0 < total; q0 += kGradTaps) {
    taps.count = std::min(kGradTaps, total - q0);
    for (int64_t j = 0; j < taps.count; ++j) {
      const int64_t co = (q0 + j) / d.kernel;
      const int64_t k = (q0 + j) % d.kernel;
      const float* g_plane = g_b + co * d.out_plane();
      taps.weight[j] = co * d.c_in * d.kernel + k;
      taps.shift[j] = d.dilation * k;
      if (stretched) {
        float* window = stage + j * kGradBlock;
        StageStretched(d, g_plane, p0 - taps.shift[j], width, window);
        taps.src[j] = window;
      } else {
        taps.src[j] = g_plane + p0;  // kernel 1: g has the input plane's layout
      }
    }
    for (int64_t ci = 0; ci < d.c_in; ++ci) {
      const float* w_ci = w + ci * d.kernel;
      float* dst = din_b + ci * d.in_plane() + p0;
      const float* src[kGradTaps] = {};
      int64_t i = 0;
      const auto at = [&](int64_t lane) {
        for (int64_t j = 0; j < taps.count; ++j) src[j] = taps.src[j] + lane;
      };
      if (width == kGradBlock) {
        at(0);
        ConvInputGradLanes<kGradBlock / simd::kLanes>(d, taps, w_ci, p0, src, dst);
        i = kGradBlock;
      }
      for (; i + simd::kLanes <= width; i += simd::kLanes) {
        at(i);
        ConvInputGradLanes<1>(d, taps, w_ci, p0 + i, src, dst + i);
      }
      for (; i < width; ++i) {
        float acc = dst[i];
        for (int64_t j = 0; j < taps.count; ++j) {
          const float wk = w_ci[taps.weight[j]];
          if (stretched && !std::isfinite(wk) && !TapReaches(d, p0 + i, taps.shift[j])) continue;
          acc += taps.src[j][i] * wk;
        }
        dst[i] = acc;
      }
    }
  }
}

// Weight-gradient lanes for input channels [ci0, ci0 + 8) and the (co, k)
// pairs q = co*kernel + k in [q0, q1): d_w[co, ci, k] += sum over b then n of
// (sum over t of g[b, co, n, t] * in[b, ci, n, t + dilation*k] from +0), the
// scalar kernel's two-level order. Each input channel is a lane: g is one
// broadcast per step, and the eight channel rows are staged transposed so one
// step of all eight is one vector load.
void ConvWeightGradBlock(const ConvDims& d, int64_t batch, const float* pg, const float* pi,
                         int64_t ci0, int64_t q0, int64_t q1, float* pdw) {
  const int64_t lanes = std::min(simd::kLanes, d.c_in - ci0);
  simd::F32x8 total[kWeightPairs] = {};
  simd::F32x8 row_sum[kWeightPairs] = {};
  float stage[kWeightTile * simd::kLanes] = {};  // lanes past c_in stay 0
  float lane_values[simd::kLanes] = {};
  const auto dw_index = [&](int64_t q, int64_t lane) {
    return ((q / d.kernel) * d.c_in + ci0 + lane) * d.kernel + q % d.kernel;
  };
  for (int64_t q = q0; q < q1; ++q) {
    for (int64_t l = 0; l < simd::kLanes; ++l) {
      lane_values[l] = l < lanes ? pdw[dw_index(q, l)] : 0.0f;
    }
    total[q - q0] = simd::LoadU(lane_values);
  }
  // The pairs grouped by tap: each group stages the input once for all of
  // its output channels.
  struct TapGroup {
    int64_t k, co_begin, co_end;
  };
  TapGroup groups[kWeightPairs] = {};
  int64_t num_groups = 0;
  for (int64_t k = 0; k < d.kernel && num_groups < q1 - q0; ++k) {
    const TapGroup group{k, std::max<int64_t>(0, (q0 - k + d.kernel - 1) / d.kernel),
                         std::min(d.c_out, (q1 - k + d.kernel - 1) / d.kernel)};
    if (group.co_begin < group.co_end) groups[num_groups++] = group;
  }
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t n = 0; n < d.nodes; ++n) {
      for (int64_t q = q0; q < q1; ++q) row_sum[q - q0] = simd::Zero();
      const float* g_rows = pg + (b * d.c_out * d.nodes + n) * d.t_out;  // co = 0
      for (int64_t t0 = 0; t0 < d.t_out; t0 += kWeightTile) {
        const int64_t steps = std::min(kWeightTile, d.t_out - t0);
        for (int64_t gi = 0; gi < num_groups; ++gi) {
          const TapGroup& group = groups[gi];
          for (int64_t l = 0; l < lanes; ++l) {
            const float* row = pi + ((b * d.c_in + ci0 + l) * d.nodes + n) * d.time + t0 +
                               d.dilation * group.k;
            for (int64_t t = 0; t < steps; ++t) stage[t * simd::kLanes + l] = row[t];
          }
          // Four output channels at a time share each staged step and keep
          // four independent sums in flight.
          int64_t co = group.co_begin;
          for (; co + 4 <= group.co_end; co += 4) {
            simd::F32x8* sums = row_sum + (co * d.kernel + group.k - q0);
            const float* g0 = g_rows + co * d.out_plane() + t0;
            const float* g1 = g0 + d.out_plane();
            const float* g2 = g1 + d.out_plane();
            const float* g3 = g2 + d.out_plane();
            simd::F32x8 s0 = sums[0], s1 = sums[d.kernel], s2 = sums[2 * d.kernel],
                        s3 = sums[3 * d.kernel];
            for (int64_t t = 0; t < steps; ++t) {
              const simd::F32x8 x = simd::LoadU(stage + t * simd::kLanes);
              s0 = simd::Add(s0, simd::Mul(simd::Broadcast(g0[t]), x));
              s1 = simd::Add(s1, simd::Mul(simd::Broadcast(g1[t]), x));
              s2 = simd::Add(s2, simd::Mul(simd::Broadcast(g2[t]), x));
              s3 = simd::Add(s3, simd::Mul(simd::Broadcast(g3[t]), x));
            }
            sums[0] = s0;
            sums[d.kernel] = s1;
            sums[2 * d.kernel] = s2;
            sums[3 * d.kernel] = s3;
          }
          for (; co < group.co_end; ++co) {
            simd::F32x8* sums = row_sum + (co * d.kernel + group.k - q0);
            const float* g_row = g_rows + co * d.out_plane() + t0;
            simd::F32x8 sum = sums[0];
            for (int64_t t = 0; t < steps; ++t) {
              sum = simd::Add(sum, simd::Mul(simd::Broadcast(g_row[t]),
                                             simd::LoadU(stage + t * simd::kLanes)));
            }
            sums[0] = sum;
          }
        }
      }
      for (int64_t q = q0; q < q1; ++q) total[q - q0] = simd::Add(total[q - q0], row_sum[q - q0]);
    }
  }
  for (int64_t q = q0; q < q1; ++q) {
    simd::StoreU(lane_values, total[q - q0]);
    for (int64_t l = 0; l < lanes; ++l) pdw[dw_index(q, l)] = lane_values[l];
  }
}

}  // namespace

Tensor TemporalConv2d(const Tensor& input, const Tensor& weight, int64_t dilation) {
  URCL_CHECK_EQ(input.shape().rank(), 4) << "TemporalConv2d input must be [B, C, N, T]";
  URCL_CHECK_EQ(weight.shape().rank(), 4) << "TemporalConv2d weight must be [Co, Ci, 1, K]";
  URCL_CHECK_GE(dilation, 1);
  const int64_t batch = input.dim(0), c_in = input.dim(1), nodes = input.dim(2),
                time = input.dim(3);
  const int64_t c_out = weight.dim(0), kernel = weight.dim(3);
  URCL_CHECK_EQ(weight.dim(1), c_in) << "TemporalConv2d channel mismatch";
  URCL_CHECK_EQ(weight.dim(2), 1);
  const int64_t t_out = time - dilation * (kernel - 1);
  URCL_CHECK_GT(t_out, 0) << "TemporalConv2d: receptive field " << dilation * (kernel - 1) + 1
                          << " exceeds input length " << time;
  // Every output element is stored by the one task that owns its plane.
  Tensor out = Tensor::Uninitialized(Shape{batch, c_out, nodes, t_out});
  if (out.NumElements() == 0) return out;
  const ConvDims d{c_in, nodes, time, c_out, kernel, dilation, t_out};
  // The last output sits at (nodes-1)*T + t_out - 1; lanes past it would read
  // beyond the plane.
  const int64_t span = (nodes - 1) * time + t_out;
  const float* pi = input.data();
  const float* pw = weight.data();
  float* po = out.mutable_data();
  const int64_t grain =
      std::max<int64_t>(1, (1 << 15) / std::max<int64_t>(1, c_in * kernel * span));
  runtime::ParallelFor(0, batch * c_out, grain, [&](int64_t begin, int64_t end) {
    for (int64_t out_plane = begin; out_plane < end; ++out_plane) {  // b * c_out + co
      const int64_t co = out_plane % c_out;
      const int64_t b = out_plane / c_out;
      ConvForwardPlane(d, pi + b * c_in * d.in_plane(), pw + co * c_in * kernel, span,
                       po + out_plane * d.out_plane());
    }
  });
  return out;
}

void TemporalConv2dBackward(const Tensor& g, const Tensor& input, const Tensor& weight,
                            int64_t dilation, Tensor* d_in, Tensor* d_w) {
  if (d_in != nullptr) URCL_CHECK(d_in->shape() == input.shape());
  if (d_w != nullptr) URCL_CHECK(d_w->shape() == weight.shape());
  const int64_t batch = input.dim(0);
  const ConvDims d{input.dim(1), input.dim(2), input.dim(3), weight.dim(0),
                   weight.dim(3), dilation,     g.dim(3)};
  const float* pg = g.data();
  const float* pi = input.data();
  const float* pw = weight.data();
  // Each pass's tasks own disjoint output slots: d_in by (batch, plane
  // block) across all input channels, d_w by (channel block, pair range).
  if (d_in != nullptr) {
    float* pdi = d_in->mutable_data();
    const int64_t blocks = (d.in_plane() + kGradBlock - 1) / kGradBlock;
    const int64_t cost = d.c_out * d.kernel * (d.c_in + 1) * kGradBlock;
    const int64_t grain = std::max<int64_t>(1, (1 << 15) / cost);
    runtime::ParallelFor(0, batch * blocks, grain, [&](int64_t begin, int64_t end) {
      for (int64_t task = begin; task < end; ++task) {
        const int64_t b = task / blocks;
        const int64_t p0 = (task % blocks) * kGradBlock;
        ConvInputGradBlock(d, pg + b * d.c_out * d.out_plane(), pw, p0,
                           std::min(kGradBlock, d.in_plane() - p0),
                           pdi + b * d.c_in * d.in_plane());
      }
    });
  }
  if (d_w != nullptr) {
    float* pdw = d_w->mutable_data();
    const int64_t channel_blocks = (d.c_in + simd::kLanes - 1) / simd::kLanes;
    const int64_t pairs = d.c_out * d.kernel;
    const int64_t pair_blocks = (pairs + kWeightPairs - 1) / kWeightPairs;
    runtime::ParallelFor(0, channel_blocks * pair_blocks, 1, [&](int64_t begin, int64_t end) {
      for (int64_t task = begin; task < end; ++task) {
        const int64_t q0 = (task % pair_blocks) * kWeightPairs;
        ConvWeightGradBlock(d, batch, pg, pi, (task / pair_blocks) * simd::kLanes, q0,
                            std::min(pairs, q0 + kWeightPairs), pdw);
      }
    });
  }
}

}  // namespace ops
}  // namespace urcl
