// Bitwise-equality tests for the vectorized kernels: every SIMD-accelerated
// op must produce results bit-identical to a handwritten scalar reference
// that replicates the kernel's documented accumulation order. Sizes sweep
// 1..17 so the 8-lane main loop, the scalar tail, and the empty-vector-loop
// cases (n < 8) are all exercised; inputs include NaN, +/-Inf and -0 so the
// exactness claims of tensor/simd.h (Max/Min operand order, sign-bit Neg,
// Relu of NaN) are pinned down, not just the happy path.
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/rng.h"
#include "nn/optimizer.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "tensor/simd.h"
#include "tensor/simd_math.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace urcl {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// Bit-exact tensor comparison (memcmp, so NaN == NaN and -0 != +0).
::testing::AssertionResult BitEq(const Tensor& a, const Tensor& b) {
  if (!(a.shape() == b.shape())) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.shape().ToString() << " vs " << b.shape().ToString();
  }
  if (std::memcmp(a.data(), b.data(), static_cast<size_t>(a.NumElements()) * sizeof(float)) !=
      0) {
    for (int64_t i = 0; i < a.NumElements(); ++i) {
      uint32_t ba, bb;
      std::memcpy(&ba, a.data() + i, 4);
      std::memcpy(&bb, b.data() + i, 4);
      if (ba != bb) {
        return ::testing::AssertionFailure()
               << "first bit mismatch at flat index " << i << ": " << a.data()[i] << " ("
               << ba << ") vs " << b.data()[i] << " (" << bb << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// The NaN the salted inputs carry: the one this machine's arithmetic makes
// itself (Inf * 0), so every NaN in a computation has the same bits. IEEE 754
// leaves open which payload survives when two different NaNs meet, and the
// compiler may swap the operands of a commutative add, so a second payload
// would make memcmp compare instruction encodings instead of the kernels'
// arithmetic and its order.
float MachineNaN() {
  volatile float inf = kInf;
  volatile float zero = 0.0f;
  return inf * zero;
}

// Pseudo-random values with IEEE specials sprinkled in every 7th slot.
Tensor MakeInput(const Shape& shape, uint64_t seed, bool with_specials = true) {
  Rng rng(seed);
  Tensor t = Tensor::RandomNormal(shape, rng);
  if (with_specials) {
    static const float kSpecials[] = {MachineNaN(), kInf, -kInf, -0.0f, 0.0f};
    float* p = t.mutable_data();
    for (int64_t i = 3; i < t.NumElements(); i += 7) {
      p[i] = kSpecials[(i / 7) % 5];
    }
  }
  return t;
}

TEST(SimdBinaryTest, SameShapeBitwiseMatchesScalar) {
  for (int64_t n = 1; n <= 17; ++n) {
    const Tensor a = MakeInput(Shape{n}, 1000 + static_cast<uint64_t>(n));
    const Tensor b = MakeInput(Shape{n}, 2000 + static_cast<uint64_t>(n));
    Tensor add_ref(a.shape()), sub_ref(a.shape()), mul_ref(a.shape()), div_ref(a.shape());
    for (int64_t i = 0; i < n; ++i) {
      const float x = a.data()[i], y = b.data()[i];
      add_ref.mutable_data()[i] = x + y;
      sub_ref.mutable_data()[i] = x - y;
      mul_ref.mutable_data()[i] = x * y;
      div_ref.mutable_data()[i] = x / y;
    }
    EXPECT_TRUE(BitEq(ops::Add(a, b), add_ref)) << "n=" << n;
    EXPECT_TRUE(BitEq(ops::Sub(a, b), sub_ref)) << "n=" << n;
    EXPECT_TRUE(BitEq(ops::Mul(a, b), mul_ref)) << "n=" << n;
    EXPECT_TRUE(BitEq(ops::Div(a, b), div_ref)) << "n=" << n;
  }
}

TEST(SimdBinaryTest, BroadcastRowsBitwiseMatchesScalar) {
  // Inner extents sweep the tail cases; rows/columns exercise all three
  // vectorizable (stride_a, stride_b) combinations of the row kernel.
  for (int64_t inner = 1; inner <= 17; ++inner) {
    const int64_t rows = 5;
    const Tensor a = MakeInput(Shape{rows, inner}, 10 + static_cast<uint64_t>(inner));
    const Tensor row = MakeInput(Shape{inner}, 20 + static_cast<uint64_t>(inner));
    const Tensor col = MakeInput(Shape{rows, 1}, 30 + static_cast<uint64_t>(inner));

    Tensor row_ref(a.shape());
    Tensor col_ref(a.shape());
    Tensor col_first_ref(a.shape());
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < inner; ++c) {
        row_ref.Set({r, c}, a.At({r, c}) + row.data()[c]);       // (1, 1) dense row operand
        col_ref.Set({r, c}, a.At({r, c}) - col.data()[r]);       // (1, 0) scalar right operand
        col_first_ref.Set({r, c}, col.data()[r] * a.At({r, c})); // (0, 1) scalar left operand
      }
    }
    EXPECT_TRUE(BitEq(ops::Add(a, row), row_ref)) << "inner=" << inner;
    EXPECT_TRUE(BitEq(ops::Sub(a, col), col_ref)) << "inner=" << inner;
    EXPECT_TRUE(BitEq(ops::Mul(col, a), col_first_ref)) << "inner=" << inner;
  }
}

TEST(SimdUnaryTest, BitwiseMatchesScalar) {
  for (int64_t n = 1; n <= 17; ++n) {
    const Tensor a = MakeInput(Shape{n}, 500 + static_cast<uint64_t>(n));
    Tensor neg_ref(a.shape()), abs_ref(a.shape()), sqrt_ref(a.shape()), relu_ref(a.shape()),
        sq_ref(a.shape()), adds_ref(a.shape()), muls_ref(a.shape());
    for (int64_t i = 0; i < n; ++i) {
      const float x = a.data()[i];
      neg_ref.mutable_data()[i] = -x;
      abs_ref.mutable_data()[i] = std::fabs(x);
      sqrt_ref.mutable_data()[i] = std::sqrt(x);
      relu_ref.mutable_data()[i] = x > 0.0f ? x : 0.0f;
      sq_ref.mutable_data()[i] = x * x;
      adds_ref.mutable_data()[i] = x + 2.5f;
      muls_ref.mutable_data()[i] = x * -1.5f;
    }
    EXPECT_TRUE(BitEq(ops::Neg(a), neg_ref)) << "n=" << n;
    EXPECT_TRUE(BitEq(ops::Abs(a), abs_ref)) << "n=" << n;
    EXPECT_TRUE(BitEq(ops::Sqrt(a), sqrt_ref)) << "n=" << n;
    EXPECT_TRUE(BitEq(ops::Relu(a), relu_ref)) << "n=" << n;
    EXPECT_TRUE(BitEq(ops::Square(a), sq_ref)) << "n=" << n;
    EXPECT_TRUE(BitEq(ops::AddScalar(a, 2.5f), adds_ref)) << "n=" << n;
    EXPECT_TRUE(BitEq(ops::MulScalar(a, -1.5f), muls_ref)) << "n=" << n;
  }
}

TEST(SimdUnaryTest, SignedZeroAndNanEdgeCases) {
  const Tensor a = Tensor::FromVector(Shape{4}, {-0.0f, 0.0f, kNaN, -1.0f});
  // Neg is a sign-bit flip: -(-0) must be +0 and -(+0) must be -0.
  const Tensor neg = ops::Neg(a);
  EXPECT_FALSE(std::signbit(neg.data()[0]));
  EXPECT_TRUE(std::signbit(neg.data()[1]));
  // Relu(x) = x > 0 ? x : 0 maps NaN and -0 both to +0.
  const Tensor relu = ops::Relu(a);
  EXPECT_EQ(relu.data()[2], 0.0f);
  EXPECT_FALSE(std::signbit(relu.data()[0]));
}

// --- tanh, sigmoid and exp (tensor/simd_math.h) --------------------------------

uint32_t Bits(float x) { return std::bit_cast<uint32_t>(x); }
float FromBits(uint32_t bits) { return std::bit_cast<float>(bits); }

// Every 4099th of the 2^32 float bit patterns (about a million: every sign
// and exponent, with varied mantissas), each branch cut-off of the replicas
// +-2 ULP with either sign, and the IEEE specials.
std::vector<float> TranscendentalInputs() {
  std::vector<float> in;
  for (uint64_t bits = 0; bits < (uint64_t{1} << 32); bits += 4099) {
    in.push_back(FromBits(static_cast<uint32_t>(bits)));
  }
  // s_tanhf.c's cut-offs; s_expm1f.c's, at x and at x / 2 (tanh passes
  // expm1f 2|x|); and e_expf.c's.
  std::vector<uint32_t> cuts = {0x41b00000, 0x24000000, 0x3f800000, 0x7f800000};
  for (const uint32_t cut : {0x4195b844u, 0x42b17218u, 0x3eb17218u, 0x3f851592u, 0x33000000u}) {
    cuts.push_back(cut);
    cuts.push_back(cut - 0x00800000u);
  }
  for (const float cut : {88.0f, 0x1.62e42ep6f, 0x1.9fe368p6f}) cuts.push_back(Bits(cut));
  for (const uint32_t cut : cuts) {
    for (uint32_t bits = cut - 2; bits <= cut + 2; ++bits) {
      in.push_back(FromBits(bits));
      in.push_back(FromBits(bits | 0x80000000u));
    }
  }
  // Zero, subnormals, the smallest normal, inf and NaNs (quiet, signalling,
  // with a payload, and the one this machine makes), with either sign.
  for (const uint32_t bits : {0x0u, 0x1u, 0x00400000u, 0x007fffffu, 0x00800000u, 0x7f800000u,
                              0x7fc00000u, 0x7fa00000u, 0x7fc12345u, Bits(MachineNaN())}) {
    in.push_back(FromBits(bits));
    in.push_back(FromBits(bits ^ 0x80000000u));
  }
  return in;
}

float ScalarSigmoid(float x) { return 1.0f / (1.0f + simd::Exp(-x)); }

// `fn` of every element, one scalar call each.
template <typename Fn>
Tensor ScalarMap(const Tensor& a, Fn fn) {
  Tensor out(a.shape());
  for (int64_t i = 0; i < a.NumElements(); ++i) out.mutable_data()[i] = fn(a.data()[i]);
  return out;
}

TEST(SimdMathTest, ScalarReplicasMatchTheCLibrary) {
  // The replicas define the algorithms glibc 2.36 runs on x86-64 with FMA
  // (expf's ifunc picks its FMA build there); other C libraries may round
  // differently.
#if defined(__GLIBC__) && defined(__x86_64__)
  if (std::string(gnu_get_libc_version()) != "2.36" || !__builtin_cpu_supports("fma")) {
    GTEST_SKIP() << "the replicas define glibc 2.36's tanhf and expf on x86-64 with FMA; "
                 << "running glibc " << gnu_get_libc_version();
  }
#else
  GTEST_SKIP() << "the replicas define glibc 2.36's tanhf and expf on x86-64 with FMA";
#endif
  const std::vector<float> in = TranscendentalInputs();
  const Tensor x = Tensor::FromVector(Shape{static_cast<int64_t>(in.size())}, in);
  EXPECT_TRUE(BitEq(ScalarMap(x, [](float v) { return simd::Tanh(v); }),
                    ScalarMap(x, [](float v) { return std::tanh(v); })))
      << "tanh";
  EXPECT_TRUE(BitEq(ScalarMap(x, [](float v) { return simd::Exp(v); }),
                    ScalarMap(x, [](float v) { return std::exp(v); })))
      << "exp";
  EXPECT_TRUE(BitEq(ScalarMap(x, ScalarSigmoid),
                    ScalarMap(x, [](float v) { return 1.0f / (1.0f + std::exp(-v)); })))
      << "sigmoid";
}

TEST(SimdMathTest, EightLaneFormsMatchTheScalarReplicas) {
  const std::vector<float> in = TranscendentalInputs();
  const Tensor x = Tensor::FromVector(Shape{static_cast<int64_t>(in.size())}, in);
  EXPECT_TRUE(BitEq(ops::Tanh(x), ScalarMap(x, [](float v) { return simd::Tanh(v); })))
      << "tanh";
  EXPECT_TRUE(BitEq(ops::Exp(x), ScalarMap(x, [](float v) { return simd::Exp(v); }))) << "exp";
  EXPECT_TRUE(BitEq(ops::Sigmoid(x), ScalarMap(x, ScalarSigmoid))) << "sigmoid";
}

TEST(SimdMathTest, OpsMatchTheScalarReplicasAtEveryLength) {
  // Lengths 1..67 put each lane position in the 8-lane loop and in the
  // scalar tail. Values of N(0, 40) with specials in every 7th slot reach
  // tanh's +-1 and NaN/inf lanes and exp's |x| >= 88 lanes, which the AVX2
  // forms hand to the scalar replicas.
  for (int64_t n = 1; n <= 67; ++n) {
    const Tensor x = ops::MulScalar(MakeInput(Shape{n}, 3000 + static_cast<uint64_t>(n)), 40.0f);
    EXPECT_TRUE(BitEq(ops::Tanh(x), ScalarMap(x, [](float v) { return simd::Tanh(v); })))
        << "tanh, n=" << n;
    EXPECT_TRUE(BitEq(ops::Exp(x), ScalarMap(x, [](float v) { return simd::Exp(v); })))
        << "exp, n=" << n;
    EXPECT_TRUE(BitEq(ops::Sigmoid(x), ScalarMap(x, ScalarSigmoid))) << "sigmoid, n=" << n;
  }
}

TEST(SimdUnaryTest, ActivationGradientsMatchTheComposedOps) {
  // TanhGrad and SigmoidGrad replaced these compositions in the tanh and
  // sigmoid backward; each element must keep their bits. NaN goes into g
  // only: a NaN y meets its own negation in s * (1 - s), two payloads whose
  // survivor is up to the instruction encoding (see MachineNaN), and the
  // compiler folds -(y * y) + 1 into 1 - y * y, which is exact but for the
  // sign of a NaN. y carries the other specials at the same positions.
  for (int64_t n = 1; n <= 17; ++n) {
    const Tensor g = MakeInput(Shape{n}, 3100 + static_cast<uint64_t>(n));
    Tensor y = MakeInput(Shape{n}, 3200 + static_cast<uint64_t>(n), /*with_specials=*/false);
    for (int64_t i = 3; i < n; i += 7) {
      y.mutable_data()[i] = std::array<float, 4>{kInf, -kInf, -0.0f, 0.0f}[(i / 7) % 4];
    }
    EXPECT_TRUE(BitEq(ops::TanhGrad(g, y),
                      ops::Mul(g, ops::AddScalar(ops::Neg(ops::Square(y)), 1.0f))))
        << "n=" << n;
    EXPECT_TRUE(BitEq(ops::SigmoidGrad(g, y),
                      ops::Mul(g, ops::Mul(y, ops::AddScalar(ops::Neg(y), 1.0f)))))
        << "n=" << n;
  }
}

// Input-major reference reduction: walks the input once in flat order and
// combines into the owning output slot — per-slot accumulation order is
// increasing input offset, exactly what ops::Sum/Max/Min/Mean guarantee.
template <typename Fn>
Tensor ReferenceReduce(const Tensor& a, const std::vector<int64_t>& axes, float init, Fn fn,
                       float post_scale = 1.0f) {
  std::vector<bool> reduced(static_cast<size_t>(a.rank()), false);
  for (int64_t axis : axes) reduced[static_cast<size_t>(axis)] = true;
  std::vector<int64_t> kept_dims;
  for (int64_t i = 0; i < a.rank(); ++i) {
    kept_dims.push_back(reduced[static_cast<size_t>(i)] ? 1 : a.dim(i));
  }
  Tensor out = Tensor::Full(Shape(kept_dims), init);
  std::vector<int64_t> idx(static_cast<size_t>(a.rank()), 0);
  for (int64_t flat = 0; flat < a.NumElements(); ++flat) {
    int64_t rem = flat;
    for (int64_t i = a.rank() - 1; i >= 0; --i) {
      idx[static_cast<size_t>(i)] = rem % a.dim(i);
      rem /= a.dim(i);
    }
    int64_t slot = 0;
    for (int64_t i = 0; i < a.rank(); ++i) {
      const int64_t id = reduced[static_cast<size_t>(i)] ? 0 : idx[static_cast<size_t>(i)];
      slot = slot * kept_dims[static_cast<size_t>(i)] + id;
    }
    out.mutable_data()[slot] = fn(out.mutable_data()[slot], a.data()[flat]);
  }
  if (post_scale != 1.0f) {
    for (int64_t i = 0; i < out.NumElements(); ++i) out.mutable_data()[i] *= post_scale;
  }
  return out;
}

TEST(SimdReduceTest, SumBitwiseMatchesSerialOrder) {
  // Axis-0 reductions of 2-D inputs keep the stride-1 axis -> vector path;
  // axis-1 reductions keep a strided axis -> scalar path. Both must agree
  // with the input-major serial reference. No specials: reductions mix every
  // element, and NaN-poisoned accumulators compare equal trivially.
  for (int64_t inner = 1; inner <= 17; ++inner) {
    const Tensor a =
        MakeInput(Shape{7, inner}, 40 + static_cast<uint64_t>(inner), /*with_specials=*/false);
    EXPECT_TRUE(BitEq(ops::Sum(a, {0}, true),
                      ReferenceReduce(a, {0}, 0.0f, [](float acc, float x) { return acc + x; })))
        << "axis 0, inner=" << inner;
    EXPECT_TRUE(BitEq(ops::Sum(a, {1}, true),
                      ReferenceReduce(a, {1}, 0.0f, [](float acc, float x) { return acc + x; })))
        << "axis 1, inner=" << inner;
  }
  // 3-D with a middle-axis reduction: kept axes {0, 2}, innermost kept axis
  // is stride-1 and runs of length 9 force both vector groups and tails.
  const Tensor b = MakeInput(Shape{3, 4, 9}, 77, /*with_specials=*/false);
  EXPECT_TRUE(BitEq(ops::Sum(b, {1}, true),
                    ReferenceReduce(b, {1}, 0.0f, [](float acc, float x) { return acc + x; })));
  const float full_ref =
      ReferenceReduce(b, {0, 1, 2}, 0.0f, [](float acc, float x) { return acc + x; }).Item();
  EXPECT_EQ(ops::Sum(b).Item(), full_ref);
}

TEST(SimdReduceTest, MaxMinOfTwoRowsMatchTheScalarTernaries) {
  // A Max (Min) reduction of two rows starts from -inf (+inf), which the
  // first row replaces whatever it holds, so each slot is x > y ? x : y
  // (x < y ? x : y): MaximumOp and MinimumOp on salted inputs, NaN and
  // signed zeros included. Over axis 0 the stride-1 axis is kept (vector
  // path); over axis 1 of the column pair a strided one is (scalar path).
  for (int64_t n = 1; n <= 17; ++n) {
    const Tensor a = MakeInput(Shape{n}, 1000 + static_cast<uint64_t>(n));
    const Tensor b = MakeInput(Shape{n}, 2000 + static_cast<uint64_t>(n));
    Tensor max_ref(a.shape()), min_ref(a.shape());
    for (int64_t i = 0; i < n; ++i) {
      const float x = a.data()[i], y = b.data()[i];
      max_ref.mutable_data()[i] = x > y ? x : y;
      min_ref.mutable_data()[i] = x < y ? x : y;
    }
    const Tensor rows = ops::Stack({a, b}, 0);
    const Tensor cols = ops::Stack({a, b}, 1);
    EXPECT_TRUE(BitEq(ops::Max(rows, {0}), max_ref)) << "rows, n=" << n;
    EXPECT_TRUE(BitEq(ops::Min(rows, {0}), min_ref)) << "rows, n=" << n;
    EXPECT_TRUE(BitEq(ops::Max(cols, {1}), max_ref)) << "cols, n=" << n;
    EXPECT_TRUE(BitEq(ops::Min(cols, {1}), min_ref)) << "cols, n=" << n;
  }
}

TEST(SimdReduceTest, MeanMaxMinBitwiseMatchSerialOrder) {
  const Tensor a = MakeInput(Shape{6, 13}, 55, /*with_specials=*/false);
  EXPECT_TRUE(BitEq(
      ops::Mean(a, {0}, true),
      ReferenceReduce(a, {0}, 0.0f, [](float acc, float x) { return acc + x; }, 1.0f / 6.0f)));
  EXPECT_TRUE(BitEq(ops::Max(a, {0}, true),
                    ReferenceReduce(a, {0}, -kInf,
                                    [](float acc, float x) { return acc > x ? acc : x; })));
  EXPECT_TRUE(BitEq(ops::Min(a, {0}, true),
                    ReferenceReduce(a, {0}, kInf,
                                    [](float acc, float x) { return acc < x ? acc : x; })));
}

// The kernels under test must give the reference bits at every pool size:
// 1 thread, and 4 and 8 with workers forced past the machine's core count.
class ThreadCountGuard {
 public:
  ThreadCountGuard()
      : saved_(runtime::GetNumThreads()), saved_oversubscribe_(runtime::OversubscribeEnabled()) {
    runtime::SetOversubscribe(true);
  }
  ~ThreadCountGuard() {
    runtime::SetOversubscribe(saved_oversubscribe_);
    runtime::SetNumThreads(saved_);
  }

 private:
  int saved_;
  bool saved_oversubscribe_;
};

constexpr int kThreadCounts[] = {1, 4, 8};

// The scalar i-k-j matmul with its zero skip: every output column sums its k
// terms from +0 in increasing k order.
Tensor ReferenceMatMul(const Tensor& a, const Tensor& b) {
  const int64_t m = a.dim(-2), k = a.dim(-1), n = b.dim(-1);
  const int64_t batch = a.NumElements() / (m * k);
  const int64_t b_batch = b.NumElements() / (k * n);
  std::vector<int64_t> dims = a.shape().dims();
  dims.back() = n;
  Tensor ref{Shape(dims)};
  for (int64_t p = 0; p < batch; ++p) {
    const float* ma = a.data() + p * m * k;
    const float* mb = b.data() + (b_batch == 1 ? 0 : p) * k * n;
    for (int64_t i = 0; i < m; ++i) {
      float* row_out = ref.mutable_data() + (p * m + i) * n;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float scale = ma[i * k + kk];
        if (scale == 0.0f) continue;
        const float* row_b = mb + kk * n;
        for (int64_t j = 0; j < n; ++j) row_out[j] += scale * row_b[j];
      }
    }
  }
  return ref;
}

TEST(SimdMatMulTest, BitwiseMatchesIkjReference) {
  // n sweeps the scalar path (n < 8), whole vectors, the 32- and 64-column
  // register blocks and their vector/overlapping tails; zeros in `a`
  // (including -0) exercise the skip branch.
  std::vector<std::pair<Shape, Shape>> cases = {
      {Shape{1, 1}, Shape{1, 1}}, {Shape{3, 5}, Shape{5, 9}}, {Shape{4, 7}, Shape{7, 17}},
      {Shape{2, 3}, Shape{3, 8}}};
  for (const int64_t n : {1, 8, 31, 32, 33, 64, 65, 96, 100}) {
    cases.push_back({Shape{3, 37, 64}, Shape{64, n}});      // shared right operand
    cases.push_back({Shape{2, 11, 13}, Shape{2, 13, n}});   // batched right operand
  }
  ThreadCountGuard guard;
  uint64_t seed = 60;
  for (const auto& [a_shape, b_shape] : cases) {
    Tensor a = MakeInput(a_shape, seed++);
    const Tensor b = MakeInput(b_shape, seed++);
    for (int64_t i = 1; i < a.NumElements(); i += 5) a.mutable_data()[i] = i % 2 ? 0.0f : -0.0f;
    const Tensor ref = ReferenceMatMul(a, b);
    for (const int threads : kThreadCounts) {
      runtime::SetNumThreads(threads);
      EXPECT_TRUE(BitEq(ops::MatMul(a, b), ref))
          << a_shape.ToString() << " x " << b_shape.ToString() << " at " << threads
          << " threads";
    }
  }
}

// The scalar TemporalConv2d kernels, one time row at a time, in their
// documented per-slot orders.
struct ConvReference {
  Tensor out, d_in, d_w;
};

ConvReference ReferenceConv(const Tensor& in, const Tensor& w, const Tensor& g,
                            int64_t dilation) {
  const int64_t batch = in.dim(0), c_in = in.dim(1), nodes = in.dim(2), time = in.dim(3);
  const int64_t c_out = w.dim(0), kernel = w.dim(3), t_out = g.dim(3);
  ConvReference ref{Tensor(g.shape()), Tensor(in.shape()), Tensor(w.shape())};
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t co = 0; co < c_out; ++co) {
      for (int64_t n = 0; n < nodes; ++n) {
        float* out_row = ref.out.mutable_data() + ((b * c_out + co) * nodes + n) * t_out;
        for (int64_t ci = 0; ci < c_in; ++ci) {
          const float* w_row = w.data() + (co * c_in + ci) * kernel;
          const float* in_row = in.data() + ((b * c_in + ci) * nodes + n) * time;
          for (int64_t k = 0; k < kernel; ++k) {
            const float wk = w_row[k];
            if (wk == 0.0f) continue;
            for (int64_t t = 0; t < t_out; ++t) out_row[t] += wk * in_row[t + dilation * k];
          }
        }
      }
    }
  }
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t ci = 0; ci < c_in; ++ci) {
      for (int64_t n = 0; n < nodes; ++n) {
        float* di_row = ref.d_in.mutable_data() + ((b * c_in + ci) * nodes + n) * time;
        for (int64_t co = 0; co < c_out; ++co) {
          const float* w_row = w.data() + (co * c_in + ci) * kernel;
          const float* g_row = g.data() + ((b * c_out + co) * nodes + n) * t_out;
          for (int64_t k = 0; k < kernel; ++k) {
            const float wk = w_row[k];
            for (int64_t t = 0; t < t_out; ++t) di_row[t + dilation * k] += g_row[t] * wk;
          }
        }
      }
    }
  }
  for (int64_t co = 0; co < c_out; ++co) {
    for (int64_t ci = 0; ci < c_in; ++ci) {
      float* dw_row = ref.d_w.mutable_data() + (co * c_in + ci) * kernel;
      for (int64_t b = 0; b < batch; ++b) {
        for (int64_t n = 0; n < nodes; ++n) {
          const float* g_row = g.data() + ((b * c_out + co) * nodes + n) * t_out;
          const float* in_row = in.data() + ((b * c_in + ci) * nodes + n) * time;
          for (int64_t k = 0; k < kernel; ++k) {
            float dw_acc = 0.0f;
            for (int64_t t = 0; t < t_out; ++t) dw_acc += g_row[t] * in_row[t + dilation * k];
            dw_row[k] += dw_acc;
          }
        }
      }
    }
  }
  return ref;
}

TEST(SimdTemporalConvTest, ForwardAndBackwardBitwiseMatchReference) {
  struct Case {
    int64_t batch, c_in, c_out, nodes, time, kernel, dilation;
  };
  const std::vector<Case> cases = {
      {2, 3, 2, 4, 13, 2, 2},
      // Kernel 1 (t_out == T: the lanes store straight into the output) and
      // kernel 2, with c_in spanning a partial, a full and five lane blocks
      // of the weight gradient.
      {2, 2, 5, 9, 13, 1, 1},
      {2, 8, 5, 9, 13, 1, 1},
      {3, 40, 5, 9, 13, 1, 1},
      {2, 2, 5, 9, 13, 2, 1},
      {2, 8, 5, 9, 11, 2, 2},
      {3, 40, 5, 9, 13, 2, 2},
      // t_out = 1, and T = 3 < 2 * dilation: input step 1 is reached by no
      // tap, so its gradient must stay +0 even under non-finite weights.
      {2, 8, 3, 9, 3, 2, 2},
      {2, 3, 2, 5, 5, 3, 2},
      // Planes shorter than one vector (scalar lanes), and a long row.
      {2, 3, 2, 1, 6, 2, 1},
      {1, 4, 3, 2, 70, 2, 3},
  };
  ThreadCountGuard guard;
  uint64_t seed = 70;
  for (const Case& c : cases) {
    const int64_t t_out = c.time - c.dilation * (c.kernel - 1);
    const Tensor in_t = MakeInput(Shape{c.batch, c.c_in, c.nodes, c.time}, seed++);
    Tensor w_t = MakeInput(Shape{c.c_out, c.c_in, 1, c.kernel}, seed++);
    for (int64_t i = 1; i < w_t.NumElements(); i += 6) w_t.mutable_data()[i] = 0.0f;
    const Tensor g = MakeInput(Shape{c.batch, c.c_out, c.nodes, t_out}, seed++);
    const ConvReference ref = ReferenceConv(in_t, w_t, g, c.dilation);
    const std::string label = in_t.shape().ToString() + " * " + w_t.shape().ToString() +
                              " dilation " + std::to_string(c.dilation);
    for (const int threads : kThreadCounts) {
      runtime::SetNumThreads(threads);
      autograd::Variable input(in_t, /*requires_grad=*/true);
      autograd::Variable weight(w_t, /*requires_grad=*/true);
      autograd::Variable out = autograd::TemporalConv2d(input, weight, c.dilation);
      out.BackwardWithSeed(g);
      EXPECT_TRUE(BitEq(out.value(), ref.out)) << label << " at " << threads << " threads";
      EXPECT_TRUE(BitEq(input.grad(), ref.d_in)) << label << " at " << threads << " threads";
      EXPECT_TRUE(BitEq(weight.grad(), ref.d_w)) << label << " at " << threads << " threads";
      // Each gradient alone, as a backward pass whose other parent needs none.
      Tensor d_in(in_t.shape()), d_w(w_t.shape());
      ops::TemporalConv2dBackward(g, in_t, w_t, c.dilation, &d_in, nullptr);
      ops::TemporalConv2dBackward(g, in_t, w_t, c.dilation, nullptr, &d_w);
      EXPECT_TRUE(BitEq(d_in, ref.d_in)) << label << " at " << threads << " threads";
      EXPECT_TRUE(BitEq(d_w, ref.d_w)) << label << " at " << threads << " threads";
    }
  }
}

// Element-wise reference for the strided copies: dst[dst_base + sum idx_i *
// dst_strides_i] = src[src_base + sum idx_i * src_strides_i] over `dims`.
void ReferenceCopy(const std::vector<int64_t>& dims, const float* src,
                   const std::vector<int64_t>& src_strides, float* dst,
                   const std::vector<int64_t>& dst_strides) {
  int64_t count = 1;
  for (const int64_t d : dims) count *= d;
  for (int64_t flat = 0; flat < count; ++flat) {
    int64_t rem = flat, s = 0, d = 0;
    for (int64_t i = static_cast<int64_t>(dims.size()) - 1; i >= 0; --i) {
      const auto u = static_cast<size_t>(i);
      const int64_t idx = rem % dims[u];
      rem /= dims[u];
      s += idx * src_strides[u];
      d += idx * dst_strides[u];
    }
    std::memcpy(dst + d, src + s, sizeof(float));
  }
}

TEST(SimdStridedCopyTest, BitwiseMatchesElementwiseReference) {
  // Sizes put several ParallelFor chunks under each copy path: tiled axis
  // swaps, contiguous runs, and element-wise strided walks.
  ThreadCountGuard guard;
  const Tensor x = MakeInput(Shape{8, 16, 40, 33}, 900);
  const Tensor y = MakeInput(Shape{6, 12, 17, 5}, 901);
  struct TransposeCase {
    const Tensor* in;
    std::vector<int64_t> perm;
  };
  const std::vector<TransposeCase> transposes = {
      {&x, {0, 1, 3, 2}}, {&x, {0, 3, 2, 1}}, {&y, {0, 3, 2, 1}}, {&y, {2, 0, 3, 1}}};
  for (const int threads : kThreadCounts) {
    runtime::SetNumThreads(threads);
    for (const TransposeCase& c : transposes) {
      std::vector<int64_t> dims, gather;
      const std::vector<int64_t> in_strides = c.in->shape().Strides();
      for (const int64_t axis : c.perm) {
        dims.push_back(c.in->dim(axis));
        gather.push_back(in_strides[static_cast<size_t>(axis)]);
      }
      Tensor ref{Shape(dims)};
      ReferenceCopy(dims, c.in->data(), gather, ref.mutable_data(), ref.shape().Strides());
      EXPECT_TRUE(BitEq(ops::Transpose(*c.in, c.perm), ref))
          << c.in->shape().ToString() << " perm " << c.perm[1] << c.perm[2] << c.perm[3]
          << " at " << threads << " threads";
    }
    // Slice / UnSlice: a time-axis window (runs), a one-step window (strided
    // walk) and a window on every axis.
    const std::vector<std::pair<std::vector<int64_t>, std::vector<int64_t>>> windows = {
        {{0, 0, 0, 4}, {8, 16, 40, 29}},
        {{1, 2, 3, 7}, {6, 13, 30, 1}},
        {{2, 1, 5, 3}, {5, 14, 33, 27}}};
    for (const auto& [starts, sizes] : windows) {
      const std::vector<int64_t> strides = x.shape().Strides();
      int64_t base = 0;
      for (size_t i = 0; i < starts.size(); ++i) base += starts[i] * strides[i];
      Tensor slice_ref{Shape(sizes)};
      ReferenceCopy(sizes, x.data() + base, strides, slice_ref.mutable_data(),
                    slice_ref.shape().Strides());
      const Tensor slice = ops::Slice(x, starts, sizes);
      EXPECT_TRUE(BitEq(slice, slice_ref)) << "slice at " << threads << " threads";
      Tensor unslice_ref(x.shape());
      ReferenceCopy(sizes, slice.data(), slice.shape().Strides(),
                    unslice_ref.mutable_data() + base, strides);
      EXPECT_TRUE(BitEq(ops::UnSlice(slice, x.shape(), starts), unslice_ref))
          << "unslice at " << threads << " threads";
    }
    // Concat on the channel axis (one run per batch item) and the last axis
    // (short runs); Pad on the time and the channel axis.
    for (const int64_t axis : {1, 3}) {
      std::vector<Tensor> parts;
      for (const int64_t extent : {3, 1, 12}) {
        std::vector<int64_t> dims = y.shape().dims();
        dims[static_cast<size_t>(axis)] = extent;
        parts.push_back(MakeInput(Shape(dims), 910 + static_cast<uint64_t>(extent)));
      }
      std::vector<int64_t> out_dims = y.shape().dims();
      out_dims[static_cast<size_t>(axis)] = 16;
      Tensor concat_ref{Shape(out_dims)};
      const std::vector<int64_t> out_strides = concat_ref.shape().Strides();
      int64_t offset = 0;
      for (const Tensor& part : parts) {
        ReferenceCopy(part.shape().dims(), part.data(), part.shape().Strides(),
                      concat_ref.mutable_data() + offset * out_strides[static_cast<size_t>(axis)],
                      out_strides);
        offset += part.dim(axis);
      }
      EXPECT_TRUE(BitEq(ops::Concat(parts, axis), concat_ref))
          << "concat axis " << axis << " at " << threads << " threads";

      std::vector<int64_t> pad_dims = y.shape().dims();
      pad_dims[static_cast<size_t>(axis)] += 2 + 3;
      Tensor pad_ref = Tensor::Full(Shape(pad_dims), -0.0f);
      const std::vector<int64_t> pad_strides = pad_ref.shape().Strides();
      ReferenceCopy(y.shape().dims(), y.data(), y.shape().Strides(),
                    pad_ref.mutable_data() + 2 * pad_strides[static_cast<size_t>(axis)],
                    pad_strides);
      EXPECT_TRUE(BitEq(ops::Pad(y, axis, 2, 3, -0.0f), pad_ref))
          << "pad axis " << axis << " at " << threads << " threads";
    }
  }
}

// The operand index of flat output index `flat` when an operand shaped
// `in` (rank 4, dims 1 or the output's) is broadcast to `out`.
int64_t BroadcastSource(const Shape& in, const Shape& out, int64_t flat) {
  int64_t index = 0;
  int64_t stride = 1;
  for (int64_t axis = out.rank() - 1; axis >= 0; --axis) {
    const int64_t i = flat % out.dim(axis);
    flat /= out.dim(axis);
    if (in.dim(axis) != 1) index += i * stride;
    stride *= in.dim(axis);
  }
  return index;
}

TEST(SimdBinaryTest, BroadcastRunsBitwiseMatchElementwiseReference) {
  // The encoder's broadcasts: biases [1, C, 1, 1], per-item channel scales
  // [B, C, 1, 1], node-time maps [1, 1, N, T] and node masks [B, 1, N, 1],
  // on either side. N*T = 396 is no multiple of 8, and 9504 elements split
  // into chunks that start mid-run.
  ThreadCountGuard guard;
  const Shape full{4, 6, 33, 12};
  const Tensor x = MakeInput(full, 950);
  const std::vector<Shape> partners = {Shape{1, 6, 1, 1}, Shape{4, 6, 1, 1}, Shape{1, 1, 33, 12},
                                       Shape{4, 1, 33, 1}};
  uint64_t seed = 951;
  for (const Shape& shape : partners) {
    const Tensor y = MakeInput(shape, seed++);
    Tensor add_ref(full), mul_ref(full), add_rev(full), mul_rev(full);
    for (int64_t i = 0; i < full.NumElements(); ++i) {
      const float a = x.data()[i];
      const float b = y.data()[BroadcastSource(shape, full, i)];
      add_ref.mutable_data()[i] = a + b;
      mul_ref.mutable_data()[i] = a * b;
      add_rev.mutable_data()[i] = b + a;
      mul_rev.mutable_data()[i] = b * a;
    }
    for (const int threads : kThreadCounts) {
      runtime::SetNumThreads(threads);
      const std::string label = shape.ToString() + " at " + std::to_string(threads) + " threads";
      EXPECT_TRUE(BitEq(ops::Add(x, y), add_ref)) << label;
      EXPECT_TRUE(BitEq(ops::Mul(x, y), mul_ref)) << label;
      EXPECT_TRUE(BitEq(ops::Add(y, x), add_rev)) << label;
      EXPECT_TRUE(BitEq(ops::Mul(y, x), mul_rev)) << label;
    }
  }
}

TEST(SimdReduceTest, BiasGradientRunsBitwiseMatchSerialOrder) {
  // The bias-gradient reductions of a [B, C, N, T] gradient: down to
  // [1, C, 1, 1] (ReduceTo and Sum), to [C], and to [1, C, N, 1], whose
  // reduced axes are walked as runs of N*T, and of T, per slot.
  ThreadCountGuard guard;
  const Tensor g = MakeInput(Shape{4, 6, 33, 12}, 960, /*with_specials=*/false);
  const auto add = [](float acc, float v) { return acc + v; };
  const Tensor per_channel = ReferenceReduce(g, {0, 2, 3}, 0.0f, add);
  const Tensor per_node = ReferenceReduce(g, {0, 3}, 0.0f, add);
  for (const int threads : kThreadCounts) {
    runtime::SetNumThreads(threads);
    const std::string label = "at " + std::to_string(threads) + " threads";
    EXPECT_TRUE(BitEq(ops::ReduceTo(g, Shape{1, 6, 1, 1}), per_channel)) << label;
    EXPECT_TRUE(BitEq(ops::Sum(g, {0, 2, 3}, /*keepdims=*/true), per_channel)) << label;
    EXPECT_TRUE(BitEq(ops::Sum(g, {0, 2, 3}), per_channel.Reshape(Shape{6}))) << label;
    EXPECT_TRUE(BitEq(ops::ReduceTo(g, Shape{1, 6, 33, 1}), per_node)) << label;
  }
}

// The composition GraphMatMul replaced: x transposed to [B, C, T, N] times
// the transposed adjacency, transposed back; its gradients as the MatMul
// backward of that chain produced them.
struct GraphMatMulReference {
  Tensor y, d_adjacency, d_x;
};

GraphMatMulReference ReferenceGraphMatMul(const Tensor& adjacency, const Tensor& x,
                                          const Tensor& g) {
  const std::vector<int64_t> swap{0, 1, 3, 2};
  const Tensor g_rows = ops::Transpose(g, swap);
  return {ops::Transpose(ops::MatMul(ops::Transpose(x, swap), ops::Transpose(adjacency, {1, 0})),
                         swap),
          ops::Transpose(ops::ReduceTo(ops::MatMul(x, g_rows), adjacency.shape()), {1, 0}),
          ops::Transpose(ops::MatMul(g_rows, adjacency), swap)};
}

TEST(SimdGraphMatMulTest, ForwardAndBackwardBitwiseMatchComposition) {
  // N spans the scalar columns (N < 8), whole vectors, the 32-column block
  // and the overlapping tails, up to the paper's graph sizes (207 = 3 * 64 +
  // 15 and 325 nodes: several 64-column blocks plus a tail per node row);
  // T = 1 makes each node column one element.
  // Zeros (+0 and -0) in x and g exercise the zero skip of every output; the
  // single-plane inputs carry NaN and +-Inf too (with them in every plane,
  // most sums of the larger shapes would be NaN and pin down no order).
  ThreadCountGuard guard;
  uint64_t seed = 1000;
  for (const int64_t nodes : {1, 7, 8, 9, 33, 64, 207, 325}) {
    for (const int64_t time : {1, 2, 5, 12}) {
      for (const Shape& planes : {Shape{1, 1}, Shape{2, 3}}) {
        const Shape shape{planes.dim(0), planes.dim(1), nodes, time};
        const bool specials = planes.NumElements() == 1;
        const Tensor adjacency = MakeInput(Shape{nodes, nodes}, seed++, specials);
        Tensor x = MakeInput(shape, seed++, specials);
        Tensor g = MakeInput(shape, seed++, specials);
        for (int64_t i = 1; i < x.NumElements(); i += 5) {
          x.mutable_data()[i] = i % 2 ? 0.0f : -0.0f;
          g.mutable_data()[i] = i % 2 ? -0.0f : 0.0f;
        }
        const GraphMatMulReference ref = ReferenceGraphMatMul(adjacency, x, g);
        for (const int threads : kThreadCounts) {
          runtime::SetNumThreads(threads);
          const std::string label = adjacency.shape().ToString() + " x " + shape.ToString() +
                                    " at " + std::to_string(threads) + " threads";
          EXPECT_TRUE(BitEq(ops::GraphMatMul(adjacency, x), ref.y)) << label;
          Tensor d_adjacency(adjacency.shape()), d_x(shape);
          ops::GraphMatMulBackward(g, adjacency, x, &d_adjacency, &d_x);
          EXPECT_TRUE(BitEq(d_adjacency, ref.d_adjacency)) << label;
          EXPECT_TRUE(BitEq(d_x, ref.d_x)) << label;
          // Each gradient alone, as a backward pass whose other input needs none.
          Tensor only_adjacency(adjacency.shape()), only_x(shape);
          ops::GraphMatMulBackward(g, adjacency, x, &only_adjacency, nullptr);
          ops::GraphMatMulBackward(g, adjacency, x, nullptr, &only_x);
          EXPECT_TRUE(BitEq(only_adjacency, ref.d_adjacency)) << label;
          EXPECT_TRUE(BitEq(only_x, ref.d_x)) << label;
        }
      }
    }
  }
}

TEST(SimdAdamTest, StepBitwiseMatchesScalarReference) {
  nn::AdamConfig config;
  config.lr = 0.01f;
  config.weight_decay = 0.02f;
  // One parameter per size 1..17 so each hits a different main-loop/tail mix.
  std::vector<autograd::Variable> params;
  std::vector<Tensor> ref_values, ref_m, ref_v, grads;
  for (int64_t n = 1; n <= 17; ++n) {
    const Tensor value = MakeInput(Shape{n}, 80 + static_cast<uint64_t>(n),
                                   /*with_specials=*/false);
    params.emplace_back(value.Clone(), /*requires_grad=*/true);
    ref_values.push_back(value.Clone());
    ref_m.push_back(Tensor::Zeros(value.shape()));
    ref_v.push_back(Tensor::Zeros(value.shape()));
    grads.push_back(
        MakeInput(Shape{n}, 90 + static_cast<uint64_t>(n), /*with_specials=*/false));
  }
  nn::Adam adam(params, config);
  for (int step = 1; step <= 3; ++step) {
    adam.ZeroGrad();
    for (size_t i = 0; i < params.size(); ++i) params[i].AccumulateGrad(grads[i]);
    adam.Step();
    const float bc1 = 1.0f - std::pow(nn::kAdamBeta1, static_cast<float>(step));
    const float bc2 = 1.0f - std::pow(nn::kAdamBeta2, static_cast<float>(step));
    for (size_t i = 0; i < params.size(); ++i) {
      float* pv = ref_values[i].mutable_data();
      float* pm = ref_m[i].mutable_data();
      float* pvv = ref_v[i].mutable_data();
      const float* pg = grads[i].data();
      for (int64_t j = 0; j < ref_values[i].NumElements(); ++j) {
        const float grad = pg[j] + config.weight_decay * pv[j];
        pm[j] = nn::kAdamBeta1 * pm[j] + (1.0f - nn::kAdamBeta1) * grad;
        pvv[j] = nn::kAdamBeta2 * pvv[j] + (1.0f - nn::kAdamBeta2) * grad * grad;
        const float m_hat = pm[j] / bc1;
        const float v_hat = pvv[j] / bc2;
        pv[j] -= config.lr * m_hat / (std::sqrt(v_hat) + nn::kAdamEpsilon);
      }
      EXPECT_TRUE(BitEq(params[i].value(), ref_values[i]))
          << "param " << i << " after step " << step;
    }
  }
}

TEST(SimdTensorTest, AllFiniteCatchesSpecialsAtEveryPosition) {
  for (int64_t n = 1; n <= 17; ++n) {
    Rng rng(600 + static_cast<uint64_t>(n));
    Tensor t = Tensor::RandomNormal(Shape{n}, rng);
    EXPECT_TRUE(t.AllFinite()) << "n=" << n;
    for (int64_t pos = 0; pos < n; ++pos) {
      for (const float bad : {kNaN, kInf, -kInf}) {
        const float saved = t.data()[pos];
        t.mutable_data()[pos] = bad;
        EXPECT_FALSE(t.AllFinite()) << "n=" << n << " pos=" << pos << " bad=" << bad;
        t.mutable_data()[pos] = saved;
      }
    }
  }
}

TEST(SimdTensorTest, InPlaceOpsBitwiseMatchScalar) {
  for (int64_t n = 1; n <= 17; ++n) {
    const Tensor a = MakeInput(Shape{n}, 700 + static_cast<uint64_t>(n));
    const Tensor b = MakeInput(Shape{n}, 800 + static_cast<uint64_t>(n));
    Tensor add_got = a.Clone();
    add_got.AddInPlace(b);
    Tensor mul_got = a.Clone();
    mul_got.MulInPlace(0.3f);
    Tensor add_ref(a.shape()), mul_ref(a.shape());
    for (int64_t i = 0; i < n; ++i) {
      add_ref.mutable_data()[i] = a.data()[i] + b.data()[i];
      mul_ref.mutable_data()[i] = a.data()[i] * 0.3f;
    }
    EXPECT_TRUE(BitEq(add_got, add_ref)) << "n=" << n;
    EXPECT_TRUE(BitEq(mul_got, mul_ref)) << "n=" << n;
  }
}

}  // namespace
}  // namespace urcl
