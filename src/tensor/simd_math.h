// tanh and exp, defined in the repo: scalar replicas of the algorithms glibc
// 2.36's tanhf and expf run on x86-64, and 8-lane forms that give the same
// bits as the scalar ones in every lane.
//
// - Tanh(float) is fdlibm's s_tanhf.c with the part of s_expm1f.c that it
//   reaches. All of it is float arithmetic, each operation rounded on its
//   own, as the build's -ffp-contract=off keeps it.
// - Exp(float) is glibc's e_expf.c as its FMA build computes it (the variant
//   glibc's ifunc picks on every machine with FMA): double arithmetic over a
//   32-entry table of 2^(i/32), in which four of the multiply-adds are fused.
//   Those four are explicit std::fma calls. An fma is one IEEE operation with
//   a single rounding, the same on every target, so it reproduces libm's own
//   arithmetic; compiler contraction stays off everywhere else.
//
// With these, the tanh, sigmoid and exp kernels no longer call the C library,
// so their bits no longer depend on the libm a build links.
//
// The 8-lane forms compute every lane with the scalar functions' operations
// and choose each lane's branch with blends. The AVX2 form (built when the
// target has AVX2 and FMA) sends the lanes that take a rare branch (NaN or
// inf for Tanh, |x| >= 88 for Exp) to the scalar function, lane by lane.
// Every other build runs the scalar function on each lane.
//
// tests/simd_test.cc checks the 8-lane forms against the scalar ones, and the
// scalar ones against std::tanh and std::exp, on a strided sweep of all 2^32
// float bit patterns, at every branch threshold and on the IEEE specials.
#ifndef URCL_TENSOR_SIMD_MATH_H_
#define URCL_TENSOR_SIMD_MATH_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "tensor/simd.h"

namespace urcl {
namespace simd {
namespace detail {

// s_expm1f.c's constants.
inline constexpr float kLn2Hi = 6.9313812256e-01f;  // 0x3f317180
inline constexpr float kLn2Lo = 9.0580006145e-06f;  // 0x3717f7d1
inline constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
inline constexpr float kQ1 = -3.3333335072e-02f;  // 0xbd088889
inline constexpr float kQ2 = 1.5873016091e-03f;  // 0x3ad00d01
inline constexpr float kQ3 = -7.9365076090e-05f;  // 0xb8a670cd
inline constexpr float kQ4 = 4.0082177293e-06f;  // 0x36867e54
inline constexpr float kQ5 = -2.0109921195e-07f;  // 0xb457edbb

// e_expf.c's constants (exp2f_data's scaled forms, N = 32): x / ln2 = k/N + r/N.
inline constexpr double kInvLn2N = 0x1.71547652b82fep+0 * 32;
inline constexpr double kShift = 0x1.8p52;
inline constexpr double kExpC0 = 0x1.c6af84b912394p-5 / 32 / 32 / 32;
inline constexpr double kExpC1 = 0x1.ebfce50fac4f3p-3 / 32 / 32;
inline constexpr double kExpC2 = 0x1.62e42ff0c52d6p-1 / 32;

// exp2f_data's table: kExp2Table[i] = bits(2^(i/32)) - (i << 47), so that
// bits(2^(k/32)) = kExp2Table[k % 32] + (k << 47) for an integer k.
alignas(64) inline constexpr uint64_t kExp2Table[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

// y * 2^k for the y the expm1 rebuild makes: k added to y's exponent field.
inline float AddToExponent(float y, int32_t k) {
  return std::bit_cast<float>(std::bit_cast<uint32_t>(y) + (static_cast<uint32_t>(k) << 23));
}

// s_expm1f.c for the arguments s_tanhf.c passes it: x = 2|v| in [2, 44) for
// |v| >= 1, x = -2|v| in (-2, -2^-54] for smaller v. Those never reach
// expm1f's overflow and -1 cut-offs or its k = 1 result, so those are left
// out; every other line is s_expm1f.c's. k is 0, -1, -2 or -3 for the
// negative arguments and 3..63 for the positive ones.
inline float TanhExpm1(float x) {
  const uint32_t hx = std::bit_cast<uint32_t>(x) & 0x7fffffff;
  int32_t k = 0;
  float c = 0.0f;
  if (hx > 0x3eb17218) {  // |x| > 0.5 ln2
    float hi;
    float lo;
    if (hx < 0x3f851592) {  // and |x| < 1.5 ln2, so x < 0 here
      hi = x + kLn2Hi;
      lo = -kLn2Lo;
      k = -1;
    } else {
      k = static_cast<int32_t>(kInvLn2 * x + (x < 0.0f ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t * kLn2Hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000) {  // |x| < 2^-25: expm1f returns x
    return x;
  }
  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 = 1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);  // c is 0
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k <= -2 || k > 56) return AddToExponent(1.0f - (e - x), k) - 1.0f;
  if (k < 23) {
    const float one_minus = std::bit_cast<float>(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    return AddToExponent(one_minus - (e - x), k);
  }
  const float scale = std::bit_cast<float>(static_cast<uint32_t>(0x7f - k) << 23);  // 2^-k
  return AddToExponent(x - (e + scale) + 1.0f, k);
}

}  // namespace detail

// glibc 2.36's tanhf, bit for bit (s_tanhf.c). Its +-0 case returns x, which
// the |x| < 2^-55 branch's x * (1 + x) also gives.
inline float Tanh(float x) {
  const uint32_t jx = std::bit_cast<uint32_t>(x);
  const uint32_t ix = jx & 0x7fffffff;
  const bool negative = (jx >> 31) != 0;
  if (ix >= 0x7f800000) return negative ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;  // inf or NaN
  float z;
  if (ix < 0x41b00000) {                         // |x| < 22
    if (ix < 0x24000000) return x * (1.0f + x);  // |x| < 2^-55
    if (ix >= 0x3f800000) {                      // |x| >= 1
      const float t = detail::TanhExpm1(2.0f * std::fabs(x));
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = detail::TanhExpm1(-2.0f * std::fabs(x));
      z = -t / (t + 2.0f);
    }
  } else {
    z = 1.0f;  // fdlibm's one - tiny, which rounds to 1
  }
  return negative ? -z : z;
}

// glibc 2.36's expf as its FMA build computes it (e_expf.c), bit for bit.
inline float Exp(float x) {
  const uint32_t abstop = (std::bit_cast<uint32_t>(x) >> 20) & 0x7ff;
  if (abstop >= 0x42b) {  // |x| >= 88, inf or NaN
    if (x == -std::numeric_limits<float>::infinity()) return 0.0f;
    if (abstop >= 0x7f8) return x + x;  // +inf or NaN
    if (x > 0x1.62e42ep6f) return std::numeric_limits<float>::infinity();  // overflow
    if (x < -0x1.9fe368p6f) return 0.0f;                                 // underflow
  }
  const double xd = x;
  double kd = std::fma(detail::kInvLn2N, xd, detail::kShift);  // round(x / ln2 * 32) + shift
  const uint64_t ki = std::bit_cast<uint64_t>(kd);
  kd -= detail::kShift;
  const double r = std::fma(detail::kInvLn2N, xd, -kd);
  const double s = std::bit_cast<double>(detail::kExp2Table[ki % 32] + (ki << 47));
  const double z = std::fma(detail::kExpC0, r, detail::kExpC1);
  const double y = std::fma(z, r * r, std::fma(detail::kExpC2, r, 1.0));
  return static_cast<float>(y * s);
}

#if defined(URCL_SIMD_AVX2) && defined(__FMA__)

namespace detail {

inline __m256i I32(int32_t v) { return _mm256_set1_epi32(v); }
inline __m256 F32(float v) { return _mm256_set1_ps(v); }

// The lanes of `fast` where `mask` is clear; where it is set, `scalar` of
// the lane's input.
template <typename Scalar>
inline __m256 PatchLanes(__m256 fast, __m256 in, int mask, Scalar scalar) {
  alignas(32) float x[8];
  alignas(32) float y[8];
  _mm256_store_ps(x, in);
  _mm256_store_ps(y, fast);
  for (int i = 0; i < 8; ++i) {
    if ((mask >> i) & 1) y[i] = scalar(x[i]);
  }
  return _mm256_load_ps(y);
}

// TanhExpm1 on eight lanes, each with TanhExpm1's operations. Every lane
// computes the k != 0 reduction: for k = 0 it gives back x with c = +0, and
// for k = -1 it is the k = -1 branch's hi = x + ln2_hi and lo = -ln2_lo.
inline __m256 TanhExpm1(__m256 x) {
  const __m256i bits = _mm256_castps_si256(x);
  const __m256i hx = _mm256_and_si256(bits, I32(0x7fffffff));
  const __m256 sign = _mm256_and_ps(x, F32(-0.0f));
  __m256i k = _mm256_cvttps_epi32(
      _mm256_add_ps(_mm256_mul_ps(F32(kInvLn2), x), _mm256_or_ps(F32(0.5f), sign)));
  const __m256i minus_one = _mm256_andnot_si256(_mm256_cmpgt_epi32(hx, I32(0x3f851591)),
                                                _mm256_cmpgt_epi32(hx, I32(0x3eb17218)));
  k = _mm256_blendv_epi8(k, I32(-1), minus_one);
  k = _mm256_andnot_si256(_mm256_cmpgt_epi32(I32(0x3eb17219), hx), k);  // |x| <= 0.5 ln2
  const __m256 t = _mm256_cvtepi32_ps(k);
  const __m256 hi = _mm256_sub_ps(x, _mm256_mul_ps(t, F32(kLn2Hi)));
  const __m256 lo = _mm256_mul_ps(t, F32(kLn2Lo));
  const __m256 xr = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

  const __m256 hfx = _mm256_mul_ps(F32(0.5f), xr);
  const __m256 hxs = _mm256_mul_ps(xr, hfx);
  __m256 poly = _mm256_add_ps(F32(kQ4), _mm256_mul_ps(hxs, F32(kQ5)));
  poly = _mm256_add_ps(F32(kQ3), _mm256_mul_ps(hxs, poly));
  poly = _mm256_add_ps(F32(kQ2), _mm256_mul_ps(hxs, poly));
  poly = _mm256_add_ps(F32(kQ1), _mm256_mul_ps(hxs, poly));
  const __m256 r1 = _mm256_add_ps(F32(1.0f), _mm256_mul_ps(hxs, poly));
  const __m256 t3 = _mm256_sub_ps(F32(3.0f), _mm256_mul_ps(r1, hfx));
  const __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t3),
                         _mm256_sub_ps(F32(6.0f), _mm256_mul_ps(xr, t3))));
  const __m256 k_zero = _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
  const __m256 ek = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c), hxs);
  const __m256 e_minus_x = _mm256_sub_ps(ek, xr);
  const __m256 k_minus_one =
      _mm256_sub_ps(_mm256_mul_ps(F32(0.5f), _mm256_sub_ps(xr, ek)), F32(0.5f));
  const __m256i exponent = _mm256_slli_epi32(k, 23);
  const auto add_exponent = [&](__m256 y) {
    return _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), exponent));
  };
  const __m256 k_far = _mm256_sub_ps(add_exponent(_mm256_sub_ps(F32(1.0f), e_minus_x)), F32(1.0f));
  const __m256 one_minus = _mm256_castsi256_ps(
      _mm256_sub_epi32(I32(0x3f800000), _mm256_srlv_epi32(I32(0x1000000), k)));
  const __m256 k_below_23 = add_exponent(_mm256_sub_ps(one_minus, e_minus_x));
  const __m256 scale = _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_sub_epi32(I32(0x7f), k), 23));
  const __m256 k_from_23 = add_exponent(
      _mm256_add_ps(_mm256_sub_ps(xr, _mm256_add_ps(ek, scale)), F32(1.0f)));

  __m256 y = _mm256_blendv_ps(k_from_23, k_below_23,
                              _mm256_castsi256_ps(_mm256_cmpgt_epi32(I32(23), k)));
  const __m256i far = _mm256_or_si256(_mm256_cmpgt_epi32(k, I32(56)),
                                      _mm256_cmpgt_epi32(I32(-1), k));
  y = _mm256_blendv_ps(y, k_far, _mm256_castsi256_ps(far));
  y = _mm256_blendv_ps(y, k_minus_one, _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, I32(-1))));
  y = _mm256_blendv_ps(y, k_zero,
                       _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, _mm256_setzero_si256())));
  return _mm256_blendv_ps(y, x, _mm256_castsi256_ps(_mm256_cmpgt_epi32(I32(0x33000000), hx)));
}

// Exp's main path on four lanes.
inline __m128 ExpMainPath(__m128 x) {
  const __m256d inv_ln2_n = _mm256_set1_pd(kInvLn2N);
  const __m256d shift = _mm256_set1_pd(kShift);
  const __m256d xd = _mm256_cvtps_pd(x);
  __m256d kd = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, shift);
  const __m256d r = _mm256_fmsub_pd(inv_ln2_n, xd, kd);
  const __m256i index = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
  const __m256i entry = _mm256_i64gather_epi64(reinterpret_cast<const long long*>(kExp2Table),
                                               index, 8);
  const __m256d s = _mm256_castsi256_pd(_mm256_add_epi64(entry, _mm256_slli_epi64(ki, 47)));
  const __m256d z = _mm256_fmadd_pd(_mm256_set1_pd(kExpC0), r, _mm256_set1_pd(kExpC1));
  const __m256d y = _mm256_fmadd_pd(
      z, _mm256_mul_pd(r, r), _mm256_fmadd_pd(_mm256_set1_pd(kExpC2), r, _mm256_set1_pd(1.0)));
  return _mm256_cvtpd_ps(_mm256_mul_pd(y, s));
}

}  // namespace detail

// Tanh(float) in each lane.
inline F32x8 Tanh(F32x8 x) {
  using detail::F32;
  using detail::I32;
  const __m256i ix = _mm256_and_si256(_mm256_castps_si256(x.v), I32(0x7fffffff));
  const __m256 a = _mm256_castsi256_ps(ix);
  const __m256 big = _mm256_castsi256_ps(_mm256_cmpgt_epi32(ix, I32(0x3f7fffff)));  // |x| >= 1
  // 2|x| for |x| >= 1, else -2|x| (the same bits as -2 * |x|).
  const __m256 u = _mm256_xor_ps(_mm256_mul_ps(F32(2.0f), a), _mm256_andnot_ps(big, F32(-0.0f)));
  const __m256 t = detail::TanhExpm1(u);
  // 1 - 2 / (t + 2) or -t / (t + 2): one division of the lane's numerator.
  const __m256 q = _mm256_div_ps(_mm256_blendv_ps(_mm256_xor_ps(t, F32(-0.0f)), F32(2.0f), big),
                                 _mm256_add_ps(t, F32(2.0f)));
  __m256 z = _mm256_blendv_ps(q, _mm256_sub_ps(F32(1.0f), q), big);
  z = _mm256_blendv_ps(z, F32(1.0f), _mm256_castsi256_ps(_mm256_cmpgt_epi32(ix, I32(0x41afffff))));
  z = _mm256_xor_ps(z, _mm256_and_ps(x.v, F32(-0.0f)));
  const __m256 small = _mm256_castsi256_ps(_mm256_cmpgt_epi32(I32(0x24000000), ix));
  z = _mm256_blendv_ps(z, _mm256_mul_ps(x.v, _mm256_add_ps(F32(1.0f), x.v)), small);
  const int rare = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(ix, I32(0x7f7fffff))));
  if (rare != 0) z = detail::PatchLanes(z, x.v, rare, [](float v) { return Tanh(v); });
  return {z};
}

// Exp(float) in each lane.
inline F32x8 Exp(F32x8 x) {
  const __m256i abstop =
      _mm256_and_si256(_mm256_srli_epi32(_mm256_castps_si256(x.v), 20), detail::I32(0x7ff));
  const int rare = _mm256_movemask_ps(
      _mm256_castsi256_ps(_mm256_cmpgt_epi32(abstop, detail::I32(0x42a))));  // |x| >= 88
  __m256 y = _mm256_set_m128(detail::ExpMainPath(_mm256_extractf128_ps(x.v, 1)),
                             detail::ExpMainPath(_mm256_castps256_ps128(x.v)));
  if (rare != 0) y = detail::PatchLanes(y, x.v, rare, [](float v) { return Exp(v); });
  return {y};
}

#else  // NEON, the scalar backend, AVX2 without FMA: the scalar function per lane.

inline F32x8 Tanh(F32x8 x) {
  float lanes[kLanes];
  StoreU(lanes, x);
  for (float& v : lanes) v = Tanh(v);
  return LoadU(lanes);
}

inline F32x8 Exp(F32x8 x) {
  float lanes[kLanes];
  StoreU(lanes, x);
  for (float& v : lanes) v = Exp(v);
  return LoadU(lanes);
}

#endif

}  // namespace simd
}  // namespace urcl

#endif  // URCL_TENSOR_SIMD_MATH_H_
