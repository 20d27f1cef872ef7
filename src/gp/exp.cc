#include "gp/exp.h"

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/cpu.h"

// Every V4 function below has internal linkage and is always inlined, so no
// V4 ever crosses a call boundary and GCC's AVX calling-convention note does
// not apply.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

namespace humo::gp {
namespace {

/// Four lanes of raw bits, for the exponent arithmetic and lane selects.
typedef uint64_t U4 __attribute__((vector_size(32), may_alias, aligned(8)));

/// The body is written once over D = double or V4 and inlined into the
/// scalar entry point and the two row builds.
#define HUMO_EXP_INLINE inline __attribute__((always_inline))

/// Arguments are clamped into [kMinArg, kMaxArg] first: far enough out that
/// the result is already 0 or +infinity, near enough that n = round(x / ln2)
/// stays a small integer for the exponent arithmetic below. A NaN passes
/// through unclamped.
constexpr double kMinArg = -1100.0;
constexpr double kMaxArg = 1000.0;
/// The arguments whose result is a normal double reached by one scale.
constexpr double kNormalMin = -708.0;
constexpr double kNormalMax = 709.0;
constexpr double kLog2e = 1.4426950408889634074;
/// ln 2 split so that n * kLn2Hi is exact for |n| < 2^21 (its low 21
/// mantissa bits are 0): the fdlibm constants.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
/// 1.5 * 2^52: adding it to |v| < 2^51 rounds v to an integer (round to
/// nearest) and leaves that integer in the low mantissa bits.
constexpr double kShifter = 6755399441055744.0;
/// Adds the exponent bias and removes kShifter's bits, so that
/// (bits(n + kShifter) + kExponentBias) << 52 is the bit pattern of 2^n.
constexpr uint64_t kShifterBits = 0x4338000000000000ull;
constexpr uint64_t kExponentBias = 1023ull - kShifterBits;  // wraps

template <class D>
HUMO_EXP_INLINE D Splat(double c) {
  if constexpr (std::is_same_v<D, double>) {
    return c;
  } else {
    return D{c, c, c, c};
  }
}

HUMO_EXP_INLINE double ClampArg(double x) {
  return x < kMinArg ? kMinArg : (x > kMaxArg ? kMaxArg : x);
}
HUMO_EXP_INLINE V4 ClampArg(const V4& x) {
  const U4 below = (U4)(x < Splat<V4>(kMinArg));
  const U4 above = (U4)(x > Splat<V4>(kMaxArg));
  const U4 lo = (U4)Splat<V4>(kMinArg);
  const U4 hi = (U4)Splat<V4>(kMaxArg);
  U4 bits = (U4)x;
  bits = (bits & ~below) | (lo & below);
  bits = (bits & ~above) | (hi & above);
  return (V4)bits;
}

/// 2^n from t = n + kShifter, n an integer in [-1022, 1023].
HUMO_EXP_INLINE double Pow2(double t) {
  uint64_t bits;
  std::memcpy(&bits, &t, sizeof bits);
  bits = (bits + kExponentBias) << 52;
  double out;
  std::memcpy(&out, &bits, sizeof out);
  return out;
}
HUMO_EXP_INLINE V4 Pow2(const V4& t) {
  const U4 bias = {kExponentBias, kExponentBias, kExponentBias, kExponentBias};
  return (V4)(((U4)t + bias) << 52);
}

/// c0 + c1 r.
template <class D>
HUMO_EXP_INLINE D Pair(const D& r, double c0, double c1) {
  return Splat<D>(c0) + Splat<D>(c1) * r;
}

/// True when every lane of x lies in [kNormalMin, kNormalMax]: there
/// n = round(x / ln2) is in [-1021, 1023], so 2^n is a normal double, e^x is
/// a normal double, and one exact scale by 2^n gives the same bits as the
/// clamped two-half scale.
HUMO_EXP_INLINE bool InNormalRange(double x) {
  return x >= kNormalMin && x <= kNormalMax;
}
HUMO_EXP_INLINE bool InNormalRange(const V4& x) {
  const U4 in =
      (U4)((x >= Splat<V4>(kNormalMin)) & (x <= Splat<V4>(kNormalMax)));
  return (in[0] & in[1] & in[2] & in[3]) != 0;
}

/// e^r for the reduced argument r of x = n ln2 + r, |r| <= ln2 / 2:
/// 1 + r + r^2 P(r), P(r) = sum_{k=0}^{11} r^k / (k + 2)!, in Estrin form
/// (pairs c_k + c_{k+1} r combined by r^2, r^4 and r^8).
template <class D>
HUMO_EXP_INLINE D ExpReduced(const D& r) {
  const D r2 = r * r;
  const D r4 = r2 * r2;
  const D r8 = r4 * r4;
  const D p0 = Pair(r, 1.0 / 2.0, 1.0 / 6.0);
  const D p2 = Pair(r, 1.0 / 24.0, 1.0 / 120.0);
  const D p4 = Pair(r, 1.0 / 720.0, 1.0 / 5040.0);
  const D p6 = Pair(r, 1.0 / 40320.0, 1.0 / 362880.0);
  const D p8 = Pair(r, 1.0 / 3628800.0, 1.0 / 39916800.0);
  const D p10 = Pair(r, 1.0 / 479001600.0, 1.0 / 6227020800.0);
  const D p = ((p0 + r2 * p2) + r4 * (p4 + r2 * p6)) + r8 * (p8 + r2 * p10);
  return Splat<D>(1.0) + (r + r2 * p);
}

template <class D>
HUMO_EXP_INLINE D ExpBody(const D& arg) {
  const D shift = Splat<D>(kShifter);
  const bool normal = InNormalRange(arg);
  const D x = normal ? arg : ClampArg(arg);
  // x = n ln2 + r.
  const D t = x * Splat<D>(kLog2e) + shift;
  const D n = t - shift;
  const D r = (x - n * Splat<D>(kLn2Hi)) - n * Splat<D>(kLn2Lo);
  const D e = ExpReduced(r);
  if (normal) return e * Pow2(t);
  // 2^n in two halves, each a normal power of two for every clamped n: the
  // first product is exact, the second rounds once (subnormal results) or
  // overflows to +infinity.
  const D n1 = (n * Splat<D>(0.5) + shift) - shift;
  const D n2 = n - n1;
  return (e * Pow2(n1 + shift)) * Pow2(n2 + shift);
}

HUMO_EXP_INLINE void ExpRowBody(const double* in, double* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const V4 x = *reinterpret_cast<const V4*>(in + i);
    *reinterpret_cast<V4*>(out + i) = ExpBody(x);
  }
  for (; i < n; ++i) out[i] = ExpBody(in[i]);
}

#ifdef HUMO_HAS_AVX2_DISPATCH
__attribute__((target("avx2"))) void ExpRowAvx2(const double* in, double* out,
                                                size_t n) {
  ExpRowBody(in, out, n);
}
#endif

}  // namespace

double Exp(double x) { return ExpBody(x); }

void ExpRow(const double* in, double* out, size_t n) {
#ifdef HUMO_HAS_AVX2_DISPATCH
  if (CpuHasAvx2()) return ExpRowAvx2(in, out, n);
#endif
  internal::ExpRowPortable(in, out, n);
}

namespace internal {

void ExpRowPortable(const double* in, double* out, size_t n) {
  ExpRowBody(in, out, n);
}

}  // namespace internal

}  // namespace humo::gp
