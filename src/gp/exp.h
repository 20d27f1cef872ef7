#pragma once

#include <cstddef>

namespace humo::gp {

/// e^x for the kernels: one definition behind every kernel value, with a
/// scalar entry point and a row entry point that evaluates four lanes at a
/// time. Both run the same sequence of IEEE operations (no fused
/// multiply-add), so Exp(x) and ExpRow's entry for x are the same double on
/// every path and machine, and the kernels no longer depend on the C
/// library's exp.
///
/// Method: x = n ln2 + r with n = round(x / ln2) and |r| <= ln2 / 2 (a
/// two-part Cody-Waite reduction), e^r = 1 + r + r^2 P(r) with P the degree-11
/// Taylor polynomial of (e^r - 1 - r) / r^2 evaluated in Estrin form (a short
/// dependency chain), then a scale by 2^n in two exact halves, so results
/// near the overflow threshold and in the subnormal range are rounded once.
/// Within 2 ulp of a correctly rounded e^x; Exp(0) == 1 exactly (so a
/// kernel's value at distance 0 is its signal variance), e^x rounds to 0
/// below about -745.13 (and at -infinity), overflows to +infinity above
/// about 709.78, and a NaN argument returns NaN.
double Exp(double x);

/// out[i] = Exp(in[i]) for i in [0, n), four lanes at a time (the AVX2 build
/// where the CPU has it, else the baseline-ISA build of the same source;
/// both give Exp's bits). `out` may alias `in`.
void ExpRow(const double* in, double* out, size_t n);

namespace internal {

/// ExpRow forced onto the baseline-ISA build of its four-lane body, so
/// tests can compare it bitwise with the build ExpRow dispatches to.
void ExpRowPortable(const double* in, double* out, size_t n);

}  // namespace internal

}  // namespace humo::gp
