// Free functions on contiguous double sequences (norms, dot, axpy, grids).
// The engines inline their own loops on hot paths; these are the reference
// forms. All take std::span so they work on vectors and sub-blocks alike.
#pragma once

#include <span>
#include <vector>

namespace aiac::linalg {

/// Dot product. Spans must have equal size.
double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
double norm2(std::span<const double> v) noexcept;

/// Max-norm (the convergence criterion used by the AIAC engine).
double norm_inf(std::span<const double> v) noexcept;

/// 1-norm.
double norm1(std::span<const double> v) noexcept;

/// y += alpha * x. Spans must have equal size.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// y = x (sizes must match).
void copy(std::span<const double> x, std::span<double> y);

/// v *= alpha.
void scale(std::span<double> v, double alpha) noexcept;

/// Sets every element to value.
void fill(std::span<double> v, double value) noexcept;

/// max_i |a[i] - b[i]|; the distance used for fixed-point residuals.
double max_abs_diff(std::span<const double> a, std::span<const double> b);

/// Componentwise a - b into out (all sizes equal).
void subtract(std::span<const double> a, std::span<const double> b,
              std::span<double> out);

/// Returns a linearly spaced grid of `n` points covering [lo, hi].
std::vector<double> linspace(double lo, double hi, std::size_t n);

}  // namespace aiac::linalg
