#include "linalg/banded_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace aiac::linalg {

BandedMatrix::BandedMatrix(std::size_t n, std::size_t lower,
                           std::size_t upper)
    : n_(n), kl_(lower), ku_(upper), data_(n * (lower + upper + 1), 0.0) {}

bool BandedMatrix::in_band(std::size_t r, std::size_t c) const noexcept {
  if (r >= n_ || c >= n_) return false;
  if (c + kl_ < r) return false;  // below the band
  if (r + ku_ < c) return false;  // above the band
  return true;
}

double BandedMatrix::at(std::size_t r, std::size_t c) const noexcept {
  if (!in_band(r, c)) return 0.0;
  return data_[offset(r, c)];
}

double& BandedMatrix::ref(std::size_t r, std::size_t c) {
  if (!in_band(r, c))
    throw std::out_of_range("BandedMatrix::ref outside band");
  return data_[offset(r, c)];
}

void BandedMatrix::set_zero() noexcept {
  for (double& x : data_) x = 0.0;
}

void BandedMatrix::reshape(std::size_t n, std::size_t lower,
                           std::size_t upper) {
  if (n == n_ && lower == kl_ && upper == ku_) return;
  n_ = n;
  kl_ = lower;
  ku_ = upper;
  data_.resize(n * (lower + upper + 1));
}

void BandedMatrix::multiply(std::span<const double> x,
                            std::span<double> y) const {
  if (x.size() != n_ || y.size() != n_)
    throw std::invalid_argument("BandedMatrix::multiply: size mismatch");
  for (std::size_t r = 0; r < n_; ++r) {
    const std::size_t c_lo = r > kl_ ? r - kl_ : 0;
    const std::size_t c_hi = std::min(n_ - 1, r + ku_);
    double sum = 0.0;
    for (std::size_t c = c_lo; c <= c_hi; ++c) sum += data_[offset(r, c)] * x[c];
    y[r] = sum;
  }
}

namespace {

// Cold, out-of-line pivot failure: keeps the string formatting out of the
// factorization loops.
[[noreturn]] [[gnu::cold]] [[gnu::noinline]] void throw_tiny_pivot(
    std::size_t row) {
  throw std::runtime_error("banded LU: pivot below tolerance at row " +
                           std::to_string(row));
}

// Fixed-bandwidth kl == ku == KL specializations of the factor/solve
// loops below. The Newton systems are tridiagonal (stencil 1) or
// pentadiagonal (stencil 2), so these cover the entire hot path. Each
// kernel is an interior loop whose inner trip counts are the
// compile-time KL, so the compiler unrolls them completely into
// straight-line code, plus peeled head/tail rows that keep the generic
// data-dependent bounds. Data-dependent bounds in every row would let
// the auto-vectorizer version these 1-2 trip loops instead of unrolling
// them, at 2-3x the cost. Every element sees the generic loops'
// operations in the generic order — no reciprocal pivots beyond the
// generic `inv_pivot`, no contraction, no reordering — so the results
// are bitwise equal (the parity and golden suites rely on that).
template <std::size_t KL>
void factor_small_band(double* __restrict data, std::size_t n,
                       double pivot_tolerance) {
  constexpr std::size_t stride = 2 * KL + 1;
  // Interior pivots k + KL <= n - 1: rows k+1..k+KL, columns k+1..k+KL.
  const std::size_t interior_end = n > KL ? n - KL : 0;
  std::size_t k = 0;
  for (; k < interior_end; ++k) {
    const double* __restrict row_k = data + k * stride;
    const double pivot = row_k[KL];
    if (std::abs(pivot) < pivot_tolerance) throw_tiny_pivot(k);
    const double inv_pivot = 1.0 / pivot;
    for (std::size_t d = 1; d <= KL; ++d) {
      double* __restrict row_r = data + (k + d) * stride;
      const double factor = row_r[KL - d] * inv_pivot;
      row_r[KL - d] = factor;
      for (std::size_t e = 1; e <= KL; ++e)
        row_r[KL + e - d] -= factor * row_k[KL + e];
    }
  }
  // Tail pivots: the band is clipped at row/column n - 1.
  for (; k < n; ++k) {
    const double* __restrict row_k = data + k * stride;
    const double pivot = row_k[KL];
    if (std::abs(pivot) < pivot_tolerance) throw_tiny_pivot(k);
    const double inv_pivot = 1.0 / pivot;
    for (std::size_t r = k + 1; r < n; ++r) {
      double* __restrict row_r = data + r * stride;
      const double factor = row_r[k + KL - r] * inv_pivot;
      row_r[k + KL - r] = factor;
      for (std::size_t c = k + 1; c < n; ++c)
        row_r[c + KL - r] -= factor * row_k[c + KL - k];
    }
  }
}

template <std::size_t KL>
void solve_small_band(const double* __restrict data, std::size_t n,
                      double* __restrict b) {
  constexpr std::size_t stride = 2 * KL + 1;
  const std::size_t edge = std::min(n, KL);
  // Forward substitution: head rows i < KL see only columns 0..i-1.
  std::size_t i = 0;
  for (; i < edge; ++i) {
    const double* __restrict row = data + i * stride;
    double sum = b[i];
    for (std::size_t j = 0; j < i; ++j) sum -= row[j + KL - i] * b[j];
    b[i] = sum;
  }
  for (; i < n; ++i) {
    const double* __restrict row = data + i * stride;
    double sum = b[i];
    for (std::size_t e = 0; e < KL; ++e) sum -= row[e] * b[i - KL + e];
    b[i] = sum;
  }
  // Back substitution: tail rows ii > n - 1 - KL see only columns < n.
  std::size_t ii = n;
  for (; ii > n - edge;) {
    --ii;
    const double* __restrict row = data + ii * stride;
    double sum = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) sum -= row[j + KL - ii] * b[j];
    b[ii] = sum / row[KL];
  }
  while (ii > 0) {
    --ii;
    const double* __restrict row = data + ii * stride;
    double sum = b[ii];
    for (std::size_t e = 1; e <= KL; ++e) sum -= row[KL + e] * b[ii + e];
    b[ii] = sum / row[KL];
  }
}

}  // namespace

void banded_lu_factor_in_place(BandedMatrix& a, double pivot_tolerance) {
  const std::size_t n = a.size();
  const std::size_t kl = a.lower_bandwidth();
  const std::size_t ku = a.upper_bandwidth();
  const std::size_t stride = a.row_stride();
  double* data = a.band_data().data();
  if (kl == ku) {
    if (kl == 1) return factor_small_band<1>(data, n, pivot_tolerance);
    if (kl == 2) return factor_small_band<2>(data, n, pivot_tolerance);
  }
  // Index arithmetic on the raw band storage (column c of row r sits at
  // slot c + kl - r, always >= 0 within the band) — the per-element
  // in_band branches of at()/ref() dominate the factorization cost at the
  // small bandwidths the Newton systems have.
  for (std::size_t k = 0; k < n; ++k) {
    const double* row_k = data + k * stride;
    const double pivot = row_k[kl];
    if (std::abs(pivot) < pivot_tolerance) throw_tiny_pivot(k);
    const double inv_pivot = 1.0 / pivot;
    const std::size_t r_hi = std::min(n - 1, k + kl);
    const std::size_t c_hi = std::min(n - 1, k + ku);
    for (std::size_t r = k + 1; r <= r_hi; ++r) {
      double* row_r = data + r * stride;
      const double factor = row_r[k + kl - r] * inv_pivot;
      row_r[k + kl - r] = factor;
      for (std::size_t c = k + 1; c <= c_hi; ++c)
        row_r[c + kl - r] -= factor * row_k[c + kl - k];
    }
  }
}

void banded_lu_solve_in_place(const BandedMatrix& lu, std::span<double> b) {
  const std::size_t n = lu.size();
  if (b.size() != n)
    throw std::invalid_argument("banded LU solve: size mismatch");
  const std::size_t kl = lu.lower_bandwidth();
  const std::size_t ku = lu.upper_bandwidth();
  const std::size_t stride = lu.row_stride();
  const double* data = lu.band_data().data();
  if (kl == ku) {
    if (kl == 1) return solve_small_band<1>(data, n, b.data());
    if (kl == 2) return solve_small_band<2>(data, n, b.data());
  }
  // Forward substitution with the unit lower-triangular factor.
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = data + i * stride;
    const std::size_t j_lo = i > kl ? i - kl : 0;
    double sum = b[i];
    for (std::size_t j = j_lo; j < i; ++j) sum -= row[j + kl - i] * b[j];
    b[i] = sum;
  }
  // Back substitution with the upper factor.
  for (std::size_t ii = n; ii-- > 0;) {
    const double* row = data + ii * stride;
    const std::size_t j_hi = std::min(n - 1, ii + ku);
    double sum = b[ii];
    for (std::size_t j = ii + 1; j <= j_hi; ++j) sum -= row[j + kl - ii] * b[j];
    b[ii] = sum / row[kl];
  }
}

void solve_tridiagonal(std::span<const double> lower,
                       std::span<const double> diag,
                       std::span<const double> upper, std::span<double> rhs) {
  const std::size_t n = diag.size();
  if (lower.size() != n || upper.size() != n || rhs.size() != n)
    throw std::invalid_argument("solve_tridiagonal: size mismatch");
  if (n == 0) return;
  std::vector<double> scratch(n);
  double pivot = diag[0];
  if (pivot == 0.0) throw std::runtime_error("tridiagonal: zero pivot");
  rhs[0] /= pivot;
  for (std::size_t i = 1; i < n; ++i) {
    scratch[i] = upper[i - 1] / pivot;
    pivot = diag[i] - lower[i] * scratch[i];
    if (pivot == 0.0) throw std::runtime_error("tridiagonal: zero pivot");
    rhs[i] = (rhs[i] - lower[i] * rhs[i - 1]) / pivot;
  }
  for (std::size_t ii = n - 1; ii-- > 0;)
    rhs[ii] -= scratch[ii + 1] * rhs[ii + 1];
}

}  // namespace aiac::linalg
