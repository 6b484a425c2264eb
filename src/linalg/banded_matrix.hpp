// Banded matrix storage and factorization.
//
// The implicit-Euler Newton systems of the Brusselator are banded: in the
// interleaved ordering y = (u_1, v_1, ..., u_N, v_N) the coupling of u_i to
// {v_i, u_i-1, u_i+1} and of v_i to {u_i, v_i-1, v_i+1} gives lower and
// upper bandwidths of 2. Block-local Newton systems inherit the structure,
// so an O(n * b^2) banded LU replaces an O(n^3) dense one.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace aiac::linalg {

/// Band storage: element (r, c) is stored iff |r - c| is within the
/// bandwidths; accessing outside the band reads as zero and writes throw.
class BandedMatrix {
 public:
  BandedMatrix() = default;
  /// n x n with `lower` sub-diagonals and `upper` super-diagonals.
  BandedMatrix(std::size_t n, std::size_t lower, std::size_t upper);

  std::size_t size() const noexcept { return n_; }
  std::size_t lower_bandwidth() const noexcept { return kl_; }
  std::size_t upper_bandwidth() const noexcept { return ku_; }

  bool in_band(std::size_t r, std::size_t c) const noexcept;

  /// Read anywhere; zero outside the band.
  double at(std::size_t r, std::size_t c) const noexcept;
  /// Mutable access inside the band only; throws std::out_of_range outside.
  double& ref(std::size_t r, std::size_t c);

  void set_zero() noexcept;

  /// Reshapes to n x n with the given bandwidths, reusing the existing
  /// allocation whenever it is large enough (the workspace-reuse hot path:
  /// a Newton workspace reshapes its Jacobian once per block-size change
  /// and then assembles in place with zero allocations). Contents are
  /// unspecified afterwards — callers must write every band entry they
  /// later read, which full banded assembly does.
  void reshape(std::size_t n, std::size_t lower, std::size_t upper);

  /// Raw row-major band storage: row r occupies slots
  /// [r * row_stride(), (r + 1) * row_stride()), with column c at slot
  /// offset (c + lower_bandwidth() - r). Slots whose column falls outside
  /// [0, size()) are padding — writable, never read by the factorization
  /// or solves. Exposed for the allocation-free assembly and in-place LU
  /// kernels, which cannot afford per-element band checks.
  std::span<double> band_data() noexcept { return data_; }
  std::span<const double> band_data() const noexcept { return data_; }
  std::size_t row_stride() const noexcept { return kl_ + ku_ + 1; }

  /// y = A x.
  void multiply(std::span<const double> x, std::span<double> y) const;

 private:
  std::size_t offset(std::size_t r, std::size_t c) const noexcept {
    // Row-wise band storage: row r occupies a stride of (kl_+ku_+1) slots,
    // column c lands at position (c - r + kl_).
    return r * (kl_ + ku_ + 1) + (c + kl_ - r);
  }

  std::size_t n_ = 0;
  std::size_t kl_ = 0;
  std::size_t ku_ = 0;
  std::vector<double> data_;
};

/// Factors `a` in place (no pivoting, no copy, no allocation) into its
/// banded L\U form: the unit lower factor's multipliers land below the
/// diagonal and U on and above it, in the same band storage. Valid for the
/// diagonally dominant Jacobians produced by implicit Euler with
/// reasonable step sizes (I - dt*J with dt small enough). Throws
/// std::runtime_error when a pivot underflows `pivot_tolerance`, which in
/// this codebase signals that the step size must be reduced; the matrix
/// contents are unspecified after a throw.
void banded_lu_factor_in_place(BandedMatrix& a,
                               double pivot_tolerance = 1e-14);

/// Solves (L U) x = b in place given a matrix factored by
/// banded_lu_factor_in_place. Allocation-free.
void banded_lu_solve_in_place(const BandedMatrix& lu, std::span<double> b);

/// Thomas algorithm for tridiagonal systems; O(n). `lower`, `diag`,
/// `upper` are the three diagonals (lower[0] and upper[n-1] unused).
/// Overwrites rhs with the solution. Throws on zero pivot.
void solve_tridiagonal(std::span<const double> lower,
                       std::span<const double> diag,
                       std::span<const double> upper, std::span<double> rhs);

}  // namespace aiac::linalg
