// Tests for the linear algebra substrate: banded storage, the in-place
// banded LU and the tridiagonal solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/banded_matrix.hpp"
#include "util/rng.hpp"

namespace {

using namespace aiac::linalg;

TEST(BandedMatrixTest, BandAccessRules) {
  BandedMatrix m(5, 1, 2);
  EXPECT_TRUE(m.in_band(2, 1));
  EXPECT_TRUE(m.in_band(2, 4));
  EXPECT_FALSE(m.in_band(2, 0));  // below the band
  EXPECT_FALSE(m.in_band(0, 3));  // above the band
  m.ref(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m.at(1, 2), 7.0);
  EXPECT_DOUBLE_EQ(m.at(3, 0), 0.0);
  EXPECT_THROW(m.ref(4, 0), std::out_of_range);
}

TEST(BandedLuTest, MatchesDenseOnRandomBandedSystems) {
  aiac::util::Rng rng(13);
  const std::size_t n = 12, kl = 2, ku = 2;
  BandedMatrix banded(n, kl, ku);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      if (banded.in_band(r, c))
        banded.ref(r, c) = r == c ? rng.uniform(4, 6) : rng.uniform(-1, 1);
  std::vector<double> x_true(n);
  for (auto& x : x_true) x = rng.uniform(-1, 1);
  std::vector<double> b(n);
  banded.multiply(x_true, b);

  banded_lu_factor_in_place(banded);
  banded_lu_solve_in_place(banded, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-10);
}

TEST(BandedLuTest, ThrowsOnTinyPivot) {
  BandedMatrix m(2, 0, 0);  // diagonal matrix with a zero pivot
  m.ref(0, 0) = 1.0;
  m.ref(1, 1) = 0.0;
  EXPECT_THROW(banded_lu_factor_in_place(m), std::runtime_error);
}

// Reference copies of the generic (runtime-bandwidth) banded factor and
// solve loops. The fixed-bandwidth kernels behind banded_lu_*_in_place
// for kl == ku in {1, 2} promise the same per-element operation sequence,
// so their output must match these bit for bit.
void reference_factor(std::vector<double>& data, std::size_t n,
                      std::size_t kl, std::size_t ku, double tolerance) {
  const std::size_t stride = kl + ku + 1;
  for (std::size_t k = 0; k < n; ++k) {
    const double* row_k = data.data() + k * stride;
    const double pivot = row_k[kl];
    if (std::abs(pivot) < tolerance)
      throw std::runtime_error("banded LU: pivot below tolerance at row " +
                               std::to_string(k));
    const double inv_pivot = 1.0 / pivot;
    const std::size_t r_hi = std::min(n - 1, k + kl);
    const std::size_t c_hi = std::min(n - 1, k + ku);
    for (std::size_t r = k + 1; r <= r_hi; ++r) {
      double* row_r = data.data() + r * stride;
      const double factor = row_r[k + kl - r] * inv_pivot;
      row_r[k + kl - r] = factor;
      for (std::size_t c = k + 1; c <= c_hi; ++c)
        row_r[c + kl - r] -= factor * row_k[c + kl - k];
    }
  }
}

void reference_solve(const std::vector<double>& data, std::size_t n,
                     std::size_t kl, std::size_t ku, std::vector<double>& b) {
  const std::size_t stride = kl + ku + 1;
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = data.data() + i * stride;
    const std::size_t j_lo = i > kl ? i - kl : 0;
    double sum = b[i];
    for (std::size_t j = j_lo; j < i; ++j) sum -= row[j + kl - i] * b[j];
    b[i] = sum;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    const double* row = data.data() + ii * stride;
    const std::size_t j_hi = std::min(n - 1, ii + ku);
    double sum = b[ii];
    for (std::size_t j = ii + 1; j <= j_hi; ++j) sum -= row[j + kl - ii] * b[j];
    b[ii] = sum / row[kl];
  }
}

void expect_bitwise_equal(std::span<const double> actual,
                          std::span<const double> expected,
                          const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(actual[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << what << " slot " << i << ": " << actual[i] << " vs "
        << expected[i];
}

/// Random diagonally dominant kl = ku = `k` band (padding slots random
/// too: neither implementation may read or write them).
BandedMatrix random_dominant_band(std::size_t n, std::size_t k,
                                  aiac::util::Rng& rng) {
  BandedMatrix m(n, k, k);
  auto band = m.band_data();
  for (std::size_t i = 0; i < band.size(); ++i) {
    const bool diagonal = i % (2 * k + 1) == k;
    band[i] = diagonal ? rng.uniform(2.0 * static_cast<double>(k) + 1.0,
                                     2.0 * static_cast<double>(k) + 3.0)
                       : rng.uniform(-1.0, 1.0);
  }
  return m;
}

TEST(BandedLuTest, SmallBandKernelsAreBitwiseTheGenericLoops) {
  aiac::util::Rng rng(20030422);
  std::vector<std::size_t> sizes = {1, 2, 3, 4, 5, 6, 7, 8, 9, 37, 100};
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}}) {
    for (const std::size_t n : sizes) {
      for (int trial = 0; trial < 4; ++trial) {
        const std::string what = "kl=ku=" + std::to_string(k) +
                                 " n=" + std::to_string(n) +
                                 " trial=" + std::to_string(trial);
        BandedMatrix m = random_dominant_band(n, k, rng);
        std::vector<double> expected(m.band_data().begin(),
                                     m.band_data().end());
        std::vector<double> b(n);
        for (double& x : b) x = rng.uniform(-1.0, 1.0);
        std::vector<double> expected_b = b;

        banded_lu_factor_in_place(m);
        reference_factor(expected, n, k, k, 1e-14);
        expect_bitwise_equal(m.band_data(), expected, what + " factor");

        banded_lu_solve_in_place(m, b);
        reference_solve(expected, n, k, k, expected_b);
        expect_bitwise_equal(b, expected_b, what + " solve");
      }
    }
  }
}

TEST(BandedLuTest, SmallBandTinyPivotThrowsAtTheSameRowAndMessage) {
  aiac::util::Rng rng(7);
  const std::size_t n = 9;
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}}) {
    // Head, interior and tail pivot rows of the fixed-bandwidth kernel.
    for (const std::size_t bad : {std::size_t{0}, n / 2, n - 1}) {
      BandedMatrix m = random_dominant_band(n, k, rng);
      // Zero sub-diagonal entries leave row `bad` untouched by earlier
      // eliminations, so its pivot stays the tiny diagonal.
      const std::size_t stride = m.row_stride();
      auto band = m.band_data();
      for (std::size_t slot = 0; slot < k; ++slot)
        band[bad * stride + slot] = 0.0;
      band[bad * stride + k] = 1e-20;
      std::vector<double> reference(band.begin(), band.end());

      std::string expected_message;
      try {
        reference_factor(reference, n, k, k, 1e-14);
      } catch (const std::runtime_error& e) {
        expected_message = e.what();
      }
      ASSERT_EQ(expected_message, "banded LU: pivot below tolerance at row " +
                                      std::to_string(bad));
      std::string message;
      try {
        banded_lu_factor_in_place(m);
      } catch (const std::runtime_error& e) {
        message = e.what();
      }
      EXPECT_EQ(message, expected_message) << "kl=ku=" << k;
    }
  }
}

TEST(Tridiagonal, MatchesBandedSolver) {
  const std::size_t n = 20;
  std::vector<double> lower(n, -1.0), diag(n, 3.0), upper(n, -1.0), rhs(n);
  aiac::util::Rng rng(17);
  for (auto& r : rhs) r = rng.uniform(-1, 1);
  auto rhs2 = rhs;
  solve_tridiagonal(lower, diag, upper, rhs);

  BandedMatrix m(n, 1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    m.ref(i, i) = 3.0;
    if (i > 0) m.ref(i, i - 1) = -1.0;
    if (i + 1 < n) m.ref(i, i + 1) = -1.0;
  }
  banded_lu_factor_in_place(m);
  banded_lu_solve_in_place(m, rhs2);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(rhs[i], rhs2[i], 1e-12);
}

}  // namespace
