#include "ode/fisher_kpp.hpp"

#include <cmath>
#include <stdexcept>

namespace aiac::ode {

FisherKpp::FisherKpp(Params params) : params_(params) {
  if (params_.grid_points == 0)
    throw std::invalid_argument("FisherKpp: empty grid");
  if (!(params_.diffusion > 0.0) || !(params_.growth > 0.0))
    throw std::invalid_argument("FisherKpp: d and r must be positive");
  if (!(params_.ignition_width >= 0.0 && params_.ignition_width <= 1.0))
    throw std::invalid_argument("FisherKpp: ignition_width in [0,1]");
  const double np1 = static_cast<double>(params_.grid_points + 1);
  diffusion_ = params_.diffusion * np1 * np1;
}

double FisherKpp::front_speed() const noexcept {
  return 2.0 * std::sqrt(params_.diffusion * params_.growth);
}

double FisherKpp::rhs_component(std::size_t j, double /*t*/,
                                std::span<const double> window) const {
  if (j >= dimension()) throw std::out_of_range("FisherKpp::rhs_component");
  const double u = window[1];
  const double u_left = j == 0 ? 1.0 : window[0];  // burnt boundary
  const double u_right = j + 1 == dimension() ? 0.0 : window[2];
  return diffusion_ * (u_left - 2.0 * u + u_right) +
         params_.growth * u * (1.0 - u);
}

double FisherKpp::rhs_partial(std::size_t j, std::size_t k, double /*t*/,
                              std::span<const double> window) const {
  if (j >= dimension() || k >= dimension())
    throw std::out_of_range("FisherKpp::rhs_partial");
  if (j == k)
    return -2.0 * diffusion_ + params_.growth * (1.0 - 2.0 * window[1]);
  if (k + 1 == j || k == j + 1) return diffusion_;
  return 0.0;
}

void FisherKpp::jacobian_band_row(std::size_t j, double /*t*/,
                                  std::span<const double> window,
                                  std::span<double> band) const {
  if (j >= dimension())
    throw std::out_of_range("FisherKpp::jacobian_band_row");
  if (band.size() != 3)
    throw std::invalid_argument("FisherKpp::jacobian_band_row: band size");
  band[0] = j == 0 ? 0.0 : diffusion_;
  band[1] = -2.0 * diffusion_ + params_.growth * (1.0 - 2.0 * window[1]);
  band[2] = j + 1 == dimension() ? 0.0 : diffusion_;
}

void FisherKpp::rhs_range(std::size_t first, std::size_t count, double /*t*/,
                          std::span<const double> y_ext,
                          std::span<double> out) const {
  if (y_ext.size() != count + 2 || out.size() != count)
    throw std::invalid_argument("FisherKpp::rhs_range: size mismatch");
  const double d = diffusion_;
  const double g = params_.growth;
  const std::size_t dim = dimension();
  const double* __restrict y = y_ext.data();
  double* __restrict o = out.data();
  // The Dirichlet boundary rows (global j == 0 burnt at 1, j == dim - 1
  // unburnt at 0) are peeled so the interior loop is branch-free and
  // stride-1. Expressions mirror rhs_component token for token — the
  // boundary substitutes stay as named values, so results are bitwise
  // identical to the componentwise default.
  std::size_t r = 0;
  std::size_t r_end = count;
  if (first == 0 && count > 0) {
    const double u = y[1];
    const double u_left = 1.0;  // burnt boundary
    const double u_right = dim == 1 ? 0.0 : y[2];
    o[0] = d * (u_left - 2.0 * u + u_right) + g * u * (1.0 - u);
    r = 1;
  }
  if (first + count == dim && r_end > r) {
    --r_end;
    const double u = y[r_end + 1];
    const double u_left = y[r_end];  // j > 0 here: the left peel took j == 0
    const double u_right = 0.0;      // unburnt boundary
    o[r_end] = d * (u_left - 2.0 * u + u_right) + g * u * (1.0 - u);
  }
  for (; r < r_end; ++r) {
    const double u = y[r + 1];
    o[r] = d * (y[r] - 2.0 * u + y[r + 2]) + g * u * (1.0 - u);
  }
}

void FisherKpp::jacobian_band_range(std::size_t first, std::size_t count,
                                    double /*t*/,
                                    std::span<const double> y_ext,
                                    std::span<double> band_rows) const {
  if (y_ext.size() != count + 2 || band_rows.size() != count * 3)
    throw std::invalid_argument(
        "FisherKpp::jacobian_band_range: size mismatch");
  const double d = diffusion_;
  const double g = params_.growth;
  const std::size_t dim = dimension();
  const double* __restrict y = y_ext.data();
  double* __restrict bands = band_rows.data();
  // Same peel structure as rhs_range; the interior writes are contiguous
  // groups of three with only the center entry data-dependent.
  std::size_t r = 0;
  std::size_t r_end = count;
  if (first == 0 && count > 0) {
    bands[0] = 0.0;
    bands[1] = -2.0 * d + g * (1.0 - 2.0 * y[1]);
    bands[2] = dim == 1 ? 0.0 : d;
    r = 1;
  }
  if (first + count == dim && r_end > r) {
    --r_end;
    double* band = bands + r_end * 3;
    band[0] = d;  // j > 0 here: the left peel took j == 0
    band[1] = -2.0 * d + g * (1.0 - 2.0 * y[r_end + 1]);
    band[2] = 0.0;
  }
  for (; r < r_end; ++r) {
    double* band = bands + r * 3;
    band[0] = d;
    band[1] = -2.0 * d + g * (1.0 - 2.0 * y[r + 1]);
    band[2] = d;
  }
}

void FisherKpp::rhs_and_diagonal_batch(std::span<const std::size_t> components,
                                       double /*t*/,
                                       std::span<const double> windows,
                                       std::span<double> f,
                                       std::span<double> dfdy) const {
  const std::size_t count = components.size();
  if (windows.size() != count * 3 || f.size() != count ||
      dfdy.size() != count)
    throw std::invalid_argument(
        "FisherKpp::rhs_and_diagonal_batch: size mismatch");
  const double d = diffusion_;
  const double g = params_.growth;
  const std::size_t dim = dimension();
  // Expressions mirror rhs_component and rhs_partial(j, j) token for token.
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t j = components[k];
    if (j >= dim) throw std::out_of_range("FisherKpp::rhs_and_diagonal_batch");
    const double* w = windows.data() + k * 3;
    const double u = w[1];
    const double u_left = j == 0 ? 1.0 : w[0];  // burnt boundary
    const double u_right = j + 1 == dim ? 0.0 : w[2];
    f[k] = d * (u_left - 2.0 * u + u_right) + g * u * (1.0 - u);
    dfdy[k] = -2.0 * d + g * (1.0 - 2.0 * w[1]);
  }
}

void FisherKpp::initial_state(std::span<double> y) const {
  if (y.size() != dimension())
    throw std::invalid_argument("FisherKpp::initial_state: size mismatch");
  const double np1 = static_cast<double>(params_.grid_points + 1);
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double x = static_cast<double>(i + 1) / np1;
    // Smooth ignition profile decaying from the left boundary.
    y[i] = params_.ignition_width <= 0.0
               ? 0.0
               : std::exp(-x / params_.ignition_width * 3.0);
  }
}

double FisherKpp::front_position(std::span<const double> u) {
  const std::size_t n = u.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (u[i] < 0.5) {
      if (i == 0) return 0.0;
      // Linear interpolation between grid points i-1 and i.
      const double np1 = static_cast<double>(n + 1);
      const double x_prev = static_cast<double>(i) / np1;
      const double x_here = static_cast<double>(i + 1) / np1;
      const double frac = (u[i - 1] - 0.5) / (u[i - 1] - u[i]);
      return x_prev + frac * (x_here - x_prev);
    }
  }
  return 1.0;  // fully burnt
}

}  // namespace aiac::ode
