// The Brusselator reaction-diffusion problem (paper §4; Hairer & Wanner,
// "Solving ODEs II", §IV.1 "BRUSS").
//
// Concentrations u_i, v_i of species X, Y on a 1D grid of N interior
// points, interleaved into a single state vector (paper §5):
//   y_{2i}   = u_{i+1},  y_{2i+1} = v_{i+1}   (0-based here)
// with
//   u'_i = 1 + u_i^2 v_i - 4 u_i + alpha (N+1)^2 (u_{i-1} - 2u_i + u_{i+1})
//   v'_i = 3 u_i - u_i^2 v_i   + alpha (N+1)^2 (v_{i-1} - 2v_i + v_{i+1})
// Dirichlet boundaries u_0 = u_{N+1} = 1, v_0 = v_{N+1} = 3 (the standard
// BRUSS conditions; the paper's scan garbles this line), initial data
// u_i(0) = 1 + sin(2 pi x_i), v_i(0) = 3, x_i = i/(N+1), alpha = 1/50,
// time interval [0, 10].
#pragma once

#include "ode/ode_system.hpp"

namespace aiac::ode {

class Brusselator final : public OdeSystem {
 public:
  struct Params {
    std::size_t grid_points = 100;  // N interior points
    double alpha = 1.0 / 50.0;
    double u_boundary = 1.0;
    double v_boundary = 3.0;
    double time_end = 10.0;  // conventional integration horizon
  };

  explicit Brusselator(Params params);

  std::size_t grid_points() const noexcept { return params_.grid_points; }
  const Params& params() const noexcept { return params_; }
  /// Diffusion coefficient alpha * (N+1)^2.
  double diffusion() const noexcept { return diffusion_; }

  std::size_t dimension() const noexcept override {
    return 2 * params_.grid_points;
  }
  std::size_t stencil_halfwidth() const noexcept override { return 2; }

  double rhs_component(std::size_t j, double t,
                       std::span<const double> window) const override;
  double rhs_partial(std::size_t j, std::size_t k, double t,
                     std::span<const double> window) const override;
  void jacobian_band_row(std::size_t j, double t,
                         std::span<const double> window,
                         std::span<double> band) const override;
  void rhs_range(std::size_t first, std::size_t count, double t,
                 std::span<const double> y_ext,
                 std::span<double> out) const override;
  void jacobian_band_range(std::size_t first, std::size_t count, double t,
                           std::span<const double> y_ext,
                           std::span<double> band_rows) const override;
  void rhs_and_diagonal_batch(std::span<const std::size_t> components,
                              double t, std::span<const double> windows,
                              std::span<double> f,
                              std::span<double> dfdy) const override;
  void initial_state(std::span<double> y) const override;

 private:
  // Window slot helpers: slot for global offset d from j is 2 + d.
  static double slot(std::span<const double> w, std::ptrdiff_t d) {
    return w[static_cast<std::size_t>(2 + d)];
  }

  Params params_;
  double diffusion_;
};

}  // namespace aiac::ode
