// Fisher-KPP reaction-diffusion equation (traveling combustion front):
//
//   u'_i = d (N+1)^2 (u_{i-1} - 2 u_i + u_{i+1}) + r u_i (1 - u_i)
//
// with the left boundary held at the burnt state u = 1, the right at the
// unburnt state u = 0, and an initial condition that is unburnt except
// for a small ignition region on the left. The solution is a front
// traveling right at asymptotic speed 2 sqrt(d_eff r).
//
// This is the sharpest instance of the workload-evolution phenomenon the
// paper's §2 motivates residual-driven balancing with: at any moment only
// the components around the front are evolving — everything behind is
// burnt, everything ahead is still zero — so the "useful" work is a
// narrow moving window and a fixed partition leaves most processors
// idle-spinning while one does all the work.
#pragma once

#include "ode/ode_system.hpp"

namespace aiac::ode {

class FisherKpp final : public OdeSystem {
 public:
  struct Params {
    std::size_t grid_points = 200;
    double diffusion = 1.0 / 400.0;  // d; effective coefficient d (N+1)^2
    double growth = 8.0;             // r
    double ignition_width = 0.05;    // fraction of the domain lit at t=0
  };

  explicit FisherKpp(Params params);

  const Params& params() const noexcept { return params_; }
  /// Asymptotic front speed in x-units per time: 2 sqrt(d r).
  double front_speed() const noexcept;

  std::size_t dimension() const noexcept override {
    return params_.grid_points;
  }
  std::size_t stencil_halfwidth() const noexcept override { return 1; }

  double rhs_component(std::size_t j, double t,
                       std::span<const double> window) const override;
  double rhs_partial(std::size_t j, std::size_t k, double t,
                     std::span<const double> window) const override;
  void jacobian_band_row(std::size_t j, double t,
                         std::span<const double> window,
                         std::span<double> band) const override;
  /// Fused batched assembly (the block-mode hot path): boundary rows are
  /// peeled so the interior loop is branch-free, stride-1, and
  /// auto-vectorizable; values are bitwise identical to the
  /// componentwise defaults.
  void rhs_range(std::size_t first, std::size_t count, double t,
                 std::span<const double> y_ext,
                 std::span<double> out) const override;
  void jacobian_band_range(std::size_t first, std::size_t count, double t,
                           std::span<const double> y_ext,
                           std::span<double> band_rows) const override;
  /// Fused scalar-Newton evaluation (the scalar-Jacobi hot path), bitwise
  /// identical to the rhs_component/rhs_partial default.
  void rhs_and_diagonal_batch(std::span<const std::size_t> components,
                              double t, std::span<const double> windows,
                              std::span<double> f,
                              std::span<double> dfdy) const override;
  void initial_state(std::span<double> y) const override;

  /// Front position (x in [0,1]) of a state vector: the first grid point
  /// from the left where u drops below 1/2, linearly interpolated.
  static double front_position(std::span<const double> u);

 private:
  Params params_;
  double diffusion_;
};

}  // namespace aiac::ode
