// Componentwise ODE system interface.
//
// The AIAC engine distributes the *components* of y' = f(t, y) over
// processors (paper eq. (2)); all it needs from a problem is per-component
// evaluation of f and of the Jacobian entries within a banded stencil.
// Components couple only within `stencil_halfwidth()` indices of each
// other, which is what makes the linear processor chain with two ghost
// components per side (paper §5) correct.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace aiac::ode {

/// Fixed-size view of the components a single f_j may read:
/// window[stencil + d] holds y_{j+d} for d in [-stencil, +stencil].
/// Entries that would fall outside [0, dimension) are never read; the
/// system substitutes its boundary conditions internally.
class OdeSystem {
 public:
  virtual ~OdeSystem() = default;

  /// Number of components of y.
  virtual std::size_t dimension() const noexcept = 0;

  /// Coupling halfwidth in component-index space.
  virtual std::size_t stencil_halfwidth() const noexcept = 0;

  /// f_j(t, y) given the stencil window around j.
  virtual double rhs_component(std::size_t j, double t,
                               std::span<const double> window) const = 0;

  /// d f_j / d y_k for |k - j| <= stencil_halfwidth(). k indexes globally.
  virtual double rhs_partial(std::size_t j, std::size_t k, double t,
                             std::span<const double> window) const = 0;

  /// Whole banded Jacobian row of f_j in one call:
  /// band[stencil + d] = d f_j / d y_{j+d} for d in [-stencil, +stencil],
  /// zero for offsets falling outside [0, dimension()). `band` has size
  /// window_size(). The default loops rhs_partial (2s+1 virtual calls);
  /// concrete systems override it with one fused evaluation — the batched
  /// assembly the banded Newton kernel uses, where the per-entry virtual
  /// dispatch otherwise dominates Jacobian cost.
  virtual void jacobian_band_row(std::size_t j, double t,
                                 std::span<const double> window,
                                 std::span<double> band) const;

  /// Batched RHS over the contiguous component range [first, first +
  /// count). `y_ext` holds count + 2*stencil values laid out so that the
  /// window of local row r is y_ext[r .. r + 2*stencil]; slots whose
  /// global index falls outside [0, dimension()) must be zero (a correct
  /// system never reads them). Writes f_{first+r} into out[r].
  ///
  /// The default walks rhs_component over sliding sub-spans of y_ext —
  /// one virtual call per component. Systems on the solver hot path
  /// override it with a single fused loop: the block Newton kernel
  /// evaluates the residual through this entry point every iteration, and
  /// per-component virtual dispatch is most of its cost.
  virtual void rhs_range(std::size_t first, std::size_t count, double t,
                         std::span<const double> y_ext,
                         std::span<double> out) const;

  /// Batched Jacobian band rows over [first, first + count): row r's band
  /// lands at band_rows[r * window_size() ..], with the same slot
  /// convention as jacobian_band_row. `y_ext` as in rhs_range. The
  /// default loops jacobian_band_row.
  virtual void jacobian_band_range(std::size_t first, std::size_t count,
                                   double t, std::span<const double> y_ext,
                                   std::span<double> band_rows) const;

  /// f_j and d f_j / d y_j for an arbitrary list of components in one call
  /// (the lockstep scalar Newton kernel's evaluation). Row i is component
  /// components[i] with its own stencil window at windows[i *
  /// window_size() ..], packed back to back; f[i] and dfdy[i] receive the
  /// results. The default loops rhs_component and rhs_partial(j, j) — two
  /// virtual calls per row. An override must return bitwise the values of
  /// that default: the scalar solver's trajectories (and through them the
  /// virtual clock and every balancing decision) are pinned to it.
  virtual void rhs_and_diagonal_batch(std::span<const std::size_t> components,
                                      double t,
                                      std::span<const double> windows,
                                      std::span<double> f,
                                      std::span<double> dfdy) const;

  /// Initial condition y(0) into `y` (size dimension()).
  virtual void initial_state(std::span<double> y) const = 0;

  /// Full right-hand side; default loops rhs_component over a sliding
  /// window. `y` and `dydt` have size dimension().
  virtual void rhs_full(double t, std::span<const double> y,
                        std::span<double> dydt) const;

  /// Window width = 2*stencil_halfwidth() + 1.
  std::size_t window_size() const noexcept {
    return 2 * stencil_halfwidth() + 1;
  }

  /// Copies the window around component j from a full state vector,
  /// zero-filling out-of-range slots (which rhs_component never reads).
  void extract_window(std::span<const double> y, std::size_t j,
                      std::span<double> window) const;
};

}  // namespace aiac::ode
