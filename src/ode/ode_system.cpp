#include "ode/ode_system.hpp"

#include <stdexcept>

namespace aiac::ode {

void OdeSystem::extract_window(std::span<const double> y, std::size_t j,
                               std::span<double> window) const {
  const std::size_t s = stencil_halfwidth();
  if (window.size() != 2 * s + 1)
    throw std::invalid_argument("extract_window: wrong window size");
  const std::size_t n = dimension();
  for (std::size_t slot = 0; slot < window.size(); ++slot) {
    const std::ptrdiff_t idx =
        static_cast<std::ptrdiff_t>(j) + static_cast<std::ptrdiff_t>(slot) -
        static_cast<std::ptrdiff_t>(s);
    window[slot] = (idx >= 0 && idx < static_cast<std::ptrdiff_t>(n))
                       ? y[static_cast<std::size_t>(idx)]
                       : 0.0;
  }
}

void OdeSystem::jacobian_band_row(std::size_t j, double t,
                                  std::span<const double> window,
                                  std::span<double> band) const {
  const std::size_t s = stencil_halfwidth();
  if (band.size() != 2 * s + 1)
    throw std::invalid_argument("jacobian_band_row: wrong band size");
  const std::size_t n = dimension();
  for (std::size_t slot = 0; slot < band.size(); ++slot) {
    const std::ptrdiff_t k =
        static_cast<std::ptrdiff_t>(j) + static_cast<std::ptrdiff_t>(slot) -
        static_cast<std::ptrdiff_t>(s);
    band[slot] = (k >= 0 && k < static_cast<std::ptrdiff_t>(n))
                     ? rhs_partial(j, static_cast<std::size_t>(k), t, window)
                     : 0.0;
  }
}

void OdeSystem::rhs_range(std::size_t first, std::size_t count, double t,
                          std::span<const double> y_ext,
                          std::span<double> out) const {
  const std::size_t width = window_size();
  if (y_ext.size() != count + width - 1)
    throw std::invalid_argument("rhs_range: wrong y_ext size");
  if (out.size() != count)
    throw std::invalid_argument("rhs_range: wrong out size");
  // Sliding sub-spans of y_ext ARE the per-component windows — no copy.
  for (std::size_t r = 0; r < count; ++r)
    out[r] = rhs_component(first + r, t, y_ext.subspan(r, width));
}

void OdeSystem::jacobian_band_range(std::size_t first, std::size_t count,
                                    double t, std::span<const double> y_ext,
                                    std::span<double> band_rows) const {
  const std::size_t width = window_size();
  if (y_ext.size() != count + width - 1)
    throw std::invalid_argument("jacobian_band_range: wrong y_ext size");
  if (band_rows.size() != count * width)
    throw std::invalid_argument("jacobian_band_range: wrong band size");
  for (std::size_t r = 0; r < count; ++r)
    jacobian_band_row(first + r, t, y_ext.subspan(r, width),
                      band_rows.subspan(r * width, width));
}

void OdeSystem::rhs_and_diagonal_batch(std::span<const std::size_t> components,
                                       double t,
                                       std::span<const double> windows,
                                       std::span<double> f,
                                       std::span<double> dfdy) const {
  const std::size_t width = window_size();
  const std::size_t n = components.size();
  if (windows.size() != n * width || f.size() != n || dfdy.size() != n)
    throw std::invalid_argument("rhs_and_diagonal_batch: size mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = components[i];
    const auto window = windows.subspan(i * width, width);
    f[i] = rhs_component(j, t, window);
    dfdy[i] = rhs_partial(j, j, t, window);
  }
}

void OdeSystem::rhs_full(double t, std::span<const double> y,
                         std::span<double> dydt) const {
  const std::size_t n = dimension();
  if (y.size() != n || dydt.size() != n)
    throw std::invalid_argument("rhs_full: size mismatch");
  std::vector<double> window(window_size());
  for (std::size_t j = 0; j < n; ++j) {
    extract_window(y, j, window);
    dydt[j] = rhs_component(j, t, window);
  }
}

}  // namespace aiac::ode
