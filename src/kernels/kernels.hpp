#pragma once
/// \file kernels.hpp
/// \brief Green's-function kernels from Table 3 of the paper.
///
/// Each kernel maps a pair of points to a matrix entry. The constants
/// default to the paper's values. All kernels are symmetric; the geometries
/// and constants used in the evaluation make the resulting matrices
/// symmetric positive definite (tests assert this).

#include <memory>
#include <string>

#include "geometry/domain.hpp"

namespace hatrix::kernels {

/// Interface for a radial Green's-function kernel entry generator.
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Matrix entry for the point pair (x, y).
  [[nodiscard]] virtual double operator()(const geom::Point& x,
                                          const geom::Point& y) const = 0;

  /// Human-readable kernel name for reports.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Laplace 2D: f(x,y) = -ln(eps + dist(x,y)), eps = 1e-9 (paper Table 3).
class Laplace2D final : public Kernel {
 public:
  explicit Laplace2D(double eps = 1e-9) : eps_(eps) {}
  double operator()(const geom::Point& x, const geom::Point& y) const override;
  [[nodiscard]] std::string name() const override { return "laplace2d"; }

 private:
  double eps_;
};

/// Yukawa (screened Coulomb): f(x,y) = e^{-alpha (theta + r)} / (theta + r),
/// alpha = 1, theta = 1e-9 (paper Table 3).
class Yukawa final : public Kernel {
 public:
  explicit Yukawa(double alpha = 1.0, double theta = 1e-9)
      : alpha_(alpha), theta_(theta) {}
  double operator()(const geom::Point& x, const geom::Point& y) const override;
  [[nodiscard]] std::string name() const override { return "yukawa"; }

 private:
  double alpha_;
  double theta_;
};

/// Matérn covariance:
/// f(r) = sigma^2 / (2^{rho-1} Gamma(rho)) * (r/mu)^rho * K_rho(r/mu) for
/// r > 0, and sigma^2 at r = 0. Paper constants: sigma = 1, mu = 0.03,
/// rho = 0.5 (the exponential covariance).
///
/// The normalizing constant sigma^2 / (2^{rho-1} Gamma(rho)) is computed
/// once, at construction. At rho = 1/2 the kernel is evaluated in closed
/// form as sigma^2 e^{-r/mu} (K_{1/2}(z) = sqrt(pi/(2z)) e^{-z}), about 5x
/// cheaper per entry than the Bessel route; other orders take the general
/// route.
class Matern final : public Kernel {
 public:
  explicit Matern(double sigma = 1.0, double mu = 0.03, double rho = 0.5);
  double operator()(const geom::Point& x, const geom::Point& y) const override;
  [[nodiscard]] std::string name() const override { return "matern"; }

 private:
  double sigma_;
  double mu_;
  double rho_;
  double scale_;  ///< sigma^2 / (2^{rho-1} Gamma(rho))
};

/// Gaussian (squared-exponential) covariance: f(r) = exp(-r^2 / (2 l^2)).
/// Not in the paper's evaluation; provided for the geostatistics example.
class Gaussian final : public Kernel {
 public:
  explicit Gaussian(double length_scale = 0.1) : l_(length_scale) {}
  double operator()(const geom::Point& x, const geom::Point& y) const override;
  [[nodiscard]] std::string name() const override { return "gaussian"; }

 private:
  double l_;
};

/// Laplace 3D Green's function: f(r) = 1 / (eps + r). The 3D counterpart of
/// the paper's Laplace 2D kernel (used by the H²/3D line of work the paper
/// builds on); enables the grid3d geometry in examples and tests.
class Laplace3D final : public Kernel {
 public:
  explicit Laplace3D(double eps = 1e-9) : eps_(eps) {}
  double operator()(const geom::Point& x, const geom::Point& y) const override;
  [[nodiscard]] std::string name() const override { return "laplace3d"; }

 private:
  double eps_;
};

/// Inverse multiquadric: f(r) = 1 / sqrt(c^2 + r^2) — a standard RBF that is
/// positive definite in every dimension (no regularization needed).
class InverseMultiquadric final : public Kernel {
 public:
  explicit InverseMultiquadric(double c = 0.1) : c_(c) {}
  double operator()(const geom::Point& x, const geom::Point& y) const override;
  [[nodiscard]] std::string name() const override { return "imq"; }

 private:
  double c_;
};

/// Factory by name ("laplace2d", "yukawa", "matern", "gaussian", "laplace3d",
/// "imq") with the paper's default constants; used by bench CLI flags.
std::unique_ptr<Kernel> make_kernel(const std::string& name);

}  // namespace hatrix::kernels
