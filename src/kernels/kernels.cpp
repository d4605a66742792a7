#include "kernels/kernels.hpp"

#include <cmath>

#include "common/error.hpp"
#include "kernels/bessel.hpp"

namespace hatrix::kernels {

double Laplace2D::operator()(const geom::Point& x, const geom::Point& y) const {
  return -std::log(eps_ + geom::dist(x, y));
}

double Yukawa::operator()(const geom::Point& x, const geom::Point& y) const {
  const double r = theta_ + geom::dist(x, y);
  return std::exp(-alpha_ * r) / r;
}

Matern::Matern(double sigma, double mu, double rho)
    : sigma_(sigma),
      mu_(mu),
      rho_(rho),
      scale_(sigma * sigma / (std::pow(2.0, rho - 1.0) * std::tgamma(rho))) {}

double Matern::operator()(const geom::Point& x, const geom::Point& y) const {
  const double r = geom::dist(x, y);
  if (r == 0.0) return sigma_ * sigma_;
  const double z = r / mu_;
  if (rho_ == 0.5) return sigma_ * sigma_ * std::exp(-z);
  const double k = bessel_k(rho_, z);
  if (k == 0.0) return 0.0;  // underflow at long range
  return scale_ * std::pow(z, rho_) * k;
}

double Gaussian::operator()(const geom::Point& x, const geom::Point& y) const {
  const double r = geom::dist(x, y);
  return std::exp(-r * r / (2.0 * l_ * l_));
}

double Laplace3D::operator()(const geom::Point& x, const geom::Point& y) const {
  return 1.0 / (eps_ + geom::dist(x, y));
}

double InverseMultiquadric::operator()(const geom::Point& x,
                                       const geom::Point& y) const {
  const double r = geom::dist(x, y);
  return 1.0 / std::sqrt(c_ * c_ + r * r);
}

std::unique_ptr<Kernel> make_kernel(const std::string& name) {
  if (name == "laplace2d") return std::make_unique<Laplace2D>();
  if (name == "yukawa") return std::make_unique<Yukawa>();
  if (name == "matern") return std::make_unique<Matern>();
  if (name == "gaussian") return std::make_unique<Gaussian>();
  if (name == "laplace3d") return std::make_unique<Laplace3D>();
  if (name == "imq") return std::make_unique<InverseMultiquadric>();
  throw Error("unknown kernel: " + name);
}

}  // namespace hatrix::kernels
