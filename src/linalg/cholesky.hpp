#pragma once
/// \file cholesky.hpp
/// \brief Cholesky factorization and SPD solves.

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace hatrix::la {

/// potrf met a pivot that is not positive: the factored matrix is not
/// positive definite. `pivot()` is the failing column of the whole matrix
/// handed to potrf. The HSS-ULV factorization rethrows it located with the
/// tree `level()` and `node()` whose block failed; both are -1 otherwise.
class NotPositiveDefiniteError : public Error {
 public:
  explicit NotPositiveDefiniteError(index_t pivot, int level = -1, index_t node = -1);

  [[nodiscard]] index_t pivot() const { return pivot_; }
  [[nodiscard]] int level() const { return level_; }
  [[nodiscard]] index_t node() const { return node_; }

  /// The same failure, located at HSS-ULV node (level, node).
  [[nodiscard]] NotPositiveDefiniteError at(int level, index_t node) const;

 private:
  index_t pivot_;
  int level_;
  index_t node_;
};

/// In-place lower Cholesky A = L·Lᵀ. Only the lower triangle of `a` is
/// referenced; on return the matrix holds exactly L (the strict upper
/// triangle is zeroed). Throws NotPositiveDefiniteError (a hatrix::Error)
/// if a non-positive pivot is met. Blocked right-looking algorithm: lane
/// kernels on the 64-row diagonal blocks, the dispatched trsm/syrk on the
/// panels, in both precisions.
void potrf(MatrixView a);
void potrf(MatrixViewF a);

/// Solve A·X = B given the lower Cholesky factor L from potrf (B is
/// overwritten with the solution).
void potrs(ConstMatrixView l, MatrixView b);

/// Convenience: solve SPD system A·X = B without destroying A; returns X.
Matrix solve_spd(ConstMatrixView a, ConstMatrixView b);

}  // namespace hatrix::la
