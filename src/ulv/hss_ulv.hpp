#pragma once
/// \file hss_ulv.hpp
/// \brief HSS-ULV factorization and solve (Alg. 2, Eq. 16-17).
///
/// The O(N) direct factorization at the heart of the paper: per level, every
/// node's diagonal is rotated by its shared basis and partially factorized
/// independently (embarrassingly parallel within a level); the merge step
/// stitches the two children's skeleton Schur complements and their sibling
/// coupling into the parent's dense diagonal. The root block gets a plain
/// dense Cholesky.

#include <vector>

#include "common/error.hpp"
#include "format/hss.hpp"
#include "ulv/ulv_common.hpp"

namespace hatrix::ulv {

/// The factored form of an SPD HSS matrix. Holds per-node partial factors
/// plus the root Cholesky factor; solves run in O(N·rank).
///
/// Thread safety: a factorization is immutable once built. Every solve
/// entry point is const, keeps all per-solve workspace (rotated RHS pieces,
/// carried skeleton panels) in the caller's stack frame, and only reads the
/// factor data — so any number of threads may call solve()/solve_refined()
/// concurrently on one shared HSSULV with no synchronization and
/// bit-identical results (test_concurrent_solve asserts this under TSan).
class HSSULV {
 public:
  HSSULV() = default;

  /// Assemble a factorization from externally computed pieces — used by
  /// extract_factorization (hss_ulv_tasks) after the factorization DAG has
  /// run. `factors[level][node]`; `root_l` is the Cholesky factor of A_0.
  HSSULV(const fmt::HSSMatrix& a, std::vector<std::vector<NodeFactor>> factors,
         Matrix root_l)
      : a_(&a), factors_(std::move(factors)), root_l_(std::move(root_l)) {}

  /// Factorize a symmetric positive definite HSS matrix: emits the
  /// factorization DAG (emit_hss_ulv_dag, ReleaseMode::Free) and runs it in
  /// insertion order on the calling thread (rt::run_in_order), so the result
  /// is bit-identical to running the same DAG on any executor. Throws
  /// la::NotPositiveDefiniteError (a hatrix::Error) naming the tree level,
  /// node and pivot if a pivot fails (matrix not SPD on the compressed
  /// representation).
  static HSSULV factorize(const fmt::HSSMatrix& a);

  /// Solve A x = b; returns x. `b.size()` must equal `a.size()`. The
  /// one-column case of solve(ConstMatrixView): `b` is viewed as an n x 1
  /// panel, so vector and panel solves share one sweep.
  [[nodiscard]] std::vector<double> solve(const std::vector<double>& b) const;

  /// Solve A X = B for a panel of right-hand sides (n x nrhs): the one
  /// sequential solve sweep. Forward, leaves to root, each node rotates and
  /// eliminates its panel rows by gemm/trsm; the root solves the skeleton
  /// panel; backward, root to leaves, each node rebuilds its solution rows.
  /// Each node's factor blocks stream through the cache once per panel
  /// rather than once per column. Column j of the result is bit-identical
  /// to solving column j alone (the kernels' per-column determinism
  /// contract), which solve_columnwise checks. Throws hatrix::Error on a
  /// default-constructed (empty) factorization.
  [[nodiscard]] Matrix solve(la::ConstMatrixView b) const;

  /// Test oracle: one width-1 sweep of solve(ConstMatrixView) per column
  /// of B. Tests and bench_solve_throughput use it to assert that panel
  /// width never changes a column's bits and to measure the blocking's
  /// speedup; new code should call solve(ConstMatrixView).
  [[nodiscard]] Matrix solve_columnwise(la::ConstMatrixView b) const;

  /// Solve with iterative refinement: after the direct ULV solve, perform
  /// `iterations` residual-correction steps r = b - A x (A applied through
  /// the compressed matvec), x += A^{-1} r. Cheap (O(N·rank) per step) and
  /// recovers digits lost to compression roundoff — and, in MixedFP32
  /// storage mode, the digits lost to FP32 rounding of the low-rank factors.
  /// When `residual_history` is non-null it receives iterations + 1 relative
  /// residual norms ||b - A x|| / ||b||: one before each correction step and
  /// one after the last (costs one extra compressed matvec).
  [[nodiscard]] std::vector<double> solve_refined(
      const std::vector<double>& b, int iterations = 1,
      std::vector<double>* residual_history = nullptr) const;

  /// Total bytes held by the factors (complements + triangles + root).
  [[nodiscard]] std::int64_t memory_bytes() const;

  /// The matrix this factorization refers to (not owned). Throws
  /// hatrix::Error on a default-constructed (empty) factorization.
  [[nodiscard]] const fmt::HSSMatrix& matrix() const {
    HATRIX_CHECK(a_ != nullptr, "HSSULV: empty factorization (default-constructed)");
    return *a_;
  }

  /// Per-node factor access (used by the task-based solve).
  [[nodiscard]] const NodeFactor& factor(int level, index_t i) const {
    return factors_[static_cast<std::size_t>(level)][static_cast<std::size_t>(i)];
  }
  /// Cholesky factor of the root block A_0.
  [[nodiscard]] const Matrix& root_factor() const { return root_l_; }

 private:
  const fmt::HSSMatrix* a_ = nullptr;
  std::vector<std::vector<NodeFactor>> factors_;  // [level][node]
  Matrix root_l_;                                 // dense Cholesky of A_0
};

/// Convenience: relative solve error of Eq. (19),
/// || b - A^{-1} (A b) || / || b ||, using the compressed matvec for A·b.
double ulv_solve_error(const fmt::HSSMatrix& a, const HSSULV& f,
                       const std::vector<double>& b);

}  // namespace hatrix::ulv
