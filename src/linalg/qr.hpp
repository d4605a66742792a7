#pragma once
/// \file qr.hpp
/// \brief Householder QR and rank-revealing (column-pivoted, truncated) QR.
///
/// The pivoted variant is the workhorse of low-rank compression: shared HSS
/// bases are produced by truncating it at a maximum rank and/or tolerance
/// (Eq. (2) of the paper).
///
/// One packed-reflector core serves the family. A factorization leaves R on
/// and above the diagonal and Householder vector j below it (LAPACK geqrf
/// layout, v_j[0] = 1 implicit) with its scalar tau_j. `qr` and
/// `orth_complement` factor in panels of 32 columns: each panel is
/// factored reflector by reflector, then applied to the trailing columns in
/// compact-WY form I - Y·T·Yᵀ (Schreiber–Van Loan) through `la::gemm`. Q is
/// formed by applying the same WY blocks to identity columns, last block
/// first. With at most 32 reflectors (one panel) both steps run reflector by
/// reflector instead: a single panel's T and three gemm calls cost more than
/// they save, which is the small-rank case of fine leaf sizes.
///
/// `pivoted_qr` keeps a level-2 loop, since every pivot choice depends on
/// the column norms downdated after the previous reflector. It returns the
/// packed reflectors and forms Q only on request (`PivotedQrResult::q()`),
/// so callers that need only R and the permutation (the row ID) never pay
/// for it.
///
/// qr.cpp is compiled like the gemm kernels (-O3, -march=native) but with
/// -ffp-contract=off: fusing the reflector's multiply-adds into FMAs would
/// change `pivoted_qr`'s rounding, and with it the pivot sequence and every
/// basis built from it.
///
/// The unblocked `ref::qr` and `ref::orth_complement` are the conformance
/// oracle (tests/test_linalg_conformance), as `ref::potrf` is for Cholesky.

#include <vector>

#include "linalg/matrix.hpp"

namespace hatrix::la {

/// Economy QR of an m x n matrix (m >= n or m < n both supported):
/// A = Q·R with Q (m x k), R (k x n), k = min(m, n). Q has orthonormal
/// columns.
struct QrResult {
  Matrix q;
  Matrix r;
};
QrResult qr(ConstMatrixView a);

/// Truncated column-pivoted QR: A·P ≈ Q·R with Q (m x rank) orthonormal.
///
/// The factorization stops when `rank == max_rank` or when the largest
/// remaining column norm drops below `tol` (absolute) — whichever comes
/// first. `perm[j]` gives the original column index of permuted column j.
struct PivotedQrResult {
  Matrix r;                   ///< rank x n, upper trapezoidal in permuted order
  std::vector<index_t> perm;  ///< column permutation applied to A
  index_t rank = 0;
  Matrix packed;              ///< m x rank Householder vectors below the diagonal
  std::vector<double> tau;    ///< rank reflector scalars

  /// The m x rank orthonormal factor Q, formed from the packed reflectors.
  [[nodiscard]] Matrix q() const;
};
PivotedQrResult pivoted_qr(ConstMatrixView a, index_t max_rank, double tol = 0.0);

/// Orthonormal basis of the orthogonal complement of col(U) in R^m, where U
/// (m x k) has orthonormal columns: returns Q_c (m x (m-k)) with
/// [Q_c U] orthogonal. Used by the ULV factorization to form the
/// complement-first full basis U_F = [Uᴿ Uˢ] of Eq. (3).
Matrix orth_complement(ConstMatrixView u);

namespace ref {
/// Unblocked Householder QR (reflector by reflector, level 2): the oracle
/// for `la::qr`.
QrResult qr(ConstMatrixView a);
/// Unblocked orthogonal complement: the oracle for `la::orth_complement`.
Matrix orth_complement(ConstMatrixView u);
}  // namespace ref

}  // namespace hatrix::la
