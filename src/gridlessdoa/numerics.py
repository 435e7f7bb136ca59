"""Dense complex linear algebra and root finding used throughout the package.

Everything operates on small dense matrices (orders up to ~128) and is
backed by numpy's LAPACK: the Hermitian eigensolver, the Cholesky
factorization (positive definite inputs only), and the polynomial root
finder, which takes the eigenvalues of the companion matrix.  The wrappers
add input checks and map failures to ``NumericsError``.  Tolerances are
relative to the input scale with an absolute floor of 1e-14.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ABS_FLOOR = 1e-14


class NumericsError(Exception):
    pass


class NotPositiveDefiniteError(NumericsError):
    """Cholesky pivot was not strictly positive."""


@dataclass(frozen=True)
class EigenPair:
    """Eigendecomposition of a Hermitian matrix.

    ``values`` are real and ascending, ``vectors`` has the matching
    eigenvectors as columns and is unitary.
    """

    values: np.ndarray
    vectors: np.ndarray


def _as_square_complex(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumericsError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericsError("matrix has non-finite entries")
    return a


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (A + A^H)/2."""
    a = np.asarray(a, dtype=np.complex128)
    return 0.5 * (a + a.conj().T)


def herm_eig(a: np.ndarray) -> EigenPair:
    """Eigendecomposition of a complex Hermitian matrix (LAPACK ``heevd``).

    The input is symmetrized on entry; an asymmetry above ``1e-8 * norm(A)``
    is an error.  Eigenvalues come back ascending and the reconstruction
    ``V diag(w) V^H`` matches the input to ~1e-14 relative.
    """
    a = _as_square_complex(a)
    if np.linalg.norm(a - a.conj().T) > max(1e-8 * np.linalg.norm(a), ABS_FLOOR):
        raise NumericsError("matrix is not Hermitian")
    values, vectors = np.linalg.eigh(hermitian_part(a))
    return EigenPair(values=values, vectors=vectors)


def chol_factor(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with A = L L^H, read from A's lower triangle only.

    L keeps A's dtype (a real A gets a real L).  A is neither copied nor
    scanned: a non-finite entry gives a non-finite pivot, checked on L's
    diagonal, or makes LAPACK fail, and only then is A checked.  Non-finite
    input raises ``NumericsError``; a finite A that is not positive definite
    raises ``NotPositiveDefiniteError``.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NumericsError(f"expected a square matrix, got shape {a.shape}")
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        if not np.isfinite(a).all():
            raise NumericsError("matrix has non-finite entries") from None
        raise NotPositiveDefiniteError("matrix not positive definite") from None
    if not np.isfinite(low.diagonal()).all():
        raise NumericsError("matrix has non-finite entries")
    return low


def inv_from_factor(low: np.ndarray) -> np.ndarray:
    """Hermitian ``(L L^H)^{-1} = L^{-H} L^{-1}`` from one inverse of the lower factor L.

    The one way a factor is applied: a solve is a product with this inverse.
    """
    low_inv = np.linalg.inv(low)
    return hermitian_part(low_inv.conj().T @ low_inv)


def inv_pd(a: np.ndarray) -> np.ndarray:
    """Inverse of a Hermitian positive definite matrix."""
    return inv_from_factor(chol_factor(a))


def logdet_from_factor(low: np.ndarray) -> float:
    """log det(L L^H) from the lower Cholesky factor L."""
    return float(2.0 * np.log(low.diagonal().real).sum())


def gaussian_nll(a: np.ndarray, r: np.ndarray) -> float:
    """``log det A + tr(A^{-1} R)`` for Hermitian positive definite A."""
    low = chol_factor(a)
    return logdet_from_factor(low) + float(np.vdot(inv_from_factor(low), r).real)


def poly_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of a polynomial: the eigenvalues of its companion matrix.

    ``coeffs`` are in ascending power order,
    ``p(z) = coeffs[0] + coeffs[1] z + ... + coeffs[-1] z^degree``, and the
    leading coefficient must have magnitude above 1e-14.  Returns a complex
    array of length ``degree``, unordered; a non-finite root is an error.
    """
    c = np.asarray(coeffs, dtype=np.complex128).ravel()
    if c.size < 2:
        raise NumericsError("polynomial degree must be at least 1")
    if not np.all(np.isfinite(c)):
        raise NumericsError("polynomial has non-finite coefficients")
    if abs(c[-1]) <= ABS_FLOOR:
        raise NumericsError("leading coefficient is (numerically) zero")
    try:
        roots = np.roots(c[::-1])
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"companion eigenvalues failed: {exc}") from None
    if not np.all(np.isfinite(roots)):
        raise NumericsError("polynomial has non-finite roots")
    return roots
