"""Dense linear algebra for small (k <= 16) real matrices.

Sized for stability certificates of low-dimensional averaged systems.
Solves, eigenvalues and Cholesky factors are LAPACK calls through
``numpy.linalg``, whose failures surface as ``Singular`` (``NoConvergence``
for eigenvalues); 2x2 spectra use a closed form, so two-dimensional verdicts
do not depend on the LAPACK build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, Singular

__all__ = ["Spectrum", "solve", "eigenvalues", "eig2x2", "cholesky"]


def _as_square(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return A


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by real part, then imaginary part (ascending)."""

    values: np.ndarray          # complex, shape (k,)

    @property
    def max_real(self) -> float:
        return float(np.max(self.values.real))


def _lapack(fn, *args, error=Singular):
    """fn(*args) for a numpy.linalg routine, its LinAlgError raised as `error`."""
    try:
        return fn(*args)
    except np.linalg.LinAlgError as exc:
        raise error(f"{fn.__name__}: {exc}") from exc


def _nonsingular(A) -> np.ndarray:
    """A as a float square matrix; Singular when sigma_min <= 1e-13 |A|_F."""
    A = _as_square(A)
    smin = float(np.linalg.svd(A, compute_uv=False)[-1])
    thresh = 1e-13 * float(np.linalg.norm(A))
    if smin <= thresh:
        raise Singular(f"sigma_min {smin:.3e} below threshold {thresh:.3e}")
    return A


def solve(A, b) -> np.ndarray:
    """Solve A x = b (LAPACK gesv); b may be a vector or matrix."""
    return _lapack(np.linalg.solve, _nonsingular(A), np.asarray(b, dtype=float))


# --- eigenvalues -------------------------------------------------------------

def eig2x2(a, b, c, d):
    """Eigenvalues of [[a, b], [c, d]], stable against cancellation."""
    m = 0.5 * (a + d)
    p = 0.5 * (a - d)
    disc = p * p + b * c
    if disc >= 0.0:
        s = math.sqrt(disc)
        l1 = m + s if m >= 0.0 else m - s
        detm = a * d - b * c
        l2 = detm / l1 if l1 != 0.0 else m - math.copysign(s, m)
        return complex(l1), complex(l2)
    s = math.sqrt(-disc)
    return complex(m, s), complex(m, -s)


def eigenvalues(A) -> Spectrum:
    """All eigenvalues of a real square matrix (k <= 16).

    k = 2 uses the closed form `eig2x2`; every other size uses LAPACK
    (``numpy.linalg.eigvals``).
    """
    A = _as_square(A)
    n = A.shape[0]
    if n > 16:
        raise ValueError("eigenvalues() is limited to k <= 16")
    if n == 2:
        vals = np.array(eig2x2(A[0, 0], A[0, 1], A[1, 0], A[1, 1]))
    else:
        vals = _lapack(np.linalg.eigvals, A, error=NoConvergence).astype(complex)
    return Spectrum(vals[np.lexsort((vals.imag, vals.real))])


# --- Cholesky ----------------------------------------------------------------

def cholesky(P) -> np.ndarray:
    """Lower-triangular L with P = L L'; raises Singular if P is not SPD."""
    return _lapack(np.linalg.cholesky, _as_square(P))
