"""Gaussian correlation kernel and dense SPD linear algebra.

Correlation matrices here always have unit diagonal before the nugget is
added.  Everything downstream works with the lower Cholesky factor: the
log-determinant comes from its diagonal and solves are forward/backward
substitutions.  The one explicit inverse is the likelihood gradient's,
which reads every entry of R^-1.  CorrFactor holds one factor together
with what the likelihood, the sampler and the predictor reuse.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .errors import IllConditionedError, NotPositiveDefiniteError

DEFAULT_NUGGET = 1e-8
MAX_NUGGET = 1e-4

# Cholesky pivot (squared diagonal entry) at or below this is treated as
# a positive-definiteness failure.
PIVOT_TOL = 1e-12


def pairwise_sqdiffs(points) -> np.ndarray:
    """Per-dimension squared differences, shape (n, n, d).

    Precompute once per design; the correlation matrix for any theta is then
    a single contraction away (see corr_matrix_from_sqdiffs).
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"points must be a non-empty (n, d) array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite design point")
    diff = x[:, None, :] - x[None, :, :]
    return diff * diff


def corr_matrix_from_sqdiffs(sqdiffs, theta, nugget: float = DEFAULT_NUGGET) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    n, _, d = sqdiffs.shape
    if theta.shape != (d,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({d},)")
    if (theta < 0).any():
        raise ValueError("theta entries must be non-negative")
    if nugget < 0:
        raise ValueError("nugget must be non-negative")
    # sqdiffs @ -theta is -(sqdiffs @ theta) bitwise: rounding is symmetric
    # in sign.  Negating the d-vector saves a pass over the n x n result.
    r = sqdiffs.reshape(n * n, d) @ -theta
    np.exp(r, out=r)
    r[:: n + 1] += nugget
    return r.reshape(n, n)


def chol_decompose(m) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    The one factoring routine: corr_factor and every attempt of
    corr_cholesky go through it.  Raises ValueError for a matrix that is
    not square or not symmetric within np.allclose tolerances (a NaN entry
    fails), and NotPositiveDefiniteError when the factorization breaks down
    or any pivot falls at or below PIVOT_TOL, signalling the caller to retry
    with a larger nugget.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    # np.allclose(m, m.T, rtol=1e-10, atol=1e-12) without its overhead: an
    # exactly symmetric matrix passes at once, as equal entries (infinite
    # ones too) pass allclose; any other is held to the allclose predicate,
    # which a NaN fails.
    mt = m.T
    if not ((m == mt).all() or (np.abs(m - mt) <= 1e-12 + 1e-10 * np.abs(mt)).all()):
        raise ValueError("matrix is not symmetric")
    lower, info = dpotrf(m, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefiniteError(f"leading minor of order {info} is not positive definite")
    if np.any(lower.diagonal() ** 2 <= PIVOT_TOL):
        raise NotPositiveDefiniteError(f"pivot at or below tolerance {PIVOT_TOL}")
    return lower


def log_det_from_chol(lower) -> float:
    """log det M for M = lower @ lower.T, via 2 * sum(log diag(lower))."""
    diag = np.asarray(lower).diagonal()
    if (diag <= 0).any():
        raise ValueError("invalid Cholesky factor: non-positive diagonal")
    return float(2.0 * np.log(diag).sum())


def _check_finite(a):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def solve_with_chol(lower, b) -> np.ndarray:
    """Solve M v = b for M = lower @ lower.T."""
    lower = np.asarray(lower, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != lower.shape[0]:
        raise ValueError(f"dimension mismatch: factor is {lower.shape[0]}, b has {b.shape[0]} rows")
    _check_finite(lower)
    _check_finite(b)
    return dpotrs(lower, b, lower=1)[0]


def _whiten(lower, b) -> np.ndarray:
    # L^-1 b by one triangular solve; the factor's diagonal is positive.
    _check_finite(b)
    return dtrtrs(lower, b, lower=1)[0]


@dataclass(frozen=True)
class CorrFactor:
    """One Cholesky factorization R = L L' and what its readers reuse.

    Built once per theta at one nugget: the lower factor, log det R, and
    L^-1 1 and L^-1 y from one two-column triangular solve, so 1'R^-1 1,
    1'R^-1 y and the GLS mean are dot products.  A quadratic form
    (y - mu)'R^-1(y - mu) is |L^-1 (y - mu)|^2 from one triangular solve of
    the residual; the last one is kept, so the Gibbs scan's sigma2 and phi
    steps share it.
    """

    lower: np.ndarray
    y: np.ndarray
    log_det: float
    w1: np.ndarray
    wy: np.ndarray
    # [mu, quad] of the last quad(mu) call.
    _last_quad: list = field(default_factory=lambda: [None, None], repr=False, compare=False)

    @classmethod
    def from_lower(cls, lower, y) -> "CorrFactor":
        """Factor object for R = lower lower' and responses y."""
        lower = np.asarray(lower, dtype=float)
        y = np.asarray(y, dtype=float)
        if y.shape != (lower.shape[0],):
            raise ValueError(f"dimension mismatch: factor is {lower.shape[0]}, y has shape {y.shape}")
        _check_finite(lower)
        log_det = log_det_from_chol(lower)
        rhs = np.empty((len(y), 2), order="F")
        rhs[:, 0] = 1.0
        rhs[:, 1] = y
        w = _whiten(lower, rhs)
        return cls(lower, y, log_det, w[:, 0], w[:, 1])

    @property
    def one_rinv_one(self) -> float:
        return float(self.w1 @ self.w1)

    @property
    def gls_mean(self) -> float:
        """(1'R^-1 1)^-1 1'R^-1 y."""
        return float(self.w1 @ self.wy) / self.one_rinv_one

    def quad(self, mu) -> float:
        """(y - mu)'R^-1(y - mu); non-negative by construction."""
        last_mu, value = self._last_quad
        if mu != last_mu:
            v = _whiten(self.lower, self.y - mu)
            value = float(v @ v)
            self._last_quad[:] = (mu, value)
        return value

    def whiten(self, b) -> np.ndarray:
        """L^-1 b."""
        return _whiten(self.lower, b)

    def inverse(self) -> np.ndarray:
        """R^-1 = V'V with V = L^-1 from one triangular solve."""
        v = self.whiten(np.eye(len(self.y)))
        return v.T @ v


def corr_factor(sqdiffs, theta, nugget: float, y) -> CorrFactor:
    """CorrFactor of R(theta) + nugget I at exactly `nugget`.

    Raises NotPositiveDefiniteError instead of escalating the nugget: a
    caller whose target is defined at one nugget (the sampler) must not
    switch to another.
    """
    return CorrFactor.from_lower(chol_decompose(corr_matrix_from_sqdiffs(sqdiffs, theta, nugget)), y)


def corr_cholesky(points, theta, nugget: float = DEFAULT_NUGGET, sqdiffs=None):
    """Correlation matrix Cholesky with automatic nugget escalation.

    Tries `nugget` first and multiplies by 10 after each positive-definiteness
    failure, up to MAX_NUGGET.  Each attempt is the fixed-nugget
    chol_decompose that corr_factor uses.  Returns (lower, nugget_used);
    raises IllConditionedError when even the maximum nugget fails.
    """
    if sqdiffs is None:
        sqdiffs = pairwise_sqdiffs(points)
    attempt = nugget
    while True:
        try:
            lower = chol_decompose(corr_matrix_from_sqdiffs(sqdiffs, theta, attempt))
            return lower, attempt
        except NotPositiveDefiniteError:
            if attempt >= MAX_NUGGET:
                raise IllConditionedError(
                    f"correlation matrix not positive definite at nugget {attempt:g}"
                ) from None
            attempt = min(max(attempt * 10.0, DEFAULT_NUGGET), MAX_NUGGET)
