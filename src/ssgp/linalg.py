"""Gaussian correlation kernel and dense SPD linear algebra.

Correlation matrices here always have unit diagonal before the nugget is
added.  Everything downstream works with the lower Cholesky factor: the
log-determinant comes from its diagonal and solves are forward/backward
substitutions.  The one explicit inverse is the likelihood gradient's,
which reads every entry of R^-1.  CorrFactor holds one factor together
with what the likelihood, the sampler and the predictor reuse: log det R,
1'R^-1 1 and the GLS mean, each computed once when the factor is built.

Arguments are checked at the entry points: corr_matrix_from_sqdiffs,
CorrFactor.from_lower and solve_with_chol.  corr_factor and corr_cholesky
factor the matrix they build from checked theta through _cholesky, which
keeps only the breakdown and pivot tests.
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
    if not ((0 <= theta) & (theta < np.inf)).all():
        raise ValueError("theta entries must be finite and non-negative")
    if nugget < 0:
        raise ValueError("nugget must be non-negative")
    # sqdiffs @ -theta is -(sqdiffs @ theta) bitwise: rounding is symmetric
    # in sign.  Negating the d-vector saves a pass over the n x n result.
    r = sqdiffs.reshape(n * n, d) @ -theta
    np.exp(r, out=r)
    r[:: n + 1] += nugget
    return r.reshape(n, n)


def _cholesky(m) -> np.ndarray:
    # Lower factor of a symmetric matrix; potrf reads only its lower
    # triangle.  NotPositiveDefiniteError on a breakdown or a pivot at or
    # below PIVOT_TOL, so the caller rejects or escalates the nugget.
    lower, info = dpotrf(m, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefiniteError(f"leading minor of order {info} is not positive definite")
    if np.any(lower.diagonal() ** 2 <= PIVOT_TOL):
        raise NotPositiveDefiniteError(f"pivot at or below tolerance {PIVOT_TOL}")
    return lower


def _check_finite(*arrays):
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def solve_with_chol(lower, b) -> np.ndarray:
    """Solve M v = b for M = lower @ lower.T."""
    lower = np.asarray(lower, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != lower.shape[0]:
        raise ValueError(f"dimension mismatch: factor is {lower.shape[0]}, b has {b.shape[0]} rows")
    _check_finite(lower, b)
    return dpotrs(lower, b, lower=1)[0]


@dataclass(frozen=True)
class CorrFactor:
    """One Cholesky factorization R = L L' and what its readers reuse.

    Built once per theta at one nugget, with everything that depends only
    on R and y: the lower factor, log det R, w1 = L^-1 1, 1'R^-1 1 and the
    GLS mean (1'R^-1 1)^-1 1'R^-1 y, the last two dot products of the
    columns of one two-column triangular solve [L^-1 1, L^-1 y].  A
    quadratic form (y - mu)'R^-1(y - mu) is |L^-1 (y - mu)|^2 from one
    triangular solve of the residual; the last one is kept, so the Gibbs
    scan's sigma2 and phi steps share it.
    """

    lower: np.ndarray
    y: np.ndarray
    log_det: float
    w1: np.ndarray
    one_rinv_one: float
    gls_mean: float
    # [mu, quad] of the last quad(mu) call.
    _last_quad: list = field(default_factory=lambda: [None, None], repr=False, compare=False)

    @classmethod
    def from_lower(cls, lower, y) -> "CorrFactor":
        """Factor object for R = lower lower' and responses y, both checked."""
        lower = np.asarray(lower, dtype=float)
        y = np.asarray(y, dtype=float)
        if y.shape != (lower.shape[0],):
            raise ValueError(f"dimension mismatch: factor is {lower.shape[0]}, y has shape {y.shape}")
        _check_finite(lower, y)
        diag = lower.diagonal()
        if (diag <= 0).any():
            raise ValueError("invalid Cholesky factor: non-positive diagonal")
        rhs = np.empty((len(y), 2), order="F")
        rhs[:, 0] = 1.0
        rhs[:, 1] = y
        w = dtrtrs(lower, rhs, lower=1)[0]
        w1 = w[:, 0]
        one_rinv_one = float(w1 @ w1)
        gls_mean = float(w1 @ w[:, 1]) / one_rinv_one
        return cls(lower, y, float(2.0 * np.log(diag).sum()), w1, one_rinv_one, gls_mean)

    def quad(self, mu) -> float:
        """(y - mu)'R^-1(y - mu); non-negative by construction."""
        last_mu, value = self._last_quad
        if mu != last_mu:
            v = dtrtrs(self.lower, self.y - mu, lower=1)[0]
            value = float(v @ v)
            self._last_quad[:] = (mu, value)
        return value

    def whiten(self, b) -> np.ndarray:
        """L^-1 b by one triangular solve; b is not checked."""
        return dtrtrs(self.lower, b, lower=1)[0]

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
    return CorrFactor.from_lower(_cholesky(corr_matrix_from_sqdiffs(sqdiffs, theta, nugget)), y)


def corr_cholesky(points, theta, nugget: float = DEFAULT_NUGGET, sqdiffs=None):
    """Correlation matrix Cholesky with automatic nugget escalation.

    Tries `nugget` first and multiplies by 10 after each positive-definiteness
    failure, up to MAX_NUGGET.  Each attempt is the fixed-nugget
    factorization that corr_factor uses.  Returns (lower, nugget_used);
    raises IllConditionedError when even the maximum nugget fails.
    """
    if sqdiffs is None:
        sqdiffs = pairwise_sqdiffs(points)
    attempt = nugget
    while True:
        try:
            lower = _cholesky(corr_matrix_from_sqdiffs(sqdiffs, theta, attempt))
            return lower, attempt
        except NotPositiveDefiniteError:
            if attempt >= MAX_NUGGET:
                raise IllConditionedError(
                    f"correlation matrix not positive definite at nugget {attempt:g}"
                ) from None
            attempt = min(max(attempt * 10.0, DEFAULT_NUGGET), MAX_NUGGET)
