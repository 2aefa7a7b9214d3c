"""Gaussian correlation kernel and dense SPD linear algebra.

Correlation matrices here always have unit diagonal before the nugget is
added.  Everything downstream works with the lower Cholesky factor: the
log-determinant comes from its diagonal and solves are forward/backward
substitutions.  The one explicit inverse is the likelihood gradient's,
which reads every entry of R^-1.  CorrFactor holds one factor together
with what the likelihood, the sampler and the predictor reuse: log det R,
1'R^-1 1 and the GLS mean, each computed once when the factor is built.

How R is built.  Every matrix that is factored here (each Gibbs proposal
through corr_factor, each nugget attempt of corr_cholesky) is built from
its strict lower triangle only.  A PairTable holds the squared coordinate
differences of the n(n-1)/2 pairs i > j; one GEMV with -theta and one exp
over its rows give the off-diagonal correlations, which are scattered into
a zeroed Fortran-order n x n buffer with 1 + nugget on the diagonal.
_cholesky factors that buffer in place, reading only its lower triangle,
so R's upper triangle is never formed.  corr_matrix_from_sqdiffs forms the
full matrix from the (n, n, d) squared differences; the likelihood
gradient reads it, and its lower triangle is bitwise the PairTable's.

Where arguments are checked.  theta and the nugget are checked where they
enter: corr_matrix_from_sqdiffs, corr_factor and corr_cholesky (theta
finite and non-negative with one entry per input; the nugget finite and
non-negative).  CorrFactor.from_lower checks a factor from outside linalg
and its responses; solve_with_chol checks its operands.  A factor that
linalg has just made is not scanned again: with theta and the nugget
finite, every entry of R is finite and every row of L has norm
sqrt(R_ii) <= sqrt(1 + nugget), so _cholesky's one diagonal test,
PIVOT_TOL < L_ii^2 < inf (with potrf's breakdown flag), rejects every
non-finite, broken-down or nearly singular factor.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

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


# Rows of a PairTable come in blocks of this many: the zero rows that pad
# the last block keep every real row out of OpenBLAS's GEMV tail kernel,
# whose last bits differ from its main kernel's.  So each off-diagonal
# entry of R is bitwise the one the full (n*n, d) product gives.
_PAIR_BLOCK = 8


class PairTable(NamedTuple):
    """The strict lower triangle of a design's squared differences.

    rows[p] holds the d squared coordinate differences of pair p = (i, j),
    i > j, column by column (j outer, i inner), followed by zero rows up to
    a multiple of _PAIR_BLOCK; index[p] = j n + i is that pair's position
    in a Fortran-order n x n buffer.
    """

    rows: np.ndarray
    index: np.ndarray
    n: int


def pair_table(sqdiffs) -> PairTable:
    """PairTable of (n, n, d) squared differences from pairwise_sqdiffs."""
    n, _, d = sqdiffs.shape
    j, i = np.triu_indices(n, 1)
    rows = np.zeros((-(-len(i) // _PAIR_BLOCK) * _PAIR_BLOCK, d))
    rows[: len(i)] = sqdiffs[i, j]
    return PairTable(rows, j * n + i, n)


def _checked_theta(theta, nugget, d) -> np.ndarray:
    # theta as a float array, once it and the nugget have passed the entry
    # checks; a NaN makes min() NaN and fails the comparison.
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (d,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({d},)")
    if not 0 <= theta.min() <= theta.max() < np.inf:
        raise ValueError("theta entries must be finite and non-negative")
    if not 0 <= nugget < np.inf:
        raise ValueError("nugget must be finite and non-negative")
    return theta


def corr_matrix_from_sqdiffs(sqdiffs, theta, nugget: float = DEFAULT_NUGGET) -> np.ndarray:
    n, _, d = sqdiffs.shape
    theta = _checked_theta(theta, nugget, d)
    # sqdiffs @ -theta is -(sqdiffs @ theta) bitwise: rounding is symmetric
    # in sign.  Negating the d-vector saves a pass over the n x n result.
    r = sqdiffs.reshape(n * n, d) @ -theta
    np.exp(r, out=r)
    r[:: n + 1] += nugget
    return r.reshape(n, n)


def _corr_lower(pairs: PairTable, theta, nugget) -> np.ndarray:
    # R(theta) + nugget I in a new Fortran-order buffer, lower triangle and
    # diagonal only (the upper triangle is zero), from checked theta and nugget.
    n, index = pairs.n, pairs.index
    r = pairs.rows @ -theta
    np.exp(r, out=r)
    m = np.zeros((n, n), order="F")
    # m.T is C-contiguous, so this is a flat view of m in column order.
    flat = m.T.reshape(-1)
    flat[index] = r[: len(index)]
    flat[:: n + 1] = 1.0 + nugget
    return m


def _cholesky(m) -> np.ndarray:
    # Lower factor of a symmetric matrix; potrf reads only its lower
    # triangle and works in place on a Fortran-order float64 m, which then
    # becomes the factor.  NotPositiveDefiniteError on a breakdown, or on a
    # pivot L_ii^2 at or below PIVOT_TOL or not finite, so the caller rejects
    # or escalates the nugget.
    lower, info = dpotrf(m, lower=1, clean=1, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefiniteError(f"leading minor of order {info} is not positive definite")
    # A NaN pivot makes min() NaN, which fails the first comparison.
    pivots = lower.diagonal() ** 2
    if not PIVOT_TOL < pivots.min() <= pivots.max() < np.inf:
        raise NotPositiveDefiniteError(f"pivot at or below tolerance {PIVOT_TOL}, or not finite")
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
        if (lower.diagonal() <= 0).any():
            raise ValueError("invalid Cholesky factor: non-positive diagonal")
        return cls._build(lower, y)

    @classmethod
    def _build(cls, lower, y) -> "CorrFactor":
        # from_lower without its checks, for a factor _cholesky has just
        # made and passed.
        rhs = np.empty((len(y), 2), order="F")
        rhs[:, 0] = 1.0
        rhs[:, 1] = y
        w = dtrtrs(lower, rhs, lower=1)[0]
        w1 = w[:, 0]
        one_rinv_one = float(w1 @ w1)
        gls_mean = float(w1 @ w[:, 1]) / one_rinv_one
        return cls(lower, y, float(2.0 * np.log(lower.diagonal()).sum()), w1, one_rinv_one, gls_mean)

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


def corr_factor(pairs: PairTable, theta, nugget: float, y) -> CorrFactor:
    """CorrFactor of R(theta) + nugget I at exactly `nugget`.

    R is built from `pairs`, the design's PairTable.  theta and the nugget
    are checked; y is used as given, so pass checked responses (a
    Dataset's).  Raises NotPositiveDefiniteError instead of escalating the
    nugget: a caller whose target is defined at one nugget (the sampler)
    must not switch to another.
    """
    theta = _checked_theta(theta, nugget, pairs.rows.shape[1])
    return CorrFactor._build(_cholesky(_corr_lower(pairs, theta, nugget)), y)


def corr_cholesky(points, theta, nugget: float = DEFAULT_NUGGET, pairs: PairTable | None = None):
    """Correlation matrix Cholesky with automatic nugget escalation.

    Tries `nugget` first and multiplies by 10 after each positive-definiteness
    failure, up to MAX_NUGGET.  Each attempt is the fixed-nugget
    factorization that corr_factor uses, built from `pairs` (the PairTable
    of `points`, made here when omitted).  Returns (lower, nugget_used);
    raises IllConditionedError when even the maximum nugget fails.
    """
    if pairs is None:
        pairs = pair_table(pairwise_sqdiffs(points))
    theta = _checked_theta(theta, nugget, pairs.rows.shape[1])
    attempt = nugget
    while True:
        try:
            lower = _cholesky(_corr_lower(pairs, theta, attempt))
            return lower, attempt
        except NotPositiveDefiniteError:
            if attempt >= MAX_NUGGET:
                raise IllConditionedError(
                    f"correlation matrix not positive definite at nugget {attempt:g}"
                ) from None
            attempt = min(max(attempt * 10.0, DEFAULT_NUGGET), MAX_NUGGET)
