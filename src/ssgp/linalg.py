"""Gaussian correlation kernel and dense SPD linear algebra.

Correlation matrices here always have unit diagonal before the nugget is
added.  Everything downstream works with the lower Cholesky factor: the
log-determinant comes from its diagonal and solves are forward/backward
substitutions.  The one explicit inverse is the likelihood gradient's,
which reads every entry of R^-1; it and testbed's leave-one-out means
share one L^-1 (CorrFactor.lower_inverse).  CorrFactor holds one factor
together with what the likelihood, the sampler and the predictor reuse:
log det R, 1'R^-1 1 and the GLS mean, each computed the first time it is
read.

How R is built.  Every matrix that is factored here (each Gibbs proposal,
each nugget attempt of corr_cholesky) is built from its strict lower
triangle only.  A PairTable holds the squared coordinate differences of
the n(n-1)/2 pairs i > j; one GEMV with -theta and one exp over its rows
give the off-diagonal correlations, which are scattered into a
Fortran-order n x n buffer with 1 + nugget on the diagonal.  _cholesky
factors that buffer in place, reading only its lower triangle, so R's
upper triangle is never formed.  The buffer is a _Scratch: its matrix,
flat column view and GEMV output, made once.  Which buffer each caller
builds in:
- corr_cholesky builds every nugget attempt of one call in the same
  scratch: its `out`, or one it makes when `out` is omitted;
- gp.mle_fit makes one scratch and passes it as `out`, through
  neg_log_profile_likelihood, to every evaluation and nugget attempt of
  the fit, and the gradient reads R0's pair values off its GEMV output;
- gp's prediction memo and a neg_log_profile_likelihood called on its
  own make one per call;
- a Gibbs chain makes two when it starts (the two slots of its
  sampler.SamplerState) and reuses them for every proposal.
A factor built in a scratch is the scratch's matrix, so it lasts until the
next build there.  The matrix is zero when it is made, and neither the
build nor potrf (which reads and writes the lower triangle only) ever
writes above the diagonal, so its upper triangle stays zero for the
buffer's life and potrf's `clean` pass, which zeroes it, is skipped.

Where arguments are checked.  pair_table checks design points,
corr_cholesky theta and the nugget, and solve_with_chol its operands.
CorrFactor(lower, y) wraps a factor that _cholesky has just made and
passed, without a second scan: with theta and the nugget finite, every
entry of R is finite and every row of L has norm sqrt(R_ii) <=
sqrt(1 + nugget), so _cholesky's one diagonal test, PIVOT_TOL < L_ii^2 <
inf (with potrf's breakdown flag), rejects every non-finite, broken-down
or nearly singular factor.  It reads the test off the diagonal's extremes,
PIVOT_TOL < lo^2 <= hi^2 < inf: squaring is monotone on the non-negative
diagonal that potrf makes, and a NaN entry makes lo NaN.  The Gibbs scan
calls _corr_factor unchecked at its constant nugget: phi is finite where a
chain enters (GpParams, the init and Hyperparams are checked), and a
proposal whose theta = phi^2 is still not finite fails that test or has a
-inf or NaN prior.

One caller does scan a factor it has just made: gp's prediction memo
passes the factor to solve_with_chol for R^-1 (y - mu), whose entry check
runs isfinite over all n^2 entries on every memo miss.  That scan goes
when solve_with_chol does, replaced by a factor method (ROADMAP item 6).
"""

from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .errors import IllConditionedError, NotPositiveDefiniteError

DEFAULT_NUGGET = 1e-8
MAX_NUGGET = 1e-4

# Cholesky pivot (squared diagonal entry) at or below this is treated as
# a positive-definiteness failure.
PIVOT_TOL = 1e-12


# OpenBLAS's GEMV tail kernel gives other last bits than its main kernel,
# so two operands come padded with zeros to whole blocks of this many: the
# rows of a PairTable, which makes each off-diagonal entry of R bitwise the
# one the full (n*n, d) product gives, and the test points of gp's MSE
# GEMV, which keeps a point's MSE independent of the batch width.
_GEMV_BLOCK = 8


class PairTable(NamedTuple):
    """The strict lower triangle of a design's squared differences.

    rows[p] holds the d squared coordinate differences of pair p = (i, j),
    i > j, column by column (j outer, i inner), followed by zero rows up to
    a multiple of _GEMV_BLOCK; index[p] = j n + i is that pair's position
    in a Fortran-order n x n buffer.
    """

    rows: np.ndarray
    index: np.ndarray
    n: int


def pair_table(points) -> PairTable:
    """PairTable of an (n, d) design; the points must be finite."""
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"points must be a non-empty (n, d) array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite design point")
    n, d = x.shape
    j, i = np.triu_indices(n, 1)
    rows = np.zeros((-(-len(i) // _GEMV_BLOCK) * _GEMV_BLOCK, d))
    diff = x[i] - x[j]
    np.multiply(diff, diff, out=rows[: len(i)])
    return PairTable(rows, j * n + i, n)


class _Scratch(NamedTuple):
    """A buffer that R is built and factored in, with its views made once.

    matrix is Fortran-order n x n and zero when made; flat is its column-order
    flat view and diag that view's diagonal; gemv takes the PairTable
    product, and pairs is its first n(n-1)/2 entries.  Two scratches may
    share one gemv, since R is built before it is factored.
    """

    matrix: np.ndarray
    flat: np.ndarray
    diag: np.ndarray
    gemv: np.ndarray
    pairs: np.ndarray


def _scratch(pairs: PairTable, gemv=None) -> _Scratch:
    n = pairs.n
    m = np.zeros((n, n), order="F")
    # m.T is C-contiguous, so this is a flat view of m in column order.
    flat = m.T.reshape(-1)
    if gemv is None:
        gemv = np.empty(len(pairs.rows))
    return _Scratch(m, flat, flat[:: n + 1], gemv, gemv[: len(pairs.index)])


def _corr_lower(pairs: PairTable, theta, nugget, out: _Scratch | None = None) -> np.ndarray:
    # R(theta) + nugget I, lower triangle and diagonal only, in out's matrix
    # (a new scratch when omitted), whose upper triangle stays zero; out's
    # gemv is left holding R0's entry exp(-D_p theta) of every pair p (1 on
    # the zero rows).  Nothing is checked here.
    m, flat, diag, r, r_pairs = _scratch(pairs) if out is None else out
    np.matmul(pairs.rows, -theta, out=r)
    np.exp(r, out=r)
    flat[pairs.index] = r_pairs
    diag[:] = 1.0 + nugget
    return m


def _pivots_pass(diag) -> bool:
    # PIVOT_TOL < L_ii^2 < inf for every entry of a non-negative diagonal,
    # read off its extremes; a NaN entry makes lo NaN, which fails.
    lo, hi = diag.min(), diag.max()
    return PIVOT_TOL < lo * lo <= hi * hi < np.inf


def _cholesky(m) -> np.ndarray:
    # Lower factor of a symmetric matrix whose upper triangle is zero (every
    # buffer _corr_lower fills); potrf reads and writes only the lower
    # triangle, in place on a Fortran-order float64 m, which then becomes
    # the factor.  NotPositiveDefiniteError on a breakdown, or on a pivot
    # L_ii^2 at or below PIVOT_TOL or not finite, so the caller rejects or
    # escalates the nugget.
    lower, info = dpotrf(m, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefiniteError(f"leading minor of order {info} is not positive definite")
    if not _pivots_pass(lower.diagonal()):
        raise NotPositiveDefiniteError(f"pivot at or below tolerance {PIVOT_TOL}, or not finite")
    return lower


def solve_with_chol(lower, b) -> np.ndarray:
    """Solve M v = b for M = lower @ lower.T."""
    lower = np.asarray(lower, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != lower.shape[0]:
        raise ValueError(f"dimension mismatch: factor is {lower.shape[0]}, b has {b.shape[0]} rows")
    if not (np.isfinite(lower).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    return dpotrs(lower, b, lower=1)[0]


class CorrFactor:
    """One Cholesky factorization R = L L' and what its readers reuse.

    CorrFactor(lower, y) wraps a factor that _cholesky has made and passed.
    y is the responses, or the table [1, y] of gls_rhs(y) when the caller
    keeps one (gp.Dataset does), so that it is not made again per factor.
    log det R is computed from L's diagonal when the factor is made: every
    Gibbs proposal and likelihood value reads it.  w1 = L^-1 1, 1'R^-1 1 and
    the GLS mean (1'R^-1 1)^-1 1'R^-1 y are computed the first time each is
    read, from one two-column triangular solve [L^-1 1, L^-1 y].  A
    quadratic form (y - mu)'R^-1(y - mu) is |L^-1 (y - mu)|^2 from one
    triangular solve of the residual; the last one is kept, so the Gibbs
    scan's sigma2 and phi steps share it.  It is a plain class because the
    Gibbs scan makes one per proposal.
    """

    def __init__(self, lower: np.ndarray, y: np.ndarray):
        if y.ndim == 2:
            self._rhs, y = y, y[:, 1]
        self.lower, self.y = lower, y
        self.log_det = float(2.0 * np.log(lower.diagonal()).sum())
        # mu and the value of the last quad(mu) call.
        self._quad_mu = self._quad = None

    @cached_property
    def _rhs(self) -> np.ndarray:
        # The Fortran-order (n, 2) right-hand side [1, y] (its transpose).
        return gls_rhs(self.y)

    @cached_property
    def _ones_y(self) -> np.ndarray:
        return dtrtrs(self.lower, self._rhs, lower=1)[0]

    @cached_property
    def w1(self) -> np.ndarray:
        return self._ones_y[:, 0]

    @cached_property
    def one_rinv_one(self) -> float:
        return float(self.w1 @ self.w1)

    @cached_property
    def gls_mean(self) -> float:
        return float(self.w1 @ self._ones_y[:, 1]) / self.one_rinv_one

    def quad(self, mu, resid=None) -> float:
        """(y - mu)'R^-1(y - mu); non-negative by construction.

        resid, when given, is y - mu already formed (the Gibbs scan forms
        one per mu for all its factors); it is not checked."""
        if mu != self._quad_mu:
            v = dtrtrs(self.lower, self.y - mu if resid is None else resid, lower=1)[0]
            self._quad_mu, self._quad = mu, float(v @ v)
        return self._quad

    def whiten(self, b) -> np.ndarray:
        """L^-1 b by one triangular solve; b is not checked."""
        return dtrtrs(self.lower, b, lower=1)[0]

    def lower_inverse(self) -> np.ndarray:
        """V = L^-1, Fortran-order, by one triangular solve of an identity
        made in Fortran order and overwritten in place."""
        return dtrtrs(self.lower, np.eye(len(self.y), order="F"), lower=1, overwrite_b=1)[0]

    def inverse(self) -> np.ndarray:
        """R^-1 = V'V with V = L^-1 (lower_inverse)."""
        v = self.lower_inverse()
        return v.T @ v


def gls_rhs(y) -> np.ndarray:
    """The Fortran-order (n, 2) table [1, y] that CorrFactor solves against."""
    return np.array([np.ones(len(y)), y]).T


def _corr_factor(pairs: PairTable, theta, nugget, y, out: _Scratch | None = None) -> CorrFactor:
    # Unchecked factor of R(theta) + nugget I at exactly `nugget`, built and
    # factored in `out` (a new scratch when omitted), raising
    # NotPositiveDefiniteError instead of escalating (the sampler's target).
    return CorrFactor(_cholesky(_corr_lower(pairs, theta, nugget, out)), y)


def corr_cholesky(points, theta, nugget: float = DEFAULT_NUGGET, pairs: PairTable | None = None,
                  out: _Scratch | None = None):
    """Correlation matrix Cholesky with automatic nugget escalation.

    Tries `nugget` first and multiplies by 10 after each positive-definiteness
    failure, up to MAX_NUGGET.  Each attempt builds and factors R from
    `pairs` (the PairTable of `points`, made here when omitted) in `out`, a
    _Scratch of that table (one made here when omitted), so the factor
    returned is out's matrix.  theta needs one finite, non-negative entry
    per input and the nugget must be finite and non-negative.  Returns
    (lower, nugget_used); raises IllConditionedError when even the maximum
    nugget fails.
    """
    if pairs is None:
        pairs = pair_table(points)
    d = pairs.rows.shape[1]
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (d,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({d},)")
    # A NaN makes min() NaN and fails the comparison.
    if not 0 <= theta.min() <= theta.max() < np.inf:
        raise ValueError("theta entries must be finite and non-negative")
    # A NaN nugget would fail every attempt and never stop the escalation.
    if not 0 <= nugget < np.inf:
        raise ValueError("nugget must be finite and non-negative")
    if out is None:
        out = _scratch(pairs)
    attempt = nugget
    while True:
        try:
            lower = _cholesky(_corr_lower(pairs, theta, attempt, out))
            return lower, attempt
        except NotPositiveDefiniteError:
            if attempt >= MAX_NUGGET:
                raise IllConditionedError(
                    f"correlation matrix not positive definite at nugget {attempt:g}"
                ) from None
            attempt = min(max(attempt * 10.0, DEFAULT_NUGGET), MAX_NUGGET)
