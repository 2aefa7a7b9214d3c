"""Gaussian correlation kernel and dense SPD linear algebra.

Correlation matrices here always have unit diagonal before the nugget is
added.  Everything downstream works with the lower Cholesky factor: the
log-determinant comes from its diagonal, solves are forward/backward
substitutions, and R^-1 = V'V with V = L^-1 from LAPACK trtri; potri is
not used, as its lauum half changes last bits with the OpenBLAS thread
count at every n.  CorrFactor holds one factor together with what the
likelihood, the sampler and the predictor reuse: log det R, 1'R^-1 1 and
the GLS mean, each computed the first time it is read.  Its quadratic
form is a pure solve of the residual it is given; it keeps no value from
one call to the next.

How R is built.  Every matrix that is factored here (each Gibbs proposal,
each nugget attempt of corr_cholesky) is built from its strict lower
triangle only.  A PairTable holds the squared coordinate differences of
the n(n-1)/2 pairs i > j; one GEMV with -theta and one exp over its rows
give the off-diagonal correlations, which are scattered into a
Fortran-order n x n buffer with 1 + nugget on the diagonal.  _cholesky
factors that buffer in place, reading only its lower triangle, so R's
upper triangle is never formed.  The buffer is a _Scratch: its matrix,
flat column view and GEMV output, made once and owned by that buffer
alone.  Which buffer each caller builds in:
- corr_cholesky builds every nugget attempt of one call in the same
  scratch: its `out`, or one it makes when `out` is omitted;
- gp.mle_fit makes one scratch and passes it as `out`, through
  neg_log_profile_likelihood, to every evaluation and nugget attempt of
  the fit, and the gradient reads R0's pair values off its GEMV output;
- gp's prediction memo and a neg_log_profile_likelihood called on its
  own make one per call;
- a Gibbs chain makes two when it starts (the two slots of its
  sampler.SamplerState) and reuses them for every proposal, so a proposal
  leaves the current slot's factor and R0 values as its build left them.
A factor built in a scratch is the scratch's matrix, so it lasts until the
next build there, or until likelihood_gradient overwrites it with L^-1.
The matrix is zero when it is made, and the build, potrf and trtri read
and write the lower triangle only, so its upper triangle stays zero for
the buffer's life and potrf's `clean` pass, which zeroes it, is skipped.

Where arguments are checked.  pair_table checks design points,
corr_cholesky theta and the nugget, and solve_with_chol its operands.
CorrFactor(lower, rhs) wraps a factor that _cholesky has just made and
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
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri, dtrtrs

from .errors import IllConditionedError, NotPositiveDefiniteError

DEFAULT_NUGGET = 1e-8
MAX_NUGGET = 1e-4

# Cholesky pivot (squared diagonal entry) at or below this is treated as
# a positive-definiteness failure.
PIVOT_TOL = 1e-12


# OpenBLAS's GEMV tail kernel gives other last bits than its main kernel,
# so two operands come padded with zeros to whole blocks of this many: the
# rows of a PairTable, which makes each off-diagonal entry of R bitwise the
# one the full (n*n, d) product gives, and the columns CorrFactor.cross_terms
# solves, which keeps a test point's terms independent of the batch width.
_GEMV_BLOCK = 8


class PairTable(NamedTuple):
    """The strict lower triangle of a design's squared differences.

    rows[p] holds the d squared coordinate differences of pair p = (i, j),
    i > j, column by column (j outer, i inner), followed by zero rows up to
    a multiple of _GEMV_BLOCK; index[p] = j n + i is that pair's position
    in a Fortran-order n x n buffer, row i[p] and column j[p].
    """

    rows: np.ndarray
    index: np.ndarray
    n: int
    i: np.ndarray
    j: np.ndarray


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
    return PairTable(rows, j * n + i, n, i, j)


class _Scratch(NamedTuple):
    """A buffer that R is built and factored in, with its views made once.

    matrix is Fortran-order n x n and zero when made; flat is its column-order
    flat view and diag that view's diagonal; gemv takes the PairTable
    product, and pairs is its first n(n-1)/2 entries.
    """

    matrix: np.ndarray
    flat: np.ndarray
    diag: np.ndarray
    gemv: np.ndarray
    pairs: np.ndarray


def _scratch(pairs: PairTable) -> _Scratch:
    n = pairs.n
    m = np.zeros((n, n), order="F")
    # m.T is C-contiguous, so this is a flat view of m in column order.
    flat = m.T.reshape(-1)
    gemv = np.empty(len(pairs.rows))
    return _Scratch(m, flat, flat[:: n + 1], gemv, gemv[: len(pairs.index)])


def _corr_lower(pairs: PairTable, theta, nugget, out: _Scratch) -> np.ndarray:
    # R(theta) + nugget I, lower triangle and diagonal only, in out's matrix,
    # whose upper triangle stays zero; out's gemv is left holding R0's entry
    # exp(-D_p theta) of every pair p (1 on the zero rows).  Nothing is
    # checked here.
    m, flat, diag, r, r_pairs = out
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

    CorrFactor(lower, rhs) wraps a factor that _cholesky has made and
    passed; rhs is the table [1, y] of gls_rhs(y), made once per data set
    (gp.Dataset keeps it) and read by every factor on that data.  log det R
    is computed from L's diagonal when the factor is made: every Gibbs
    proposal and likelihood value reads it.  w1 = L^-1 1, 1'R^-1 1 and the
    GLS mean (1'R^-1 1)^-1 1'R^-1 y are computed the first time each is
    read, from one two-column triangular solve [L^-1 1, L^-1 y].  Nothing
    else is kept: quad and cross_terms solve afresh on every call, and the
    caller keeps the value (the Gibbs chain in its state, for the scan's
    sigma2 and phi steps).  It is a plain class because the Gibbs scan
    makes one per proposal.
    """

    def __init__(self, lower: np.ndarray, rhs: np.ndarray):
        self.lower, self._rhs = lower, rhs
        self.log_det = float(2.0 * np.log(lower.diagonal()).sum())

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

    def quad(self, resid) -> float:
        """resid'R^-1 resid = |L^-1 resid|^2 by one triangular solve, for a
        residual such as y - mu; non-negative by construction, not checked."""
        v = dtrtrs(self.lower, resid, lower=1)[0]
        return float(v @ v)

    def cross_terms(self, r) -> tuple[np.ndarray, np.ndarray]:
        """(r'R^-1 r, 1'R^-1 r) = (|L^-1 r|^2, w1'L^-1 r) for each row r of
        an (m, n) block, unchecked.  The rows are copied into a Fortran
        (n, M) block, M a positive whole number of _GEMV_BLOCKs, zero past
        column m; one dtrtrs solves max(m, 2) columns in place, and the norms
        and the w1 GEMV run over the whole block, so m = 1 runs a batch's
        kernels and (OpenBLAS, one thread) no row's values depend on m."""
        m, n = r.shape
        v = np.empty((n, -(-max(m, 1) // _GEMV_BLOCK) * _GEMV_BLOCK), order="F")
        v[:, :m] = r.T
        v[:, m:] = 0.0
        dtrtrs(self.lower, v[:, : max(m, 2)], lower=1, overwrite_b=1)
        return np.einsum("ij,ij->j", v, v)[:m], (self.w1 @ v)[:m]

    def inverse_diagonal(self) -> np.ndarray:
        """diag R^-1, the column sums of squares of L^-1 (trtri on a copy)."""
        v = dtrtri(self.lower, lower=1)[0]
        return np.einsum("ij,ij->j", v, v)


def gls_rhs(y) -> np.ndarray:
    """The Fortran-order (n, 2) table [1, y] that CorrFactor solves against."""
    return np.array([np.ones(len(y)), y]).T


def likelihood_gradient(lower, pairs: PairTable, r0, resid, scale) -> np.ndarray:
    """-sum_{i>j} (R^-1 - a a'/scale)_ij R0_ij D_ij with a = R^-1 resid.

    lower factors R = R0 + nugget I, r0 holds R0 at each pair-table row (a
    build's gemv) and D_ij is pair (i, j)'s row.  At the profile mu (resid
    = y - mu) and sigma2 (scale) this is the profile likelihood's gradient
    in theta (R&W 2006, 5.4.1; mu maximizes it, and D_ii = 0 drops the
    nugget).  trtri overwrites lower with V = L^-1 (pass a copy to keep the
    factor) and syrk makes V'V's lower triangle; r0 is overwritten too.
    """
    alpha = dpotrs(lower, resid, lower=1)[0]
    rinv = dsyrk(1.0, dtrtri(lower, lower=1, overwrite_c=1)[0], trans=1, lower=1)
    n_pairs = len(pairs.index)
    r0[:n_pairs] *= rinv.T.reshape(-1)[pairs.index] - alpha[pairs.i] * (alpha / scale)[pairs.j]
    r0[n_pairs:] = 0.0
    return -(r0 @ pairs.rows)


def _corr_factor(pairs: PairTable, theta, nugget, rhs, out: _Scratch) -> CorrFactor:
    # Unchecked factor of R(theta) + nugget I at exactly `nugget`, built and
    # factored in `out`, on the [1, y] table `rhs`, raising
    # NotPositiveDefiniteError instead of escalating (the sampler's target).
    return CorrFactor(_cholesky(_corr_lower(pairs, theta, nugget, out)), rhs)


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
