"""Ordinary kriging: profile likelihood, maximum-likelihood fit, prediction.

The model is y(x) = mu + Z(x) with Z a zero-mean stationary Gaussian process
whose correlation is the Gaussian kernel
r(x, x') = exp(-sum_k theta_k (x_k - x'_k)^2) on inputs scaled to the unit
cube.  Given the correlation parameters theta, the mean and variance have
closed-form maximizers (profile MLEs); theta itself is found by bounded
L-BFGS-B on the log scale, from Latin-hypercube starts or, warm, by one
descent from a given theta, with the analytic gradient of the profile
likelihood computed from the same Cholesky factor as its value and from the
Dataset's pair table; the profile mean is that factor's GLS mean.
Prediction keeps the last model's factor and R^-1 (y - mu) on the Dataset.
"""

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from . import linalg
from .designs import random_lhd, scale_points
from .errors import IllConditionedError, OptimizerFailedError, integer

# Box bounds for the likelihood search, on the log-theta scale.
LOG_THETA_LO = np.log(1e-4)
LOG_THETA_HI = np.log(1e4)

# Multi-start likelihood search: Latin-hypercube starts, and the L-BFGS-B
# iteration limit of each.
N_STARTS = 10
MAX_ITER = 500

# Floor applied to the profiled variance before taking its log; keeps the
# objective finite when the response is (numerically) constant.
SIGMA2_FLOOR = 1e-300


@dataclass(frozen=True)
class Dataset:
    """Training data scaled to the unit hypercube.

    Immutable: the arrays are read-only copies of the ones passed in, so
    the cached pair table and the last prediction factor cannot go stale.

    Attributes
    ----------
    points : ndarray, shape (n, d)
        Design points after scaling to [0, 1]^d.
    responses : ndarray, shape (n,)
        Observed outputs, in original units.
    ranges : ndarray, shape (d, 2)
        Per-dimension (min, max) of the original domain, so original-scale
        coordinates can be recovered or accepted at prediction time.
    """

    points: np.ndarray
    responses: np.ndarray
    ranges: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.array(self.points, dtype=float))
        y = np.array(self.responses, dtype=float).ravel()
        rng_arr = np.array(self.ranges, dtype=float)
        if pts.shape[0] != y.shape[0]:
            raise ValueError(
                f"{pts.shape[0]} design points but {y.shape[0]} responses"
            )
        if rng_arr.shape != (pts.shape[1], 2):
            raise ValueError(
                f"ranges must have shape ({pts.shape[1]}, 2), got {rng_arr.shape}"
            )
        if not (np.isfinite(pts).all() and np.isfinite(y).all() and np.isfinite(rng_arr).all()):
            raise ValueError("non-finite value in dataset")
        if np.any(rng_arr[:, 1] <= rng_arr[:, 0]):
            bad = int(np.argmax(rng_arr[:, 1] <= rng_arr[:, 0])) + 1
            raise ValueError(f"range max must exceed min in dimension {bad}")
        # An interpolating GP cannot represent two different outputs at one
        # point, so reject that outright.
        uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
        if len(uniq) < len(pts):
            for g in range(len(uniq)):
                ys = y[inverse == g]
                if len(ys) > 1 and np.ptp(ys) > 0:
                    raise ValueError(
                        "duplicate design points with differing responses"
                    )
        for name, arr in (("points", pts), ("responses", y), ("ranges", rng_arr)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __reduce__(self):
        # Copies and unpickles go through __init__ too, so they also get
        # read-only arrays and none of the caches.
        return (type(self), (self.points, self.responses, self.ranges))

    @classmethod
    def from_arrays(cls, points, responses, ranges=None) -> "Dataset":
        """Build a Dataset from original-scale points.

        The points must lie within `ranges`, bounds included; when `ranges`
        is omitted they must lie on the unit hypercube already, and the
        ranges default to (0, 1) per dimension.  A ValueError names the
        first column with a point outside its range.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        # Built first, so a non-finite or mismatched input gets its own message.
        if ranges is None:
            data = cls(pts, responses, np.tile([0.0, 1.0], (pts.shape[1], 1)))
            hint = "; data off the unit cube needs ranges (--ranges lo:hi,... or --observed-ranges)"
        else:
            ranges = np.asarray(ranges, dtype=float)
            data = cls(scale_points(pts, ranges, "to_unit"), responses, ranges)
            hint = ""
        lo, hi = data.ranges.T
        outside = ((pts < lo) | (pts > hi)).any(axis=0)
        if outside.any():
            j = int(np.argmax(outside))
            raise ValueError(f"column x{j + 1} has points outside [{lo[j]:g}, {hi[j]:g}]{hint}")
        return data

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def pair_table(self) -> linalg.PairTable:
        """The squared differences of the pairs of points (linalg.PairTable):
        every R(theta) factored on this design and the gradient read them."""
        return linalg.pair_table(self.points)

    @cached_property
    def gls_rhs(self) -> np.ndarray:
        """The read-only Fortran-order (n, 2) table [1, y] (linalg.gls_rhs)
        that every CorrFactor on this data solves against."""
        table = linalg.gls_rhs(self.responses)
        table.flags.writeable = False
        return table

    @cached_property
    def _unit_map(self):
        # (lo, width) of the ranges __post_init__ checked, so predict_batch
        # maps test points to the unit cube by scale_points' expression
        # (x - lo) / width without checking the ranges again.
        lo = self.ranges[:, 0]
        return lo, self.ranges[:, 1] - lo

    def _factor(self, theta, nugget, out=None) -> linalg.CorrFactor:
        # The one place a factor of this data is made: R(theta) by
        # corr_cholesky, built in `out` when given, on the [1, y] table.
        lower, _ = linalg.corr_cholesky(self.points, theta, nugget, pairs=self.pair_table, out=out)
        return linalg.CorrFactor(lower, self.gls_rhs)

    def _prediction_factor(self, theta, nugget, mu):
        # (CorrFactor of R(theta), R^-1 (y - mu)) for predict_batch and
        # testbed's closed-form leave-one-out.
        # Both depend only on this data and the exact bits of theta,
        # nugget and mu, so the last pair is kept: a fitted model is
        # queried call after call, and a hit returns the very values the
        # miss computed.  Only a successful miss is stored, so every key
        # that can hit has passed all of linalg's checks.
        key = np.concatenate([theta, np.array([nugget, mu], dtype=float)]).tobytes()
        memo = self.__dict__.get("_prediction_memo")
        if memo is not None and memo[0] == key:
            return memo[1:]
        factor = self._factor(theta, nugget)
        rinv_resid = linalg.solve_with_chol(factor.lower, self.responses - mu)
        memo = (key, factor, rinv_resid)
        object.__setattr__(self, "_prediction_memo", memo)
        return memo[1:]

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.points.tobytes())
        h.update(self.responses.tobytes())
        h.update(self.ranges.tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class GpParams:
    """Kriging parameters; theta is derived from phi as theta_k = phi_k^2.

    phi is a read-only copy of the array passed in.
    """

    mu: float
    sigma2: float
    phi: np.ndarray

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float).ravel()
        if not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not np.isfinite(self.sigma2):
            raise ValueError(f"sigma2 must be finite, got {self.sigma2}")
        if self.sigma2 <= 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        # phi = 1e200 is finite, but its square theta is not.
        with np.errstate(over="ignore"):
            if not np.isfinite(phi * phi).all():
                raise ValueError("phi entries and their squares (theta) must be finite")
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)

    def __reduce__(self):
        # As for Dataset: copies and unpickles get a read-only phi of their own.
        return (type(self), (self.mu, self.sigma2, self.phi))

    @property
    def theta(self) -> np.ndarray:
        return self.phi**2


class Prediction(NamedTuple):
    """One kriging prediction: mean, mean squared error, and whether a
    negative round-off MSE was clamped to zero."""

    mean: float
    mse: float
    clamped: bool = False


@dataclass(frozen=True)
class FitOptions:
    nugget: float = linalg.DEFAULT_NUGGET
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.nugget < np.inf:
            raise ValueError("nugget must be finite and non-negative")
        object.__setattr__(self, "seed", integer("seed", self.seed, 0))


def _profile(theta, data: Dataset, nugget, out: linalg._Scratch):
    # One factorization of R(theta), escalating the nugget, built in `out`;
    # the profile mu read from it, and the residual y - mu that the profile
    # sigma2 and the gradient share.
    factor = data._factor(theta, nugget, out)
    mu = factor.gls_mean
    resid = data.responses - mu
    return factor, mu, resid, max(factor.quad(resid) / data.n, SIGMA2_FLOOR)


def neg_log_profile_likelihood(theta, data: Dataset, nugget=linalg.DEFAULT_NUGGET, grad=False, out=None):
    """(1/2)[n log sigma2_hat(theta) + log det R(theta)], up to a constant.

    With grad=True returns (value, gradient in theta), both from one
    factorization, which the gradient uses up.  R is built in `out`, a
    linalg._Scratch of the data's pair table (one made here when omitted;
    mle_fit passes its own to every evaluation).  Raises
    IllConditionedError when R(theta) cannot be factored even at the
    maximum nugget.
    """
    theta = np.asarray(theta, dtype=float)
    if out is None:
        out = linalg._scratch(data.pair_table)
    factor, _, resid, s2 = _profile(theta, data, nugget, out)
    value = 0.5 * (data.n * np.log(s2) + factor.log_det)
    if not grad:
        return value
    return value, linalg.likelihood_gradient(factor.lower, data.pair_table, out.gemv, resid, s2)


def mle_fit(data: Dataset, opts: FitOptions | None = None, start=None) -> GpParams:
    """Maximum-likelihood kriging fit by bounded L-BFGS-B on log theta.

    Without `start`, N_STARTS starts come from a random Latin hypercube
    over the log-theta box [LOG_THETA_LO, LOG_THETA_HI]^d, drawn from
    opts.seed.  With `start`, a theta of shape (d,) with finite, positive
    entries (a fit's theta, say), the search is one descent from log(start)
    clipped into the box, and opts.seed is unused.  Each descent runs
    bounded L-BFGS-B for at most MAX_ITER iterations with the analytic
    gradient, and the best final objective wins.  A theta whose correlation
    matrix cannot be factored even at the maximum nugget counts as an
    infinite objective.  phi is the positive square root of the fitted theta.
    """
    if opts is None:
        opts = FitOptions()
    if data.n < 2:
        raise ValueError(f"need at least 2 runs to fit, got {data.n}")
    d = data.dim
    if start is None:
        rng = np.random.default_rng(opts.seed)
        starts = LOG_THETA_LO + random_lhd(N_STARTS, d, rng).points * (
            LOG_THETA_HI - LOG_THETA_LO
        )
    else:
        start = np.asarray(start, dtype=float)
        if start.shape != (d,):
            raise ValueError(f"start must have shape ({d},), got {start.shape}")
        if not (np.isfinite(start).all() and (start > 0).all()):
            raise ValueError("start entries must be finite and positive")
        starts = np.clip(np.log(start), LOG_THETA_LO, LOG_THETA_HI)[None, :]

    # One buffer that every evaluation builds and factors R in.
    scratch = linalg._scratch(data.pair_table)

    def objective(logtheta):
        theta = np.exp(logtheta)
        try:
            value, g = neg_log_profile_likelihood(theta, data, nugget=opts.nugget, grad=True, out=scratch)
        except IllConditionedError:
            return np.inf, np.zeros(d)
        # Chain rule to log theta.
        return value, g * theta

    bounds = [(LOG_THETA_LO, LOG_THETA_HI)] * d
    best_val, best_x = np.inf, None
    for x0 in starts:
        res = minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": MAX_ITER},
        )
        if np.isfinite(res.fun) and res.fun < best_val:
            best_val, best_x = res.fun, res.x
    if best_x is None:
        raise OptimizerFailedError("all likelihood-optimization starts failed")

    theta_hat = np.exp(best_x)
    _, mu_hat, _, s2_hat = _profile(theta_hat, data, opts.nugget, scratch)
    return GpParams(mu=mu_hat, sigma2=s2_hat, phi=np.sqrt(theta_hat))


def _cross_corr(train_pts, test_pts, theta) -> np.ndarray:
    """Correlations between test and training points, shape (m, n).

    One call to scipy's weighted cdist: for each pair it sums
    (theta_k d_k) d_k, d_k = x_k - x'_k, over k = 0 to d-1 in order from
    zero, in a compiled loop with no BLAS, so a point's exponent does not
    depend on m.  The exponent is negated and exponentiated in place.  A
    BLAS contraction here (tensordot over the flattened (n*m, d) array)
    sums in an order that changes with m.
    """
    out = cdist(test_pts, train_pts, "sqeuclidean", w=theta)
    np.negative(out, out=out)
    return np.exp(out, out=out)


def predict_batch(params: GpParams, data: Dataset, xstars, nugget=linalg.DEFAULT_NUGGET):
    """Kriging predictions at original-scale test points.

    `xstars` is an (m, d) array of points or one 1-D point of length d;
    either way the result is a list of Prediction named tuples (mean, mse,
    clamped), so the prediction at a single point x is
    predict_batch(params, data, x)[0].  An input of more than two
    dimensions, or a test point with a non-finite coordinate, is rejected
    with ValueError.

    The mean is mu + r' R^-1 (y - 1 mu); the mean squared error includes
    the mean-estimation correction term (1 - 1' R^-1 r)^2 / (1' R^-1 1).
    Negative MSEs from round-off are clamped to zero and flagged.

    Every field of a point's prediction is bitwise the same at every batch
    width, one included (OpenBLAS, one thread).  No BLAS forms the mean:
    _cross_corr sums each pair's exponent in scipy's compiled loop, and
    each mean is one row's sum, neither in an order that depends on the
    width.  The MSE and `clamped` read CorrFactor.cross_terms, which runs a
    batch's kernels at every width.

    The factor of R(theta), with its nugget escalation and 1'R^-1 1, and
    the solve R^-1 (y - mu) are kept on `data` for the last (theta,
    nugget, mu) predicted, so repeated calls with one model pay only for
    their test points.  Reusing them changes no bit of any result; each call
    still checks its own test points.
    """
    xs = np.atleast_2d(np.asarray(xstars, dtype=float))
    if xs.ndim > 2:
        raise ValueError(f"test points must be one point or an (m, d) array, got shape {xs.shape}")
    if xs.shape[1] != data.dim:
        raise ValueError(
            f"test points have {xs.shape[1]} columns, expected {data.dim}"
        )
    if not np.isfinite(xs).all():
        bad = int(np.argmin(np.isfinite(xs).all(axis=1)))
        raise ValueError(f"non-finite coordinate in test point {bad} (0-based)")
    lo, width = data._unit_map
    xs_unit = (xs - lo) / width
    theta = params.theta
    factor, rinv_resid = data._prediction_factor(theta, nugget, params.mu)

    # A dimension with theta_k = 0 adds +0.0 to every exponent whatever the
    # coordinate; zeroing it keeps one that scales to inf from forming
    # (0 * inf) * inf = NaN.
    if not theta.all():
        xs_unit[:, theta == 0] = 0.0
    rt = _cross_corr(data.points, xs_unit, theta)
    # One contiguous row of length n per mean.  Neither r.T @ v (BLAS GEMV)
    # nor an axis-0 sum of r * v[:, None] sums in the same order at m = 1
    # as at m > 1.
    means = params.mu + (rt * rinv_resid).sum(axis=1)
    quad, one_rinv_r = factor.cross_terms(rt)
    mses = params.sigma2 * (1.0 - quad + (1.0 - one_rinv_r) ** 2 / factor.one_rinv_one)
    # Bitwise max(s, 0.0): only s < 0 becomes +0.0; -0.0 and NaN pass through.
    clamped = mses < 0
    mses[clamped] = 0.0
    return list(map(Prediction, means.tolist(), mses.tolist(), clamped.tolist()))
