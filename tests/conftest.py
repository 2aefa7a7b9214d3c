"""Shared helpers: small deterministic datasets built from the test functions,
the scalar kernel, the full (n, n, d) squared differences, the full
correlation matrix and the likelihood gradient from them, a checked
Cholesky, a checked factor at a fixed nugget, the normal log-density, the
phi log-kernel, a reference Gibbs scan, a per-fold leave-one-out and a
reference maximin search as oracles, a chain state built for one test, and
a synthetic target for the phi step."""

import functools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg.lapack import dtrtrs
from scipy.spatial.distance import pdist

import ssgp.sampler as sampler
from ssgp import linalg
from ssgp.designs import Design, _as_rng, maximin_lhd, random_lhd, scale_points
from ssgp.errors import NotPositiveDefiniteError
from ssgp.gp import Dataset, predict_batch
from ssgp.linalg import DEFAULT_NUGGET, _cholesky
from ssgp.testbed import eval_batch, get_function


def make_dataset(name, n, seed=0):
    """Evaluate a named test function on an n-run maximin LHD."""
    f = get_function(name)
    design = maximin_lhd(n, f.dim, seed)
    dom = f.domain()
    y = eval_batch(f, scale_points(design.points, dom, "from_unit"))
    return Dataset(design.points, y, dom)


@pytest.fixture(scope="session")
def toy10():
    return make_dataset("toy", 10)


@pytest.fixture(scope="session")
def toy20():
    return make_dataset("toy", 20)


def two_point_dataset():
    # Smallest usable dataset: two points on a line.
    return Dataset(np.array([[0.2], [0.8]]), np.array([1.0, 2.0]), np.array([[0.0, 1.0]]))


def gaussian_corr(xi, xj, theta) -> float:
    """Correlation exp(-sum_k theta_k |xi_k - xj_k|^2) between two points."""
    xi = np.asarray(xi, dtype=float)
    xj = np.asarray(xj, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if not (xi.shape == xj.shape == theta.shape) or xi.ndim != 1 or xi.size < 1:
        raise ValueError(
            f"dimension mismatch: xi {xi.shape}, xj {xj.shape}, theta {theta.shape}"
        )
    if not (np.isfinite(xi).all() and np.isfinite(xj).all() and np.isfinite(theta).all()):
        raise ValueError("non-finite input")
    if np.any(theta < 0):
        raise ValueError("theta entries must be non-negative")
    return float(np.exp(-np.sum(theta * (xi - xj) ** 2)))


def pairwise_sqdiffs(points) -> np.ndarray:
    """Per-dimension squared differences of all pairs, shape (n, n, d)."""
    x = np.asarray(points, dtype=float)
    diff = x[:, None, :] - x[None, :, :]
    return diff * diff


def checked_theta(theta, nugget, d) -> np.ndarray:
    """theta as a float array, after corr_cholesky's checks: d finite,
    non-negative entries and a finite, non-negative nugget."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (d,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({d},)")
    if not (np.isfinite(theta).all() and (theta >= 0).all()):
        raise ValueError("theta entries must be finite and non-negative")
    if not 0 <= nugget < np.inf:
        raise ValueError("nugget must be finite and non-negative")
    return theta


def fixed_nugget_factor(pairs, theta, nugget, y) -> linalg.CorrFactor:
    """CorrFactor of R(theta) + nugget I at exactly `nugget`, as the sampler
    factors it (linalg._corr_factor), on the [1, y] table of y and in a new
    scratch, with theta and the nugget checked first.
    NotPositiveDefiniteError instead of escalating the nugget."""
    theta = checked_theta(theta, nugget, pairs.rows.shape[1])
    rhs = linalg.gls_rhs(np.asarray(y, dtype=float))
    return linalg._corr_factor(pairs, theta, nugget, rhs, linalg._scratch(pairs))


def corr_matrix_from_sqdiffs(sqdiffs, theta, nugget: float = DEFAULT_NUGGET) -> np.ndarray:
    """The full n x n R(theta) + nugget I from pairwise_sqdiffs, by one
    (n*n, d) product; theta and the nugget pass checked_theta."""
    n, _, d = sqdiffs.shape
    theta = checked_theta(theta, nugget, d)
    r = sqdiffs.reshape(n * n, d) @ -theta
    np.exp(r, out=r)
    r[:: n + 1] += nugget
    return r.reshape(n, n)


def profile_gradient_full(factor, mu, s2, theta, data: Dataset, rinv=None, alpha=None) -> np.ndarray:
    """The profile likelihood's gradient in theta over the full matrices:
    -1/2 sum_ij [(R^-1 - a a'/s2) o R0 o D_k]_ij with a = R^-1 (y - mu).
    R^-1 is `rinv` when given, else V'V from V = L^-1, one triangular
    solve of an identity; a is `alpha` when given, else R^-1 (y - mu) from
    that matrix.  Reads the factor, so call it before
    linalg.likelihood_gradient uses the factor up."""
    sqdiffs = pairwise_sqdiffs(data.points)
    n, _, d = sqdiffs.shape
    if rinv is None:
        v = dtrtrs(factor.lower, np.eye(n, order="F"), lower=1)[0]
        rinv = v.T @ v
    w = rinv.copy()
    if alpha is None:
        alpha = w @ (data.responses - mu)
    w -= np.outer(alpha, alpha / s2)
    w *= corr_matrix_from_sqdiffs(sqdiffs, theta, 0.0)
    return -0.5 * (w.reshape(n * n) @ sqdiffs.reshape(n * n, d))


def build_corr_matrix(points, theta, nugget: float = DEFAULT_NUGGET) -> np.ndarray:
    """n x n Gaussian correlation matrix with `nugget` added to the diagonal.

    Duplicate design points combined with a zero nugget make the matrix
    singular; that situation is flagged with a warning, not an error.
    """
    sqd = pairwise_sqdiffs(points)
    x = np.asarray(points, dtype=float)
    if nugget == 0 and len(np.unique(x, axis=0)) < len(x):
        warnings.warn(
            "duplicate design points with zero nugget: correlation matrix is singular",
            RuntimeWarning,
            stacklevel=2,
        )
    return corr_matrix_from_sqdiffs(sqd, theta, nugget)


def chol_decompose(m) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    The entry point for matrices built outside linalg.  Raises ValueError
    for a matrix that is not square or not symmetric within np.allclose
    tolerances (a NaN entry fails), and NotPositiveDefiniteError when the
    factorization breaks down or any pivot falls at or below PIVOT_TOL.
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
    # A Fortran-order copy of its lower triangle, the upper one zero as in
    # every buffer linalg builds: _cholesky factors such a matrix in place.
    return _cholesky(np.array(np.tril(m), order="F"))


def loo_means_by_folds(params, data: Dataset, nugget: float) -> np.ndarray:
    """Leave-one-out means the long way: for each run i, a new Dataset of
    the other n-1 runs, predicted at run i with theta and mu fixed and the
    factorization started at `nugget`."""
    x_orig = scale_points(data.points, data.ranges, "from_unit")
    means = np.empty(data.n)
    for i in range(data.n):
        keep = np.arange(data.n) != i
        fold = Dataset(data.points[keep], data.responses[keep], data.ranges)
        means[i] = predict_batch(params, fold, x_orig[i : i + 1], nugget=nugget)[0].mean
    return means


def normal_logpdf(x, var):
    """log N(x; 0, var) evaluated in full, every term per call: the
    density the sampler's prior table must reproduce bit for bit."""
    return -0.5 * (np.log(2.0 * np.pi * var) + x * x / var)


@functools.cache
def _small_dataset(d: int) -> Dataset:
    # Three runs in d dimensions with zero responses.
    return Dataset(np.random.default_rng(0).uniform(size=(3, d)), np.zeros(3), np.tile([0.0, 1.0], (d, 1)))


def chain_state(hyper, phi, data: Dataset | None = None, mu=0.0, sigma2=1.0, gamma=None, seed=0):
    """The SamplerState a chain on `data` would hold at (mu, sigma2, phi,
    gamma), gamma all ones unless given.  Without data it is a three-run
    dataset of hyper's dimension, for tests of the prior rows, the
    inclusion probabilities or a synthetic phi target.  `seed` seeds the
    state's generator, or is the generator."""
    if data is None:
        data = _small_dataset(hyper.dim)
    gamma = np.ones(hyper.dim, dtype=np.int64) if gamma is None else np.asarray(gamma)
    return sampler.SamplerState(data, hyper, mu, sigma2, np.asarray(phi, dtype=float), gamma,
                                np.random.default_rng(seed))


def use_phi_target(monkeypatch, log_kernel):
    """Make sampler.update_phi target exp(log_kernel(phi)) instead of the
    posterior: no correlation matrix is factored, and the real proposal and
    accept/reject step run against the synthetic kernel.  The stand-in
    factor of a phi is phi itself, its quadratic form 0.0, and the prior
    rows are not read.  Build the state after this call, so that its factor
    is its phi too."""
    monkeypatch.setattr(sampler, "_factor", lambda state, phi, slot: (phi, 0.0))
    monkeypatch.setattr(sampler, "_kernel_value", lambda factor, *rest: log_kernel(factor))


def _checked_factor(phi, data: Dataset):
    # R(phi) at exactly SAMPLER_NUGGET, theta = phi^2 checked first.
    return fixed_nugget_factor(data.pair_table, phi * phi, sampler.SAMPLER_NUGGET, data.responses)


def _log_prior(phi, gamma, hyper) -> float:
    # sum_k log N(phi_k; 0, (tau_k c_k^{gamma_k})^2), every density in full.
    return float(np.sum(normal_logpdf(phi, (hyper.tau * np.power(hyper.c, gamma)) ** 2)))


def phi_log_kernel(phi, mu, sigma2, gamma, data: Dataset, hyper) -> float:
    """Log full-conditional kernel of phi, up to an additive constant.

    log g(phi) = -1/2 log det R(phi) - (y-mu)'R^-1(y-mu)/(2 sigma2)
                 - 1/2 sum_k phi_k^2 / (tau_k c_k^{gamma_k})^2  (+ const).
    Even in phi: flipping all signs leaves the value unchanged.  R(phi)
    carries exactly SAMPLER_NUGGET and comes from the checked
    fixed_nugget_factor; NotPositiveDefiniteError is raised when it does
    not factor there.  The prior is each normal_logpdf in full.
    """
    phi = np.asarray(phi, dtype=float)
    factor = _checked_factor(phi, data)
    return sampler._kernel_value(factor, factor.quad(data.responses - mu), _log_prior(phi, gamma, hyper), sigma2)


def reference_run_chain(data: Dataset, hyper, init):
    """run_chain's scan the long way, from `init`, sharing no step with it:
    mu and sigma2 drawn by rng.normal and rng.gamma from the factor's
    moments, every factor from the checked fixed_nugget_factor, phi's
    mixture prior evaluated fresh by normal_logpdf at each kernel value,
    and gamma drawn from inclusion probabilities made from normal_logpdf
    and log p, log(1 - p).  Returns the kept draws, the acceptance rate and
    the count of proposals that did not factor, which the lean scan must
    reproduce bit for bit."""
    rng = np.random.default_rng(hyper.seed)
    n = data.n
    mu, sigma2 = init.mu, init.sigma2
    phi = np.minimum(np.abs(init.phi), hyper.c * hyper.tau)
    gamma = np.ones(data.dim, dtype=np.int64)
    with np.errstate(divide="ignore"):
        log_p, log_q = np.log(hyper.p), np.log1p(-hyper.p)

    def log_kernel(factor, phi):
        quad = factor.quad(data.responses - mu)
        return -0.5 * factor.log_det - quad / (2.0 * sigma2) + _log_prior(phi, gamma, hyper)

    factor = _checked_factor(phi, data)
    kept = range(hyper.burnin + 1, hyper.iters + 1, hyper.thin)
    draws = {"mu": [], "sigma2": [], "phi": [], "gamma": []}
    accepted = failures = 0
    for scan in range(1, hyper.iters + 1):
        mu = float(rng.normal(factor.gls_mean, np.sqrt(sigma2 / factor.one_rinv_one)))
        sigma2 = float(1.0 / rng.gamma(n / 2.0, 2.0 / factor.quad(data.responses - mu)))
        logp_cur = log_kernel(factor, phi)
        prop = phi + rng.normal(size=phi.shape) * hyper.prop_sd
        log_u = float(np.log(rng.uniform()))
        try:
            prop_factor = _checked_factor(prop, data)
        except NotPositiveDefiniteError:
            failures += 1
        else:
            if log_u < log_kernel(prop_factor, prop) - logp_cur:
                phi, factor = prop, prop_factor
                accepted += 1
        log_a = normal_logpdf(phi, (hyper.c * hyper.tau) ** 2) + log_p
        log_b = normal_logpdf(phi, hyper.tau**2) + log_q
        probs = np.exp(log_a - np.logaddexp(log_a, log_b))
        gamma = (rng.uniform(size=len(probs)) < probs).astype(np.int64)
        if scan in kept:
            for values, value in zip(draws.values(), (mu, sigma2, phi, gamma)):
                values.append(value)
    return SimpleNamespace(**{k: np.array(v) for k, v in draws.items()},
                           accept_rate=accepted / hyper.iters, failures=failures)


def _reference_min_dist_and_crit(pts):
    # Criterion pair: (min pairwise distance, sum of inverse squared
    # distances).  The second breaks ties among equal-min configurations.
    d2 = pdist(pts, "sqeuclidean")
    return float(np.sqrt(d2.min())), float(np.sum(1.0 / d2))


def reference_maximin_lhd(n: int, d: int, seed, sweeps: int | None = None) -> Design:
    """The maximin search with two full distance passes per sweep: the
    criterion of the current and of the swapped design, each from pdist."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    rng = _as_rng(seed)
    design = random_lhd(n, d, rng)
    pts = design.points.copy()
    if sweeps is None:
        sweeps = 100 * n

    best_min, best_crit = _reference_min_dist_and_crit(pts)
    for _ in range(sweeps):
        dists = pdist(pts, "sqeuclidean")
        i, j = np.triu_indices(n, k=1)
        closest = int(np.argmin(dists))
        a = int(i[closest]) if rng.uniform() < 0.5 else int(j[closest])
        b = int(rng.integers(n - 1))
        if b >= a:
            b += 1
        k = int(rng.integers(d))
        pts[[a, b], k] = pts[[b, a], k]
        new_min, new_crit = _reference_min_dist_and_crit(pts)
        if new_min > best_min or (new_min == best_min and new_crit < best_crit):
            best_min, best_crit = new_min, new_crit
        else:
            pts[[a, b], k] = pts[[b, a], k]
    return Design(pts)
