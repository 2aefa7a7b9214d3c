"""Shared helpers: small deterministic datasets built from the test functions,
the scalar kernel, the full correlation matrix, the phi log-kernel and a
reference maximin search as oracles, and a synthetic target for the phi
step."""

import warnings

import numpy as np
import pytest
from scipy.spatial.distance import pdist

import ssgp.sampler as sampler
from ssgp.designs import Design, _as_rng, maximin_lhd, random_lhd, scale_points
from ssgp.gp import Dataset
from ssgp.linalg import DEFAULT_NUGGET, corr_matrix_from_sqdiffs, pairwise_sqdiffs
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


def use_phi_target(monkeypatch, log_kernel):
    """Make sampler.update_phi target exp(log_kernel(phi)) instead of the
    posterior: no correlation matrix is factored, and the real proposal and
    accept/reject step run against the synthetic kernel."""
    monkeypatch.setattr(sampler, "_factor", lambda phi, data: None)
    monkeypatch.setattr(sampler, "_kernel_value", lambda factor, phi, *rest: log_kernel(phi))


def phi_log_kernel(phi, mu, sigma2, gamma, data: Dataset, hyper) -> float:
    """Log full-conditional kernel of phi, up to an additive constant.

    log g(phi) = -1/2 log det R(phi) - (y-mu)'R^-1(y-mu)/(2 sigma2)
                 - 1/2 sum_k phi_k^2 / (tau_k c_k^{gamma_k})^2  (+ const).
    Even in phi: flipping all signs leaves the value unchanged.  R(phi)
    carries exactly SAMPLER_NUGGET; NotPositiveDefiniteError is raised
    when it does not factor there.
    """
    phi = np.asarray(phi, dtype=float)
    return sampler._kernel_value(sampler._factor(phi, data), phi, mu, sigma2, gamma, hyper)


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
    return Design(pts, kind="maximin-lhd", seed=seed if isinstance(seed, int) else None)
