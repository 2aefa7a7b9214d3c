"""Shared helpers: small deterministic datasets built from the test functions,
the scalar kernel and the full correlation matrix as oracles, and a synthetic
target for the phi step."""

import warnings

import numpy as np
import pytest

import ssgp.sampler as sampler
from ssgp.designs import maximin_lhd, scale_points
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
    monkeypatch.setattr(sampler, "_factor", lambda phi, data, sqdiffs=None: None)
    monkeypatch.setattr(sampler, "_kernel_value", lambda factor, phi, *rest: log_kernel(phi))
