"""Kriging core: dataset validation, profile likelihood, fit, prediction."""

import copy
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpotrs, dtrtri

from conftest import (
    build_corr_matrix,
    chol_decompose,
    make_dataset,
    pairwise_sqdiffs,
    profile_gradient_full,
    two_point_dataset,
)
from ssgp import gp, linalg
from ssgp.designs import maximin_lhd, scale_points
from ssgp.gp import (
    LOG_THETA_HI,
    LOG_THETA_LO,
    SIGMA2_FLOOR,
    Dataset,
    FitOptions,
    GpParams,
    mle_fit,
    neg_log_profile_likelihood,
    predict_batch,
)
from ssgp.sampler import SAMPLER_NUGGET


def _count_calls(monkeypatch, module, name):
    # Route module.name through a wrapper that records each call.
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _bits(preds):
    # Every field of every prediction, as exact bit patterns.
    return [(np.float64(p.mean).tobytes(), np.float64(p.mse).tobytes(), p.clamped) for p in preds]


@pytest.fixture(scope="module")
def borehole50():
    return make_dataset("borehole", 50)


@pytest.fixture(scope="module")
def linear54():
    return make_dataset("linear", 54)


class TestDataset:
    def test_from_arrays_defaults_to_unit_cube(self):
        data = Dataset.from_arrays([[0.2, 0.3], [0.8, 0.7]], [1.0, 2.0])
        assert np.array_equal(data.ranges, [[0.0, 1.0], [0.0, 1.0]])
        assert data.n == 2 and data.dim == 2

    def test_from_arrays_without_ranges_needs_the_unit_cube(self):
        # Unchecked, these points got ranges (0, 1) and tau = 1/15.
        with pytest.raises(ValueError, match=r"column x1 has points outside \[0, 1\]"):
            Dataset.from_arrays([[5.0], [10.0], [7.0]], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="column x2 "):
            Dataset.from_arrays([[0.5, 0.5], [0.2, -0.1]], [1.0, 2.0])
        data = Dataset.from_arrays([[0.0, 1.0], [1.0, 0.0]], [1.0, 2.0])
        assert np.array_equal(data.points, [[0.0, 1.0], [1.0, 0.0]])

    def test_from_arrays_needs_points_within_ranges(self):
        # Unchecked, 70 on the range (0, 20) became the unit point 3.5.
        with pytest.raises(ValueError, match=r"column x1 has points outside \[0, 20\]"):
            Dataset.from_arrays([[5.0], [10.0], [70.0]], [1.0, 2.0, 3.0], ranges=[[0.0, 20.0]])
        with pytest.raises(ValueError, match="column x2 "):
            Dataset.from_arrays([[1.0, 5.0], [2.0, -0.5]], [1.0, 2.0], ranges=[[0.0, 2.0], [-0.25, 5.0]])
        # A point on either bound is kept.
        data = Dataset.from_arrays([[0.05], [0.15], [0.1]], [1.0, 2.0, 3.0], ranges=[[0.05, 0.15]])
        assert data.n == 3

    def test_from_arrays_scales(self):
        data = Dataset.from_arrays([[5.0], [15.0]], [1.0, 2.0], ranges=[[0.0, 20.0]])
        assert np.allclose(data.points, [[0.25], [0.75]])
        assert np.allclose(scale_points(data.points, data.ranges, "from_unit"), [[5.0], [15.0]])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="2 design points but 3"):
            Dataset.from_arrays([[0.1], [0.9]], [1.0, 2.0, 3.0])

    def test_ranges_shape(self):
        with pytest.raises(ValueError, match="ranges"):
            Dataset(np.array([[0.1], [0.9]]), [1.0, 2.0], np.array([[0.0, 1.0], [0.0, 1.0]]))

    def test_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset.from_arrays([[0.1], [np.inf]], [1.0, 2.0])

    def test_degenerate_range_names_dimension(self):
        with pytest.raises(ValueError, match="dimension 2"):
            Dataset(
                np.array([[0.1, 0.2], [0.9, 0.8]]),
                [1.0, 2.0],
                np.array([[0.0, 1.0], [1.0, 1.0]]),
            )

    def test_duplicate_points_conflicting_responses(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dataset.from_arrays([[0.5], [0.5]], [1.0, 2.0])

    def test_duplicate_points_same_response_allowed(self):
        data = Dataset.from_arrays([[0.5], [0.5]], [1.0, 1.0])
        assert data.n == 2

    def test_fingerprint_tracks_content(self):
        a = Dataset.from_arrays([[0.1], [0.9]], [1.0, 2.0])
        b = Dataset.from_arrays([[0.1], [0.9]], [1.0, 2.0])
        c = Dataset.from_arrays([[0.1], [0.9]], [1.0, 2.5])
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_pair_table_is_lower_triangle_of_sqdiffs(self, toy10):
        pairs = toy10.pair_table
        assert pairs is toy10.pair_table
        sqd = pairwise_sqdiffs(toy10.points)
        j, i = np.triu_indices(toy10.n, 1)
        assert pairs.n == toy10.n
        assert pairs.rows[: len(i)].tobytes() == sqd[i, j].tobytes()
        assert not pairs.rows[len(i) :].any()
        assert np.array_equal(pairs.index, j * toy10.n + i)

    def test_arrays_read_only_and_caller_arrays_untouched(self):
        pts = np.array([[0.1, 0.2], [0.9, 0.8]])
        y = np.array([1.0, 2.0])
        data = Dataset(pts, y, np.tile([0.0, 1.0], (2, 1)))
        with pytest.raises(ValueError, match="read-only"):
            data.points[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            data.responses[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            data.ranges[0, 0] = 0.5
        assert pts.flags.writeable and y.flags.writeable
        pts[0, 0] = 0.5
        assert data.points[0, 0] == 0.1

    @pytest.mark.parametrize(
        "clone", [lambda d: pickle.loads(pickle.dumps(d)), copy.deepcopy, copy.copy]
    )
    def test_copies_rebuilt_through_init(self, clone, monkeypatch):
        data = make_dataset("toy", 10)
        params = GpParams(mu=0.0, sigma2=1.0, phi=np.ones(data.dim))
        xs = scale_points(data.points, data.ranges, "from_unit")[:3]
        predict_batch(params, data, xs)  # fill the caches before copying
        dup = clone(data)
        assert not any(a.flags.writeable for a in (dup.points, dup.responses, dup.ranges))
        assert dup.fingerprint() == data.fingerprint()
        assert dup.pair_table.rows.tobytes() == linalg.pair_table(dup.points).rows.tobytes()
        # The copy factors R afresh: it carries no prediction factor.
        factorizations = _count_calls(monkeypatch, linalg, "corr_cholesky")
        assert _bits(predict_batch(params, dup, xs)) == _bits(predict_batch(params, data, xs))
        assert len(factorizations) == 1

    def test_predict_batch_reuses_pair_table(self, monkeypatch):
        data = make_dataset("toy", 10)
        params = GpParams(mu=0.0, sigma2=1.0, phi=np.ones(data.dim))
        tables = _count_calls(monkeypatch, linalg, "pair_table")
        factorizations = _count_calls(monkeypatch, linalg, "corr_cholesky")
        solves = _count_calls(monkeypatch, linalg, "solve_with_chol")
        xs = scale_points(data.points, data.ranges, "from_unit")[:3]
        first = _bits(predict_batch(params, data, xs))
        for x in [xs, xs[0], xs[1:], xs]:
            predict_batch(params, data, x)
        assert (len(tables), len(factorizations), len(solves)) == (1, 1, 1)
        # A repeated call returns the first call's output bit for bit.
        assert _bits(predict_batch(params, data, xs)) == first

    @pytest.mark.parametrize(
        "change",
        [
            {"mu": 0.7},
            {"phi": np.linspace(0.5, 1.5, 3)},
            {"nugget": 1e-6},
        ],
    )
    def test_new_model_on_one_dataset_matches_fresh_copy(self, change):
        # Switching mu, phi or the nugget on a Dataset that has predicted
        # gives bitwise what a Dataset that never predicted gives.
        data = make_dataset("toy", 10)
        base = {"mu": 0.2, "sigma2": 1.5, "phi": np.ones(3)}
        xs = np.random.default_rng(3).uniform(size=(5, 3))
        predict_batch(GpParams(**base), data, xs)
        params = GpParams(**{**base, **{k: v for k, v in change.items() if k != "nugget"}})
        nugget = change.get("nugget", linalg.DEFAULT_NUGGET)
        fresh = Dataset(data.points, data.responses, data.ranges)
        assert _bits(predict_batch(params, data, xs, nugget=nugget)) == _bits(
            predict_batch(params, fresh, xs, nugget=nugget)
        )
        # And back to the first model: the memo holds one model at a time.
        assert _bits(predict_batch(GpParams(**base), data, xs)) == _bits(
            predict_batch(GpParams(**base), fresh, xs)
        )


class TestGpParams:
    def test_theta_is_phi_squared(self):
        params = GpParams(mu=0.0, sigma2=1.0, phi=[-0.5, 2.0])
        assert np.allclose(params.theta, [0.25, 4.0])

    def test_sigma2_positive(self):
        with pytest.raises(ValueError, match="sigma2"):
            GpParams(mu=0.0, sigma2=0.0, phi=[1.0])

    def test_phi_finite(self):
        with pytest.raises(ValueError, match="phi"):
            GpParams(mu=0.0, sigma2=1.0, phi=[np.nan])
        # Finite, but its square (theta) is not: rejected without the
        # overflow RuntimeWarning, which the test configuration makes an error.
        with pytest.raises(ValueError, match="phi"):
            GpParams(mu=0.0, sigma2=1.0, phi=[0.5, 1e200])

    def test_owns_a_read_only_phi(self):
        phi = np.array([0.5, 2.0])
        params = GpParams(mu=0.0, sigma2=1.0, phi=phi)
        phi[0] = 7.0
        phi[1] = 1e200
        assert params.phi.tolist() == [0.5, 2.0]
        with pytest.raises(ValueError, match="read-only"):
            params.phi[0] = 7.0
        for dup in (pickle.loads(pickle.dumps(params)), copy.deepcopy(params), copy.copy(params)):
            assert not dup.phi.flags.writeable
            assert dup.phi.tolist() == [0.5, 2.0] and (dup.mu, dup.sigma2) == (0.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_mu_finite(self, bad):
        with pytest.raises(ValueError, match="mu"):
            GpParams(mu=bad, sigma2=1.0, phi=[1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sigma2_finite(self, bad):
        # A NaN sigma2 once passed and predict_batch returned mse=nan.
        with pytest.raises(ValueError, match="sigma2"):
            GpParams(mu=0.0, sigma2=bad, phi=[1.0])


class TestProfileEstimates:
    def test_identity_correlation_oracles(self):
        # With R = I the GLS mean is the plain average and the profiled
        # variance the mean squared residual: 2 and 2/3 for y = (1,2,3).
        chol = np.eye(3)
        y = np.array([1.0, 2.0, 3.0])
        factor = linalg.CorrFactor(chol, linalg.gls_rhs(y))
        mu = factor.gls_mean
        assert mu == pytest.approx(2.0, abs=1e-15)
        assert factor.quad(y - mu) / 3 == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_against_explicit_gls(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(size=(6, 2))
        y = rng.normal(size=6)
        theta = np.array([1.5, 0.4])
        r = build_corr_matrix(pts, theta, nugget=1e-8)
        chol = chol_decompose(r)
        rinv = np.linalg.inv(r)
        ones = np.ones(6)
        mu_direct = (ones @ rinv @ y) / (ones @ rinv @ ones)
        factor = linalg.CorrFactor(chol, linalg.gls_rhs(y))
        mu = factor.gls_mean
        assert mu == pytest.approx(mu_direct, abs=1e-10)
        s2_direct = (y - mu_direct) @ rinv @ (y - mu_direct) / 6
        assert factor.quad(y - mu) / 6 == pytest.approx(s2_direct, abs=1e-10)

    def test_objective_against_brute_force(self):
        rng = np.random.default_rng(5)
        data = Dataset.from_arrays(rng.uniform(size=(5, 2)), rng.normal(size=5))
        theta = np.array([2.0, 0.3])
        r = build_corr_matrix(data.points, theta, nugget=linalg.DEFAULT_NUGGET)
        rinv = np.linalg.inv(r)
        ones = np.ones(5)
        y = data.responses
        mu = (ones @ rinv @ y) / (ones @ rinv @ ones)
        s2 = (y - mu) @ rinv @ (y - mu) / 5
        expected = 0.5 * (5 * np.log(s2) + np.linalg.slogdet(r)[1])
        assert neg_log_profile_likelihood(theta, data) == pytest.approx(expected, abs=1e-9)


class TestFitOptions:
    @pytest.mark.parametrize("seed", [1.5, 2.0, True, False, "3", None, np.float64(3.0), np.True_])
    def test_seed_of_wrong_type_rejected_by_name(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer, got {re.escape(repr(seed))}"):
            FitOptions(seed=seed)

    def test_numpy_integer_seed_stored_as_int(self):
        opts = FitOptions(seed=np.int64(7))
        assert type(opts.seed) is int and opts == FitOptions(seed=7)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            FitOptions(seed=-1)


class TestMleFit:
    def test_interpolates_training_data(self, toy20):
        # Exact interpolation needs the unjittered kernel; the training-point
        # error at nugget eps is eps times the kriging weight vector, which
        # here has norm ~1e3.
        params = mle_fit(toy20, FitOptions(seed=0))
        preds = predict_batch(params, toy20, scale_points(toy20.points, toy20.ranges, "from_unit"), nugget=0.0)
        for p, y in zip(preds, toy20.responses):
            assert abs(p.mean - y) < 1e-6
            assert p.mse < 1e-6

    def test_near_interpolation_at_default_nugget(self, toy20):
        params = mle_fit(toy20, FitOptions(seed=0))
        preds = predict_batch(params, toy20, scale_points(toy20.points, toy20.ranges, "from_unit"))
        for p, y in zip(preds, toy20.responses):
            assert abs(p.mean - y) < 1e-3

    def test_deterministic(self, toy10):
        a = mle_fit(toy10, FitOptions(seed=3))
        b = mle_fit(toy10, FitOptions(seed=3))
        assert a.mu == b.mu and a.sigma2 == b.sigma2
        assert np.array_equal(a.phi, b.phi)

    def test_phi_nonnegative_root(self, toy10):
        params = mle_fit(toy10, FitOptions(seed=0))
        assert np.all(params.phi >= 0)

    def test_needs_two_runs(self):
        data = Dataset.from_arrays([[0.5]], [1.0])
        with pytest.raises(ValueError, match="at least 2"):
            mle_fit(data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_nugget_rejected(self, toy10, bad):
        with pytest.raises(ValueError, match="nugget must be finite and non-negative"):
            mle_fit(toy10, FitOptions(nugget=bad))

    def test_beats_arbitrary_theta(self, toy10):
        # The fitted objective value is no worse than a fixed guess.
        params = mle_fit(toy10, FitOptions(seed=0))
        fitted = neg_log_profile_likelihood(params.theta, toy10)
        guess = neg_log_profile_likelihood(np.full(3, 1.0), toy10)
        assert fitted <= guess + 1e-9

    @pytest.mark.parametrize("name", ["toy10", "borehole50", "linear54"])
    @pytest.mark.parametrize("nugget", [1e-8, 1e-5])
    def test_first_order_optimality(self, name, nugget, request):
        # At the returned theta the log-theta gradient vanishes in every
        # coordinate strictly inside the box; in a coordinate at a bound the
        # descent direction -g points out of the box.
        data = request.getfixturevalue(name)
        params = mle_fit(data, FitOptions(nugget=nugget, seed=0))
        _, g = neg_log_profile_likelihood(params.theta, data, nugget=nugget, grad=True)
        g = g * params.theta
        logtheta = np.log(params.theta)
        at_lo = np.abs(logtheta - LOG_THETA_LO) < 1e-9
        at_hi = np.abs(logtheta - LOG_THETA_HI) < 1e-9
        inside = ~(at_lo | at_hi)
        assert np.all(np.abs(g[inside]) < 1e-3), g[inside]
        assert np.all(g[at_lo] > 0), g[at_lo]
        assert np.all(g[at_hi] < 0), g[at_hi]

    def test_constant_response(self, toy10):
        # Every residual is exactly zero, so sigma2 sits at its floor and the
        # search minimizes log det R alone.
        data = Dataset(toy10.points, np.full(toy10.n, 2.0), toy10.ranges)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = mle_fit(data, FitOptions(seed=0))
        assert params.sigma2 == SIGMA2_FLOOR
        assert params.mu == 2.0

    def test_every_evaluation_goes_through_module_attribute(self, toy10, monkeypatch):
        # Tracing wraps gp.neg_log_profile_likelihood; the search must call
        # it by that name, and the wrapper must not change the fit.
        expected = mle_fit(toy10, FitOptions(seed=4))
        calls = []
        original = gp.neg_log_profile_likelihood

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(gp, "neg_log_profile_likelihood", counting)
        got = mle_fit(toy10, FitOptions(seed=4))
        assert len(calls) > 1
        assert got.mu == expected.mu and got.sigma2 == expected.sigma2
        assert np.array_equal(got.phi, expected.phi)

    def test_start_makes_one_descent_that_does_not_climb(self, borehole50, monkeypatch):
        theta0 = mle_fit(borehole50, FitOptions(seed=0)).theta
        calls = _count_calls(monkeypatch, gp, "minimize")
        params = mle_fit(borehole50, FitOptions(nugget=SAMPLER_NUGGET), start=theta0)
        assert len(calls) == 1
        at = lambda theta: neg_log_profile_likelihood(theta, borehole50, nugget=SAMPLER_NUGGET)
        assert at(params.theta) <= at(theta0)

    def test_without_start_makes_n_starts_descents(self, toy10, monkeypatch):
        calls = _count_calls(monkeypatch, gp, "minimize")
        mle_fit(toy10, FitOptions(seed=0))
        assert len(calls) == gp.N_STARTS

    @pytest.mark.parametrize("name", ["borehole50", "linear54"])
    def test_warm_init_matches_multi_start_init(self, name, request):
        # The chain's init in a benchmark replicate: one descent at the
        # sampler nugget from the comparator's theta.  It reaches the
        # multi-start init's objective; the largest gap measured on these
        # fixtures at fit seeds 0-2 was 9.6e-11 (linear54, seed 1).
        data = request.getfixturevalue(name)
        comparator = mle_fit(data, FitOptions(seed=0))
        warm = mle_fit(data, FitOptions(nugget=SAMPLER_NUGGET), start=comparator.theta)
        cold = mle_fit(data, FitOptions(nugget=SAMPLER_NUGGET, seed=0))
        at = lambda p: neg_log_profile_likelihood(p.theta, data, nugget=SAMPLER_NUGGET)
        assert at(warm) == pytest.approx(at(cold), abs=1e-9)

    def test_start_of_wrong_shape_rejected(self, toy10):
        with pytest.raises(ValueError, match=r"start must have shape \(3,\), got \(2,\)"):
            mle_fit(toy10, start=np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_rejected(self, toy10, bad):
        with pytest.raises(ValueError, match="start entries must be finite and positive"):
            mle_fit(toy10, start=[1.0, bad, 1.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_start_rejected(self, toy10, bad):
        with pytest.raises(ValueError, match="start entries must be finite and positive"):
            mle_fit(toy10, start=[1.0, 1.0, bad])


class TestLikelihoodGradient:
    @pytest.mark.parametrize("name", ["toy10", "borehole50", "linear54"])
    @pytest.mark.parametrize("nugget", [1e-8, 1e-5])
    def test_matches_central_differences(self, name, nugget, request):
        data = request.getfixturevalue(name)
        rng = np.random.default_rng(23)
        h = 1e-5
        for _ in range(3):
            logtheta = rng.uniform(-3.0, 2.0, size=data.dim)
            theta = np.exp(logtheta)
            value, g = neg_log_profile_likelihood(theta, data, nugget=nugget, grad=True)
            assert value == neg_log_profile_likelihood(theta, data, nugget=nugget)
            step = h * np.eye(data.dim)
            fd = np.array([
                (neg_log_profile_likelihood(np.exp(logtheta + e), data, nugget=nugget)
                 - neg_log_profile_likelihood(np.exp(logtheta - e), data, nugget=nugget)) / (2 * h)
                for e in step
            ])
            assert np.max(np.abs(g * theta - fd)) <= 1e-6 * np.max(np.abs(fd))

    @pytest.mark.parametrize("name", ["toy10", "borehole50", "linear54"])
    @pytest.mark.parametrize("nugget", [1e-8, 1e-5])
    def test_pair_table_matches_full_matrices(self, name, nugget, request):
        # The gradient over the pairs i > j against the same formula over
        # the full (n, n, d) squared differences and R0, from one factor
        # and the same R^-1 and a = R^-1 (y - mu): syrk's triangle of V'V
        # from trtri's V = L^-1, mirrored, and potrs.  (Against V'V from an
        # identity solve, see test_linalg's TestLikelihoodGradient: two
        # inverses of one factor differ by about cond(R) eps, and these
        # theta reach cond(R) ~ 7e6 on toy10.)
        data = request.getfixturevalue(name)
        rng = np.random.default_rng(29)
        for _ in range(5):
            theta = np.exp(rng.uniform(np.log(0.1), np.log(2.0), data.dim)) ** 2
            out = linalg._scratch(data.pair_table)
            factor, mu, resid, s2 = gp._profile(theta, data, nugget, out)
            low = dsyrk(1.0, dtrtri(factor.lower, lower=1)[0], trans=1, lower=1)
            alpha = dpotrs(factor.lower, resid, lower=1)[0]
            expect = profile_gradient_full(factor, mu, s2, theta, data, low + np.tril(low, -1).T, alpha)
            got = linalg.likelihood_gradient(factor.lower, data.pair_table, out.gemv, resid, s2)
            assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))



def _near_duplicate_dataset() -> Dataset:
    # Nine runs, two of them 1e-5 apart: at nugget 0 every theta below
    # about 1e-2 leaves R with a pivot under PIVOT_TOL, so a fit from the
    # log-theta box escalates the nugget on many evaluations.
    x = maximin_lhd(8, 2, 0).points
    x = np.vstack([x, x[0] + 1e-5])
    return Dataset.from_arrays(x, np.sin(5 * x[:, 0]) + x[:, 1])


class TestOneBuildPerEvaluation:
    """mle_fit builds every evaluation's R in one buffer, and the gradient
    reads R0 from that build instead of forming exp(-D theta) again."""

    def test_one_scratch_per_fit(self, monkeypatch):
        data = _near_duplicate_dataset()
        counts = {"scratch": 0, "evals": 0, "attempts": 0}
        real_scratch, real_chol, real_nll = linalg._scratch, linalg._cholesky, gp.neg_log_profile_likelihood

        def counted(name, real):
            def call(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(linalg, "_scratch", counted("scratch", real_scratch))
        monkeypatch.setattr(linalg, "_cholesky", counted("attempts", real_chol))
        monkeypatch.setattr(gp, "neg_log_profile_likelihood", counted("evals", real_nll))
        mle_fit(data, FitOptions(nugget=0.0, seed=0))
        # Every evaluation and the final profile factor at least once, and
        # some escalate: more attempts than factorizations.
        assert counts["evals"] > 100
        assert counts["attempts"] > counts["evals"] + 1
        assert counts["scratch"] == 1

    def test_gradient_from_the_build_is_the_fresh_one(self):
        # At a theta whose factor escalates, the build runs twice in one
        # buffer; the R0 it leaves must be the bits of exp(rows @ -theta).
        data = _near_duplicate_dataset()
        theta = np.array([1e-3, 2e-3])
        assert linalg.corr_cholesky(data.points, theta, 0.0)[1] > 0.0
        out = linalg._scratch(data.pair_table)
        factor, mu, resid, s2 = gp._profile(theta, data, 0.0, out)
        # The gradient uses its factor up, so the second one reads a copy.
        copy = linalg.CorrFactor(factor.lower.copy(order="F"), data.gls_rhs)
        got = linalg.likelihood_gradient(factor.lower, data.pair_table, out.gemv, resid, s2)
        fresh = linalg.likelihood_gradient(copy.lower, data.pair_table, np.exp(data.pair_table.rows @ -theta),
                                           data.responses - mu, s2)
        assert got.tobytes() == fresh.tobytes()
        _, public = neg_log_profile_likelihood(theta, data, nugget=0.0, grad=True)
        assert public.tobytes() == got.tobytes()

class TestPrediction:
    def test_symmetric_midpoint(self):
        data = Dataset.from_arrays([[0.25], [0.75]], [0.0, 1.0])
        params = mle_fit(data, FitOptions(seed=0))
        pred = predict_batch(params, data, [0.5])[0]
        # By symmetry the midpoint prediction is the average response.
        assert pred.mean == pytest.approx(0.5, abs=1e-8)

    def test_original_scale_inputs(self):
        data = Dataset.from_arrays([[2.5], [7.5]], [0.0, 1.0], ranges=[[0.0, 10.0]])
        params = mle_fit(data, FitOptions(seed=0))
        assert predict_batch(params, data, [5.0])[0].mean == pytest.approx(0.5, abs=1e-8)

    def test_mse_zero_at_data_grows_away(self, toy10):
        params = mle_fit(toy10, FitOptions(seed=0))
        at_data = predict_batch(params, toy10, scale_points(toy10.points, toy10.ranges, "from_unit")[0])[0]
        assert at_data.mse < 1e-6
        far = predict_batch(params, toy10, [5.0, 5.0, 5.0])[0]
        assert far.mse > params.sigma2 * 0.5
        assert not far.clamped

    def test_batch_matches_single(self, toy10):
        params = mle_fit(toy10, FitOptions(seed=0))
        xs = np.array([[0.2, 0.4, 0.6], [0.9, 0.1, 0.5]])
        batch = predict_batch(params, toy10, xs)
        for i, row in enumerate(xs):
            assert _bits(predict_batch(params, toy10, row)) == _bits(batch[i : i + 1])

    def test_mean_independent_of_batch_width(self):
        # At n = 54, d = 10 a BLAS GEMV mean, a tensordot exponent or an
        # axis-0 sum over the training points each give width-1 means that
        # differ in the last bits from the same points' means in a batch.
        data = make_dataset("linear", 54)
        params = GpParams(mu=0.3, sigma2=2.0, phi=np.linspace(0.2, 1.5, data.dim))
        lo, hi = data.ranges.T
        xs = lo + np.random.default_rng(7).random((1213, data.dim)) * (hi - lo)
        batch = [p.mean for p in predict_batch(params, data, xs)]
        single = [predict_batch(params, data, x)[0].mean for x in xs]
        # Width 2, and widths either side of 32 and of 606, where a kernel
        # that switched from an einsum to a per-coordinate loop at 32 points
        # and ran that loop in 256 KiB row blocks changed path at n = 54.
        for width in (2, 31, 32, 33, 605, 606, 607):
            chunked = [
                p.mean
                for i in range(0, len(xs), width)
                for p in predict_batch(params, data, xs[i : i + width])
            ]
            mismatched = [i for i in range(len(xs)) if not batch[i] == single[i] == chunked[i]]
            assert mismatched == [], width

    def test_dimension_checked(self, toy10):
        params = mle_fit(toy10, FitOptions(seed=0))
        for xs, match in [
            ([[0.5, 0.5]], "columns"),
            # A 3-D input whose second axis happens to equal d.
            (np.full((2, 3, 3), 0.5), r"got shape \(2, 3, 3\)"),
        ]:
            with pytest.raises(ValueError, match=match):
                predict_batch(params, toy10, xs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_nugget_rejected(self, toy10, bad):
        params = GpParams(mu=0.0, sigma2=1.0, phi=np.ones(toy10.dim))
        with pytest.raises(ValueError, match="nugget must be finite and non-negative"):
            predict_batch(params, toy10, [0.5, 0.5, 0.5], nugget=bad)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_point_rejected(self, toy10, bad):
        params = GpParams(mu=0.0, sigma2=1.0, phi=np.ones(toy10.dim))
        xs = scale_points(toy10.points, toy10.ranges, "from_unit")[:3].copy()
        xs[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite coordinate in test point 2"):
            predict_batch(params, toy10, xs)
        with pytest.raises(ValueError, match="test point 0"):
            predict_batch(params, toy10, xs[2])

    def test_zero_theta_ignores_a_huge_coordinate(self):
        # theta_0 = 0 makes coordinate 0 irrelevant, even one whose square
        # overflows; the prediction once came out NaN there.
        data = Dataset.from_arrays([[0.1, 0.2], [0.5, 0.9], [0.8, 0.4]], [1.0, -0.5, 2.0])
        params = GpParams(mu=0.4, sigma2=1.3, phi=[0.0, 1.0])
        huge, plain = predict_batch(params, data, [[1e308, 0.5], [0.3, 0.5]])
        assert np.isfinite([huge.mean, huge.mse]).all()
        assert _bits([huge]) == _bits([plain])
        # The same at index 10922 of a wide batch, where a kernel that summed
        # in 256 KiB row blocks began its second block at n = 3.
        b = 10922
        wide = np.tile([0.3, 0.5], (b + 1, 1))
        wide[b, 0] = 1e308
        wide_preds = predict_batch(params, data, wide)
        plain_in_wide, huge = wide_preds[0], wide_preds[b]
        assert np.isfinite([huge.mean, huge.mse]).all()
        assert _bits([huge]) == _bits([plain_in_wide])
        assert huge.mean == plain.mean
        # A coordinate that scales to inf, where (0 * inf) * inf is NaN.
        half = Dataset.from_arrays(
            [[0.05, 0.2], [0.25, 0.9], [0.4, 0.4]], [1.0, -0.5, 2.0], ranges=[[0.0, 0.5], [0.0, 1.0]]
        )
        with pytest.warns(RuntimeWarning, match="overflow"):
            inf_pt, plain = predict_batch(params, half, [[1e308, 0.5], [0.15, 0.5]])
        assert np.isfinite([inf_pt.mean, inf_pt.mse]).all()
        assert _bits([inf_pt]) == _bits([plain])

    def test_negative_mse_clamped_to_zero(self, toy20):
        # At the training points with no nugget the MSE is zero up to
        # round-off, so some raw values come out negative.  The raw values
        # are the MSE formula on the same factor; each unclamped result must
        # equal its raw value bitwise, which holds the formula here to the
        # one in predict_batch.
        params = mle_fit(toy20, FitOptions(seed=0))
        lower, _ = linalg.corr_cholesky(toy20.points, params.theta, 0.0)
        factor = linalg.CorrFactor(lower, toy20.gls_rhs)
        xs = np.resize(scale_points(toy20.points, toy20.ranges, "from_unit"), (33, toy20.dim))
        xs_unit = scale_points(xs, toy20.ranges, "to_unit")
        quad, one_rinv_r = factor.cross_terms(gp._cross_corr(toy20.points, xs_unit, params.theta))
        raw = params.sigma2 * (1.0 - quad + (1.0 - one_rinv_r) ** 2 / factor.one_rinv_one)
        wide = predict_batch(params, toy20, xs, nugget=0.0)
        assert (raw < 0).any() and (raw >= 0).any()
        for p, s in zip(wide, raw):
            if s < 0:
                assert p.clamped and np.float64(p.mse).tobytes() == np.float64(0.0).tobytes()
            else:
                assert not p.clamped and p.mse == s
        # Flags and mse bits agree at widths 31 and 33.
        narrow = predict_batch(params, toy20, xs[:31], nugget=0.0)
        assert _bits(narrow) == _bits(wide[:31])

    def test_mse_bits_do_not_depend_on_batch_width(self, linear54, borehole50):
        # Each point's prediction is bitwise the same at every width, a lone
        # point included, from 1 to 63 and either side of 606 (n = 54) and
        # 655 (n = 50), the row-block edges of a kernel that summed in
        # 256 KiB blocks; an empty batch predicts nothing.
        rng = np.random.default_rng(17)
        for data, b in ((linear54, 606), (borehole50, 655)):
            params = GpParams(mu=0.3, sigma2=2.0, phi=rng.uniform(0.3, 1.5, data.dim))
            xs = rng.uniform(size=(2 * b + 1, data.dim))
            widest = _bits(predict_batch(params, data, xs))
            assert predict_batch(params, data, xs[:0]) == []
            for m in [*range(1, 64), b - 1, b, b + 1]:
                assert _bits(predict_batch(params, data, xs[:m])) == widest[:m], m
            for i in range(40):
                assert _bits(predict_batch(params, data, xs[i])) == widest[i : i + 1], i

    @pytest.mark.parametrize("m", [1, 2, 606, 1000])
    def test_cross_corr_sums_each_pair_in_order(self, linear54, borehole50, m):
        # Pins the kernel's arithmetic: acc = 0, then acc += (theta_k d_k) d_k
        # for k = 0..d-1 in order, then exp(-acc), bit for bit.  A scipy
        # whose weighted cdist sums in another order or association fails
        # here, and with it README's claim that a point's prediction does
        # not depend on the batch width.
        rng = np.random.default_rng(23)
        for data in (linear54, borehole50):
            theta = rng.uniform(0.3, 1.5, data.dim) ** 2
            xs = rng.uniform(size=(m, data.dim))
            diff = xs[:, None, :] - data.points[None, :, :]
            acc = np.zeros((m, data.n))
            for k in range(data.dim):
                acc += (theta[k] * diff[..., k]) * diff[..., k]
            expected = np.exp(-acc)
            got = gp._cross_corr(data.points, xs, theta)
            assert got.shape == (m, data.n)
            assert got.tobytes() == expected.tobytes()

    def test_wide_batch_peak_memory(self, linear54):
        # cdist builds the exponent in the (m, n) output, which is negated
        # and exponentiated in place; an (m, n, d) difference tensor alone
        # would take m n d 8 bytes.
        params = GpParams(mu=0.3, sigma2=2.0, phi=np.linspace(0.2, 1.5, linear54.dim))
        lo, hi = linear54.ranges.T
        xs = lo + np.random.default_rng(3).random((2000, linear54.dim)) * (hi - lo)
        predict_batch(params, linear54, xs[0])  # factor the model first
        tracemalloc.start()
        try:
            predict_batch(params, linear54, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(xs) * linear54.n * linear54.dim * 8 / 2

    def test_mean_reverts_to_mu_far_away(self):
        data = two_point_dataset()
        params = GpParams(mu=1.5, sigma2=1.0, phi=[3.0])
        pred = predict_batch(params, data, [60.0])[0]
        assert pred.mean == pytest.approx(1.5, abs=1e-10)
