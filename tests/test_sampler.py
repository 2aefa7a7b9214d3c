"""Sampler layer: hyperparameters, conditional updates, seeds, full chains."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.stats import norm

import ssgp.sampler as sampler
from conftest import (
    build_corr_matrix,
    chain_state,
    fixed_nugget_factor,
    make_dataset,
    normal_logpdf,
    phi_log_kernel,
    reference_run_chain,
    two_point_dataset,
    use_phi_target,
)
from ssgp import linalg
from ssgp.designs import maximin_lhd
from ssgp.errors import NotPositiveDefiniteError, OptimizerFailedError, SamplerError
from ssgp.gp import Dataset, FitOptions, GpParams, mle_fit
from ssgp.sampler import (
    SAMPLER_NUGGET,
    Chain,
    Hyperparams,
    SamplerState,
    default_hyperparams,
    derive_seed,
    posterior_params,
    run_chain,
    update_gamma,
    update_mu,
    update_phi,
    update_sigma2,
)

pytestmark = pytest.mark.filterwarnings("ignore:MH acceptance rate:RuntimeWarning")

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_policy_constants_pinned():
    # Numerical policy: sharp default for prediction paths, a fixed coarser
    # floor for the MCMC target (state-dependent escalation would change it).
    assert linalg.DEFAULT_NUGGET == 1e-8
    assert linalg.MAX_NUGGET == 1e-4
    assert SAMPLER_NUGGET == 1e-5


class TestHyperparams:
    def test_scalar_broadcast(self):
        h = Hyperparams.for_dim(3, tau=0.3)
        assert h.dim == 3
        assert np.array_equal(h.tau, [0.3, 0.3, 0.3])
        assert np.array_equal(h.c, [25.0, 25.0, 25.0])
        assert np.array_equal(h.p, [0.5, 0.5, 0.5])
        assert np.array_equal(h.prop_sd, [0.03, 0.03, 0.03])

    def test_vector_tau_broadcasts_others(self):
        h = Hyperparams(tau=np.array([0.1, 0.2, 0.3]))
        assert h.dim == 3
        assert np.array_equal(h.c, [25.0, 25.0, 25.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            Hyperparams(tau=np.array([0.1, 0.2]), c=np.array([10.0, 10.0, 10.0]))

    @pytest.mark.parametrize(
        "kwargs,phrase",
        [
            (dict(tau=0.0), "tau"),
            (dict(tau=0.3, prop_sd=0.0), "prop_sd"),
            (dict(tau=0.3, c=1.0), "c entries"),
            (dict(tau=0.3, p=0.0), "p entries"),
            (dict(tau=0.3, p=1.2), "p entries"),
            (dict(tau=0.3, iters=0), "iters"),
            (dict(tau=0.3, iters=100, burnin=100), "burnin"),
            (dict(tau=0.3, thin=0), "thin"),
            (dict(tau=0.3, seed=-1), "seed must be >= 0"),
            (dict(tau="abc"), "tau must be a number"),
            (dict(tau=[0.3] * 3), "tau has length 3, expected 2"),
            (dict(tau=0.3, c=[25.0] * 3), "c has length 3, expected 2"),
            # Nothing inside the scan checks these: each gave a degenerate
            # chain, one that never moves or never includes an input.
            (dict(tau=np.nan), "^tau entries must be finite$"),
            (dict(tau=[0.3, np.inf]), "^tau entries must be finite$"),
            (dict(tau=0.3, c=np.inf), "^c entries must be finite$"),
            (dict(tau=0.3, p=[0.5, np.nan]), "^p entries must be finite$"),
            (dict(tau=0.3, p=-np.inf), "^p entries must be finite$"),
            (dict(tau=0.3, prop_sd=np.nan), "^prop_sd entries must be finite$"),
            (dict(tau=0.3, prop_sd=[0.03, np.inf]), "^prop_sd entries must be finite$"),
            # Each run length's least value, in errors.integer's words.
            (dict(tau=0.3, iters=0), "^iters must be >= 1, got 0$"),
            (dict(tau=0.3, burnin=-1), "^burnin must be >= 0, got -1$"),
            (dict(tau=0.3, thin=0), "^thin must be >= 1, got 0$"),
        ],
    )
    def test_validation(self, kwargs, phrase):
        with pytest.raises(ValueError, match=phrase):
            Hyperparams.for_dim(2, **kwargs)

    @pytest.mark.parametrize(
        "name,value",
        [("iters", 10.5), ("iters", 10.0), ("iters", True), ("burnin", np.float64(2.0)),
         ("thin", "2"), ("thin", None), ("seed", 1.5), ("seed", False),
         ("burnin", np.True_)],
    )
    def test_run_lengths_and_seed_must_be_integers(self, name, value):
        # Unchecked, a float fails deep in run_chain (in range or
        # SeedSequence) with a TypeError, and a bool runs as 0 or 1.  A numpy
        # integer is accepted and stored as an int.
        with pytest.raises(ValueError) as err:
            Hyperparams.for_dim(2, **{name: value})
        assert str(err.value) == f"{name} must be an integer, got {value!r}"
        h = Hyperparams.for_dim(2, iters=np.int64(50), burnin=np.int32(10), thin=np.uint8(2), seed=np.int64(3))
        assert [(type(v), v) for v in (h.iters, h.burnin, h.thin, h.seed)] == [(int, 50), (int, 10), (int, 2), (int, 3)]

    @pytest.mark.parametrize("d,message", [(True, "an integer, got True"), (2.5, "an integer, got 2.5"), (0, ">= 1, got 0")])
    def test_dimension_must_be_a_positive_integer(self, d, message):
        # Unchecked, a bool or a float fails inside np.full with a TypeError.
        with pytest.raises(ValueError) as err:
            Hyperparams.for_dim(d)
        assert str(err.value) == f"d must be {message}"
        assert Hyperparams.for_dim(np.int64(3)).dim == 3

    def test_barely_separated_slab_warns(self):
        with pytest.warns(RuntimeWarning, match="slab"):
            Hyperparams.for_dim(2, tau=0.3, c=1.5)

    def test_p_one_allowed(self):
        h = Hyperparams.for_dim(2, tau=0.3, p=1.0)
        assert np.array_equal(h.p, [1.0, 1.0])


class TestDefaultHyperparams:
    def test_tau_from_observed_range(self, toy10):
        h = default_hyperparams(toy10)
        assert np.allclose(h.tau, 1.0 / (3.0 * np.ptp(toy10.points, axis=0)))

    def test_constant_column_rejected(self):
        from ssgp.gp import Dataset

        data = Dataset.from_arrays([[0.5, 0.2], [0.5, 0.8]], [1.0, 2.0])
        with pytest.raises(ValueError, match="dimension 1"):
            default_hyperparams(data)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "rep", 3) == derive_seed(0, "rep", 3)

    def test_distinct_paths_and_masters(self):
        seeds = {
            derive_seed(0, "rep", 0),
            derive_seed(0, "rep", 1),
            derive_seed(1, "rep", 0),
            derive_seed(0, "design"),
            derive_seed(0, "a", "b"),
            derive_seed(0, "b", "a"),
        }
        assert len(seeds) == 6

    def test_uint64_range(self):
        s = derive_seed(12345, "x")
        assert isinstance(s, int)
        assert 0 <= s < 2**64


class TestInclusionProbabilities:
    """A state's inclusion probabilities, made from its prior rows when it
    is built at phi (SamplerState.inclusion_of)."""

    def test_frozen_values(self):
        h = Hyperparams.for_dim(2, tau=0.3, c=25.0, p=0.5)
        probs = chain_state(h, [0.0, 0.9]).inclusion
        # At phi = 0 the ratio collapses to 1/(1+c) = 1/26; at phi = 0.9 the
        # slab dominates.  Both frozen from direct density evaluation.
        assert probs[0] == pytest.approx(0.038461538461538464, abs=1e-15)
        assert probs[1] == pytest.approx(0.7814137618768208, abs=1e-13)

    def test_against_direct_densities(self):
        # 1000 random configurations against scipy's normal pdf, 1e-12.
        rng = np.random.default_rng(99)
        for _ in range(1000):
            tau = rng.uniform(0.05, 1.0)
            c = rng.uniform(2.5, 50.0)
            p = rng.uniform(0.01, 1.0)
            phi = rng.normal(scale=2.0)
            h = Hyperparams.for_dim(1, tau=tau, c=c, p=p)
            got = chain_state(h, [phi]).inclusion[0]
            a = norm.pdf(phi, scale=c * tau) * p
            b = norm.pdf(phi, scale=tau) * (1.0 - p)
            assert abs(got - a / (a + b)) < 1e-12

    def test_bitwise_equal_to_unhoisted_form(self):
        # The per-chain constants are the same arithmetic as the normal
        # log-densities evaluated in full, so seeded gamma draws are
        # unchanged; p = 1 gives log(1 - p) = -inf and probability 1.
        rng = np.random.default_rng(8)
        for i in range(300):
            d = int(rng.integers(1, 11))
            tau = rng.uniform(0.01, 2.0, d)
            c = rng.uniform(2.5, 80.0, d)
            p = rng.uniform(0.01, 1.0, d)
            if i % 5 == 0:
                p[0] = 1.0
            phi = rng.normal(scale=2.0, size=d)
            h = Hyperparams.for_dim(d, tau=tau, c=c, p=p)
            log_a = normal_logpdf(phi, (c * tau) ** 2) + np.log(p)
            with np.errstate(divide="ignore"):
                log_b = normal_logpdf(phi, tau**2) + np.log1p(-p)
            expected = np.exp(log_a - np.logaddexp(log_a, log_b))
            state = chain_state(h, phi)
            assert np.array_equal(state.inclusion, expected)
            assert np.array_equal(state.inclusion_of(state.prior_rows(phi * phi, 1)), expected)

    def test_monotone_in_abs_phi(self):
        h = Hyperparams.for_dim(1, tau=0.3, c=25.0)
        grid = [chain_state(h, [v]).inclusion[0] for v in (0.0, 0.3, 0.6, 0.9, 1.5)]
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_update_gamma_frequencies(self):
        h = Hyperparams.for_dim(2, tau=0.3, c=25.0)
        state = chain_state(h, [0.0, 0.9], seed=4)
        probs = state.inclusion

        def draw():
            update_gamma(state)
            return state.gamma

        draws = np.array([draw() for _ in range(20000)])
        # The state keeps gamma boolean; a Chain stores it as int64.
        assert draws.dtype == bool
        assert set(np.unique(draws)) <= {0, 1}
        freq = draws.mean(axis=0)
        se = np.sqrt(probs * (1 - probs) / 20000)
        assert np.all(np.abs(freq - probs) < 4 * se)


class TestPhiLogKernel:
    def _setup(self):
        data = two_point_dataset()
        hyper = Hyperparams.for_dim(1, tau=0.3, c=25.0)
        return data, hyper

    def test_brute_force_two_points(self):
        data, hyper = self._setup()
        phi, mu, sigma2 = np.array([0.7]), 1.2, 0.5
        r12 = np.exp(-(0.7**2) * (0.8 - 0.2) ** 2)
        r = np.array([[1.0 + SAMPLER_NUGGET, r12], [r12, 1.0 + SAMPLER_NUGGET]])
        resid = data.responses - mu
        quad = resid @ np.linalg.inv(r) @ resid
        slab_var = (25.0 * 0.3) ** 2
        prior = -0.5 * (np.log(2 * np.pi * slab_var) + 0.49 / slab_var)
        expected = -0.5 * np.linalg.slogdet(r)[1] - quad / (2 * sigma2) + prior
        got = phi_log_kernel(phi, mu, sigma2, np.array([1]), data, hyper)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_even_in_phi(self):
        data, hyper = self._setup()
        a = phi_log_kernel(np.array([0.7]), 1.2, 0.5, np.array([1]), data, hyper)
        b = phi_log_kernel(np.array([-0.7]), 1.2, 0.5, np.array([1]), data, hyper)
        assert a == b

    def test_gamma_switch_changes_only_the_prior(self):
        # Flipping gamma_k moves phi_k between mixture components:
        # the kernel difference must be -log c + phi^2 (1/tau^2 - 1/(c tau)^2)/2.
        data, hyper = self._setup()
        tau, c = 0.3, 25.0
        for phi_val in (0.05, 0.4, 1.3):
            phi = np.array([phi_val])
            k1 = phi_log_kernel(phi, 1.2, 0.5, np.array([1]), data, hyper)
            k0 = phi_log_kernel(phi, 1.2, 0.5, np.array([0]), data, hyper)
            expected = -np.log(c) + 0.5 * phi_val**2 * (1 / tau**2 - 1 / (c * tau) ** 2)
            assert k1 - k0 == pytest.approx(expected, abs=1e-12)

    def test_prior_bitwise_equal_to_unhoisted_form(self):
        # With log det R = 0 and a zero quadratic form the kernel is its
        # prior alone, sum_k log N(phi_k; 0, (tau_k c_k^gamma_k)^2).  The
        # table lookup, summed for the current phi and a proposal at once
        # as the scan does, must give the bits of each density evaluated
        # in full, which seeded chains were drawn with.
        stub = SimpleNamespace(log_det=0.0, quad=lambda mu: 0.0)
        rng = np.random.default_rng(31)
        for _ in range(300):
            d = int(rng.integers(1, 11))
            tau = rng.uniform(0.01, 2.0, d)
            c = rng.uniform(2.5, 80.0, d)
            gamma = rng.integers(0, 2, size=d)
            phis = rng.normal(scale=2.0, size=(2, d))
            state = chain_state(Hyperparams.for_dim(d, tau=tau, c=c, p=rng.uniform(0.01, 1.0, d)), phis[0])
            state.prior_rows(phis[0] ** 2, 0), state.prior_rows(phis[1] ** 2, 1)
            log_priors = sampler._log_priors(state.priors, gamma).tolist()
            for phi, log_prior in zip(phis, log_priors):
                expected = float(np.sum(normal_logpdf(phi, (tau * np.power(c, gamma)) ** 2)))
                got = sampler._kernel_value(stub, log_prior, rng.normal(), rng.uniform(0.1, 3.0))
                assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def _repeat(step, state, name, times):
    # `times` successive draws of one step, each read off the state it mutates.
    draws = []
    for _ in range(times):
        step(state)
        draws.append(getattr(state, name))
    return np.array(draws)


class TestConditionalUpdates:
    def test_mu_conditional_moments(self, toy10):
        # Frozen phi: iid draws must match the GLS-mean normal conditional.
        phi = np.array([0.9, 1.1, 0.2])
        chol, _ = linalg.corr_cholesky(toy10.points, phi**2, nugget=SAMPLER_NUGGET)
        y = toy10.responses
        ones = np.ones(toy10.n)
        rinv_y = linalg.solve_with_chol(chol, y)
        rinv_1 = linalg.solve_with_chol(chol, ones)
        denom = float(ones @ rinv_1)
        mean_true = float(ones @ rinv_y) / denom
        sigma2 = 2.7
        sd_true = np.sqrt(sigma2 / denom)
        state = chain_state(Hyperparams.for_dim(3), phi, toy10, sigma2=sigma2, seed=21)
        draws = _repeat(update_mu, state, "mu", 5000)
        assert abs(draws.mean() - mean_true) < 5 * sd_true / np.sqrt(5000)
        assert abs(draws.var() - sd_true**2) < 5 * sd_true**2 * np.sqrt(2 / 4999)

    def test_sigma2_conditional_moments(self, toy10):
        phi = np.array([0.9, 1.1, 0.2])
        chol, _ = linalg.corr_cholesky(toy10.points, phi**2, nugget=SAMPLER_NUGGET)
        mu = float(toy10.responses.mean())
        resid = toy10.responses - mu
        v = solve_triangular(chol, resid, lower=True)
        quad = float(v @ v)
        a, b = toy10.n / 2.0, quad / 2.0
        mean_true = b / (a - 1)
        var_true = b**2 / ((a - 1) ** 2 * (a - 2))
        state = chain_state(Hyperparams.for_dim(3), phi, toy10, mu=mu, seed=22)
        draws = _repeat(update_sigma2, state, "sigma2", 5000)
        assert abs(draws.mean() - mean_true) < 5 * np.sqrt(var_true / 5000)
        assert abs(draws.var() - var_true) / var_true < 0.2

    def test_sigma2_degenerate_residual(self):
        from ssgp.gp import Dataset

        data = Dataset.from_arrays([[0.2], [0.8]], [2.0, 2.0])
        state = chain_state(Hyperparams.for_dim(1), [1.0], data, mu=2.0)
        with pytest.raises(ValueError, match="quadratic form"):
            update_sigma2(state)

    def test_joint_gibbs_reaches_marginal(self, toy10):
        # Alternating the two closed-form updates with phi frozen targets the
        # integrated posterior whose sigma2 marginal has mean quad_gls/(n-3).
        phi = np.array([0.9, 1.1, 0.2])
        chol, _ = linalg.corr_cholesky(toy10.points, phi**2, nugget=SAMPLER_NUGGET)
        y = toy10.responses
        mu_gls = linalg.CorrFactor(chol, y).gls_mean
        v = solve_triangular(chol, y - mu_gls, lower=True)
        quad_gls = float(v @ v)
        target = quad_gls / (toy10.n - 3)
        state = chain_state(Hyperparams.for_dim(3), phi, toy10, mu=mu_gls, seed=33)
        total = 0.0
        for _ in range(20000):
            update_mu(state)
            update_sigma2(state)
            total += state.sigma2
        assert abs(total / 20000 / target - 1.0) < 0.05


class TestUpdatePhi:
    def test_flat_kernel_always_accepts(self, monkeypatch):
        hyper = Hyperparams.for_dim(2, tau=0.3)
        use_phi_target(monkeypatch, lambda v: 0.0)
        state = chain_state(hyper, [0.5, 0.5])
        for i in range(50):
            update_phi(state)
            assert state.accepted == i + 1

    def test_impossible_proposal_always_rejects(self, monkeypatch):
        hyper = Hyperparams.for_dim(1, tau=0.3)
        start = np.array([0.5])
        kernel = lambda v: 0.0 if np.array_equal(v, start) else -np.inf
        use_phi_target(monkeypatch, kernel)
        state = chain_state(hyper, start)
        for _ in range(20):
            update_phi(state)
            assert not state.accepted
            assert np.array_equal(state.phi, start)

    def test_failed_proposal_factorization_rejected(self, toy10, monkeypatch):
        # The scan factors through linalg's unchecked routine, so the
        # failure is injected there.
        calls = {"n": 0}
        real = linalg._corr_factor

        def second_call_fails(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise NotPositiveDefiniteError("forced")
            return real(*args, **kwargs)

        monkeypatch.setattr(linalg, "_corr_factor", second_call_fails)
        start = np.array([0.9, 1.1, 0.2])
        state = chain_state(Hyperparams.for_dim(3, tau=0.3), start, toy10)
        update_phi(state)
        assert state.failures == 1
        assert not state.accepted
        assert np.array_equal(state.phi, start)

    def test_scan_kernel_matches_phi_log_kernel(self, toy10):
        # The log-kernel the scan compares, read from a CorrFactor whose
        # quadratic form the sigma2 step already computed, against the public
        # phi_log_kernel and an explicit-inverse evaluation.
        data = make_dataset("linear", 54)
        for d in (toy10, data):
            hyper = default_hyperparams(d)
            rng = np.random.default_rng(12)
            for _ in range(10):
                phi = rng.normal(scale=0.8, size=d.dim)
                mu, sigma2 = rng.normal(), rng.uniform(0.1, 3.0)
                gamma = rng.integers(0, 2, size=d.dim)
                state = chain_state(hyper, phi, d)
                factor = state.factor
                factor.quad(mu)
                # The scan sums phi's prior rows beside a proposal's.
                state.prior_rows(phi * phi, 0), state.prior_rows((2.0 * phi) ** 2, 1)
                scan = sampler._kernel_value(factor, sampler._log_priors(state.priors, gamma).tolist()[0], mu, sigma2)
                public = phi_log_kernel(phi, mu, sigma2, gamma, d, hyper)
                assert scan == public
                r = build_corr_matrix(d.points, phi**2, nugget=SAMPLER_NUGGET)
                resid = d.responses - mu
                prior_var = (hyper.tau * hyper.c**gamma) ** 2
                prior = np.sum(norm.logpdf(phi, scale=np.sqrt(prior_var)))
                brute = -0.5 * np.linalg.slogdet(r)[1] - resid @ np.linalg.inv(r) @ resid / (2 * sigma2) + prior
                assert scan == pytest.approx(brute, rel=1e-10)

    def test_quick_stationarity_standard_normal(self, monkeypatch):
        # Shortened version of the 100k oracle; tight run lives in the
        # acceptance suite.
        hyper = Hyperparams.for_dim(1, tau=0.3, prop_sd=2.4)
        kernel = lambda v: -0.5 * float(v @ v)
        use_phi_target(monkeypatch, kernel)
        state = chain_state(hyper, [0.0], seed=8)
        draws = np.empty(20000)
        for i in range(20000):
            update_phi(state)
            draws[i] = state.phi[0]
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 1.0) < 0.12


def test_rejected_proposal_skips_the_gls_solve(toy10, monkeypatch):
    # The phi step reads only log det and the quadratic form of a proposal;
    # the two-column solve behind the GLS mean is formed only for a factor
    # that becomes the state and is read by the next mu step.
    made = []
    real = sampler._factor

    def recording(state, phi, slot):
        made.append(real(state, phi, slot))
        return made[-1]

    monkeypatch.setattr(sampler, "_factor", recording)
    hyper = Hyperparams.for_dim(3, tau=0.3, prop_sd=0.5, iters=60, burnin=10, seed=4)
    init = GpParams(mu=float(toy10.responses.mean()), sigma2=1.0, phi=np.full(3, 0.5))
    chain = run_chain(toy10, hyper, init=init)
    formed = sum("_ones_y" in vars(f) for f in made[1:])
    accepted = round(chain.accept_rate * hyper.iters)
    assert 0 < accepted < len(made) - 1
    # An accepted proposal at the last scan is never read by a mu step.
    assert accepted - 1 <= formed <= accepted


class TestLeanScanParity:
    """run_chain's scan carries each phi's factor and prior rows and
    factors without linalg's entry checks; conftest's reference_run_chain
    checks every factor and evaluates the prior at each use.  The two must
    give the same bits, at a prop_sd that mixes and at the shipped 0.03."""

    CASES = {"toy10": (("toy", 10), 0.3), "linear54": (("linear", 54), 0.003)}

    @pytest.fixture(scope="class", params=sorted(CASES))
    def problem(self, request):
        (name, n), mixing = self.CASES[request.param]
        data = make_dataset(name, n)
        init = mle_fit(data, FitOptions(nugget=SAMPLER_NUGGET, seed=0))
        return data, init, mixing

    @staticmethod
    def _assert_same(chain, ref):
        for key in ("mu", "sigma2", "phi", "gamma"):
            assert getattr(chain, key).tobytes() == getattr(ref, key).tobytes(), key
        assert chain.accept_rate == ref.accept_rate
        assert chain.meta["mh_proposal_failures"] == ref.failures

    @pytest.mark.parametrize("shipped", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal_to_reference(self, problem, shipped, seed):
        data, init, mixing = problem
        # An override of None keeps the shipped prop_sd.
        hyper = default_hyperparams(data, seed, prop_sd=None if shipped else mixing, iters=300, burnin=100)
        chain = run_chain(data, hyper, init=init)
        ref = reference_run_chain(data, hyper, init)
        self._assert_same(chain, ref)
        assert 0 < chain.accept_rate

    def test_bitwise_equal_with_failed_proposals(self, problem, monkeypatch):
        # Every fifth factorization fails, in both scans alike: each makes
        # one at the start and one per proposal.
        data, init, mixing = problem
        real = linalg._cholesky
        calls = [0]

        def every_fifth_fails(m):
            calls[0] += 1
            if calls[0] % 5 == 0:
                raise NotPositiveDefiniteError("forced")
            return real(m)

        monkeypatch.setattr(linalg, "_cholesky", every_fifth_fails)
        hyper = default_hyperparams(data, 3, prop_sd=mixing, iters=200, burnin=50)
        chain = run_chain(data, hyper, init=init)
        calls[0] = 0
        ref = reference_run_chain(data, hyper, init)
        self._assert_same(chain, ref)
        assert chain.meta["mh_proposal_failures"] == 40

    def test_no_entry_check_and_one_prior_per_proposal(self, toy10, monkeypatch):
        counts = {"checks": 0, "priors": 0}
        # corr_cholesky is where linalg checks theta and the nugget.
        real_check, real_prior = linalg.corr_cholesky, SamplerState.prior_rows

        def counted_check(*args, **kwargs):
            counts["checks"] += 1
            return real_check(*args, **kwargs)

        def counted_prior(self, phi, slot):
            counts["priors"] += 1
            return real_prior(self, phi, slot)

        monkeypatch.setattr(linalg, "corr_cholesky", counted_check)
        monkeypatch.setattr(SamplerState, "prior_rows", counted_prior)
        hyper = Hyperparams.for_dim(3, tau=0.3, prop_sd=0.3, iters=200, burnin=50, seed=5)
        init = GpParams(mu=float(toy10.responses.mean()), sigma2=1.0, phi=np.full(3, 0.5))
        run_chain(toy10, hyper, init=init)
        assert counts["checks"] == 0
        assert 0 < counts["priors"] <= hyper.iters + 1

    def test_inclusion_once_per_accepted_proposal(self, toy10, monkeypatch):
        # The gamma step only draws: phi's inclusion probabilities are made
        # when the chain starts and when a proposal is accepted.
        calls = [0]
        real = SamplerState.inclusion_of

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(SamplerState, "inclusion_of", counted)
        hyper = Hyperparams.for_dim(3, tau=0.3, prop_sd=0.3, iters=200, burnin=50, seed=5)
        init = GpParams(mu=float(toy10.responses.mean()), sigma2=1.0, phi=np.full(3, 0.5))
        chain = run_chain(toy10, hyper, init=init)
        accepted = round(chain.accept_rate * hyper.iters)
        assert 0 < accepted < hyper.iters
        assert calls[0] == accepted + 1


class TestChainOwnsItsBuffers:
    """run_chain builds and factors each proposal in whichever of its two
    buffers the current factor does not hold, so no proposal writes over
    the factor the scan carries."""

    def test_rejected_and_failed_proposals_leave_the_current_factor(self, toy10, monkeypatch):
        # Every third dpotrf writes its factor into the proposal's buffer in
        # full and then reports a breakdown, so _cholesky raises
        # NotPositiveDefiniteError after potrf has run.
        real_potrf = linalg.dpotrf
        calls = [0]

        def breaks_every_third(m, **kwargs):
            lower, info = real_potrf(m, **kwargs)
            calls[0] += 1
            return lower, 3 if calls[0] % 3 == 0 else info

        real_step = sampler.update_phi
        seen = {"accepted": 0, "rejected": 0, "failed": 0}

        def checked(state):
            factor, accepted, failures = state.factor, state.accepted, state.failures
            before = factor.lower.tobytes(order="A")
            real_step(state)
            if state.accepted > accepted:
                seen["accepted"] += 1
                assert not np.shares_memory(state.factor.lower, factor.lower)
            else:
                seen["failed" if state.failures > failures else "rejected"] += 1
                assert state.factor is factor
                assert factor.lower.tobytes(order="A") == before

        monkeypatch.setattr(linalg, "dpotrf", breaks_every_third)
        monkeypatch.setattr(sampler, "update_phi", checked)
        hyper = Hyperparams.for_dim(3, tau=0.3, prop_sd=0.3, iters=150, burnin=10, seed=2)
        chain = run_chain(toy10, hyper, init=GpParams(mu=0.0, sigma2=1.0, phi=np.full(3, 0.5)))
        assert min(seen.values()) > 0, seen
        assert seen["failed"] == chain.meta["mh_proposal_failures"]

    def test_each_step_is_called_once_per_scan(self, toy10, monkeypatch):
        # The four steps stay module attributes that run_chain looks up on
        # every scan, which is where a tracer or a test reaches them.
        counts = dict.fromkeys(("update_mu", "update_sigma2", "update_phi", "update_gamma"), 0)
        for name in counts:
            real = getattr(sampler, name)

            def counted(*args, _name=name, _real=real):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(sampler, name, counted)
        hyper = Hyperparams.for_dim(3, tau=0.3, prop_sd=0.3, iters=70, burnin=20, seed=6)
        run_chain(toy10, hyper, init=GpParams(mu=0.0, sigma2=1.0, phi=np.full(3, 0.5)))
        assert counts == dict.fromkeys(counts, hyper.iters)


class TestGewekeJointDistribution:
    """Geweke (2004, JASA 99(467)), "Getting it right", for the real phi and
    gamma kernels.  With mu and sigma2 fixed the prior on (phi, gamma) is
    proper, and each of update_phi, update_gamma and a fresh draw
    y ~ N(mu 1, sigma2 R(phi)) leaves the joint p(phi, gamma) p(y | phi)
    invariant.  So the successive-conditional chain, read after the gamma
    step, must reproduce the marginal-conditional simulator's moments,
    which are exact here: the prior's moments of phi_k, phi_k^2 and
    gamma_k, and E[(y - mu)'R^-1(y - mu)] = n sigma2.  The last catches a
    phi step that ignores y, which leaves the (phi, gamma) marginal alone.
    """

    def test_successive_conditional_matches_prior(self):
        n, d, steps, batches = 6, 2, 20000, 50
        mu, sigma2 = 1.0, 2.0
        data = Dataset(np.random.default_rng(0).uniform(size=(n, d)), np.zeros(n), np.tile([0.0, 1.0], (d, 1)))
        hyper = Hyperparams.for_dim(d, tau=0.3, c=5.0, p=0.5, prop_sd=0.5)
        rng = np.random.default_rng(1)
        state = chain_state(hyper, [0.4, 0.1], data, mu, sigma2, gamma=[1, 0], seed=rng)
        stats = np.empty((steps, 3 * d + 1))
        for t in range(steps):
            # update_phi reads the responses from the state, with the
            # current factor's.
            state.y = mu + np.sqrt(sigma2) * (state.factor.lower @ rng.normal(size=n))
            state.factor = linalg.CorrFactor(state.factor.lower, state.y)
            update_phi(state)
            update_gamma(state)
            stats[t] = [*state.phi, *state.phi**2, *state.gamma, state.factor.quad(mu) / (n * sigma2)]
        tau2, c2, p = hyper.tau**2, hyper.c**2, hyper.p
        expect = np.concatenate([np.zeros(d), (1 - p) * tau2 + p * c2 * tau2, p, [1.0]])
        # Standard errors by batch means, 50 batches of 400 steps.
        batch_means = stats.reshape(batches, -1, stats.shape[1]).mean(axis=1)
        z = (stats.mean(axis=0) - expect) / (batch_means.std(axis=0, ddof=1) / np.sqrt(batches))
        # z in the order phi_k, phi_k^2, gamma_k, quadratic form.
        assert np.all(np.abs(z) < 4.0), f"z = {np.round(z, 1)}"


class TestExactPosteriorOracle:
    """The shipped scan, mu and sigma2 steps included, against the posterior
    computed by quadrature at d = 2.  Integrating mu and sigma2 out under
    their flat and 1/sigma2 priors leaves

        p(phi | y) ∝ |R|^-1/2 (1'R^-1 1)^-1/2 S^-(n-1) pi(phi),

    with S^2 the GLS residual quadratic form and pi the mixture prior with
    gamma summed out.  Given phi, mu | sigma2 ~ N(GLS mean, sigma2 / 1'R^-1 1)
    and sigma2 ~ InverseGamma((n-1)/2, S^2/2), so E[sigma2 | phi, y] =
    S^2/(n-3) and Var(mu | phi, y) = S^2/((n-3) 1'R^-1 1); and
    P(gamma_k = 1 | y) = E[P(gamma_k = 1 | phi_k) | y].  The target is even
    in each phi_k, so the grid covers u = log|phi| with the Jacobian
    exp(u_1 + u_2).  The Geweke test holds mu and sigma2 fixed; this one
    checks their conditionals composed with the phi and gamma steps.
    """

    def test_chain_matches_quadrature(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        from ess import ess_geyer

        x = maximin_lhd(10, 2, 0).points
        data = Dataset.from_arrays(x, np.sin(4 * x[:, 0]) + 0.05 * x[:, 1])
        n, grid = data.n, 120
        hyper = Hyperparams.for_dim(2, tau=0.3, c=5.0, p=0.5, prop_sd=0.3, iters=22000, burnin=2000, seed=0)
        u = np.linspace(np.log(1e-3), np.log(9.0), grid)
        phi = np.exp(np.stack(np.meshgrid(u, u, indexing="ij"), axis=-1).reshape(-1, 2))
        terms = np.empty((len(phi), 4))
        for i, point in enumerate(phi):
            f = fixed_nugget_factor(data.pair_table, point * point, SAMPLER_NUGGET, data.responses)
            terms[i] = f.log_det, f.one_rinv_one, f.gls_mean, f.quad(f.gls_mean)
        log_det, q, gls_mean, s2 = terms.T
        spike = np.log1p(-hyper.p) + normal_logpdf(phi, hyper.tau**2)
        slab = np.log(hyper.p) + normal_logpdf(phi, (hyper.c * hyper.tau) ** 2)
        log_post = (-0.5 * (log_det + np.log(q) + (n - 1) * np.log(s2))
                    + np.logaddexp(spike, slab).sum(axis=1) + np.log(phi).sum(axis=1))
        w = np.exp(log_post - log_post.max())
        w /= w.sum()
        edge = w.reshape(grid, grid)
        assert edge[[0, -1]].sum() + edge[1:-1, [0, -1]].sum() < 1e-4
        state = chain_state(hyper, phi[0], data)
        incl = np.array([state.inclusion_of(state.prior_rows(point * point, 1)) for point in phi])
        mean_mu = w @ gls_mean
        exact = [*(w @ incl), *(w @ phi**2), mean_mu,
                 w @ (s2 / ((n - 3) * q) + (gls_mean - mean_mu) ** 2), w @ s2 / (n - 3)]

        y = data.responses
        init = GpParams(mu=float(y.mean()), sigma2=float(y.var()), phi=np.array([1.0, 0.1]))
        chain = run_chain(data, hyper, init=init)
        series = [*chain.gamma.T, *(chain.phi**2).T, chain.mu, (chain.mu - mean_mu) ** 2, chain.sigma2]
        z = np.array([(s.mean() - e) / (s.std() / np.sqrt(ess_geyer(s))) for s, e in zip(series, exact)])
        # z in the order P(gamma_k = 1), E[theta_k], E[mu], Var(mu), E[sigma2].
        assert np.all(np.abs(z) < 4.0), f"z = {np.round(z, 1)}"


class TestRunChain:
    def _init(self, data):
        return GpParams(mu=float(data.responses.mean()), sigma2=float(data.responses.var() + 0.1), phi=np.full(data.dim, 0.5))

    def test_shapes_and_bookkeeping(self, toy10):
        hyper = Hyperparams.for_dim(3, tau=0.3, iters=80, burnin=20, seed=1)
        chain = run_chain(toy10, hyper, init=self._init(toy10))
        assert chain.size == 60
        assert chain.dim == 3
        assert np.array_equal(chain.scans, np.arange(21, 81))
        assert chain.phi.shape == (60, 3)
        assert chain.gamma.dtype == np.int64
        assert 0.0 <= chain.accept_rate <= 1.0
        assert np.isfinite(chain.mu).all()
        assert np.all(chain.sigma2 > 0)
        assert set(np.unique(chain.gamma)) <= {0, 1}

    def test_thinning(self, toy10):
        hyper = Hyperparams.for_dim(3, tau=0.3, iters=10, burnin=2, thin=3, seed=0)
        chain = run_chain(toy10, hyper, init=self._init(toy10))
        assert np.array_equal(chain.scans, [3, 6, 9])

    def test_single_stored_draw(self, toy10):
        hyper = Hyperparams.for_dim(3, tau=0.3, iters=21, burnin=20, seed=0)
        chain = run_chain(toy10, hyper, init=self._init(toy10))
        assert chain.size == 1
        assert chain.scans[0] == 21

    def test_seeded_reproducibility(self, toy10):
        hyper = Hyperparams.for_dim(3, tau=0.3, iters=60, burnin=10, seed=9)
        a = run_chain(toy10, hyper, init=self._init(toy10))
        b = run_chain(toy10, hyper, init=self._init(toy10))
        for field in ("mu", "sigma2", "phi", "gamma", "scans"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.accept_rate == b.accept_rate
        c = run_chain(toy10, Hyperparams.for_dim(3, tau=0.3, iters=60, burnin=10, seed=10), init=self._init(toy10))
        assert not np.array_equal(a.phi, c.phi)

    def test_meta_contents(self, toy10):
        hyper = Hyperparams.for_dim(3, tau=0.3, iters=30, burnin=5, seed=2)
        chain = run_chain(toy10, hyper, init=self._init(toy10))
        meta = chain.meta
        assert meta["seed"] == 2
        assert meta["sampler_nugget"] == SAMPLER_NUGGET
        assert meta["dataset_fingerprint"] == toy10.fingerprint()
        assert meta["hyperparams"]["iters"] == 30
        assert meta["hyperparams"]["tau"] == [0.3, 0.3, 0.3]
        assert meta["mh_proposal_failures"] >= 0

    @pytest.mark.parametrize("burnin,thin", [(50, 1), (73, 3), (0, 2)])
    def test_acceptance_per_phase(self, toy10, burnin, thin, monkeypatch):
        # The burn-in scans' rate and the later scans' rate, weighted by
        # their scan counts, give back the pooled count, which accept_rate
        # still divides by iters; thinning does not enter either rate.
        counts = []
        real = sampler.update_phi

        def recorded(state):
            real(state)
            counts.append(state.accepted)

        monkeypatch.setattr(sampler, "update_phi", recorded)
        hyper = Hyperparams.for_dim(3, tau=0.3, prop_sd=0.3, iters=200, burnin=burnin, thin=thin, seed=5)
        init = GpParams(mu=float(toy10.responses.mean()), sigma2=1.0, phi=np.full(3, 0.5))
        chain = run_chain(toy10, hyper, init=init)
        meta, pooled = chain.meta, counts[-1]
        assert chain.accept_rate == pooled / hyper.iters
        in_burnin = counts[burnin - 1] if burnin else 0
        kept_scans = hyper.iters - burnin
        assert meta["accept_rate_kept"] == (pooled - in_burnin) / kept_scans
        if burnin:
            assert meta["accept_rate_burnin"] == in_burnin / burnin
            assert 0 < in_burnin < pooled
        else:
            assert meta["accept_rate_burnin"] is None
        weighted = (meta["accept_rate_burnin"] or 0.0) * burnin + meta["accept_rate_kept"] * kept_scans
        assert weighted == pytest.approx(pooled, abs=1e-9)

    def test_init_clamped_to_slab_scale(self, toy10):
        # A decorrelation-plateau MLE can land far outside the prior; the
        # chain must start within one slab standard deviation.
        hyper = Hyperparams.for_dim(3, tau=0.3, c=25.0, iters=30, burnin=5, seed=0)
        init = GpParams(mu=0.0, sigma2=1.0, phi=np.array([30.0, 0.5, 9.0]))
        chain = run_chain(toy10, hyper, init=init)
        assert chain.meta["init"]["phi"] == [7.5, 0.5, 7.5]

    def test_dimension_mismatch(self, toy10):
        hyper = Hyperparams.for_dim(2, tau=0.3)
        with pytest.raises(ValueError, match="dimension"):
            run_chain(toy10, hyper)

    @pytest.mark.parametrize("width", [2, 4])
    def test_init_width_mismatch(self, toy10, width):
        # Named at the boundary, not as a numpy broadcasting error.
        hyper = Hyperparams.for_dim(3, tau=0.3, iters=10, burnin=2)
        init = GpParams(mu=0.0, sigma2=1.0, phi=np.full(width, 0.5))
        with pytest.raises(ValueError, match=f"init has {width} phi entries, data has dimension 3"):
            run_chain(toy10, hyper, init=init)

    def test_midchain_failure_carries_scan_index(self, toy10, monkeypatch):
        real = sampler.update_sigma2
        calls = {"n": 0}

        def flaky(state):
            calls["n"] += 1
            if calls["n"] == 3:
                raise ValueError("forced failure")
            return real(state)

        monkeypatch.setattr(sampler, "update_sigma2", flaky)
        hyper = Hyperparams.for_dim(3, tau=0.3, iters=30, burnin=5, seed=0)
        with pytest.raises(SamplerError, match="forced failure") as err:
            run_chain(toy10, hyper, init=self._init(toy10))
        assert err.value.scan == 3

    def test_proposal_not_factoring_at_sampler_nugget_is_rejected(self, toy10, monkeypatch):
        # Every proposal fails at exactly SAMPLER_NUGGET and would factor at
        # any other nugget.  Each must be a counted rejection, never factored
        # at an escalated nugget (1e-4) and accepted there.
        hyper = Hyperparams.for_dim(3, tau=0.3, prop_sd=0.01, iters=40, burnin=10, seed=3)
        control = run_chain(toy10, hyper, init=self._init(toy10))
        assert control.accept_rate > 0.5  # these proposals factor and mostly pass

        real = linalg._cholesky
        nuggets = []

        def only_initial_state_factors_at_sampler_nugget(m):
            nuggets.append(float(m[0, 0]) - 1.0)
            if len(nuggets) > 1 and nuggets[-1] == pytest.approx(SAMPLER_NUGGET, rel=1e-6):
                raise NotPositiveDefiniteError("forced")
            return real(m)

        monkeypatch.setattr(linalg, "_cholesky", only_initial_state_factors_at_sampler_nugget)
        chain = run_chain(toy10, hyper, init=self._init(toy10))
        assert chain.accept_rate == 0.0
        assert chain.meta["mh_proposal_failures"] == hyper.iters
        assert np.all(chain.phi == chain.meta["init"]["phi"])
        assert len(nuggets) == hyper.iters + 1
        assert nuggets == pytest.approx([SAMPLER_NUGGET] * len(nuggets), rel=1e-6)

    def test_initial_state_not_factoring_is_scan_zero(self, toy10, monkeypatch):
        def never_factors(m):
            raise NotPositiveDefiniteError("forced")

        monkeypatch.setattr(linalg, "_cholesky", never_factors)
        hyper = Hyperparams.for_dim(3, tau=0.3, iters=30, burnin=5, seed=0)
        with pytest.raises(SamplerError, match="initial correlation matrix") as err:
            run_chain(toy10, hyper, init=self._init(toy10))
        assert err.value.scan == 0

    def test_init_fit_failure_is_scan_zero(self, toy10, monkeypatch):
        def no_fit(data, opts=None):
            raise OptimizerFailedError("all starts failed")

        monkeypatch.setattr(sampler, "mle_fit", no_fit)
        hyper = Hyperparams.for_dim(3, tau=0.3, iters=30, burnin=5, seed=0)
        with pytest.raises(SamplerError, match="initialization failed") as err:
            run_chain(toy10, hyper)
        assert err.value.scan == 0

    def test_acceptance_band_warning(self, toy10):
        hyper = Hyperparams.for_dim(3, tau=0.3, prop_sd=50.0, iters=60, burnin=10, seed=0)
        with pytest.warns(RuntimeWarning, match="acceptance rate"):
            run_chain(toy10, hyper, init=self._init(toy10))

    def test_smoke_self_init(self):
        # Full path including the internal MLE init fit.
        data = make_dataset("toy", 15, seed=1)
        hyper = Hyperparams.for_dim(3, tau=0.3, iters=400, burnin=100, seed=0)
        chain = run_chain(data, hyper)
        assert chain.size == 300
        assert chain.meta["mh_proposal_failures"] == 0
        assert np.isfinite(chain.phi).all()


class TestPosteriorParams:
    def test_averages(self):
        chain = Chain(
            mu=np.array([1.0, 2.0]),
            sigma2=np.array([2.0, 4.0]),
            phi=np.array([[1.0, 2.0], [3.0, 4.0]]),
            gamma=np.ones((2, 2), dtype=np.int64),
            scans=np.array([1, 2]),
            accept_rate=0.5,
            meta={},
        )
        params = posterior_params(chain)
        assert params.mu == 1.5
        assert params.sigma2 == 3.0
        assert np.array_equal(params.phi, [2.0, 3.0])

    def test_empty_chain(self):
        chain = Chain(
            mu=np.empty(0),
            sigma2=np.empty(0),
            phi=np.empty((0, 2)),
            gamma=np.empty((0, 2), dtype=np.int64),
            scans=np.empty(0, dtype=np.int64),
            accept_rate=0.0,
            meta={},
        )
        with pytest.raises(ValueError, match="empty"):
            posterior_params(chain)
