"""Selection summaries, tie handling, autocorrelation, trace export."""

import numpy as np
import pytest

from conftest import make_dataset
from ssgp.io import export_trace, load_trace
from ssgp.report import autocorrelation, select_variables
from ssgp.sampler import Chain, Hyperparams, run_chain

pytestmark = pytest.mark.filterwarnings("ignore:MH acceptance rate:RuntimeWarning")


def chain_from_gammas(gammas):
    g = np.asarray(gammas, dtype=np.int64)
    m, d = g.shape
    return Chain(
        mu=np.zeros(m),
        sigma2=np.ones(m),
        phi=np.zeros((m, d)),
        gamma=g,
        scans=np.arange(1, m + 1),
        accept_rate=0.5,
        meta={},
    )


class TestTabulate:
    def test_counts(self):
        chain = chain_from_gammas([[1, 0], [1, 0], [0, 1], [1, 0], [1, 1]])
        table = select_variables(chain).table
        assert table[0] == ((1, 0), 0.6)
        assert dict(table) == {(1, 0): 0.6, (0, 1): 0.2, (1, 1): 0.2}

    def test_tied_rows_in_lexicographic_order(self):
        chain = chain_from_gammas([[1, 0], [0, 1], [1, 0], [0, 1]])
        table = select_variables(chain).table
        assert table[0][0] == (0, 1)
        assert table[1][0] == (1, 0)
        assert table[0][1] == table[1][1] == 0.5

    def test_empty_chain(self):
        for rule in ("modal", "median"):
            with pytest.raises(ValueError, match="empty"):
                select_variables(chain_from_gammas(np.empty((0, 2))), rule)

    def test_frequencies_must_sum_to_one(self):
        gammas = np.random.default_rng(4).integers(0, 2, size=(4000, 6))
        table = select_variables(chain_from_gammas(gammas)).table
        assert abs(sum(f for _, f in table) - 1.0) <= 1e-12
        assert len(set(g for g, _ in table)) == len(table)


class TestMarginals:
    def test_per_dimension_rates(self):
        chain = chain_from_gammas([[1, 0], [1, 1], [1, 0], [0, 0]])
        assert np.allclose(select_variables(chain).marginal, [0.75, 0.25])

    def test_empty_chain(self):
        for rule in ("modal", "median"):
            with pytest.raises(ValueError, match="empty"):
                select_variables(chain_from_gammas(np.empty((0, 3))), rule)


class TestDecideSelection:
    def test_modal_rule(self):
        chain = chain_from_gammas([[1, 0, 1], [1, 0, 1], [0, 1, 0]])
        report = select_variables(chain)
        assert report.selected == frozenset({1, 3})
        assert report.modal_gamma == (1, 0, 1)
        assert report.modal_freq == pytest.approx(2 / 3)
        assert not report.tie

    def test_median_rule(self):
        chain = chain_from_gammas([[1, 0], [1, 1], [1, 0], [0, 0]])
        report = select_variables(chain, rule="median")
        # marginals (0.75, 0.25): only the first crosses 1/2.
        assert report.selected == frozenset({1})
        assert report.rule == "median"

    def test_tie_flagged_and_broken_lexicographically(self):
        chain = chain_from_gammas([[1, 0], [0, 1], [1, 0], [0, 1]])
        report = select_variables(chain)
        assert report.tie
        assert report.modal_gamma == (0, 1)
        assert report.selected == frozenset({2})

    def test_unknown_rule(self):
        # The rule is checked before the chain is read, so an empty chain
        # reports the rule, not the emptiness.
        with pytest.raises(ValueError, match="rule"):
            select_variables(chain_from_gammas([[1, 0]]), rule="mean")
        with pytest.raises(ValueError, match="rule"):
            select_variables(chain_from_gammas(np.empty((0, 2))), rule="mean")

    def test_empty_selection_possible(self):
        chain = chain_from_gammas([[0, 0], [0, 0], [1, 0]])
        assert select_variables(chain).selected == frozenset()


class TestAutocorrelation:
    def test_hand_values(self):
        acf = autocorrelation([1.0, 2.0, 3.0, 4.0], max_lag=3)
        assert np.allclose(acf, [1.0, 0.25, -0.3, -0.45])

    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(0)
        acf = autocorrelation(rng.normal(size=500), max_lag=10)
        assert acf[0] == 1.0

    def test_white_noise_decorrelates(self):
        rng = np.random.default_rng(1)
        acf = autocorrelation(rng.normal(size=10000), max_lag=5)
        assert np.max(np.abs(acf[1:])) < 0.05

    def test_alternating_series(self):
        x = np.tile([1.0, -1.0], 50)
        acf = autocorrelation(x, max_lag=2)
        assert acf[1] == pytest.approx(-0.99, abs=0.01)
        assert acf[2] == pytest.approx(0.98, abs=0.01)

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            autocorrelation([1.0, 2.0], max_lag=5)

    def test_zero_variance(self):
        with pytest.raises(ValueError, match="zero-variance"):
            autocorrelation([2.0, 2.0, 2.0], max_lag=1)


class TestTraceExport:
    def test_round_trip_is_exact(self, tmp_path):
        data = make_dataset("toy", 10)
        hyper = Hyperparams.for_dim(3, tau=0.3, iters=60, burnin=20, seed=5)
        chain = run_chain(data, hyper)
        path = tmp_path / "trace.csv"
        export_trace(chain, path)
        loaded = load_trace(path)
        assert np.array_equal(loaded.scans, chain.scans)
        assert np.array_equal(loaded.mu, chain.mu)
        assert np.array_equal(loaded.sigma2, chain.sigma2)
        assert np.array_equal(loaded.phi, chain.phi)
        assert np.array_equal(loaded.gamma, chain.gamma)

    def test_header_layout(self, tmp_path):
        chain = chain_from_gammas([[1, 0], [0, 1]])
        path = tmp_path / "trace.csv"
        export_trace(chain, path)
        header = path.read_text().splitlines()[0]
        assert header == "scan,mu,sigma2,phi_1,phi_2,gamma_1,gamma_2"
