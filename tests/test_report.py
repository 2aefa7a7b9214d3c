"""Selection summaries, tie handling, trace export."""

import numpy as np
import pytest

from conftest import make_dataset
from ssgp.io import export_trace
from ssgp.report import select_variables
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


def unique_rows_table(gamma):
    """The frequency table by np.unique(axis=0): distinct rows sorted
    lexicographically, then stably by descending count."""
    vecs, counts = np.unique(gamma, axis=0, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    return tuple((tuple(int(g) for g in vecs[i]), float(counts[i]) / len(gamma)) for i in order)


class TestTabulationMatchesUniqueRows:
    """select_variables counts runs of lexsorted rows; its table, tie order
    and tie flag must be those of np.unique(axis=0)."""

    @staticmethod
    def _assert_same(gammas):
        report = select_variables(chain_from_gammas(gammas))
        expected = unique_rows_table(gammas)
        assert report.table == expected
        assert report.tie == (len(expected) > 1 and expected[1][1] == expected[0][1])
        assert (report.modal_gamma, report.modal_freq) == expected[0]

    def test_random_chains(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            m, d = int(rng.integers(1, 400)), int(rng.integers(1, 11))
            self._assert_same(rng.integers(0, 2, size=(m, d)) * (rng.random((m, d)) < rng.random()))

    def test_chains_full_of_ties(self):
        # Every distinct row drawn equally often, in a shuffled order, so
        # every frequency ties and lexicographic order alone decides.
        rng = np.random.default_rng(22)
        for _ in range(100):
            d, reps = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            rows = rng.integers(0, 2, size=(int(rng.integers(1, 12)), d))
            distinct = np.unique(rows, axis=0)
            gammas = np.repeat(distinct, reps, axis=0)
            self._assert_same(gammas[rng.permutation(len(gammas))])

    def test_one_distinct_row(self):
        self._assert_same(np.ones((50, 4), dtype=np.int64))


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
        params = select_variables(chain).params
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
            select_variables(chain).params


class TestAcceptance:
    def test_kept_rate_unknown_without_meta(self):
        # A chain whose meta has no accept_rate_kept key reports None.
        post = select_variables(chain_from_gammas([[1, 0], [0, 1]]))
        assert post.accept_rate == 0.5 and post.accept_rate_kept is None


class TestTraceExport:
    def test_round_trip_is_exact(self, tmp_path):
        data = make_dataset("toy", 10)
        hyper = Hyperparams.for_dim(3, tau=0.3, iters=60, burnin=20, seed=5)
        chain = run_chain(data, hyper)
        path = tmp_path / "trace.csv"
        export_trace(chain, path)
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        assert len(header) == 3 + 2 * chain.dim and len(rows) == chain.size
        table = np.array([[float(cell) for cell in row] for row in rows])
        assert np.array_equal(table[:, 0], chain.scans)
        assert np.array_equal(table[:, 1], chain.mu)
        assert np.array_equal(table[:, 2], chain.sigma2)
        assert np.array_equal(table[:, 3 : 3 + chain.dim], chain.phi)
        assert np.array_equal(table[:, 3 + chain.dim :], chain.gamma)

    def test_header_layout(self, tmp_path):
        chain = chain_from_gammas([[1, 0], [0, 1]])
        path = tmp_path / "trace.csv"
        export_trace(chain, path)
        header = path.read_text().splitlines()[0]
        assert header == "scan,mu,sigma2,phi_1,phi_2,gamma_1,gamma_2"
