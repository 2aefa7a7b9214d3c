"""Latin hypercube generators and domain scaling."""

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from conftest import reference_maximin_lhd
from ssgp import designs
from ssgp.designs import Design, maximin_lhd, random_lhd, scale_points
from ssgp.sampler import derive_seed


def _strata_ok(pts):
    # One point per stratum [(i-1)/n, i/n) in every column.
    n = pts.shape[0]
    for k in range(pts.shape[1]):
        strata = np.sort(np.floor(pts[:, k] * n).astype(int))
        if not np.array_equal(strata, np.arange(n)):
            return False
    return True


class TestRandomLhd:
    @pytest.mark.parametrize("n,d,seed", [(5, 2, 0), (12, 4, 1), (30, 3, 2), (1, 1, 3)])
    def test_stratification(self, n, d, seed):
        design = random_lhd(n, d, seed)
        assert design.points.shape == (n, d)
        assert np.all(design.points > 0) and np.all(design.points < 1)
        assert _strata_ok(design.points)

    def test_deterministic(self):
        a = random_lhd(10, 3, 42).points
        b = random_lhd(10, 3, 42).points
        assert np.array_equal(a, b)
        c = random_lhd(10, 3, 43).points
        assert not np.array_equal(a, c)

    def test_shape(self):
        assert random_lhd(8, 2, 5).points.shape == (8, 2)

    @pytest.mark.parametrize("n,d", [(0, 2), (3, 0), (-1, 1)])
    def test_size_validation(self, n, d):
        with pytest.raises(ValueError):
            random_lhd(n, d, 0)

    def test_generator_seed_advances_stream(self):
        rng = np.random.default_rng(9)
        a = random_lhd(6, 2, rng).points
        b = random_lhd(6, 2, rng).points
        assert not np.array_equal(a, b)


class TestMaximinLhd:
    def test_still_a_latin_hypercube(self):
        assert _strata_ok(maximin_lhd(15, 3, 0).points)

    def test_never_worse_than_its_start(self):
        # The swap search starts from random_lhd on the same generator and
        # only keeps improving swaps, so the minimum distance cannot drop.
        for seed in range(5):
            start = random_lhd(12, 4, np.random.default_rng(seed)).points
            final = maximin_lhd(12, 4, seed).points
            assert pdist(final).min() >= pdist(start).min() - 1e-12
            # Swaps permute within columns: marginals are preserved.
            for k in range(4):
                assert np.array_equal(np.sort(final[:, k]), np.sort(start[:, k]))

    def test_zero_sweeps_returns_start(self):
        start = random_lhd(10, 2, np.random.default_rng(3)).points
        final = maximin_lhd(10, 2, 3, sweeps=0).points
        assert np.array_equal(final, start)

    @pytest.mark.parametrize("sweeps", [-1, -5])
    def test_negative_sweeps_rejected(self, sweeps):
        with pytest.raises(ValueError, match="sweeps"):
            maximin_lhd(10, 2, 3, sweeps=sweeps)

    def test_actually_improves_typical_starts(self):
        # Not guaranteed pointwise, but over several seeds the search should
        # strictly beat at least one random start.
        improved = 0
        for seed in range(4):
            start = random_lhd(20, 3, np.random.default_rng(seed)).points
            final = maximin_lhd(20, 3, seed).points
            if pdist(final).min() > pdist(start).min():
                improved += 1
        assert improved >= 1

    def test_deterministic(self):
        assert np.array_equal(maximin_lhd(10, 3, 7).points, maximin_lhd(10, 3, 7).points)

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="n >= 2"):
            maximin_lhd(1, 3, 0)

    @pytest.mark.parametrize("n,d", [(2, 1), (9, 1), (3, 2), (12, 6), (30, 3), (50, 8), (54, 10)])
    def test_same_designs_as_two_pass_search(self, n, d):
        # Updating only the swapped points' distances, screening candidates
        # in batches and rejecting early must not move a bit of any seeded
        # design: the shipped specs' sizes, the smallest ones, and a 64-bit
        # seed such as the testbed derives.
        for seed in [*range(5), derive_seed(0, "design")]:
            got = maximin_lhd(n, d, seed).points
            assert got.tobytes() == reference_maximin_lhd(n, d, seed).points.tobytes()

    @pytest.mark.parametrize("sweeps", [1, 7, 33])
    @pytest.mark.parametrize("n,d", [(2, 1), (6, 1), (5, 3), (20, 4)])
    def test_same_designs_after_few_sweeps(self, n, d, sweeps):
        # Runs that end inside the first batch, or just after it.
        for seed in range(4):
            got = maximin_lhd(n, d, seed, sweeps=sweeps).points
            assert got.tobytes() == reference_maximin_lhd(n, d, seed, sweeps=sweeps).points.tobytes()

    @pytest.mark.parametrize("n,d", [(6, 1), (3, 2), (4, 2)])
    def test_same_designs_where_the_minimum_ties(self, n, d, monkeypatch):
        # A swap whose partner is the other end of the closest pair leaves
        # that distance alone, and in one dimension every swap only relabels
        # the points, so these searches often keep the minimum and let the
        # inverse-square sum decide.  Each candidate the full criterion
        # scores is replayed against the acceptance rule to count the ties.
        scored = []
        real = designs._min_dist_and_crit

        def recorded(d2):
            scored.append(real(d2))
            return scored[-1]

        monkeypatch.setattr(designs, "_min_dist_and_crit", recorded)
        ties = 0
        for seed in range(4):
            scored.clear()
            got = maximin_lhd(n, d, seed).points
            assert got.tobytes() == reference_maximin_lhd(n, d, seed).points.tobytes()
            best = scored[0]
            for cand in scored[1:]:
                ties += cand[0] == best[0]
                if cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                    best = cand
        assert ties > 0

    def test_generator_ends_where_the_two_pass_search_leaves_it(self):
        # The draws are made up front, in the search's order, so a caller's
        # generator continues with the same stream, 32-bit halves included.
        for n, d, sweeps in [(12, 3, None), (6, 1, 7), (30, 2, 1), (2, 1, 5)]:
            ours, ref = np.random.default_rng(4), np.random.default_rng(4)
            maximin_lhd(n, d, ours, sweeps=sweeps)
            reference_maximin_lhd(n, d, ref, sweeps=sweeps)
            assert ours.bit_generator.state == ref.bit_generator.state
            assert ours.integers(1000, size=3).tolist() == ref.integers(1000, size=3).tolist()
            assert ours.random() == ref.random()

    @pytest.mark.parametrize("n,d", [(12, 6), (50, 8)])
    def test_screen_passing_every_candidate_changes_nothing(self, n, d, monkeypatch):
        # With an unbounded slack nothing is screened out, and every sweep
        # takes the exact path: the screen only decides which sweeps run it.
        screened = [maximin_lhd(n, d, seed).points for seed in range(3)]
        monkeypatch.setattr(designs, "_screen_slack", lambda d: np.inf)
        for seed, design in enumerate(screened):
            assert maximin_lhd(n, d, seed).points.tobytes() == design.tobytes()


class TestDesignClass:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            Design(np.ones(5))



class TestScalePoints:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        ranges = np.array([[0.0, 10.0], [-5.0, 5.0], [100.0, 101.0]])
        unit = rng.uniform(size=(20, 3))
        orig = scale_points(unit, ranges, "from_unit")
        back = scale_points(orig, ranges, "to_unit")
        assert np.max(np.abs(back - unit)) < 1e-12

    def test_corners_map_to_bounds(self):
        ranges = np.array([[2.0, 6.0]])
        assert scale_points([[0.0]], ranges, "from_unit")[0, 0] == 2.0
        assert scale_points([[1.0]], ranges, "from_unit")[0, 0] == 6.0

    def test_single_point_promoted(self):
        out = scale_points([0.5, 0.5], np.array([[0.0, 2.0], [0.0, 4.0]]), "from_unit")
        assert out.shape == (1, 2)
        assert np.allclose(out, [[1.0, 2.0]])

    def test_zero_width_names_dimension(self):
        ranges = np.array([[0.0, 1.0], [3.0, 3.0]])
        with pytest.raises(ValueError, match="dimension 2"):
            scale_points([[0.5, 0.5]], ranges, "from_unit")

    def test_ranges_shape_checked(self):
        with pytest.raises(ValueError, match="\\(d, 2\\)"):
            scale_points([[0.5]], np.array([0.0, 1.0, 2.0]), "from_unit")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            scale_points([[0.5, 0.5]], np.array([[0.0, 1.0]]), "from_unit")

    def test_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            scale_points([[0.5]], np.array([[0.0, 1.0]]), "sideways")
