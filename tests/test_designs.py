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
        with pytest.raises(ValueError, match="^n must be >= 2, got 1$"):
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



def _same_state(a, b) -> bool:
    # Bit generator states are dicts of ints, strings and (MT19937's key,
    # Philox's counter and buffer) arrays.  The generator's class name is
    # left out, so a test subclass of PCG64 compares with PCG64.
    if isinstance(a, dict):
        keys = a.keys() - {"bit_generator"}
        return keys == b.keys() - {"bit_generator"} and all(_same_state(a[k], b[k]) for k in keys)
    return np.array_equal(a, b)


class _CountingPCG64(np.random.PCG64):
    # A PCG64 that counts its random_raw calls.
    def __init__(self, seed):
        super().__init__(seed)
        self.raw_calls = 0

    def random_raw(self, size=None, output=True):
        self.raw_calls += 1
        return super().random_raw(size, output)


class _ZeroWordPCG64(np.random.PCG64):
    # A PCG64 whose raw blocks have word 1 set to zero, a 32-bit half that
    # Lemire's method rejects for a range of 3; its other draws are untouched.
    def random_raw(self, size=None, output=True):
        words = super().random_raw(size, output)
        words[1] = 0
        return words


class TestDecodedDraws:
    """maximin_lhd decodes a PCG64 stream's sweep draws from one block of
    raw words.  Each case must give the design and the full generator
    state of the per-call search, so a numpy release that changed either
    transform fails here instead of moving a design."""

    def test_pcg64_search_makes_one_random_raw_call(self):
        rng = np.random.Generator(_CountingPCG64(3))
        got = maximin_lhd(12, 3, rng).points
        assert rng.bit_generator.raw_calls == 1
        ref = np.random.default_rng(3)
        assert got.tobytes() == reference_maximin_lhd(12, 3, ref).points.tobytes()
        assert _same_state(rng.bit_generator.state, ref.bit_generator.state)

    @pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64])
    @pytest.mark.parametrize("n,d", [(12, 3), (20, 5), (2, 3), (10, 1)])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_same_design_and_state_as_per_call_draws(self, bitgen, n, d, buffered, monkeypatch):
        # One int32 draw first leaves PCG64 with a buffered 32-bit half when
        # the search starts, which the decode must use first and leave as
        # the per-call draws leave it.  n = 2 and d = 1 are one-value ranges,
        # for which numpy draws nothing.
        carries = []
        real = designs._decode_sweeps

        def recorded(words, carry, n, d):
            carries.append(carry)
            return real(words, carry, n, d)

        monkeypatch.setattr(designs, "_decode_sweeps", recorded)
        for seed in range(3):
            ours, ref = np.random.Generator(bitgen(seed)), np.random.Generator(bitgen(seed))
            if buffered:
                ours.integers(7, dtype=np.int32), ref.integers(7, dtype=np.int32)
            got = maximin_lhd(n, d, ours).points
            assert got.tobytes() == reference_maximin_lhd(n, d, ref).points.tobytes()
            assert _same_state(ours.bit_generator.state, ref.bit_generator.state)
        decoded = bitgen is np.random.PCG64 and n >= 3 and d >= 2
        assert len(carries) == (3 if decoded else 0)

    def test_decode_starts_with_and_without_a_buffered_half(self, monkeypatch):
        # The random_lhd start can leave PCG64's 32-bit buffer full or
        # empty; both occur among these seeds, and each matches.
        carries = []
        real = designs._decode_sweeps

        def recorded(words, carry, n, d):
            carries.append(carry)
            return real(words, carry, n, d)

        monkeypatch.setattr(designs, "_decode_sweeps", recorded)
        for seed in range(8):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = maximin_lhd(7, 2, ours, sweeps=40).points
            assert got.tobytes() == reference_maximin_lhd(7, 2, ref, sweeps=40).points.tobytes()
            assert _same_state(ours.bit_generator.state, ref.bit_generator.state)
        assert None in carries and any(c is not None for c in carries)

    def test_rejected_word_falls_back_to_per_call_draws(self):
        # A rejected word means numpy would have drawn again, so the decode
        # gives up, the saved state comes back, and the per-call search
        # draws from it: the design and the state are the unmodified
        # stream's.
        assert designs._decode_sweeps(np.zeros(4, dtype=np.uint64), None, 4, 3) is None
        assert designs._decode_sweeps(np.full(4, 2**32 + 1, dtype=np.uint64), None, 4, 3) is not None
        ours, ref = np.random.Generator(_ZeroWordPCG64(5)), np.random.default_rng(5)
        got = maximin_lhd(4, 3, ours).points
        assert got.tobytes() == reference_maximin_lhd(4, 3, ref).points.tobytes()
        assert _same_state(ours.bit_generator.state, ref.bit_generator.state)

class TestIntegerArguments:
    # Unchecked, a bool seed or sweeps runs as 0 or 1, a None seed draws
    # fresh entropy, and a float fails deep inside with a TypeError.
    @pytest.mark.parametrize("make", [random_lhd, maximin_lhd])
    @pytest.mark.parametrize(
        "args,message",
        [
            ((10, 2, True), "seed must be an integer, got True"),
            ((10, 2, 1.5), "seed must be an integer, got 1.5"),
            ((10, 2, "3"), "seed must be an integer, got '3'"),
            ((10, 2, None), "seed must be an integer, got None"),
            ((2.5, 2, 0), "n must be an integer, got 2.5"),
            ((10, 2.5, 0), "d must be an integer, got 2.5"),
            ((10, 0, 0), "d must be >= 1, got 0"),
        ],
    )
    def test_rejected_by_name(self, make, args, message):
        with pytest.raises(ValueError) as err:
            make(*args)
        assert str(err.value) == message

    @pytest.mark.parametrize("sweeps", [True, 10.5])
    def test_sweeps_rejected_by_name(self, sweeps):
        with pytest.raises(ValueError) as err:
            maximin_lhd(10, 2, 0, sweeps=sweeps)
        assert str(err.value) == f"sweeps must be an integer, got {sweeps!r}"

    def test_numpy_integers_accepted(self):
        for make in (random_lhd, maximin_lhd):
            got = make(np.int64(10), np.int32(2), np.int64(3)).points
            assert got.tobytes() == make(10, 2, 3).points.tobytes()
        got = maximin_lhd(10, 2, 3, sweeps=np.int64(40)).points
        assert got.tobytes() == maximin_lhd(10, 2, 3, sweeps=40).points.tobytes()


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
