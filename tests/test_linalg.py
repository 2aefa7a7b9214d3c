"""Kernel and Cholesky layer: hand-checked values, error taxonomy, escalation."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    build_corr_matrix,
    chol_decompose,
    corr_matrix_from_sqdiffs,
    fixed_nugget_factor,
    gaussian_corr,
    make_dataset,
    pairwise_sqdiffs,
)
from ssgp import linalg
from ssgp.errors import IllConditionedError, NotPositiveDefiniteError


class TestGaussianCorr:
    def test_hand_values(self):
        # exp(-3 * 0.25) and exp(-1), frozen independently.
        assert gaussian_corr([0.0], [0.5], [3.0]) == pytest.approx(
            0.4723665527410147, abs=1e-15
        )
        assert gaussian_corr([0.0], [1.0], [1.0]) == pytest.approx(
            0.36787944117144233, abs=1e-15
        )

    def test_same_point_is_one(self):
        assert gaussian_corr([0.3, 0.7], [0.3, 0.7], [2.0, 5.0]) == 1.0

    def test_zero_theta_ignores_coordinates(self):
        assert gaussian_corr([0.1], [0.9], [0.0]) == 1.0

    def test_separable_product(self):
        # Multi-d correlation is the product of 1-d factors.
        xi, xj = [0.1, 0.4], [0.6, 0.9]
        theta = [2.0, 0.7]
        parts = [
            gaussian_corr([xi[k]], [xj[k]], [theta[k]]) for k in range(2)
        ]
        assert gaussian_corr(xi, xj, theta) == pytest.approx(
            parts[0] * parts[1], rel=1e-14
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            gaussian_corr([0.0, 0.1], [0.5], [1.0])

    def test_negative_theta(self):
        with pytest.raises(ValueError, match="non-negative"):
            gaussian_corr([0.0], [0.5], [-1.0])

    def test_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            gaussian_corr([np.nan], [0.5], [1.0])


class TestCorrMatrix:
    def test_pairwise_sqdiffs(self):
        # The one pair's squared differences, then seven zero rows.
        pts = np.array([[0.0, 1.0], [1.0, 3.0]])
        rows = linalg.pair_table(pts).rows
        assert rows.shape == (8, 2)
        assert rows[0, 0] == 1.0 and rows[0, 1] == 4.0
        assert np.all(rows[1:] == 0.0)

    def test_diagonal_carries_nugget(self):
        pts = np.array([[0.1], [0.5], [0.9]])
        r = build_corr_matrix(pts, [2.0], nugget=1e-6)
        assert np.allclose(np.diag(r), 1.0 + 1e-6)
        assert np.allclose(r, r.T)

    def test_matches_scalar_kernel(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(size=(6, 3))
        theta = np.array([0.5, 2.0, 7.0])
        r = build_corr_matrix(pts, theta, nugget=0.0)
        for i in range(6):
            for j in range(6):
                expect = gaussian_corr(pts[i], pts[j], theta)
                if i == j:
                    expect = 1.0
                assert r[i, j] == pytest.approx(expect, abs=1e-15)

    def test_theta_shape_checked(self):
        pts = np.array([[0.1, 0.2], [0.5, 0.6]])
        with pytest.raises(ValueError, match="theta"):
            build_corr_matrix(pts, [1.0], nugget=0.0)

    def test_negative_nugget(self):
        with pytest.raises(ValueError, match="nugget"):
            build_corr_matrix(np.array([[0.1], [0.9]]), [1.0], nugget=-1e-8)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
    def test_theta_values_checked(self, bad):
        # A non-finite theta would put NaN into R; internal factorizations
        # run no symmetry or finite scan, so the checked entry must stop it.
        pts = np.array([[0.1, 0.2], [0.5, 0.6]])
        with pytest.raises(ValueError, match="finite and non-negative"):
            linalg.corr_cholesky(pts, [1.0, bad], nugget=0.0)

    def test_duplicate_points_zero_nugget_warns(self):
        pts = np.array([[0.3, 0.3], [0.3, 0.3], [0.7, 0.1]])
        with pytest.warns(RuntimeWarning, match="duplicate"):
            build_corr_matrix(pts, [1.0, 1.0], nugget=0.0)

    def test_duplicate_points_with_nugget_silent(self):
        pts = np.array([[0.3, 0.3], [0.3, 0.3]])
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_corr_matrix(pts, [1.0, 1.0], nugget=1e-6)


class TestCholesky:
    def test_hand_factor(self):
        lower = chol_decompose(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert lower[0, 0] == 1.0
        assert lower[1, 0] == 0.5
        # sqrt(0.75), frozen.
        assert lower[1, 1] == pytest.approx(0.8660254037844386, abs=1e-15)
        assert lower[0, 1] == 0.0

    def test_log_det_hand_values(self):
        lower = chol_decompose(np.array([[1.0, 0.5], [0.5, 1.0]]))
        # det = 0.75, frozen log.
        assert linalg.CorrFactor(lower, np.zeros(2)).log_det == pytest.approx(
            -0.2876820724517809, abs=1e-14
        )
        lower = chol_decompose(np.diag([4.0, 9.0]))
        assert linalg.CorrFactor(lower, np.zeros(2)).log_det == pytest.approx(
            3.58351893845611, abs=1e-13
        )

    def test_not_square(self):
        with pytest.raises(ValueError, match="square"):
            chol_decompose(np.ones((2, 3)))

    def test_not_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            chol_decompose(np.array([[1.0, 0.2], [0.4, 1.0]]))

    def test_symmetry_tolerance_is_allclose(self):
        # Within np.allclose(m, m.T, rtol=1e-10, atol=1e-12) passes; NaN fails.
        near = np.array([[1.0, 0.5], [0.5 + 5e-11, 1.0]])
        assert np.allclose(near, near.T, rtol=1e-10, atol=1e-12)
        chol_decompose(near)
        far = np.array([[1.0, 0.5], [0.5 + 1e-9, 1.0]])
        assert not np.allclose(far, far.T, rtol=1e-10, atol=1e-12)
        with pytest.raises(ValueError, match="symmetric"):
            chol_decompose(far)
        with pytest.raises(ValueError, match="symmetric"):
            chol_decompose(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            linalg._cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_tiny_pivot_raises(self):
        # Positive definite but with a pivot below the tolerance.
        with pytest.raises(NotPositiveDefiniteError, match="pivot"):
            linalg._cholesky(np.diag([1.0, 1e-13]))

    def test_solve_shape_checked(self):
        lower = np.eye(3)
        with pytest.raises(ValueError, match="mismatch"):
            linalg.solve_with_chol(lower, np.ones(4))

    def test_solve_rejects_non_finite(self):
        with pytest.raises(ValueError, match="NaN"):
            linalg.solve_with_chol(np.array([[1.0, 0.0], [np.nan, 1.0]]), [1.0, 2.0])
        with pytest.raises(ValueError, match="NaN"):
            linalg.solve_with_chol(np.eye(2), [1.0, np.inf])


# Diagonals a factor can carry: any non-negative float, NaN, and the edges
# of the pivot test, PIVOT_TOL = sqrt(PIVOT_TOL)^2 and the largest finite
# square.
_TOL_ROOT = float(np.sqrt(linalg.PIVOT_TOL))
_EDGES = [0.0, -0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308, _TOL_ROOT, 1.0,
          float(np.sqrt(np.finfo(float).max))]
_EDGES += [float(np.nextafter(v, w)) for v in _EDGES[6:] for w in (0.0, np.inf)]
_DIAGONAL_ENTRY = st.one_of(
    st.floats(min_value=0.0, allow_infinity=True),
    st.floats(min_value=0.5 * _TOL_ROOT, max_value=2.0 * _TOL_ROOT),
    st.sampled_from(_EDGES),
)


class TestPivotTest:
    @given(st.lists(_DIAGONAL_ENTRY, min_size=1, max_size=60))
    @example([_TOL_ROOT])  # its square is PIVOT_TOL exactly: rejected
    @example([1.0, float(np.nextafter(_TOL_ROOT, 1.0))])
    @example([1.0, np.nan, 0.5])
    @example([0.5, np.inf])
    @example([5e-324, 1.0])
    def test_extremes_decide_as_the_squared_form(self, entries):
        # _cholesky tests PIVOT_TOL < lo^2 <= hi^2 < inf on the diagonal's
        # extremes; the squared form tests every L_ii^2.  Both must accept
        # and reject the same diagonals, NaN, infinity and subnormals
        # included.
        diag = np.array(entries)
        with np.errstate(over="ignore"):
            pivots = diag**2
            squared = bool(linalg.PIVOT_TOL < pivots.min() <= pivots.max() < np.inf)
            assert linalg._pivots_pass(diag) == squared


def _random_spd(rng, n):
    # Moderate conditioning so explicit-inverse comparisons stay meaningful.
    b = rng.normal(size=(n, n))
    return b @ b.T + n * np.eye(n)


class TestAgainstExplicitInverse:
    def test_solves_and_determinants(self):
        # Random SPD matrices up to n=50; solves and log-determinants must
        # agree with explicit-inverse computations within 1e-8.
        rng = np.random.default_rng(42)
        for trial in range(20):
            n = int(rng.integers(2, 51))
            m = _random_spd(rng, n)
            lower = chol_decompose(m)
            b = rng.normal(size=n)
            x = linalg.solve_with_chol(lower, b)
            assert np.max(np.abs(x - np.linalg.inv(m) @ b)) < 1e-8
            sign, logdet = np.linalg.slogdet(m)
            assert sign == 1.0
            assert abs(linalg.CorrFactor(lower, b).log_det - logdet) < 1e-8

    def test_matrix_rhs(self):
        rng = np.random.default_rng(7)
        m = _random_spd(rng, 8)
        lower = chol_decompose(m)
        b = rng.normal(size=(8, 3))
        x = linalg.solve_with_chol(lower, b)
        assert np.max(np.abs(m @ x - b)) < 1e-10


class TestCorrCholesky:
    def test_reports_nugget_used(self):
        pts = np.random.default_rng(0).uniform(size=(10, 2))
        _, used = linalg.corr_cholesky(pts, [3.0, 3.0], nugget=1e-8)
        assert used == 1e-8

    def test_escalates_from_singular(self):
        # Duplicate rows make the matrix exactly singular at zero nugget;
        # one escalation step to the default must fix it.
        pts = np.array([[0.3, 0.3], [0.3, 0.3], [0.7, 0.1]])
        lower, used = linalg.corr_cholesky(pts, [1.0, 1.0], nugget=0.0)
        assert used == linalg.DEFAULT_NUGGET
        assert lower.shape == (3, 3)

    def test_escalation_schedule_then_gives_up(self, monkeypatch):
        seen = []

        def always_fail(m):
            seen.append(float(m[0, 0]) - 1.0)
            raise NotPositiveDefiniteError("forced")

        monkeypatch.setattr(linalg, "_cholesky", always_fail)
        pts = np.array([[0.2], [0.8]])
        with pytest.raises(IllConditionedError, match="not positive definite"):
            linalg.corr_cholesky(pts, [1.0], nugget=0.0)
        # Zero start, then the default, then x10 escalation until the cap.
        assert seen[0] == pytest.approx(0.0, abs=1e-15)
        assert seen[1] == pytest.approx(1e-8, rel=1e-6)
        # Recovering the jitter from the matrix diagonal loses low bits, so
        # the last two attempts near the cap can read back equal.
        assert all(b >= a for a, b in zip(seen[1:], seen[2:]))
        assert seen[-1] == pytest.approx(linalg.MAX_NUGGET, rel=1e-6)
        assert len(seen) <= 8

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_nugget_rejected(self, bad):
        # A NaN nugget would fail every attempt, and min(max(nan * 10, ...))
        # stays NaN, so the escalation loop would never end.
        with pytest.raises(ValueError, match="nugget must be finite and non-negative"):
            linalg.corr_cholesky(np.array([[0.2], [0.8]]), [1.0], nugget=bad)

    def test_accepts_precomputed_sqdiffs(self):
        pts = np.random.default_rng(1).uniform(size=(6, 2))
        a, _ = linalg.corr_cholesky(pts, [2.0, 0.5])
        b, _ = linalg.corr_cholesky(pts, [2.0, 0.5], pairs=linalg.pair_table(pts))
        assert np.array_equal(a, b)


class TestPairTable:
    def test_layout(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        pairs = linalg.pair_table(pts)
        # Pairs (1, 0), (2, 0), (2, 1), column by column, then zero rows.
        assert pairs.n == 3
        assert pairs.rows.shape == (8, 1)
        assert np.array_equal(pairs.rows[:, 0], [1.0, 9.0, 4.0, 0, 0, 0, 0, 0])
        assert np.array_equal(pairs.index, [1, 2, 5])

    @pytest.mark.parametrize(
        "points,match",
        [
            (np.array([0.1, 0.5]), "non-empty"),
            (np.zeros((0, 2)), "non-empty"),
            (np.zeros((3, 0)), "non-empty"),
            (np.array([[0.1], [np.nan]]), "non-finite"),
            (np.array([[0.1], [np.inf]]), "non-finite"),
        ],
    )
    def test_points_checked(self, points, match):
        with pytest.raises(ValueError, match=match):
            linalg.pair_table(points)

    def test_build_and_factor_bitwise_match_full_matrix(self):
        # Random n from 2 to 120 until every residue of n(n-1)/2 mod 8 has
        # been seen with both an odd and an even n; d from 1 to 10; theta
        # with exact zeros and large entries; three nuggets.  The buffer's
        # lower triangle must be the full matrix's bit for bit, its upper
        # triangle zero, and its factor the full matrix's factor.
        rng = np.random.default_rng(2024)
        cells = set()
        checked = 0
        while len(cells) < 16 or checked < 40:
            n = int(rng.integers(2, 121))
            d = int(rng.integers(1, 11))
            cells.add((n * (n - 1) // 2 % 8, n % 2))
            pts = rng.uniform(size=(n, d))
            sqd = pairwise_sqdiffs(pts)
            pairs = linalg.pair_table(pts)
            j, i = np.triu_indices(n, 1)
            assert pairs.rows[: len(i)].tobytes() == sqd[i, j].tobytes()
            for _ in range(3):
                theta = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), d))
                theta[rng.uniform(size=d) < 0.25] = 0.0
                theta[rng.uniform(size=d) < 0.1] *= 1e4
                for nugget in (0.0, 1e-8, 1e-5):
                    full = corr_matrix_from_sqdiffs(sqd, theta, nugget)
                    built = linalg._corr_lower(pairs, theta, nugget)
                    low = np.tril_indices(n)
                    assert built[low].tobytes() == full[low].tobytes()
                    assert not np.triu(built, 1).any()
                    try:
                        expect = chol_decompose(full)
                    except NotPositiveDefiniteError:
                        with pytest.raises(NotPositiveDefiniteError):
                            fixed_nugget_factor(pairs, theta, nugget, np.zeros(n))
                        continue
                    lower = fixed_nugget_factor(pairs, theta, nugget, np.zeros(n)).lower
                    assert lower.tobytes(order="C") == expect.tobytes(order="C")
                    checked += 1


class TestScratch:
    def test_reused_buffer_matches_a_new_one(self):
        # One scratch refilled for many theta, some of which do not factor:
        # each factor must be the bits of one built in a new
        # buffer, and the upper triangle must stay zero with potrf's clean
        # pass skipped.
        rng = np.random.default_rng(7)
        for n, d in ((2, 1), (13, 3), (54, 10)):
            pts = rng.uniform(size=(n, d))
            pairs = linalg.pair_table(pts)
            out = linalg._scratch(pairs)
            failed = 0
            for k in range(30):
                theta = np.exp(rng.uniform(np.log(1e-3), np.log(1e2), d))
                nugget = float(rng.choice([0.0, 1e-8, 1e-5]))
                if k % 4 == 3:
                    # R is all ones to the last bit: singular.
                    theta, nugget = theta * 1e-20, 0.0
                try:
                    fresh = linalg._corr_factor(pairs, theta, nugget, np.zeros(n)).lower
                except NotPositiveDefiniteError:
                    failed += 1
                    with pytest.raises(NotPositiveDefiniteError):
                        linalg._corr_factor(pairs, theta, nugget, np.zeros(n), out)
                    continue
                reused = linalg._corr_factor(pairs, theta, nugget, np.zeros(n), out).lower
                assert np.shares_memory(reused, out.matrix)
                assert reused.tobytes(order="F") == fresh.tobytes(order="F")
                assert not np.triu(out.matrix, 1).any()
            assert failed > 0


class TestCorrFactor:
    """The factor object against explicit inverses and slogdet."""

    @pytest.mark.parametrize("name,n", [("toy", 10), ("linear", 54)])
    def test_against_explicit_inverse(self, name, n):
        # Log-uniform phi in [0.1, 2] reaches condition numbers near 1e6 on
        # toy10; every quantity must agree to 1e-10 relative.
        data = make_dataset(name, n)
        sqd = pairwise_sqdiffs(data.points)
        pairs = data.pair_table
        y, ones = data.responses, np.ones(data.n)
        rng = np.random.default_rng(1)
        for _ in range(10):
            phi = np.exp(rng.uniform(np.log(0.1), np.log(2.0), data.dim))
            mu = rng.normal()
            for nugget in (linalg.DEFAULT_NUGGET, 1e-5):
                f = fixed_nugget_factor(pairs, phi**2, nugget, y)
                r = corr_matrix_from_sqdiffs(sqd, phi**2, nugget)
                rinv = np.linalg.inv(r)
                sign, logdet = np.linalg.slogdet(r)
                assert sign == 1.0
                assert f.log_det == pytest.approx(logdet, rel=1e-10)
                assert f.one_rinv_one == pytest.approx(ones @ rinv @ ones, rel=1e-10)
                assert f.gls_mean * f.one_rinv_one == pytest.approx(ones @ rinv @ y, rel=1e-10)
                assert f.gls_mean == pytest.approx((ones @ rinv @ y) / (ones @ rinv @ ones), rel=1e-10)
                assert f.quad(mu) == pytest.approx((y - mu) @ rinv @ (y - mu), rel=1e-10)
                # Entrywise, relative to the largest entry: at condition
                # numbers near 1e6 both inverses carry ~1e-10 of it.
                assert np.max(np.abs(f.inverse() - rinv)) <= 1e-8 * np.max(np.abs(rinv))
                assert np.array_equal(f.lower, chol_decompose(r))

    def test_lower_inverse_is_the_whitened_identity(self):
        # One Fortran-order identity solved in place: the bits of whitening
        # a C-order one, which f2py copies first, so R^-1 and the LOO
        # diagonal built on it do not move.
        data = make_dataset("linear", 54)
        f = fixed_nugget_factor(data.pair_table, np.full(data.dim, 0.3), 1e-8, data.responses)
        v = f.lower_inverse()
        assert v.flags.f_contiguous
        assert v.tobytes(order="F") == f.whiten(np.eye(data.n)).tobytes(order="F")
        expect = f.whiten(np.eye(data.n))
        assert f.inverse().tobytes() == (expect.T @ expect).tobytes()

    def test_solve_formed_only_when_read(self):
        # log det and the quadratic form, all a rejected Gibbs proposal
        # reads, leave the two-column solve unformed.
        pts = np.random.default_rng(4).uniform(size=(6, 2))
        f = fixed_nugget_factor(linalg.pair_table(pts), [2.0, 0.5], 1e-8, np.arange(6.0))
        f.log_det
        f.quad(1.0)
        assert "_ones_y" not in vars(f)
        f.gls_mean
        assert "_ones_y" in vars(f)

    def test_quad_is_a_fresh_solve_per_mu(self):
        # The kept quadratic form must never be served for another mu.
        pts = np.random.default_rng(4).uniform(size=(6, 2))
        y = np.arange(6.0)
        f = fixed_nugget_factor(linalg.pair_table(pts), [2.0, 0.5], 1e-8, y)
        first = f.quad(1.0)
        assert f.quad(2.5) != first
        assert f.quad(1.0) == first

    def test_fixed_nugget_does_not_escalate(self):
        # Duplicate rows at zero nugget: corr_cholesky escalates, the
        # sampler's fixed-nugget factor raises.
        pts = np.array([[0.3, 0.3], [0.3, 0.3], [0.7, 0.1]])
        with pytest.raises(NotPositiveDefiniteError):
            linalg._corr_factor(linalg.pair_table(pts), np.array([1.0, 1.0]), 0.0, np.zeros(3))
