"""Benchmark functions, embedded piston data, metrics, replication driver."""

import multiprocessing
import pickle
import warnings

import numpy as np
import pytest

import ssgp.testbed as testbed
from conftest import loo_means_by_folds, make_dataset
from ssgp import linalg, sampler
from ssgp.designs import scale_points
from ssgp.errors import BenchmarkError, SamplerError
from ssgp.gp import Dataset, FitOptions, mle_fit
from ssgp.io import canonical_json
from ssgp.sampler import SAMPLER_NUGGET, derive_seed, posterior_params
from ssgp.testbed import (
    BenchmarkSpec,
    eval_batch,
    eval_function,
    get_function,
    mar,
    piston_dataset,
    rmspe,
    run_benchmark,
    screening_score,
)

pytestmark = pytest.mark.filterwarnings("ignore:MH acceptance rate:RuntimeWarning")


class TestFunctions:
    def test_catalog(self):
        assert get_function("toy").dim == 3
        assert get_function("toy").active_set == frozenset({1, 2})
        assert get_function("linear").dim == 10
        assert get_function("linear").active_set == frozenset({1, 2, 3, 4})
        assert get_function("sinusoidal").active_set == frozenset({1, 2})
        assert get_function("borehole").dim == 8
        assert get_function("borehole").active_set == frozenset({1, 8})

    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValueError, match="borehole"):
            get_function("nope")

    def test_toy_hand_value_and_inert_input(self):
        f = get_function("toy")
        assert eval_function(f, [1.0, 0.0, 0.7]) == 2.0
        # x3 never enters.
        assert eval_function(f, [0.4, 0.6, 0.1]) == eval_function(f, [0.4, 0.6, 0.9])

    def test_linear_hand_value_and_inert_inputs(self):
        f = get_function("linear")
        x = np.full(10, 0.5)
        assert eval_function(f, x) == pytest.approx(4.0, abs=1e-15)
        y = x.copy()
        y[4:] = 0.9
        assert eval_function(f, y) == eval_function(f, x)

    def test_sinusoidal_hand_value(self):
        f = get_function("sinusoidal")
        x = np.zeros(10)
        x[0], x[1] = 0.5, 0.2
        assert eval_function(f, x) == pytest.approx(np.sin(0.5) + np.sin(1.0), abs=1e-15)

    def test_borehole_midpoint_frozen(self):
        f = get_function("borehole")
        mid = f.domain().mean(axis=1)
        assert eval_function(f, mid) == pytest.approx(52.54678464770317, rel=1e-12)

    def test_borehole_head_difference_drives_flow(self):
        f = get_function("borehole")
        mid = f.domain().mean(axis=1)
        up = mid.copy()
        up[3] += 20.0  # upper head
        down = mid.copy()
        down[5] += 20.0  # lower head
        assert eval_function(f, up) > eval_function(f, mid)
        assert eval_function(f, down) < eval_function(f, mid)

    def test_borehole_range_check_names_variable(self):
        f = get_function("borehole")
        x = f.domain().mean(axis=1)
        x[0] = 0.4
        with pytest.raises(ValueError, match="r_w"):
            eval_function(f, x)

    def test_arity_checked(self):
        with pytest.raises(ValueError, match="coordinates"):
            eval_function(get_function("toy"), [0.1, 0.2])

    def test_eval_batch(self):
        f = get_function("toy")
        out = eval_batch(f, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert out.shape == (2,)
        assert out[0] == 2.0
        assert out[1] == pytest.approx(-1.0, abs=1e-15)

    @pytest.mark.parametrize("name", sorted(testbed.FUNCTIONS))
    def test_eval_batch_bitwise_equal_to_point_by_point(self, name):
        # One call on the whole batch against each simulator's formula on
        # one point at a time, in numpy scalars, which the seeded responses
        # were made with.
        f = get_function(name)
        unit = np.random.default_rng(6).uniform(size=(20000, f.dim))
        xs = np.vstack([scale_points(unit, f.domain(), "from_unit"), f.domain().T])
        expected = np.array([float(POINT_FORMULAS[name](x)) for x in xs])
        assert eval_batch(f, xs).tobytes() == expected.tobytes()
        assert eval_function(f, xs[7]) == expected[7]

    def test_eval_batch_range_check_names_first_bad_point(self):
        f = get_function("borehole")
        xs = np.tile(f.domain().mean(axis=1), (4, 1))
        xs[2, 7] = 1e5  # K_w
        xs[3, 0] = 0.4  # r_w, on a later point
        with pytest.raises(ValueError, match="K_w out of range"):
            eval_batch(f, xs)

    def test_eval_batch_arity_checked(self):
        with pytest.raises(ValueError, match="coordinates"):
            eval_batch(get_function("toy"), np.zeros((4, 2)))


def _borehole_point(x):
    r_w, r, t_u, h_u, t_l, h_l, length, k_w = x
    log_ratio = np.log(r / r_w)
    denom = log_ratio * (1.0 + 2.0 * length * t_u / (log_ratio * r_w**2 * k_w) + t_u / t_l)
    return 2.0 * np.pi * t_u * (h_u - h_l) / denom


POINT_FORMULAS = {
    "toy": lambda x: (x[0] ** 3 + 1.0) * np.cos(np.pi * x[1]) + 0.0 * x[2],
    "linear": lambda x: 2.0 * x[0] + 2.0 * x[1] + 2.0 * x[2] + 2.0 * x[3],
    "sinusoidal": lambda x: np.sin(x[0]) + np.sin(5.0 * x[1]),
    "borehole": _borehole_point,
}


class TestPistonData:
    def test_shape_and_scaling(self):
        data = piston_dataset()
        assert data.n == 12 and data.dim == 6
        # Observed min/max scaling puts each column exactly on [0, 1].
        assert np.allclose(data.points.min(axis=0), 0.0)
        assert np.allclose(data.points.max(axis=0), 1.0)

    def test_embedded_values_round_trip(self):
        data = piston_dataset()
        assert np.allclose(scale_points(data.points, data.ranges, "from_unit"), testbed.PISTON_RUNS[:, :6])
        assert np.array_equal(data.responses, testbed.PISTON_RUNS[:, 6])

    def test_response_units_preserved(self):
        data = piston_dataset()
        assert data.responses.min() > 50.0 and data.responses.max() < 60.0


def loo_cases():
    # (params, data): the MLE and posterior plug-ins of criterion 5's first
    # replicate, on a shorter chain; and toy10 with two runs repeated, so R
    # is as near singular as a Dataset allows and each fold still holds a
    # copy of the run it leaves out.
    spec = BenchmarkSpec(function="piston", iters=2000, burnin=500, tau=0.3, c=25.0, prop_sd=0.03)
    params_mle, chain = testbed._fit_and_sample(spec, piston_dataset(), derive_seed(0, "rep", 0))
    base = make_dataset("toy", 10)
    duplicated = Dataset(
        np.vstack([base.points, base.points[:2]]),
        np.concatenate([base.responses, base.responses[:2]]),
        base.ranges,
    )
    return {
        "piston-mle": (params_mle, piston_dataset()),
        "piston-posterior": (posterior_params(chain), piston_dataset()),
        "duplicated-runs": (mle_fit(base, FitOptions(seed=1)), duplicated),
    }


class TestLeaveOneOut:
    @pytest.fixture(scope="class")
    def cases(self):
        return loo_cases()

    @pytest.mark.parametrize("case", ["piston-mle", "piston-posterior", "duplicated-runs"])
    def test_matches_per_fold_oracle(self, cases, case):
        params, data = cases[case]
        # The oracle conditions each fold at the nugget the full data
        # factored at, as the closed form does.
        _, used = linalg.corr_cholesky(data.points, params.theta, linalg.DEFAULT_NUGGET)
        expected = loo_means_by_folds(params, data, used)
        assert np.max(np.abs(testbed._loo_means(params, data) - expected)) <= 1e-12

    @pytest.mark.parametrize("case", ["piston-mle", "piston-posterior"])
    def test_one_factorization_per_plug_in(self, cases, case, monkeypatch):
        calls = []
        factor = linalg.corr_cholesky

        def counted(*args, **kwargs):
            calls.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(linalg, "corr_cholesky", counted)
        # A fresh Dataset: no factor is memoized yet.
        testbed._loo_means(cases[case][0], piston_dataset())
        assert len(calls) == 1


class TestMetrics:
    def test_rmspe_frozen(self):
        # Residual vector (1, -2): sqrt(mean of squares) frozen.
        assert rmspe([1.0, 0.0], [0.0, 2.0]) == pytest.approx(1.5811388300841898, abs=1e-15)

    def test_mar_frozen(self):
        assert mar([1.0, 0.0], [0.0, 2.0]) == 1.5
        assert mar([1.0, 0.0, 0.5], [0.0, 2.0, 0.0]) == 1.0

    def test_perfect_prediction(self):
        assert rmspe([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mar([1.0, 2.0], [1.0, 2.0]) == 0.0

    @pytest.mark.parametrize("fn", [rmspe, mar])
    def test_length_mismatch(self, fn):
        with pytest.raises(ValueError, match="length"):
            fn([1.0, 2.0], [1.0])

    @pytest.mark.parametrize("fn", [rmspe, mar])
    def test_empty_input_and_mismatch_named_apart(self, fn):
        with pytest.raises(ValueError, match="^need at least one value$"):
            fn([], [])
        with pytest.raises(ValueError, match="^length mismatch: 0 vs 1$"):
            fn([], [1.0])


class TestScreeningScore:
    def test_counts(self):
        f = get_function("linear")  # active {1,2,3,4} of 10
        score = screening_score({1, 2, 7}, f)
        assert score.aci == 2 and score.ami == 1
        assert score.aci_rate == 0.5
        assert score.ami_rate == pytest.approx(1 / 6)

    def test_partition_property(self):
        # Every selected variable is either correctly or incorrectly included.
        rng = np.random.default_rng(0)
        f = get_function("sinusoidal")
        for _ in range(50):
            k = int(rng.integers(0, f.dim + 1))
            selected = set(rng.choice(np.arange(1, f.dim + 1), size=k, replace=False).tolist())
            score = screening_score(selected, f)
            assert score.aci + score.ami == len(selected)

    def test_empty_selection(self):
        score = screening_score(frozenset(), get_function("toy"))
        assert score.aci == 0 and score.ami == 0
        assert score.aci_rate == 0.0 and score.ami_rate == 0.0

    def test_out_of_range_index(self):
        with pytest.raises(ValueError, match="1..3"):
            screening_score({4}, get_function("toy"))


def tiny_spec(**overrides):
    base = dict(function="toy", n=10, reps=2, iters=60, burnin=20, seed=0)
    base.update(overrides)
    return BenchmarkSpec(**base)


class TestRunBenchmark:
    def test_report_structure(self):
        report = run_benchmark(tiny_spec())
        assert report["schema_version"] == 1
        assert report["spec"]["function"] == "toy"
        assert len(report["replicates"]) == 2
        assert report["failures"] == []
        row = report["replicates"][0]
        for key in ("rep", "seed", "selected", "modal_gamma", "modal_freq",
                    "marginal_inclusion", "aci", "ami", "rmspe_ssgp",
                    "rmspe_mle", "mar_ssgp", "mar_mle", "accept_rate"):
            assert key in row
        agg = report["aggregate"]
        assert agg["n_ok"] == 2
        assert "mean_aci" in agg and "ssgp_beats_mle" in agg

    def test_deterministic_given_seed(self):
        a = run_benchmark(tiny_spec())
        b = run_benchmark(tiny_spec())
        assert canonical_json(a) == canonical_json(b)
        c = run_benchmark(tiny_spec(seed=1))
        assert canonical_json(a) != canonical_json(c)

    def test_replicates_draw_distinct_seeds(self):
        report = run_benchmark(tiny_spec())
        seeds = [r["seed"] for r in report["replicates"]]
        assert len(set(seeds)) == len(seeds)

    def test_piston_uses_loo(self):
        report = run_benchmark(BenchmarkSpec(function="piston", reps=1, iters=60, burnin=20, seed=0))
        row = report["replicates"][0]
        assert "aci" not in row  # no known active set for real data
        assert row["rmspe_ssgp"] > 0 and row["rmspe_mle"] > 0
        assert len(row["marginal_inclusion"]) == 6

    def test_failure_quota(self, monkeypatch):
        def broken(data, hyper=None, init=None):
            raise SamplerError(1, "forced failure")

        monkeypatch.setattr(testbed, "run_chain", broken)
        with pytest.raises(BenchmarkError, match="quota") as err:
            run_benchmark(tiny_spec())
        report = err.value.report
        assert report is not None
        assert len(report["failures"]) == 2
        assert report["aggregate"]["n_ok"] == 0
        assert "forced failure" in report["failures"][0]["error"]

    def test_single_failure_within_quota_still_fails_at_two_reps(self, monkeypatch):
        # 1 failure out of 2 reps exceeds the 10% quota.
        real = testbed.run_chain
        calls = {"n": 0}

        def sometimes(data, hyper=None, init=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SamplerError(1, "forced")
            return real(data, hyper, init)

        monkeypatch.setattr(testbed, "run_chain", sometimes)
        with pytest.raises(BenchmarkError):
            run_benchmark(tiny_spec())

    def test_validation(self):
        # The spec checks itself when built, before run_benchmark sees it.
        with pytest.raises(ValueError, match="'function' must be one of borehole, linear, piston"):
            tiny_spec(function="nope")
        with pytest.raises(ValueError, match="'design'"):
            tiny_spec(design="grid")
        with pytest.raises(ValueError, match="'reps' must be >= 1"):
            tiny_spec(reps=0)

    def test_spec_check_leaves_warnings_to_the_chain(self):
        # The spec runs Hyperparams' checks at load without its c <= 2
        # warning; each chain still warns, as before.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = tiny_spec(c=1.5, reps=1)
        with pytest.warns(RuntimeWarning, match="barely separates"):
            run_benchmark(spec)

    def test_piston_external_test_file(self, tmp_path):
        # The 12 embedded runs as the external set: the MLE comparator
        # interpolates its own design at nugget 1e-8, so its external
        # errors are round-off (2e-8 to 4e-8 dB at master seeds 0-5),
        # against a leave-one-out RMSPE of 1.2-1.6 dB.
        path = tmp_path / "piston.csv"
        header = ",".join([f"x{k}" for k in range(1, 7)] + ["y"])
        np.savetxt(path, testbed.PISTON_RUNS, delimiter=",", header=header, comments="")
        spec = BenchmarkSpec(function="piston", reps=2, iters=60, burnin=20, seed=0, test_file=str(path))
        serial = run_benchmark(spec)
        assert canonical_json(run_benchmark(spec, workers=2)) == canonical_json(serial)
        for row in serial["replicates"]:
            assert row["rmspe_mle_external"] < 1e-6 and row["mar_mle_external"] < 1e-6
            assert row["rmspe_ssgp_external"] < 1e-6 and row["rmspe_mle"] > 0.5

    def test_random_design_option(self):
        report = run_benchmark(tiny_spec(design="random-lhd", reps=1))
        assert report["aggregate"]["n_ok"] == 1

    def test_design_goes_through_module_attribute(self, monkeypatch):
        # Tracing wraps testbed.maximin_lhd; a replicate must call it by
        # that name.
        calls = []
        real = testbed.maximin_lhd

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(testbed, "maximin_lhd", counting)
        run_benchmark(tiny_spec(reps=1))
        assert len(calls) == 1

    def test_one_search_then_one_descent_per_replicate(self, monkeypatch):
        # The comparator is the replicate's one multi-start search; the
        # chain's init is one descent from its theta at the sampler nugget,
        # handed to run_chain, which then fits nothing of its own.
        fits, inits, chain_fits = [], [], []
        real_fit, real_chain = testbed.mle_fit, testbed.run_chain

        def recording_fit(data, opts=None, start=None):
            params = real_fit(data, opts, start=start)
            fits.append((opts, None if start is None else np.array(start), params))
            return params

        def recording_chain(data, hyper=None, init=None):
            inits.append(init)
            return real_chain(data, hyper, init)

        def recording_chain_fit(*args, **kwargs):
            chain_fits.append(args)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(testbed, "mle_fit", recording_fit)
        monkeypatch.setattr(testbed, "run_chain", recording_chain)
        monkeypatch.setattr(sampler, "mle_fit", recording_chain_fit)
        report = run_benchmark(tiny_spec(reps=1))
        assert report["aggregate"]["n_ok"] == 1
        (cmp_opts, cmp_start, comparator), (init_opts, init_start, init) = fits
        rep_seed = derive_seed(0, "rep", 0)
        assert cmp_opts == FitOptions(seed=derive_seed(rep_seed, "mle")) and cmp_start is None
        assert init_opts.nugget == SAMPLER_NUGGET
        assert init_start.tobytes() == comparator.theta.tobytes()
        assert len(inits) == 1 and inits[0] is init
        assert chain_fits == []


class TestProcessPool:
    def test_sampler_error_pickles(self):
        # A pool worker sends exceptions back pickled; SamplerError once
        # failed to unpickle and broke the pool.
        err = pickle.loads(pickle.dumps(SamplerError(7, "forced")))
        assert isinstance(err, SamplerError)
        assert err.scan == 7
        assert str(err) == "scan 7: forced"

    def test_same_report_in_pool(self):
        serial = run_benchmark(tiny_spec(reps=3), workers=1)
        pooled = run_benchmark(tiny_spec(reps=3), workers=2)
        assert canonical_json(pooled) == canonical_json(serial)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers inherit the monkeypatch only when forked",
    )
    def test_pool_failure_lands_in_report(self, monkeypatch):
        def broken(spec, data, rep_seed):
            raise SamplerError(3, "forced failure")

        monkeypatch.setattr(testbed, "_fit_and_sample", broken)
        with pytest.raises(BenchmarkError, match="quota") as err:
            run_benchmark(tiny_spec(), workers=2)
        report = err.value.report
        assert report["aggregate"]["n_ok"] == 0
        assert report["failures"] == [
            {"rep": 0, "error": "scan 3: forced failure"},
            {"rep": 1, "error": "scan 3: forced failure"},
        ]
