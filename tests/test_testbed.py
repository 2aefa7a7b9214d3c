"""Benchmark functions, embedded piston data, metrics, replication driver."""

import multiprocessing
import pickle

import numpy as np
import pytest

import ssgp.testbed as testbed
from ssgp.errors import BenchmarkError, SamplerError
from ssgp.io import canonical_json
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


class TestPistonData:
    def test_shape_and_scaling(self):
        data = piston_dataset()
        assert data.n == 12 and data.dim == 6
        # Observed min/max scaling puts each column exactly on [0, 1].
        assert np.allclose(data.points.min(axis=0), 0.0)
        assert np.allclose(data.points.max(axis=0), 1.0)

    def test_embedded_values_round_trip(self):
        data = piston_dataset()
        assert np.allclose(data.original_points(), testbed.PISTON_RUNS[:, :6])
        assert np.array_equal(data.responses, testbed.PISTON_RUNS[:, 6])

    def test_response_units_preserved(self):
        data = piston_dataset()
        assert data.responses.min() > 50.0 and data.responses.max() < 60.0


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
        with pytest.raises(ValueError, match="unknown test function"):
            run_benchmark(tiny_spec(function="nope"))
        with pytest.raises(ValueError, match="design"):
            run_benchmark(tiny_spec(design="grid"))
        with pytest.raises(ValueError, match="reps"):
            run_benchmark(tiny_spec(reps=0))

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
