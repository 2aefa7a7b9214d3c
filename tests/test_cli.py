"""End-to-end command-line behavior, driven in process through main(argv)."""

import re
from pathlib import Path

import numpy as np
import pytest

import ssgp.cli as cli
import ssgp.testbed as testbed
from conftest import make_dataset
from ssgp import io
from ssgp.errors import OptimizerFailedError, SamplerError

pytestmark = pytest.mark.filterwarnings("ignore:MH acceptance rate:RuntimeWarning")


def write_data_csv(path, points, y):
    points = np.atleast_2d(points)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{k + 1}" for k in range(points.shape[1])) + ",y\n")
        for row, v in zip(points, y):
            fh.write(",".join(repr(float(c)) for c in row) + "," + repr(float(v)) + "\n")


@pytest.fixture(scope="module")
def toy_csv(tmp_path_factory):
    data = make_dataset("toy", 12)
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    write_data_csv(path, data.points, data.responses)
    return str(path)


class TestDesignCommand:
    def test_writes_design(self, tmp_path):
        out = tmp_path / "design.csv"
        assert cli.main(["design", "--n", "8", "--d", "2", "--seed", "1", "--out", str(out)]) == 0
        pts = io.read_design_csv(out)
        assert pts.shape == (8, 2)
        assert np.all((pts > 0) & (pts < 1))

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["design", "--n", "10", "--d", "3", "--seed", "5", "--out", str(a)])
        cli.main(["design", "--n", "10", "--d", "3", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_kind(self, tmp_path):
        code = cli.main(["design", "--kind", "grid", "--n", "4", "--d", "2", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_bad_size(self, tmp_path):
        code = cli.main(["design", "--kind", "random-lhd", "--n", "0", "--d", "2", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_negative_sweeps_exit_2(self, tmp_path):
        out = tmp_path / "x.csv"
        code = cli.main(["design", "--n", "6", "--d", "2", "--sweeps", "-5", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_sweeps_with_random_lhd_exit_2(self, tmp_path, capsys):
        # A random LHD makes no swaps; the flag is rejected, not ignored.
        out = tmp_path / "x.csv"
        args = ["design", "--kind", "random-lhd", "--n", "6", "--d", "2", "--sweeps", "7", "--out", str(out)]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--sweeps" in err
        assert not out.exists()

    def test_negative_seed_exit_2_names_seed(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli.main(["design", "--n", "6", "--d", "2", "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_argparse_failures_exit_2(self):
        assert cli.main(["design", "--d", "2"]) == 2  # missing --n
        assert cli.main(["design", "--n", "4", "--d", "2", "--nope"]) == 2
        assert cli.main([]) == 2


class TestFitCommand:
    def test_fit_and_reload(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert cli.main(["fit", "--data", toy_csv, "--out", str(out)]) == 0
        params, data = io.load_model(out)
        assert data.n == 12
        assert params.sigma2 > 0
        assert "mu" in capsys.readouterr().out

    def test_byte_identical_reruns(self, toy_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["fit", "--data", toy_csv, "--seed", "3", "--out", str(a)])
        cli.main(["fit", "--data", toy_csv, "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_requires_some_input(self):
        assert cli.main(["fit"]) == 2

    def test_missing_file(self, tmp_path):
        assert cli.main(["fit", "--data", str(tmp_path / "absent.csv")]) == 2

    def test_data_and_design_exclusive(self, toy_csv):
        assert cli.main(["fit", "--data", toy_csv, "--design", toy_csv]) == 2

    def test_ranges_and_observed_ranges_exclusive(self, toy_csv, capsys):
        assert cli.main(["fit", "--data", toy_csv, "--ranges", "0:1,0:1,0:1", "--observed-ranges"]) == 2
        assert "not allowed with argument --ranges" in capsys.readouterr().err

    def test_one_run_exit_2(self, tmp_path, capsys):
        # Too little data is bad input, not a failed fit (exit 3).
        path = tmp_path / "one.csv"
        write_data_csv(path, np.array([[0.5, 0.5]]), [1.0])
        out = tmp_path / "m.json"
        assert cli.main(["fit", "--data", str(path), "--out", str(out)]) == 2
        assert "need at least 2 runs to fit, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_data_outside_unit_cube_needs_ranges(self, tmp_path):
        path = tmp_path / "wide.csv"
        write_data_csv(path, np.array([[2.0], [8.0], [5.0]]), [1.0, 2.0, 1.5])
        assert cli.main(["fit", "--data", str(path)]) == 2
        out = tmp_path / "model.json"
        assert cli.main(["fit", "--data", str(path), "--ranges", "0:10", "--out", str(out)]) == 0

    def test_data_outside_given_ranges_exit_2(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        write_data_csv(path, np.array([[2.0], [8.0], [5.0]]), [1.0, 2.0, 1.5])
        out = tmp_path / "model.json"
        assert cli.main(["fit", "--data", str(path), "--ranges", "0:6", "--out", str(out)]) == 2
        assert "column x1 has points outside [0, 6]" in capsys.readouterr().err
        assert not out.exists()

    def test_observed_ranges(self, tmp_path):
        path = tmp_path / "wide.csv"
        write_data_csv(path, np.array([[2.0], [8.0], [5.0]]), [1.0, 2.0, 1.5])
        out = tmp_path / "model.json"
        assert cli.main(["fit", "--data", str(path), "--observed-ranges", "--out", str(out)]) == 0
        _, data = io.load_model(out)
        assert np.array_equal(data.ranges, [[2.0, 8.0]])

    def test_design_response_count_mismatch_exit_2(self, tmp_path, capsys):
        design, response = tmp_path / "design.csv", tmp_path / "response.csv"
        io.write_design_csv(design, np.linspace(0.1, 0.9, 10).reshape(5, 2))
        response.write_text("y\n1.0\n2.0\n3.0\n4.0\n")
        assert cli.main(["fit", "--design", str(design), "--response", str(response)]) == 2
        err = capsys.readouterr().err
        assert "5 design points" in err and "4 responses" in err

    def test_malformed_ranges(self, toy_csv):
        assert cli.main(["fit", "--data", toy_csv, "--ranges", "0:1"]) == 2
        assert cli.main(["fit", "--data", toy_csv, "--ranges", "0:1,0:1,bad"]) == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_data_cell_names_location(self, tmp_path, capsys, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"x1,x2,y\n0.2,0.3,1.0\n0.5,0.6,{cell}\n0.8,0.1,2.0\n")
        assert cli.main(["fit", "--data", str(path), "--out", str(tmp_path / "m.json")]) == 2
        assert f"{path}: non-finite value '{cell}' in row 3, column y" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_design_cell_names_location(self, tmp_path, capsys, cell):
        design, response = tmp_path / "design.csv", tmp_path / "response.csv"
        design.write_text(f"x1,x2\n0.2,0.3\n{cell},0.6\n0.8,0.1\n")
        response.write_text("y\n1.0\n2.0\n3.0\n")
        assert cli.main(["fit", "--design", str(design), "--response", str(response)]) == 2
        assert f"{design}: non-finite value '{cell}' in row 3, column x1" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_response_cell_names_location(self, tmp_path, capsys, cell):
        design, response = tmp_path / "design.csv", tmp_path / "response.csv"
        design.write_text("x1,x2\n0.2,0.3\n0.5,0.6\n0.8,0.1\n")
        response.write_text(f"y\n1.0\n2.0\n{cell}\n")
        assert cli.main(["fit", "--design", str(design), "--response", str(response)]) == 2
        assert f"{response}: non-finite value '{cell}' in row 4, column y" in capsys.readouterr().err

    def test_negative_seed_exit_2_names_seed(self, toy_csv, tmp_path, capsys):
        # An input error, not a failed fit (exit 3).
        out = tmp_path / "m.json"
        assert cli.main(["fit", "--data", toy_csv, "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_failure_exit_3(self, toy_csv, monkeypatch):
        def broken(data, opts=None):
            raise OptimizerFailedError("all starts failed")

        monkeypatch.setattr(cli, "mle_fit", broken)
        assert cli.main(["fit", "--data", toy_csv]) == 3


class TestSelectCommand:
    def _run(self, toy_csv, tmp_path, tag, seed="2"):
        chain = tmp_path / f"chain{tag}.json"
        report = tmp_path / f"report{tag}.json"
        trace = tmp_path / f"trace{tag}.csv"
        code = cli.main([
            "select", "--data", toy_csv, "--iters", "300", "--burnin", "100",
            "--seed", seed, "--chain", str(chain), "--report", str(report),
            "--trace", str(trace),
        ])
        return code, chain, report, trace

    def test_select_outputs(self, toy_csv, tmp_path, capsys):
        code, chain_path, report_path, trace_path = self._run(toy_csv, tmp_path, "0")
        assert code == 0
        chain, data = io.load_chain(chain_path)
        assert chain.size == 200
        assert data.n == 12
        doc = io.load_json(report_path)
        assert doc["kind"] == "selection-report"
        assert len(doc["marginal_inclusion"]) == 3
        assert doc["meta"] == {"accept_rate": chain.accept_rate, "accept_rate_kept": chain.meta["accept_rate_kept"],
                               "seed": 2}
        assert trace_path.exists()
        out = capsys.readouterr().out
        assert "selected" in out
        assert (f"acceptance rate {chain.accept_rate:.3f} (after burn-in {chain.meta['accept_rate_kept']:.3f})\n"
                in out)

    def test_byte_identical_reruns(self, toy_csv, tmp_path):
        _, chain_a, report_a, trace_a = self._run(toy_csv, tmp_path, "a")
        _, chain_b, report_b, trace_b = self._run(toy_csv, tmp_path, "b")
        assert chain_a.read_bytes() == chain_b.read_bytes()
        assert report_a.read_bytes() == report_b.read_bytes()
        assert trace_a.read_bytes() == trace_b.read_bytes()

    def test_seed_changes_output(self, toy_csv, tmp_path):
        _, chain_a, _, _ = self._run(toy_csv, tmp_path, "a", seed="2")
        _, chain_b, _, _ = self._run(toy_csv, tmp_path, "c", seed="3")
        assert chain_a.read_bytes() != chain_b.read_bytes()

    @pytest.mark.parametrize(
        "flag,value",
        [("--prop-sd", "nan"), ("--prop-sd", "inf"), ("--tau", "inf"), ("--tau", "nan"),
         ("--c", "inf"), ("--p", "nan"), ("--p", "-inf")],
    )
    def test_non_finite_setting_exit_2_names_field(self, toy_csv, tmp_path, capsys, flag, value):
        # Each once ran a degenerate chain (exit 0) or failed mid-chain
        # (exit 4); the scan no longer checks theta, so Hyperparams must.
        chain, report, trace = (tmp_path / name for name in ("chain.json", "report.json", "trace.csv"))
        code = cli.main(["select", "--data", toy_csv, "--iters", "30", "--burnin", "10", f"{flag}={value}",
                         "--chain", str(chain), "--report", str(report), "--trace", str(trace)])
        assert code == 2
        field = flag[2:].replace("-", "_")
        assert f"{field} entries must be finite" in capsys.readouterr().err
        assert not (chain.exists() or report.exists() or trace.exists())

    def test_sampler_failure_exit_4(self, toy_csv, monkeypatch):
        def broken(data, hyper=None, init=None):
            raise SamplerError(5, "forced failure")

        monkeypatch.setattr(cli, "run_chain", broken)
        assert cli.main(["select", "--data", toy_csv]) == 4


@pytest.fixture(scope="module")
def model_path(toy_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.json"
    cli.main(["fit", "--data", toy_csv, "--out", str(out)])
    return str(out)


class TestPredictCommand:

    def test_design_only_test_points(self, model_path, tmp_path):
        test = tmp_path / "test.csv"
        io.write_design_csv(test, np.array([[0.2, 0.3, 0.4], [0.5, 0.6, 0.7]]))
        out = tmp_path / "pred.csv"
        assert cli.main(["predict", "--model", model_path, "--test", str(test), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mean,mse"
        assert len(lines) == 3

    def test_scored_when_truth_supplied(self, model_path, tmp_path, capsys):
        test = tmp_path / "test.csv"
        write_data_csv(test, np.array([[0.2, 0.3, 0.4]]), [1.0])
        out = tmp_path / "pred.csv"
        assert cli.main(["predict", "--model", model_path, "--test", str(test), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "rmspe" in printed and "mar" in printed

    def test_chain_source(self, toy_csv, tmp_path):
        chain = tmp_path / "chain.json"
        cli.main(["select", "--data", toy_csv, "--iters", "200", "--burnin", "50",
                  "--chain", str(chain), "--report", str(tmp_path / "r.json"),
                  "--trace", str(tmp_path / "t.csv")])
        test = tmp_path / "test.csv"
        io.write_design_csv(test, np.array([[0.2, 0.3, 0.4]]))
        out = tmp_path / "pred.csv"
        assert cli.main(["predict", "--chain", str(chain), "--test", str(test), "--out", str(out)]) == 0

    def test_exactly_one_source(self, model_path, tmp_path):
        test = tmp_path / "test.csv"
        io.write_design_csv(test, np.array([[0.2, 0.3, 0.4]]))
        assert cli.main(["predict", "--test", str(test)]) == 2
        assert cli.main(["predict", "--model", model_path, "--chain", "x.json", "--test", str(test)]) == 2

    def test_dimension_mismatch(self, model_path, tmp_path):
        test = tmp_path / "test.csv"
        io.write_design_csv(test, np.array([[0.2, 0.3]]))
        assert cli.main(["predict", "--model", model_path, "--test", str(test)]) == 2

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_test_cell_exit_2(self, model_path, tmp_path, capsys, cell):
        test = tmp_path / "test.csv"
        test.write_text(f"x1,x2,x3\n0.2,0.3,0.4\n0.5,{cell},0.7\n")
        out = tmp_path / "pred.csv"
        assert cli.main(["predict", "--model", model_path, "--test", str(test), "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_phi_length_mismatch_exit_2(self, model_path, tmp_path, capsys):
        doc = io.load_json(model_path)
        doc["phi"] = doc["phi"][:2]
        bad_model = tmp_path / "model.json"
        io.save_json(bad_model, doc)
        test = tmp_path / "test.csv"
        io.write_design_csv(test, np.array([[0.2, 0.3, 0.4]]))
        out = tmp_path / "pred.csv"
        assert cli.main(["predict", "--model", str(bad_model), "--test", str(test), "--out", str(out)]) == 2
        assert f"{bad_model}: phi has shape (2,)" in capsys.readouterr().err
        assert not out.exists()

    def test_phi_width_mismatch_in_chain_exit_2(self, toy_csv, tmp_path, capsys):
        chain = tmp_path / "chain.json"
        cli.main(["select", "--data", toy_csv, "--iters", "200", "--burnin", "50",
                  "--chain", str(chain), "--report", str(tmp_path / "r.json"),
                  "--trace", str(tmp_path / "t.csv")])
        doc = io.load_json(chain)
        doc["draws"]["phi"] = [row[:2] for row in doc["draws"]["phi"]]
        io.save_json(chain, doc)
        test = tmp_path / "test.csv"
        io.write_design_csv(test, np.array([[0.2, 0.3, 0.4]]))
        out = tmp_path / "pred.csv"
        capsys.readouterr()
        assert cli.main(["predict", "--chain", str(chain), "--test", str(test), "--out", str(out)]) == 2
        assert f"{chain}: phi has shape (150, 2)" in capsys.readouterr().err
        assert not out.exists()

    def test_phi_square_overflow_exit_2(self, model_path, tmp_path, capsys):
        # phi = 1e200 is finite, but theta = phi**2 is not.  The model is
        # rejected where it is read, with no overflow RuntimeWarning (the
        # test configuration turns one into an error).
        doc = io.load_json(model_path)
        doc["phi"][0] = 1e200
        bad_model = tmp_path / "model.json"
        io.save_json(bad_model, doc)
        test = tmp_path / "test.csv"
        io.write_design_csv(test, np.array([[0.2, 0.3, 0.4]]))
        out = tmp_path / "pred.csv"
        assert cli.main(["predict", "--model", str(bad_model), "--test", str(test), "--out", str(out)]) == 2
        assert "phi" in capsys.readouterr().err
        assert not out.exists()


class TestBenchmarkCommand:
    def _spec(self, tmp_path, **overrides):
        doc = dict(function="toy", n=10, reps=2, iters=60, burnin=20, seed=0)
        doc.update(overrides)
        path = tmp_path / "spec.json"
        io.save_json(path, doc)
        return str(path)

    def test_smoke_run(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["benchmark", "--spec", self._spec(tmp_path), "--out", str(out)]) == 0
        report = io.load_json(out)
        assert len(report["replicates"]) == 2
        printed = capsys.readouterr().out
        # Comparison table renders screening columns for synthetic functions.
        assert "aci" in printed and "rmspe_ssgp" in printed

    def test_unknown_function_exit_2(self, tmp_path, capsys):
        code = cli.main(["benchmark", "--spec", self._spec(tmp_path, function="nope"), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "borehole" in capsys.readouterr().err

    def test_unknown_field_exit_2(self, tmp_path, capsys):
        code = cli.main(["benchmark", "--spec", self._spec(tmp_path, bogus=1), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        [("reps", "5"), ("reps", 2.5), ("n", "30"), ("n", None), ("iters", 60.0),
         ("burnin", True), ("thin", "1"), ("n_test", [5]), ("seed", False),
         ("reps", -1.5)],
    )
    def test_integer_field_of_wrong_type_exit_2(self, tmp_path, capsys, field, value):
        out = tmp_path / "r.json"
        code = cli.main(["benchmark", "--spec", self._spec(tmp_path, **{field: value}), "--out", str(out)])
        assert code == 2
        assert f"benchmark spec field '{field}' must be an integer, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_null_chain_field_keeps_default(self, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["benchmark", "--spec", self._spec(tmp_path, reps=1, thin=None), "--out", str(out)]) == 0
        assert io.load_json(out)["spec"]["thin"] is None

    def test_missing_function_exit_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        io.save_json(path, {"n": 10})
        assert cli.main(["benchmark", "--spec", str(path), "--out", str(tmp_path / "r.json")]) == 2
        assert f"{path}: benchmark spec field 'function' is missing" in capsys.readouterr().err

    @staticmethod
    def _forbid_replicates(monkeypatch):
        def started(*args):
            raise AssertionError("a replicate started")

        monkeypatch.setattr(testbed, "_one_replicate", started)

    @pytest.mark.parametrize(
        "overrides,named",
        [({"rule": "mode"}, "'rule' must be one of modal, median"), ({"n_test": 0}, "'n_test' must be >= 1"),
         ({"n": 1}, "'n' must be >= 2"), ({"seed": -1}, "'seed' must be >= 0"), ({"c": 0.5}, "c entries must exceed 1"),
         ({"tau": "abc"}, "tau must be a number"), ({"tau": [0.3, 0.3]}, "tau has length 2, expected 3"),
         ({"iters": 40, "burnin": 50}, "burnin must lie in [0, iters)"), ({"test_file": "t.csv"}, "'test_file'"),
         # Written as the JSON extensions NaN and Infinity.
         ({"prop_sd": float("nan")}, "prop_sd entries must be finite"), ({"c": float("inf")}, "c entries must be finite"),
         ({"p": [0.5, float("nan"), 0.5]}, "p entries must be finite")],
    )
    def test_bad_spec_exit_2_before_any_replicate(self, tmp_path, capsys, monkeypatch, overrides, named):
        self._forbid_replicates(monkeypatch)
        out = tmp_path / "r.json"
        assert cli.main(["benchmark", "--spec", self._spec(tmp_path, **overrides), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ['"abc"', "[1]", "3", "null"])
    def test_spec_not_an_object_exit_2_names_file(self, tmp_path, capsys, text):
        path = tmp_path / "spec.json"
        path.write_text(text + "\n")
        assert cli.main(["benchmark", "--spec", str(path), "--out", str(tmp_path / "r.json")]) == 2
        assert f"{path}: a benchmark spec must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("columns", [None, 3])
    def test_bad_piston_test_file_exit_2_before_any_replicate(self, tmp_path, capsys, monkeypatch, columns):
        self._forbid_replicates(monkeypatch)
        test_file = tmp_path / "test.csv"
        if columns is not None:
            write_data_csv(test_file, np.full((4, columns - 1), 0.5), np.zeros(4))
        out = tmp_path / "r.json"
        spec = self._spec(tmp_path, function="piston", test_file=str(test_file))
        assert cli.main(["benchmark", "--spec", spec, "--out", str(out)]) == 2
        assert str(test_file) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_2_before_any_replicate(self, tmp_path, capsys, monkeypatch, workers):
        # The missing test file would fail too, but only after the check.
        self._forbid_replicates(monkeypatch)
        out = tmp_path / "r.json"
        spec = self._spec(tmp_path, function="piston", test_file=str(tmp_path / "missing.csv"))
        assert cli.main(["benchmark", "--spec", spec, "--out", str(out), "--workers", workers]) == 2
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_quota_failure_exit_5_with_partial_report(self, tmp_path, monkeypatch):
        def broken(data, hyper=None, init=None):
            raise SamplerError(1, "forced failure")

        monkeypatch.setattr(testbed, "run_chain", broken)
        out = tmp_path / "report.json"
        assert cli.main(["benchmark", "--spec", self._spec(tmp_path), "--out", str(out)]) == 5
        partial = io.load_json(out)
        assert partial["aggregate"]["n_ok"] == 0
        assert len(partial["failures"]) == 2

    def test_quota_failure_exit_5_when_partial_report_cannot_be_saved(self, tmp_path, monkeypatch, capsys):
        # The output directory exists when the command starts and is gone
        # when the partial report is saved.
        nodir = tmp_path / "nodir"
        nodir.mkdir()

        def broken(data, hyper=None, init=None):
            if nodir.exists():
                nodir.rmdir()
            raise SamplerError(1, "forced failure")

        monkeypatch.setattr(testbed, "run_chain", broken)
        out = nodir / "r.json"
        assert cli.main(["benchmark", "--spec", self._spec(tmp_path), "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert f"error: partial report not saved: [Errno 2] No such file or directory: '{out}'" in err
        assert err.rstrip().endswith("2 of 2 replicates failed (quota 10%)")
        assert not out.exists()


@pytest.fixture(scope="module")
def chain_path(toy_csv, tmp_path_factory):
    where = tmp_path_factory.mktemp("chain")
    out = where / "chain.json"
    cli.main(["select", "--data", toy_csv, "--iters", "60", "--burnin", "20", "--chain", str(out),
              "--report", str(where / "r.json"), "--trace", str(where / "t.csv")])
    return str(out)


def _drop(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


class TestMalformedSavedFiles:
    """A model or chain file that is not what the loader needs exits 2 and
    names the file and the field, with no traceback."""

    @pytest.mark.parametrize(
        "source,edit,named",
        [("model", lambda doc: [doc], "the document is not a JSON object"),
         ("model", _drop("mu"), "field mu is missing"),
         ("model", lambda doc: {**doc, "mu": None}, "field mu must be a number"),
         ("model", lambda doc: {**doc, "phi": ["a", *doc["phi"][1:]]}, "field phi must be a list of numbers"),
         ("model", lambda doc: {**doc, "dataset": {**doc["dataset"], "points": [[0.5], [0.2, 0.3]]}},
          "field dataset.points must be a list of lists of numbers"),
         ("chain", lambda doc: [doc], "the document is not a JSON object"),
         ("chain", _drop("draws"), "field draws is missing"),
         ("chain", lambda doc: {**doc, "draws": _drop("mu")(doc["draws"])}, "field draws.mu is missing"),
         ("chain", lambda doc: {**doc, "draws": {**doc["draws"], "phi": [["a"] * 3] * len(doc["draws"]["phi"])}},
          "field draws.phi must be a list of lists of numbers"),
         ("chain", lambda doc: {**doc, "accept_rate": None}, "field accept_rate must be a number"),
         ("chain", lambda doc: {**doc, "meta": [1]}, "field meta must be a JSON object"),
         # Values the loaders read and GpParams or Dataset then reject.
         ("model", lambda doc: {**doc, "mu": float("nan")}, "mu must be finite, got nan"),
         ("model", lambda doc: {**doc, "dataset": {**doc["dataset"], "ranges": [[0, 1]]}},
          "ranges must have shape (3, 2), got (1, 2)"),
         ("chain", lambda doc: {**doc, "dataset": {**doc["dataset"], "ranges": [[0, 1]]}},
          "ranges must have shape (3, 2), got (1, 2)")],
        ids=["model-array", "model-no-mu", "model-null-mu", "model-text-phi", "model-ragged-points",
             "chain-array", "chain-no-draws", "chain-no-mu", "chain-text-phi", "chain-null-accept-rate",
             "chain-meta-array", "model-nan-mu", "model-short-ranges", "chain-short-ranges"],
    )
    def test_exit_2_names_file_and_field(self, model_path, chain_path, tmp_path, capsys, source, edit, named):
        bad = tmp_path / f"{source}.json"
        io.save_json(bad, edit(io.load_json(model_path if source == "model" else chain_path)))
        test = tmp_path / "test.csv"
        io.write_design_csv(test, np.array([[0.2, 0.3, 0.4]]))
        out = tmp_path / "pred.csv"
        assert cli.main(["predict", f"--{source}", str(bad), "--test", str(test), "--out", str(out)]) == 2
        assert f"error: {bad}: {named}\n" == capsys.readouterr().err
        assert not out.exists()


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "command,flag",
        [("design", "--out"), ("fit", "--out"), ("select", "--chain"), ("select", "--report"),
         ("select", "--trace"), ("predict", "--out"), ("benchmark", "--out")],
    )
    def test_missing_directory_exit_2_names_path(self, toy_csv, model_path, tmp_path, capsys, monkeypatch, command,
                                                 flag):
        # select and benchmark check their outputs before any chain runs.
        chains = [0]
        for module in (cli, testbed):
            real = module.run_chain

            def counted(*args, _real=real, **kwargs):
                chains[0] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "run_chain", counted)
        test = tmp_path / "test.csv"
        io.write_design_csv(test, np.array([[0.2, 0.3, 0.4]]))
        spec = tmp_path / "spec.json"
        io.save_json(spec, dict(function="toy", n=10, reps=1, iters=40, burnin=10))
        argv = {
            "design": ["--n", "6", "--d", "2"],
            "fit": ["--data", toy_csv],
            "select": ["--data", toy_csv, "--iters", "40", "--burnin", "10", "--chain", str(tmp_path / "c.json"),
                       "--report", str(tmp_path / "r.json"), "--trace", str(tmp_path / "t.csv")],
            "predict": ["--model", model_path, "--test", str(test)],
            "benchmark": ["--spec", str(spec)],
        }[command]
        bad = tmp_path / "missing" / "out"
        assert cli.main([command, *argv, flag, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        if command in ("select", "benchmark"):
            assert chains[0] == 0
            assert not (tmp_path / "c.json").exists()


def test_readme_exit_codes_match_the_table():
    # README's "Exit codes:" sentence lists every code main can return.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Exit codes:(.*?)\.", readme, re.S).group(1)
    listed = [int(code) for code in re.findall(r"\b(\d+) [a-z]", sentence)]
    assert sorted(listed) == sorted({cli.EXIT_OK, *cli.EXIT_CODES.values()})
