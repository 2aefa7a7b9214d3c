"""End-to-end command-line behavior, driven in process through main(argv)."""

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

    def test_data_outside_unit_cube_needs_ranges(self, tmp_path):
        path = tmp_path / "wide.csv"
        write_data_csv(path, np.array([[2.0], [8.0], [5.0]]), [1.0, 2.0, 1.5])
        assert cli.main(["fit", "--data", str(path)]) == 2
        out = tmp_path / "model.json"
        assert cli.main(["fit", "--data", str(path), "--ranges", "0:10", "--out", str(out)]) == 0

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
        assert trace_path.exists()
        out = capsys.readouterr().out
        assert "selected" in out and "acceptance rate" in out

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

    def test_missing_function_exit_2(self, tmp_path):
        path = tmp_path / "spec.json"
        io.save_json(path, {"n": 10})
        assert cli.main(["benchmark", "--spec", str(path), "--out", str(tmp_path / "r.json")]) == 2

    def test_quota_failure_exit_5_with_partial_report(self, tmp_path, monkeypatch):
        def broken(data, hyper=None, init=None):
            raise SamplerError(1, "forced failure")

        monkeypatch.setattr(testbed, "run_chain", broken)
        out = tmp_path / "report.json"
        assert cli.main(["benchmark", "--spec", self._spec(tmp_path), "--out", str(out)]) == 5
        partial = io.load_json(out)
        assert partial["aggregate"]["n_ok"] == 0
        assert len(partial["failures"]) == 2
