"""Persistence: canonical JSON, CSV readers/writers, document round trips."""

import re

import numpy as np
import pytest

from conftest import make_dataset
from ssgp import io
from ssgp.gp import Dataset, GpParams
from ssgp.report import select_variables
from ssgp.sampler import Hyperparams, run_chain

pytestmark = pytest.mark.filterwarnings("ignore:MH acceptance rate:RuntimeWarning")


@pytest.fixture(scope="module")
def small_chain():
    data = make_dataset("toy", 10)
    hyper = Hyperparams.for_dim(3, tau=0.3, iters=50, burnin=10, seed=3)
    return run_chain(data, hyper), data


class TestCanonicalJson:
    def test_sorted_and_terminated(self):
        text = io.canonical_json({"b": 1, "a": [1, 2]})
        assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'

    def test_insertion_order_irrelevant(self):
        a = io.canonical_json({"x": 1, "y": 2})
        b = io.canonical_json({"y": 2, "x": 1})
        assert a == b

    def test_save_load(self, tmp_path):
        path = tmp_path / "doc.json"
        io.save_json(path, {"k": [1.5, None, "s"]})
        assert io.load_json(path) == {"k": [1.5, None, "s"]}


class TestDesignCsv:
    def test_round_trip_exact(self, tmp_path):
        pts = np.random.default_rng(0).uniform(size=(7, 3))
        path = tmp_path / "design.csv"
        io.write_design_csv(path, pts)
        back = io.read_design_csv(path)
        # repr-formatted floats parse back bit for bit.
        assert np.array_equal(back, pts)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.1,0.2\n")
        with pytest.raises(ValueError, match="x1,x2"):
            io.read_design_csv(path)

    def test_non_numeric_cell_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n0.1,0.2\n0.3,oops\n")
        with pytest.raises(ValueError, match="row 3, column x2"):
            io.read_design_csv(path)

    def test_ragged_row_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n0.1,0.2\n0.3\n")
        with pytest.raises(ValueError, match="row 3 has 1 fields"):
            io.read_design_csv(path)

    def test_empty_and_headless(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            io.read_design_csv(path)
        path.write_text("x1\n")
        with pytest.raises(ValueError, match="no data rows"):
            io.read_design_csv(path)


class TestResponseAndDataCsv:
    def test_response_round_trip(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("y\n" + "\n".join(repr(v) for v in (1.5, -2.25, 0.125)) + "\n")
        assert np.array_equal(io.read_response_csv(path), [1.5, -2.25, 0.125])

    def test_response_header(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("response\n1.0\n")
        with pytest.raises(ValueError, match="single column y"):
            io.read_response_csv(path)

    def test_data_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,x2,y\n0.1,0.2,1.0\n0.3,0.4,2.0\n")
        x, y = io.read_data_csv(path)
        assert np.array_equal(x, [[0.1, 0.2], [0.3, 0.4]])
        assert np.array_equal(y, [1.0, 2.0])

    def test_data_csv_needs_trailing_y(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,x2\n0.1,0.2\n")
        with pytest.raises(ValueError, match="followed by y"):
            io.read_data_csv(path)

    def test_test_csv_y_is_optional(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,x2,y\n0.1,0.2,1.0\n")
        x, y = io.read_test_csv(path)
        assert np.array_equal(x, [[0.1, 0.2]]) and np.array_equal(y, [1.0])
        path.write_text("x1,x2\n0.1,0.2\n")
        x, y = io.read_test_csv(path)
        assert np.array_equal(x, [[0.1, 0.2]]) and y is None


class TestPredictionsCsv:
    def test_layout(self, tmp_path):
        path = tmp_path / "pred.csv"
        io.write_predictions_csv(path, [1.5, 2.0], [0.01, 0.0])
        lines = path.read_text().splitlines()
        assert lines[0] == "mean,mse"
        assert lines[1] == "1.5,0.01"


class TestModelDocuments:
    def test_round_trip(self, tmp_path):
        data = Dataset.from_arrays([[0.2, 0.1], [0.8, 0.9]], [1.0, 2.0])
        params = GpParams(mu=1.5, sigma2=0.25, phi=[0.7, 1.3])
        path = tmp_path / "model.json"
        io.save_model(path, params, data, 7)
        loaded, data_back = io.load_model(path)
        assert loaded.mu == params.mu
        assert loaded.sigma2 == params.sigma2
        assert np.array_equal(loaded.phi, params.phi)
        assert np.array_equal(data_back.points, data.points)
        assert np.array_equal(data_back.responses, data.responses)
        assert data_back.fingerprint() == data.fingerprint()
        doc = io.load_json(path)
        assert doc["schema_version"] == 1
        assert doc["meta"] == {"seed": 7}
        assert doc["dataset_fingerprint"] == data.fingerprint()
        # A model file written without meta still loads.
        del doc["meta"]
        io.save_json(path, doc)
        assert io.load_model(path)[0].mu == params.mu

    def test_kind_checked(self, tmp_path):
        path = tmp_path / "other.json"
        io.save_json(path, {"kind": "chain"})
        with pytest.raises(ValueError, match="gp-model"):
            io.load_model(path)


class TestChainDocuments:
    def test_round_trip(self, tmp_path, small_chain):
        chain, data = small_chain
        path = tmp_path / "chain.json"
        io.save_chain(path, chain, data)
        loaded, data_back = io.load_chain(path)
        assert np.array_equal(loaded.mu, chain.mu)
        assert np.array_equal(loaded.sigma2, chain.sigma2)
        assert np.array_equal(loaded.phi, chain.phi)
        assert np.array_equal(loaded.gamma, chain.gamma)
        assert np.array_equal(loaded.scans, chain.scans)
        assert loaded.accept_rate == chain.accept_rate
        assert loaded.meta == chain.meta
        assert data_back.fingerprint() == data.fingerprint()

    def test_kind_checked(self, tmp_path):
        path = tmp_path / "other.json"
        io.save_json(path, {"kind": "gp-model"})
        with pytest.raises(ValueError, match="chain"):
            io.load_chain(path)

    @pytest.mark.parametrize("name", ["phi", "gamma"])
    def test_width_checked(self, tmp_path, small_chain, name):
        chain, data = small_chain
        path = tmp_path / "chain.json"
        io.save_chain(path, chain, data)
        doc = io.load_json(path)
        doc["draws"][name] = [row[:-1] for row in doc["draws"][name]]
        io.save_json(path, doc)
        with pytest.raises(ValueError, match=rf"chain\.json: {name} has shape \({chain.size}, {data.dim - 1}\)"):
            io.load_chain(path)

    @pytest.mark.parametrize("name", ["mu", "sigma2", "phi", "gamma"])
    def test_draw_counts_must_match_scan(self, tmp_path, small_chain, name):
        # A cut column must not load as a shorter chain beside full ones.
        chain, data = small_chain
        path = tmp_path / "chain.json"
        io.save_chain(path, chain, data)
        doc = io.load_json(path)
        doc["draws"][name] = doc["draws"][name][:3]
        io.save_json(path, doc)
        with pytest.raises(ValueError, match=rf"chain\.json: draws\.{name} has 3 entries, draws\.scan {chain.size}"):
            io.load_chain(path)

    @pytest.mark.parametrize("value", [2, 7, -1, 0.5])
    def test_gamma_must_be_zero_or_one(self, tmp_path, small_chain, value):
        chain, data = small_chain
        path = tmp_path / "chain.json"
        io.save_chain(path, chain, data)
        doc = io.load_json(path)
        doc["draws"]["gamma"][4][1] = value
        io.save_json(path, doc)
        with pytest.raises(ValueError, match=rf"chain\.json: draws\.gamma entry {float(value)!r} is not 0 or 1"):
            io.load_chain(path)


    @pytest.mark.parametrize(
        "value,message",
        [
            (3.7, "draws.scan entry 3.7 is not a positive integer"),
            (-4, "draws.scan entry -4.0 is not a positive integer"),
            (0, "draws.scan entry 0.0 is not a positive integer"),
        ],
    )
    def test_scan_must_be_positive_integer(self, tmp_path, small_chain, value, message):
        # A fractional scan must not be truncated, nor a negative one kept.
        chain, data = small_chain
        path = tmp_path / "chain.json"
        io.save_chain(path, chain, data)
        doc = io.load_json(path)
        doc["draws"]["scan"][0] = value
        io.save_json(path, doc)
        with pytest.raises(ValueError, match=rf"chain\.json: {re.escape(message)}"):
            io.load_chain(path)

    def test_scan_must_increase(self, tmp_path, small_chain):
        chain, data = small_chain
        path = tmp_path / "chain.json"
        io.save_chain(path, chain, data)
        doc = io.load_json(path)
        doc["draws"]["scan"][5] = doc["draws"]["scan"][4]
        io.save_json(path, doc)
        first = int(chain.scans[4])
        with pytest.raises(ValueError, match=rf"chain\.json: draws\.scan is not strictly increasing: entry 5 is {first} after {first}"):
            io.load_chain(path)


class TestSelectionDocuments:
    def test_layout(self, tmp_path, small_chain):
        chain, _ = small_chain
        report = select_variables(chain)
        path = tmp_path / "selection.json"
        io.save_selection(path, report, 4)
        doc = io.load_json(path)
        assert doc["meta"] == {"accept_rate": chain.accept_rate, "accept_rate_kept": chain.meta["accept_rate_kept"],
                               "seed": 4}
        assert doc["kind"] == "selection-report"
        assert doc["selected"] == sorted(report.selected)
        assert doc["modal_gamma"] == list(report.modal_gamma)
        assert doc["rule"] == "modal"
        assert abs(sum(r["freq"] for r in doc["gamma_table"]) - 1.0) < 1e-12
        assert [(tuple(r["gamma"]), r["freq"]) for r in doc["gamma_table"]] == list(report.table)
