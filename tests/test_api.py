"""The public API: the names ssgp exports, the README quickstart, and the
functions the benchmark harness calls and traces."""

import ast
import inspect
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import ssgp
from conftest import make_dataset
from ssgp import designs, gp, linalg, report, sampler, testbed

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
BENCH = ROOT / "bench"


def test_every_exported_name_resolves():
    for name in ssgp.__all__:
        assert getattr(ssgp, name, None) is not None, name


def test_prediction_contract():
    # Callers read a prediction by field name, and may unpack it in this order.
    pred = ssgp.Prediction(1.5, 0.25)
    assert ssgp.Prediction is gp.Prediction
    assert ssgp.Prediction._fields == ("mean", "mse", "clamped")
    assert pred == (1.5, 0.25, False) and pred.clamped is False
    with pytest.raises(AttributeError):
        pred.mse = 0.0


@pytest.mark.filterwarnings("ignore:MH acceptance rate:RuntimeWarning")
def test_readme_library_quickstart_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = re.search(r"from ssgp import \((.*?)\)", block, re.S).group(1)
    assert {n.strip() for n in names.split(",")} <= set(ssgp.__all__)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2


def test_integer_rule_written_once():
    # errors.integer is the one place that tells an integer setting from a
    # bool; a hand-copied check elsewhere would drift from it.
    owners = set()
    for path in sorted((ROOT / "src" / "ssgp").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(func):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "isinstance"
                    and len(call.args) == 2
                    and any(isinstance(t, ast.Name) and t.id == "bool" for t in ast.walk(call.args[1]))
                ):
                    owners.add(f"{path.stem}.{func.name}")
    assert owners == {"errors.integer"}


def test_streams_advance_only_through_public_draws():
    # A draw decoded from a bit generator's raw words or private state
    # would copy numpy's transforms and drift from them in a later release.
    readers = set()
    for path in sorted((ROOT / "src" / "ssgp").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and node.attr in ("bit_generator", "random_raw"):
                    readers.add(f"{path.stem}.{func.name}")
    assert readers == set()


def test_no_explicit_inverse():
    # R^-1 is read off V = L^-1 from trtri (linalg.likelihood_gradient,
    # CorrFactor.inverse_diagonal); an identity solved or inverted, or an
    # inverse method, would bring back the n x n work they replaced.
    found = set()
    for path in sorted((ROOT / "src" / "ssgp").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "eye" or (
                    node.func.attr == "inv" and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "linalg"
                ):
                    found.add(f"{path.stem}:{node.lineno} {node.func.attr}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in ("inverse", "lower_inverse"):
                found.add(f"{path.stem}:{node.lineno} def {node.name}")
    assert found == set()


def _owned_nodes():
    # Every AST node under src/ssgp with the name of the function or class
    # that holds it: module, module.function or module.Class.method.
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, f"{owner}.{child.name}")
                continue
            yield owner, child
            yield from visit(child, owner)

    for path in sorted((ROOT / "src" / "ssgp").glob("*.py")):
        yield from visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)


def _called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_factors_are_made_in_one_place():
    # A correlation factor is made in two places: linalg._corr_factor (the
    # Gibbs scan's fixed nugget) and gp.Dataset._factor (corr_cholesky's
    # escalation, on the data's [1, y] table); every scratch owns its GEMV
    # output, so _scratch takes the pair table alone.
    owners = {"CorrFactor": set(), "corr_cholesky": set()}
    scratch_calls = []
    for owner, node in _owned_nodes():
        if isinstance(node, ast.Call):
            name = _called_name(node)
            if name in owners:
                owners[name].add(owner)
            elif name == "_scratch" and (len(node.args) != 1 or node.keywords):
                scratch_calls.append(f"{owner}:{node.lineno}")
    assert owners == {"CorrFactor": {"linalg._corr_factor", "gp.Dataset._factor"},
                      "corr_cholesky": {"gp.Dataset._factor"}}
    assert scratch_calls == []


def test_only_linalg_reads_the_gemv_block():
    # The GEMV padding is linalg's concern: PairTable rows and the columns
    # CorrFactor.cross_terms solves.  No other module pads for it.
    readers = {owner for owner, node in _owned_nodes()
               if (isinstance(node, ast.Attribute) and node.attr == "_GEMV_BLOCK")
               or (isinstance(node, ast.Name) and node.id == "_GEMV_BLOCK")}
    assert readers and {owner.split(".")[0] for owner in readers} == {"linalg"}


def test_corr_factor_keeps_no_per_call_state():
    # After __init__ a CorrFactor holds its factor and the values its
    # cached_property methods return; no method stores what one call was
    # given or gave, so a value never depends on an earlier call.
    tree = ast.parse((ROOT / "src" / "ssgp" / "linalg.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "CorrFactor")
    stores = []
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
            continue
        for node in ast.walk(method):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                obj = node.value
            elif isinstance(node, ast.Call) and _called_name(node) in ("setattr", "__setattr__") and node.args:
                obj = node.args[0]
            else:
                continue
            if isinstance(obj, ast.Name) and obj.id == "self":
                stores.append(f"{method.name}:{node.lineno}")
    assert stores == []


def test_every_function_is_used_in_src():
    # No test-only helpers in src/: each module-level function of src/ssgp
    # is called, imported or exported (so imported by __init__) somewhere in
    # src/ssgp outside its own def.
    funcs = {f"{path.stem}.{node.name}"
             for path in (ROOT / "src" / "ssgp").glob("*.py")
             for node in ast.parse(path.read_text(encoding="utf-8")).body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    owners = {}
    for owner, node in _owned_nodes():
        name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        owners.setdefault(name, set()).add(owner)
    unused = sorted(func for func in funcs
                    if all(owner == func or owner.startswith(func + ".")
                           for owner in owners.get(func.split(".")[1], ())))
    assert unused == []


def test_every_constant_is_read_in_src():
    # As for functions: each name a module of src/ssgp assigns at module
    # level (dunders aside) is read, imported or exported somewhere in
    # src/ssgp, so no setting is left that only tests still read.
    assigned = set()
    for path in (ROOT / "src" / "ssgp").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            assigned |= {f"{path.stem}.{name.id}" for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name) and not name.id.startswith("__")}
    read = {node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else node.name
            for _, node in _owned_nodes()
            if isinstance(node, ast.alias)
            or isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    unused = sorted(name for name in assigned if name.split(".")[1] not in read)
    assert assigned
    assert unused == []


def test_posterior_is_read_in_one_place():
    # report.select_variables makes the one Posterior record of a chain, and
    # outside io's save and load it is the one reader of a chain's fields:
    # cli and testbed take the plug-in, the selection and the acceptance
    # from the record, so a second summary of the draws (a plug-in of
    # posterior means kept in sampler or testbed) cannot drift from it.
    makers, readers = set(), set()
    for owner, node in _owned_nodes():
        if isinstance(node, ast.Call) and _called_name(node) == "Posterior":
            makers.add(owner)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "chain":
            readers.add(owner)
    assert makers == {"report.select_variables"}
    # No cli.* or testbed.* reader: they pass a chain on, and read its record.
    assert readers == {"report.select_variables", "io.save_chain", "io.load_chain", "io.export_trace"}


class TestBenchmarkSeams:
    """What bench/ calls and traces in src/, pinned so that a cleanup
    cannot silently blind the tracer: it finds corr_cholesky's requested
    nugget by parameter name and reads its (factor, nugget_used) result."""

    def test_corr_cholesky_signature(self):
        params = inspect.signature(linalg.corr_cholesky).parameters
        assert list(params)[:3] == ["points", "theta", "nugget"]
        assert params["nugget"].default == linalg.DEFAULT_NUGGET
        assert "pairs" in params

    def test_corr_cholesky_returns_factor_and_nugget(self):
        pts = np.random.default_rng(2).uniform(size=(7, 3))
        lower, used = linalg.corr_cholesky(pts, [1.0, 2.0, 0.5], 1e-8)
        assert type(lower) is np.ndarray and lower.shape == (7, 7)
        assert type(used) is float and used == 1e-8
        again, used_again = linalg.corr_cholesky(pts, [1.0, 2.0, 0.5], 1e-8, pairs=linalg.pair_table(pts))
        assert again.tobytes() == lower.tobytes() and used_again == used

    @staticmethod
    def _count_calls(monkeypatch, real):
        # The calls made through any ssgp.* attribute that holds `real`, as
        # bench/tracer.py wraps each of them.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "ssgp" or name.startswith("ssgp."):
                for key, value in list(vars(mod).items()):
                    if value is real:
                        monkeypatch.setattr(mod, key, counting)
        return calls

    @pytest.mark.filterwarnings("ignore:MH acceptance rate:RuntimeWarning")
    def test_every_design_attribute_sees_each_replicate(self, monkeypatch):
        # A replicate must reach the design through an attribute the tracer wraps.
        calls = self._count_calls(monkeypatch, designs.maximin_lhd)
        spec = testbed.BenchmarkSpec(function="toy", n=10, reps=2, iters=60, burnin=20, seed=0)
        assert spec.design == "maximin-lhd"
        testbed.run_benchmark(spec)
        assert len(calls) == 2

    @pytest.mark.filterwarnings("ignore:MH acceptance rate:RuntimeWarning")
    def test_every_summary_attribute_sees_each_replicate(self, monkeypatch):
        # A replicate that summarized its chain without select_variables
        # would blank the tracer's report.select_variables span.
        calls = self._count_calls(monkeypatch, report.select_variables)
        testbed.run_benchmark(testbed.BenchmarkSpec(function="toy", n=10, reps=2, iters=60, burnin=20, seed=0))
        assert len(calls) == 2

    @pytest.mark.filterwarnings("ignore:MH acceptance rate:RuntimeWarning")
    def test_every_scan_step_attribute_sees_each_scan(self, monkeypatch):
        # bench/tracer.py times each Gibbs step at every ssgp.* attribute
        # that holds it; a scan that inlined a step would blank its
        # sampler.update_*.self_s.
        steps = ("update_mu", "update_sigma2", "update_phi", "update_gamma")
        calls = dict.fromkeys(steps, 0)

        def counting(step, real):
            def wrapper(*args, **kwargs):
                calls[step] += 1
                return real(*args, **kwargs)
            return wrapper

        for step in steps:
            real = getattr(sampler, step)
            for name, mod in list(sys.modules.items()):
                if name == "ssgp" or name.startswith("ssgp."):
                    for key, value in list(vars(mod).items()):
                        if value is real:
                            monkeypatch.setattr(mod, key, counting(step, real))
        hyper = sampler.Hyperparams.for_dim(3, iters=40, burnin=10, seed=2)
        sampler.run_chain(make_dataset("toy", 10), hyper)
        assert calls == dict.fromkeys(steps, hyper.iters)

    @pytest.mark.filterwarnings("ignore:MH acceptance rate:RuntimeWarning")
    def test_chain_meta_keys_bench_reads(self):
        data = make_dataset("toy", 10)
        chain = sampler.run_chain(data, sampler.Hyperparams.for_dim(3, iters=30, burnin=10, seed=1))
        # bench/layers.py reads hyperparams.iters and mh_proposal_failures;
        # bench/workloads.py checks dataset_fingerprint.
        assert chain.meta["dataset_fingerprint"] == data.fingerprint()
        assert type(chain.meta["mh_proposal_failures"]) is int
        hyper = chain.meta["hyperparams"]
        assert set(hyper) == {"tau", "c", "p", "prop_sd", "iters", "burnin", "thin"}
        for key in ("tau", "c", "p", "prop_sd"):
            assert type(hyper[key]) is list and len(hyper[key]) == 3
            assert all(type(v) is float for v in hyper[key])
        assert (hyper["iters"], hyper["burnin"], hyper["thin"]) == (30, 10, 1)
        assert all(type(hyper[key]) is int for key in ("iters", "burnin", "thin"))

    def test_tracer_finds_every_target(self, monkeypatch):
        # Imported as bench/test_bench.py imports it, with bench/ on the path.
        monkeypatch.syspath_prepend(str(BENCH))
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed():
            pass
        assert tracer.missing == []

    def test_traced_functions_exist(self):
        assert callable(linalg.solve_with_chol)
        params = inspect.signature(gp.neg_log_profile_likelihood).parameters
        assert list(params)[:2] == ["theta", "data"] and "nugget" in params
        data = gp.Dataset.from_arrays([[0.1], [0.5], [0.9]], [1.0, 0.0, 2.0])
        value = gp.neg_log_profile_likelihood(np.array([2.0]), data, nugget=1e-8)
        assert np.isfinite(value)
