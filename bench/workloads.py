"""The three seeded workloads and their output checks.

Each workload makes its inputs from the workload seed in `setup`, hands the
program one input per operation in `op_input` (untimed), times only `call`,
and checks the output in `check` (untimed).  Every call goes through a module
attribute of the package (`ssgp.sampler.run_chain`, not a local alias), so
the tracer sees the same calls the user code makes.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np

import ssgp
import ssgp.cli

from ess import ess_geyer

# Design size of the chain and prediction workloads: the linear study's
# n=54, d=10, where one Gibbs scan factors a 54x54 matrix.
N_RUNS = 54
N_INPUTS = 10


def child_seed(seed: int, *key: int) -> int:
    """Independent 32-bit seed for a labelled sub-stream of the workload seed."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint32)[0])


def metric(value, unit, n):
    return {"value": float(value), "unit": unit, "n": int(n)}


def digest(*arrays) -> str:
    """SHA-256 of the arrays' bytes: the dataset fingerprint of SCHEMAS.md for
    (points, responses, ranges), and the identity of an output."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def linear_dataset(seed: int):
    """n=54, d=10 maximin LHD with y = 2 (x1 + x2 + x3 + x4), on the unit cube."""
    design = ssgp.designs.maximin_lhd(N_RUNS, N_INPUTS, child_seed(seed, 1))
    points = design.points
    responses = 2.0 * points[:, :4].sum(axis=1)
    ranges = np.tile([0.0, 1.0], (N_INPUTS, 1))
    return ssgp.gp.Dataset(points, responses, ranges), digest(points, responses, ranges)


class Workload:
    """Shared constructor: the checkout root and a scratch directory in it."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir

    def prepare_checks(self):
        """Work the output checks need, done after the timed set-up."""


class StudyBorehole(Workload):
    """The shipped borehole protocol, one replicate per `ssgp benchmark` call."""

    name = "study-borehole"
    # A replicate takes 5-9 s; four keep the per-run median steady.
    min_ops = 4

    def setup(self, seed):
        self.seed = seed
        spec_path = self.root / "experiments" / "borehole.json"
        self.spec = json.loads(spec_path.read_text())
        if self.spec.get("function") != "borehole":
            raise ValueError(f"{spec_path} is not the borehole study")

    def op_input(self, i):
        spec = dict(self.spec, reps=1, seed=child_seed(self.seed, 2, i))
        spec_path = self.workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = self.workdir / "report.json"
        out.unlink(missing_ok=True)
        return {"spec": spec_path, "out": out, "reps": 1}

    def call(self, inp):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return ssgp.cli.main(["benchmark", "--spec", str(inp["spec"]), "--out", str(inp["out"])])

    def check(self, inp, code):
        if code != 0:
            return {"ok": False, "why": f"exit code {code}"}
        report = json.loads(inp["out"].read_text())
        rows, failures = report["replicates"], report["failures"]
        if report["aggregate"]["n_ok"] + len(failures) != inp["reps"]:
            return {"ok": False, "why": "n_ok + failures != reps"}
        rmspe = np.array([[r["rmspe_ssgp"], r["rmspe_mle"]] for r in rows], dtype=float)
        if rmspe.size == 0 or not np.isfinite(rmspe).all():
            return {"ok": False, "why": "missing or non-finite rmspe"}
        return {"ok": True, "rmspe_ratio": float(np.mean(rmspe[:, 0] / rmspe[:, 1])),
                "digest": hashlib.sha256(inp["out"].read_bytes()).hexdigest()}

    def summarize(self, ops, key):
        secs = np.array([op[key] for op in ops])
        # Over the first min_ops replicates only, so the value is fixed per seed.
        ratios = [op["facts"]["rmspe_ratio"] for op in ops[: self.min_ops]]
        e2e = {"op_ms_p50": metric(np.median(secs) * 1e3, "ms", len(secs)),
               "work_per_s": metric(len(secs) / secs.sum(), "1/s", len(secs))}
        report = {"replicate_s_p50": metric(np.median(secs), "s", len(secs)),
                  "rmspe_ratio": metric(np.mean(ratios), "1", len(ratios))}
        return e2e, report


class ChainD10(Workload):
    """run_chain alone on a fixed design, one chain seed per operation."""

    name = "chain-d10"
    min_ops = 3

    def setup(self, seed):
        self.seed = seed
        self.data, self.fingerprint = linear_dataset(seed)
        # The chain's own init fit, done once here and passed as init=.
        opts = ssgp.gp.FitOptions(nugget=ssgp.sampler.SAMPLER_NUGGET, seed=child_seed(seed, 3))
        self.init = ssgp.gp.mle_fit(self.data, opts)
        self.hyper = ssgp.sampler.default_hyperparams(self.data)

    def op_input(self, i):
        return dataclasses.replace(self.hyper, seed=child_seed(self.seed, 4, i))

    def call(self, hyper):
        return ssgp.sampler.run_chain(self.data, hyper, init=self.init)

    def check(self, hyper, chain):
        kept = len(range(hyper.burnin + 1, hyper.iters + 1, hyper.thin))
        draws = (chain.mu, chain.sigma2, chain.phi)
        if chain.size != kept or chain.phi.shape != (kept, N_INPUTS):
            return {"ok": False, "why": f"{chain.size} kept draws, expected {kept}"}
        if not all(np.isfinite(a).all() for a in draws) or np.any(chain.sigma2 <= 0):
            return {"ok": False, "why": "non-finite draws or non-positive sigma2"}
        if chain.meta.get("dataset_fingerprint") != self.fingerprint:
            return {"ok": False, "why": "dataset fingerprint differs from the input"}
        ess = min(ess_geyer(chain.phi[:, k]) for k in range(N_INPUTS))
        return {"ok": True, "ess_min": ess, "accept_rate": float(chain.accept_rate),
                "scans": hyper.iters, "digest": digest(*draws, chain.gamma)}

    def summarize(self, ops, key):
        secs = np.array([op[key] for op in ops])
        scans = sum(op["facts"]["scans"] for op in ops)
        ess = [op["facts"]["ess_min"] for op in ops]
        accept = [op["facts"]["accept_rate"] for op in ops]
        e2e = {"op_ms_p50": metric(np.median(secs) * 1e3, "ms", len(secs)),
               "work_per_s": metric(scans / secs.sum(), "1/s", len(secs))}
        report = {"chain_s_p50": metric(np.median(secs), "s", len(secs)),
                  "ess_per_s": metric(np.sum(ess) / secs.sum(), "1/s", len(secs)),
                  "ess_min_p50": metric(np.median(ess), "draws", len(ess)),
                  "accept_rate": metric(np.mean(accept), "1", len(accept))}
        return e2e, report


# Explicit-inverse oracle tolerance, relative to the response scale (means)
# and to sigma2 (mses).  The fitted correlation matrices have condition
# numbers near 1/nugget, so an explicit inverse loses about eps/nugget.
ORACLE_RTOL = 1e-6


class PredictMixed(Workload):
    """predict_batch on one fitted model, alternating width-1 and width-1000 calls."""

    name = "predict-mixed"
    min_ops = 20
    n_single = 256
    n_batch = 4
    batch_width = 1000

    def setup(self, seed):
        self.data, _ = linear_dataset(seed)
        self.params = ssgp.gp.mle_fit(self.data, ssgp.gp.FitOptions(seed=child_seed(seed, 3)))
        rng = np.random.default_rng(child_seed(seed, 5))
        self.singles = rng.uniform(size=(self.n_single, 1, N_INPUTS))
        self.batches = rng.uniform(size=(self.n_batch, self.batch_width, N_INPUTS))

    def prepare_checks(self):
        """Oracle means and mses for every test input, outside the timed setup."""
        theta = self.params.theta
        _, nugget = ssgp.linalg.corr_cholesky(self.data.points, theta, ssgp.linalg.DEFAULT_NUGGET)
        x, y = self.data.points, self.data.responses
        rinv = np.linalg.inv(self._corr(x, x, theta) + nugget * np.eye(len(x)))
        ones = np.ones(len(x))
        mu, sigma2 = self.params.mu, self.params.sigma2
        rinv_resid, rinv_1 = rinv @ (y - mu), rinv @ ones

        def oracle(xs):
            r = self._corr(x, xs, theta)
            rinv_r = rinv @ r
            mse = sigma2 * (1.0 - np.sum(r * rinv_r, axis=0) + (1.0 - ones @ rinv_r) ** 2 / (ones @ rinv_1))
            return mu + r.T @ rinv_resid, np.maximum(mse, 0.0)

        self.oracle_single = [oracle(xs) for xs in self.singles]
        self.oracle_batch = [oracle(xs) for xs in self.batches]
        self.mean_tol = ORACLE_RTOL * max(np.abs(y).max(), 1.0)
        self.mse_tol = ORACLE_RTOL * sigma2

    @staticmethod
    def _corr(a, b, theta):
        diff = a[:, None, :] - b[None, :, :]
        return np.exp(-(diff * diff) @ theta)

    def op_input(self, i):
        if i % 2 == 0:
            k = (i // 2) % self.n_single
            return self.singles[k], self.oracle_single[k]
        k = (i // 2) % self.n_batch
        return self.batches[k], self.oracle_batch[k]

    def call(self, inp):
        return ssgp.gp.predict_batch(self.params, self.data, inp[0])

    def check(self, inp, preds):
        xs, (mean_ref, mse_ref) = inp
        mean = np.array([p.mean for p in preds])
        mse = np.array([p.mse for p in preds])
        if mean.shape != mean_ref.shape or mse.shape != mse_ref.shape:
            return {"ok": False, "why": f"{len(mean)} predictions for {len(xs)} points"}
        mean_err = float(np.max(np.abs(mean - mean_ref)))
        mse_err = float(np.max(np.abs(mse - mse_ref)))
        if not (mean_err <= self.mean_tol and mse_err <= self.mse_tol):
            return {"ok": False, "why": f"oracle error mean {mean_err:.3g}, mse {mse_err:.3g}"}
        return {"ok": True, "width": len(xs), "mean_err": mean_err, "mse_err": mse_err,
                "digest": digest(mean, mse)}

    def summarize(self, ops, key):
        width = np.array([op["facts"]["width"] for op in ops])
        secs = np.array([op[key] for op in ops])
        one, wide = secs[width == 1], secs[width == self.batch_width]
        e2e = {"op_ms_p50": metric(np.median(one) * 1e3, "ms", len(one)),
               "work_per_s": metric(width.sum() / secs.sum(), "1/s", len(secs))}
        report = {"predict1_ms_p50": metric(np.median(one) * 1e3, "ms", len(one)),
                  "predict1_ms_p99": metric(np.percentile(one, 99) * 1e3, "ms", len(one)),
                  "predict1k_ms_p50": metric(np.median(wide) * 1e3, "ms", len(wide)),
                  "predict_points_per_s": metric(width.sum() / secs.sum(), "1/s", len(secs)),
                  "oracle_mean_err_max": metric(max(op["facts"]["mean_err"] for op in ops), "y", len(ops))}
        return e2e, report


WORKLOADS = {w.name: w for w in (StudyBorehole, ChainD10, PredictMixed)}
