"""Benchmark functions, the piston slap dataset, metrics, and the
replication driver that ties designs, chains and selection together.

The synthetic functions are deterministic simulators with a known active
set, so selection quality can be scored exactly.  The piston slap data is a
fixed 12-run experiment; there prediction quality is assessed by
leave-one-out cross-validation (or an external test file when supplied),
in closed form from the one factor that predict_batch memoizes.
"""

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .designs import KINDS, maximin_lhd, random_lhd, scale_points
from .errors import BenchmarkError, IllConditionedError, OptimizerFailedError, SamplerError, integer
from .gp import Dataset, FitOptions, mle_fit, predict_batch
from .io import read_data_csv
from .linalg import DEFAULT_NUGGET
from .report import RULES, select_variables
from .sampler import CHAIN_FIELDS, SAMPLER_NUGGET, Hyperparams, default_hyperparams, derive_seed, posterior_params, run_chain

UNIT = (0.0, 1.0)

BOREHOLE_RANGES = (
    (0.05, 0.15),      # r_w, borehole radius
    (100.0, 50000.0),  # r, radius of influence
    (63070.0, 115600.0),  # T_u, upper-aquifer transmissivity
    (990.0, 1100.0),   # H_u, upper-aquifer head
    (63.1, 116.0),     # T_l, lower-aquifer transmissivity
    (700.0, 820.0),    # H_l, lower-aquifer head
    (1120.0, 1680.0),  # L, borehole length
    (1500.0, 15000.0),  # K_w, borehole hydraulic conductivity
)


# Each simulator takes the columns of a batch of points: x[k] holds
# coordinate k of every point.


def _power(v, k):
    # v ** k for each element by C pow, as on a numpy float; an array's **
    # rounds some inputs differently, which would move seeded responses.
    return np.array([t**k for t in v])


def _toy(x):
    # x3 enters with coefficient zero on purpose: it is the inert variable.
    return (_power(x[0], 3) + 1.0) * np.cos(np.pi * x[1]) + 0.0 * x[2]


def _linear(x):
    return 2.0 * x[0] + 2.0 * x[1] + 2.0 * x[2] + 2.0 * x[3]


def _sinusoidal(x):
    return np.sin(x[0]) + np.sin(5.0 * x[1])


def _borehole(x):
    r_w, r, t_u, h_u, t_l, h_l, length, k_w = x
    log_ratio = np.log(r / r_w)
    denom = log_ratio * (
        1.0 + 2.0 * length * t_u / (log_ratio * _power(r_w, 2) * k_w) + t_u / t_l
    )
    return 2.0 * np.pi * t_u * (h_u - h_l) / denom


@dataclass(frozen=True)
class TestFunction:
    """A deterministic simulator with a known set of active inputs."""

    name: str
    dim: int
    active_set: frozenset
    ranges: tuple
    func: callable
    var_names: tuple

    def domain(self) -> np.ndarray:
        return np.asarray(self.ranges, dtype=float)


def _make(name, dim, active, ranges, func, var_names=None):
    if var_names is None:
        var_names = tuple(f"x{k + 1}" for k in range(dim))
    return TestFunction(name, dim, frozenset(active), tuple(ranges), func, var_names)


FUNCTIONS = {
    "toy": _make("toy", 3, {1, 2}, (UNIT,) * 3, _toy),
    "linear": _make("linear", 10, {1, 2, 3, 4}, (UNIT,) * 10, _linear),
    "sinusoidal": _make("sinusoidal", 10, {1, 2}, (UNIT,) * 10, _sinusoidal),
    "borehole": _make(
        "borehole", 8, {1, 8}, BOREHOLE_RANGES, _borehole,
        ("r_w", "r", "T_u", "H_u", "T_l", "H_l", "L", "K_w"),
    ),
}


def get_function(name: str) -> TestFunction:
    try:
        return FUNCTIONS[name]
    except KeyError:
        valid = ", ".join(sorted(FUNCTIONS))
        raise ValueError(f"unknown test function {name!r}; valid names: {valid}") from None


def eval_batch(f: TestFunction, xs) -> np.ndarray:
    """Evaluate the rows of xs, in original (unscaled) coordinates, in one call.

    A borehole point outside the domain raises ValueError naming the first
    such row's first input out of range.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if xs.ndim != 2 or xs.shape[1] != f.dim:
        raise ValueError(f"{f.name} expects {f.dim} coordinates per row, got shape {xs.shape}")
    if f.name == "borehole":
        dom = f.domain()
        bad = (xs < dom[:, 0]) | (xs > dom[:, 1])
        if bad.any():
            k = int(np.argmax(bad[bad.any(axis=1)][0]))
            raise ValueError(f"borehole input {f.var_names[k]} out of range")
    return f.func(xs.T)


# Piston slap noise: 12 runs, 6 inputs (clearance, peak-pressure location,
# skirt length, skirt profile, skirt ovality, pin offset), response in dB.
PISTON_RUNS = np.array(
    [
        [71.0, 16.8, 21.0, 2.0, 1.0, 0.98, 56.75],
        [15.0, 15.6, 21.8, 1.0, 2.0, 1.30, 57.65],
        [29.0, 14.4, 25.0, 2.0, 1.0, 1.14, 53.97],
        [85.0, 14.4, 21.8, 2.0, 3.0, 0.66, 58.77],
        [29.0, 12.0, 21.0, 3.0, 2.0, 0.82, 56.34],
        [57.0, 12.0, 23.4, 1.0, 3.0, 0.98, 56.85],
        [85.0, 13.2, 24.2, 3.0, 2.0, 1.30, 56.68],
        [71.0, 18.0, 25.0, 1.0, 2.0, 0.82, 58.45],
        [43.0, 18.0, 22.6, 3.0, 3.0, 1.14, 55.50],
        [15.0, 16.8, 24.2, 2.0, 3.0, 0.50, 52.77],
        [43.0, 13.2, 22.6, 1.0, 1.0, 0.50, 57.36],
        [57.0, 15.6, 23.4, 3.0, 1.0, 0.66, 59.64],
    ]
)
PISTON_DIM = PISTON_RUNS.shape[1] - 1


def piston_dataset() -> Dataset:
    """The embedded 12-run piston slap noise experiment.

    Ranges are the per-column observed min/max, so the scaled design spans
    the unit cube exactly.
    """
    x = PISTON_RUNS[:, :6]
    y = PISTON_RUNS[:, 6]
    ranges = np.column_stack([x.min(axis=0), x.max(axis=0)])
    return Dataset.from_arrays(x, y, ranges)


def _residuals(truth, pred) -> np.ndarray:
    truth = np.asarray(truth, dtype=float).ravel()
    pred = np.asarray(pred, dtype=float).ravel()
    if len(truth) != len(pred):
        raise ValueError(f"length mismatch: {len(truth)} vs {len(pred)}")
    if len(truth) < 1:
        raise ValueError("need at least one value")
    return truth - pred


def rmspe(truth, pred) -> float:
    """Root mean squared prediction error."""
    return float(np.sqrt(np.mean(_residuals(truth, pred) ** 2)))


def mar(truth, pred) -> float:
    """Median of absolute residuals (even length: mean of the middle two)."""
    return float(np.median(np.abs(_residuals(truth, pred))))


@dataclass(frozen=True)
class ScreeningScore:
    aci: int
    ami: int
    aci_rate: float
    ami_rate: float


def screening_score(selected, f: TestFunction) -> ScreeningScore:
    """Counts of correctly identified and misspecified variables.

    aci counts selected variables that are truly active, ami counts selected
    variables that are inert; rates divide by the respective set sizes.
    """
    selected = frozenset(int(k) for k in selected)
    if not selected <= frozenset(range(1, f.dim + 1)):
        raise ValueError(f"selected indices must lie in 1..{f.dim}")
    aci = len(selected & f.active_set)
    ami = len(selected - f.active_set)
    n_inactive = f.dim - len(f.active_set)
    return ScreeningScore(
        aci,
        ami,
        aci / len(f.active_set),
        ami / n_inactive if n_inactive else 0.0,
    )


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark protocol: function, design, chain settings, replication.

    Hyperparameter fields left at None fall back to the data-driven defaults.
    function "piston" switches to the fixed dataset with leave-one-out
    prediction scoring; design and n are ignored there.  Every rule is
    checked here, before any replicate runs; a ValueError names the field.
    """

    function: str
    design: str = "maximin-lhd"
    n: int = 30
    reps: int = 5
    iters: int = Hyperparams.iters
    burnin: int = Hyperparams.burnin
    thin: int = Hyperparams.thin
    tau: float | None = None
    c: float | None = None
    p: float | None = None
    prop_sd: float | None = None
    n_test: int = 100
    seed: int = 0
    rule: str = "modal"
    test_file: str | None = None
    notes: str = ""

    def __post_init__(self):
        def check(ok, name, want):
            if not ok:
                raise ValueError(f"benchmark spec field {name!r} must be {want}, got {getattr(self, name)!r}")

        names = sorted([*FUNCTIONS, "piston"])
        check(self.function in names, "function", f"one of {', '.join(names)}")
        synthetic = self.function != "piston"
        # Piston ignores n and n_test, so only their type is checked there.
        unbounded = -math.inf
        minima = {"n": 2 if synthetic else unbounded, "reps": 1, "iters": 1, "burnin": 0, "thin": 1,
                  "n_test": 1 if synthetic else unbounded, "seed": 0}
        for name, minimum in minima.items():
            value = getattr(self, name)
            # A null chain setting keeps the default.
            if value is not None or name not in CHAIN_FIELDS:
                object.__setattr__(self, name, integer(f"benchmark spec field {name!r}", value, minimum))
        check(not synthetic or self.design in KINDS, "design", f"one of {', '.join(KINDS)}")
        check(self.rule in RULES, "rule", f"one of {', '.join(RULES)}")
        ok = self.test_file is None or (not synthetic and isinstance(self.test_file, str))
        check(ok, "test_file", "null, or a CSV path for function 'piston'")
        # Hyperparams' own checks; its warnings are left to each chain.
        settings = {k: getattr(self, k) for k in CHAIN_FIELDS if getattr(self, k) is not None}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            Hyperparams.for_dim(FUNCTIONS[self.function].dim if synthetic else PISTON_DIM, **settings)


def _fit_and_sample(spec: BenchmarkSpec, data: Dataset, rep_seed: int):
    hyper = default_hyperparams(data, rep_seed, **{k: getattr(spec, k) for k in CHAIN_FIELDS})
    # One multi-start search per replicate: the plain-MLE comparator, at the
    # sharp prediction nugget.  The chain starts where one descent at
    # SAMPLER_NUGGET from the comparator's theta ends, in the comparator's
    # basin of the jittered likelihood the chain targets.
    params_mle = mle_fit(data, FitOptions(seed=derive_seed(rep_seed, "mle")))
    init = mle_fit(data, FitOptions(nugget=SAMPLER_NUGGET), start=params_mle.theta)
    chain = run_chain(data, hyper, init=init)
    return params_mle, chain


def _means(params, data: Dataset, xs) -> np.ndarray:
    return np.array([p.mean for p in predict_batch(params, data, xs)])


def _loo_means(params, data: Dataset) -> np.ndarray:
    """Leave-one-out kriging means, theta and mu fixed at the full-data values.

    Closed form (Dubrule 1983; Rasmussen & Williams 2006, eq. 5.12):
    y_i - [R^-1 (y - mu)]_i / [R^-1]_ii, read off the factor and the solve
    that predict_batch memoizes, so all n folds cost one factorization.

    Every fold is conditioned at the nugget the full data factored at.  A
    fold factored on its own starts from the same DEFAULT_NUGGET and could
    settle on another only if the full data had escalated; every Cholesky
    pivot of R + nugget I is at least the nugget, far above PIVOT_TOL, so
    only round-off near 1e-8 would escalate it.
    """
    factor, rinv_resid = data._prediction_factor(params.theta, DEFAULT_NUGGET, params.mu)
    # diag R^-1 = column sums of squares of V = L^-1, by predict_batch's
    # einsum rather than a GEMM, so no bit depends on the BLAS thread count.
    v = factor.lower_inverse()
    return data.responses - rinv_resid / np.einsum("ij,ij->j", v, v)


def _errors(truth, pred_ssgp, pred_mle, suffix="") -> dict:
    return {
        f"rmspe_ssgp{suffix}": rmspe(truth, pred_ssgp),
        f"rmspe_mle{suffix}": rmspe(truth, pred_mle),
        f"mar_ssgp{suffix}": mar(truth, pred_ssgp),
        f"mar_mle{suffix}": mar(truth, pred_mle),
    }


def _one_replicate(spec: BenchmarkSpec, rep: int, test_set) -> dict:
    rep_seed = derive_seed(spec.seed, "rep", rep)
    if spec.function == "piston":
        f, data = None, piston_dataset()
    else:
        f = get_function(spec.function)
        # Named at call time, so a wrapper put on testbed.maximin_lhd (the
        # benchmark's tracer) sees the design stage.
        make_design = maximin_lhd if spec.design == "maximin-lhd" else random_lhd
        design = make_design(spec.n, f.dim, derive_seed(rep_seed, "design"))
        y = eval_batch(f, scale_points(design.points, f.domain(), "from_unit"))
        data = Dataset(design.points, y, f.domain())

    params_mle, chain = _fit_and_sample(spec, data, rep_seed)
    params_post = posterior_params(chain)
    sel = select_variables(chain, spec.rule)
    row = {
        "rep": rep,
        "seed": rep_seed,
        "selected": sorted(sel.selected),
        "modal_gamma": list(sel.modal_gamma),
        "modal_freq": sel.modal_freq,
        "marginal_inclusion": [float(v) for v in sel.marginal],
        "accept_rate": chain.accept_rate,
    }
    if f is None:
        # No known active set: score leave-one-out prediction, and an
        # external test set when one is given.
        row.update(_errors(data.responses, _loo_means(params_post, data), _loo_means(params_mle, data)))
        if test_set is not None:
            x_test, y_test = test_set
            pred_ssgp, pred_mle = _means(params_post, data, x_test), _means(params_mle, data, x_test)
            row.update(_errors(y_test, pred_ssgp, pred_mle, "_external"))
    else:
        row.update(asdict(screening_score(sel.selected, f)))
        rng = np.random.default_rng(derive_seed(rep_seed, "test"))
        x_test = scale_points(rng.uniform(size=(spec.n_test, f.dim)), f.domain(), "from_unit")
        pred_ssgp, pred_mle = _means(params_post, data, x_test), _means(params_mle, data, x_test)
        row.update(_errors(eval_batch(f, x_test), pred_ssgp, pred_mle))
    return row


def _run_replicate(spec: BenchmarkSpec, rep: int, test_set) -> dict:
    """The replicate's row, or {rep, error} if it failed.

    Failures are caught here, in the worker, so a process pool only ever
    sends back plain dicts.
    """
    try:
        return _one_replicate(spec, rep, test_set)
    except (SamplerError, IllConditionedError, OptimizerFailedError, ValueError) as exc:
        return {"rep": rep, "error": str(exc)}


def _aggregate(rows: list) -> dict:
    agg = {"n_ok": len(rows)}
    if not rows:
        return agg
    for key in ("aci", "ami", "aci_rate", "ami_rate", "rmspe_ssgp", "rmspe_mle",
                "mar_ssgp", "mar_mle", "modal_freq", "accept_rate"):
        vals = [r[key] for r in rows if key in r]
        if vals:
            agg[f"mean_{key}"] = float(np.mean(vals))
    vals = [r["rmspe_ssgp"] < r["rmspe_mle"] for r in rows]
    agg["ssgp_beats_mle"] = int(np.sum(vals))
    marg = np.array([r["marginal_inclusion"] for r in rows])
    agg["mean_marginal_inclusion"] = [float(v) for v in marg.mean(axis=0)]
    return agg


def run_benchmark(spec: BenchmarkSpec, workers: int = 1) -> dict:
    """Run all replicates of a benchmark and aggregate.

    Each replicate draws a fresh design and chain from seeds derived off
    spec.seed, so the whole report is reproducible.  test_file is read once,
    before any replicate (OSError or ValueError if it cannot be).  Failed
    replicates are recorded and excluded; more than 10% failures raises
    BenchmarkError carrying the partial report.  workers is an integer of
    at least 1.
    """
    workers = integer("workers", workers, 1)
    test_set = None if spec.test_file is None else read_data_csv(spec.test_file)
    if test_set is not None and test_set[0].shape[1] != PISTON_DIM:
        raise ValueError(f"{spec.test_file}: test_file needs {PISTON_DIM} input columns, has {test_set[0].shape[1]}")
    reps = range(spec.reps)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_replicate, [spec] * spec.reps, reps, [test_set] * spec.reps))
    else:
        # In process, so a tracer installed by the caller sees the replicate.
        results = [_run_replicate(spec, rep, test_set) for rep in reps]
    rows = [r for r in results if "error" not in r]
    failures = [r for r in results if "error" in r]

    report = {
        "schema_version": 1,
        "spec": {k: getattr(spec, k) for k in spec.__dataclass_fields__},
        "replicates": rows,
        "failures": failures,
        "aggregate": _aggregate(rows),
    }
    if len(failures) > 0.1 * spec.reps:
        raise BenchmarkError(
            f"{len(failures)} of {spec.reps} replicates failed (quota 10%)", report=report
        )
    return report
