"""Command-line interface.

Subcommands: fit (maximum-likelihood kriging), select (posterior sampling
and variable selection), predict (kriging predictions from a saved model or
chain), benchmark (replicated experiments from a spec file) and design
(Latin hypercube generation).

Exit codes: EXIT_OK, 2 for bad flags, or the EXIT_CODES entry of the failure.
"""

import argparse
import os
import sys
import time
from dataclasses import fields as dataclass_fields

import numpy as np

from . import io
from .designs import KINDS, maximin_lhd, random_lhd
from .errors import (
    BenchmarkError,
    IllConditionedError,
    OptimizerFailedError,
    SamplerError,
)
from .gp import Dataset, FitOptions, mle_fit, predict_batch
from .report import RULES, select_variables
from .sampler import CHAIN_FIELDS, default_hyperparams, run_chain
from .testbed import BenchmarkSpec, rmspe, mar, run_benchmark

EXIT_OK = 0
# The exit code of each failure a command raises; main prints the message.
# Any other exception is a bug and keeps its traceback.
EXIT_CODES = {
    OSError: 2, ValueError: 2,
    OptimizerFailedError: 3, IllConditionedError: 3,
    SamplerError: 4,
    BenchmarkError: 5,
}


def _add_data_flags(sub):
    sub.add_argument("--data", help="combined CSV (x1,...,xd,y)")
    sub.add_argument("--design", help="design CSV (x1,...,xd)")
    sub.add_argument("--response", help="response CSV (single column y)")
    domain = sub.add_mutually_exclusive_group()
    domain.add_argument(
        "--ranges",
        help="per-dimension domain as lo:hi,lo:hi,... (default: unit cube)",
    )
    domain.add_argument(
        "--observed-ranges",
        action="store_true",
        help="take the domain from the per-column min/max of the data",
    )


def _parse_ranges(text, d):
    parts = text.split(",")
    if len(parts) != d:
        raise ValueError(f"--ranges has {len(parts)} entries, data has {d} columns")
    out = []
    for k, part in enumerate(parts, start=1):
        try:
            lo, hi = part.split(":")
            out.append((float(lo), float(hi)))
        except ValueError:
            raise ValueError(f"--ranges entry {k} must look like lo:hi, got {part!r}") from None
    return np.asarray(out)


def _load_dataset(args) -> Dataset:
    if args.data and (args.design or args.response):
        raise ValueError("pass either --data or --design/--response, not both")
    if args.data:
        x, y = io.read_data_csv(args.data)
    elif args.design and args.response:
        x = io.read_design_csv(args.design)
        y = io.read_response_csv(args.response)
    else:
        raise ValueError("pass --data, or --design together with --response")

    if args.ranges:
        ranges = _parse_ranges(args.ranges, x.shape[1])
    elif args.observed_ranges:
        ranges = np.column_stack([x.min(axis=0), x.max(axis=0)])
        if np.any(ranges[:, 1] <= ranges[:, 0]):
            bad = int(np.argmax(ranges[:, 1] <= ranges[:, 0])) + 1
            raise ValueError(f"column x{bad} is constant; cannot infer its range")
    else:
        ranges = None
    return Dataset.from_arrays(x, y, ranges)


def _cmd_fit(args) -> int:
    data = _load_dataset(args)
    params = mle_fit(data, FitOptions(seed=args.seed))
    io.save_model(args.out, params, data, args.seed)
    print(f"fitted {data.n} runs in {data.dim} dimensions")
    print(f"mu {params.mu:.6g}  sigma2 {params.sigma2:.6g}")
    print("theta " + " ".join(f"{t:.6g}" for t in params.theta))
    if params.sigma2 < 1e-12:
        print("warning: sigma2 is numerically zero (constant response?)", file=sys.stderr)
    print(f"wrote {args.out}")
    return EXIT_OK


def _print_selection(post, var_names):
    print("gamma".ljust(4 + 3 * len(post.modal_gamma)) + "freq")
    for vec, freq in post.table[:5]:
        label = "(" + ",".join(str(g) for g in vec) + ")"
        print(label.ljust(4 + 3 * len(vec)) + f"{freq:.4f}")
    names = [var_names[k - 1] for k in sorted(post.selected)]
    print(f"selected ({post.rule} rule): " + (", ".join(names) if names else "none"))
    print(
        "marginal inclusion: "
        + "  ".join(f"{n} {v:.3f}" for n, v in zip(var_names, post.marginal))
    )
    if post.tie:
        print("note: modal frequency tie broken lexicographically")
    print(f"acceptance rate {post.accept_rate:.3f} (after burn-in {post.accept_rate_kept:.3f})")


def _check_output_dirs(*paths) -> None:
    # select and benchmark run chains before they write, so they check
    # first that each output's directory exists: a bad path costs no sampling.
    for path in paths:
        parent = os.path.dirname(os.fspath(path)) or os.curdir
        if not os.path.isdir(parent):
            raise ValueError(f"{path}: {parent} is not an existing directory")


def _cmd_select(args) -> int:
    _check_output_dirs(args.chain, args.report, args.trace)
    data = _load_dataset(args)
    # Flags left out are None and keep the sampler defaults.
    hyper = default_hyperparams(data, args.seed, **{k: getattr(args, k) for k in CHAIN_FIELDS})
    chain = run_chain(data, hyper)
    post = select_variables(chain, args.rule)
    io.save_chain(args.chain, chain, data)
    io.save_selection(args.report, post, args.seed)
    io.export_trace(chain, args.trace)
    _print_selection(post, [f"x{k + 1}" for k in range(data.dim)])
    print(f"wrote {args.chain}, {args.report}, {args.trace}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    if args.model is not None:
        params, data = io.load_model(args.model)
    else:
        chain, data = io.load_chain(args.chain)
        params = select_variables(chain).params
    x_test, truth = io.read_test_csv(args.test)
    preds = predict_batch(params, data, x_test)
    means = [p.mean for p in preds]
    mses = [p.mse for p in preds]
    io.write_predictions_csv(args.out, means, mses)
    print(f"wrote {len(means)} predictions to {args.out}")
    if truth is not None:
        print(f"rmspe {rmspe(truth, means):.6g}")
        print(f"mar {mar(truth, means):.6g}")
    return EXIT_OK


def _spec_from_file(path) -> BenchmarkSpec:
    doc = io.load_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a benchmark spec must be a JSON object")
    if "function" not in doc:
        raise ValueError(f"{path}: benchmark spec field 'function' is missing")
    known = {f.name for f in dataclass_fields(BenchmarkSpec)}
    unknown = sorted(set(doc) - known - {"schema_version"})
    if unknown:
        raise ValueError(f"unknown benchmark spec fields: {', '.join(unknown)}")
    return BenchmarkSpec(**{k: v for k, v in doc.items() if k in known})


def _cmd_benchmark(args) -> int:
    _check_output_dirs(args.out)
    spec = _spec_from_file(args.spec)
    started = time.perf_counter()
    try:
        report = run_benchmark(spec, workers=args.workers)
    except BenchmarkError as exc:
        if exc.report is not None:
            # The quota failure stays the command's error and exit code.
            try:
                io.save_json(args.out, exc.report)
            except OSError as save_exc:
                print(f"error: partial report not saved: {save_exc}", file=sys.stderr)
        raise
    io.save_json(args.out, report)
    _render_benchmark(report)
    print(f"elapsed {time.perf_counter() - started:.1f}s")
    print(f"wrote {args.out}")
    return EXIT_OK


def _render_benchmark(report) -> None:
    rows = report["replicates"]
    has_screen = bool(rows) and "aci" in rows[0]
    cols = ["rep", "selected", "modal_freq"]
    if has_screen:
        cols += ["aci", "ami"]
    cols += ["rmspe_ssgp", "rmspe_mle", "mar_ssgp", "mar_mle"]
    widths = {c: max(len(c), 10) for c in cols}
    widths["rep"] = 3
    widths["selected"] = 14
    print("  ".join(c.rjust(widths[c]) for c in cols))
    for r in rows:
        cells = []
        for c in cols:
            if c == "selected":
                v = ",".join(str(k) for k in r["selected"]) or "-"
                cells.append(v.rjust(widths[c]))
            elif c in ("rep", "aci", "ami"):
                cells.append(str(r[c]).rjust(widths[c]))
            else:
                cells.append(f"{r[c]:.4f}".rjust(widths[c]))
        print("  ".join(cells))
    agg = report["aggregate"]
    summary = []
    for key in ("mean_aci", "mean_ami", "mean_rmspe_ssgp", "mean_rmspe_mle",
                "mean_mar_ssgp", "mean_mar_mle"):
        if key in agg:
            summary.append(f"{key} {agg[key]:.4f}")
    summary.append(f"ssgp_beats_mle {agg.get('ssgp_beats_mle', 0)}/{agg.get('n_ok', 0)}")
    print("; ".join(summary))
    if report["failures"]:
        print(f"failed replicates: {len(report['failures'])}", file=sys.stderr)


def _cmd_design(args) -> int:
    if args.kind == "maximin-lhd":
        design = maximin_lhd(args.n, args.d, args.seed, args.sweeps)
    elif args.sweeps is None:
        design = random_lhd(args.n, args.d, args.seed)
    else:
        raise ValueError("--sweeps applies only to --kind maximin-lhd")
    io.write_design_csv(args.out, design.points)
    print(f"wrote {args.n}x{args.d} {args.kind} design to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssgp",
        description="Gaussian-process surrogates with Bayesian variable selection",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_fit = subs.add_parser("fit", help="maximum-likelihood kriging fit")
    _add_data_flags(p_fit)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", default="model.json")
    p_fit.set_defaults(func=_cmd_fit)

    p_sel = subs.add_parser("select", help="posterior sampling and variable selection")
    _add_data_flags(p_sel)
    p_sel.add_argument("--iters", type=int)
    p_sel.add_argument("--burnin", type=int)
    p_sel.add_argument("--thin", type=int)
    p_sel.add_argument("--seed", type=int, default=0)
    p_sel.add_argument("--tau", type=float)
    p_sel.add_argument("--c", type=float)
    p_sel.add_argument("--p", type=float)
    p_sel.add_argument("--prop-sd", type=float, dest="prop_sd")
    p_sel.add_argument("--rule", choices=RULES, default="modal")
    p_sel.add_argument("--chain", default="chain.json")
    p_sel.add_argument("--report", default="report.json")
    p_sel.add_argument("--trace", default="trace.csv")
    p_sel.set_defaults(func=_cmd_select)

    p_pred = subs.add_parser("predict", help="predict at test points")
    source = p_pred.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", help="model.json from fit")
    source.add_argument("--chain", help="chain.json from select")
    p_pred.add_argument("--test", required=True, help="test CSV (x1..xd[,y])")
    p_pred.add_argument("--out", default="predictions.csv")
    p_pred.set_defaults(func=_cmd_predict)

    p_bench = subs.add_parser("benchmark", help="run a replicated benchmark spec")
    p_bench.add_argument("--spec", required=True, help="benchmark spec JSON")
    p_bench.add_argument("--out", default="benchmark.json")
    p_bench.add_argument("--workers", type=int, default=1)
    p_bench.set_defaults(func=_cmd_benchmark)

    p_des = subs.add_parser("design", help="generate a Latin hypercube design")
    p_des.add_argument("--kind", choices=KINDS, default="maximin-lhd")
    p_des.add_argument("--n", type=int, required=True)
    p_des.add_argument("--d", type=int, required=True)
    p_des.add_argument("--seed", type=int, default=0)
    p_des.add_argument("--sweeps", type=int, default=None, help="swaps to try (maximin-lhd only)")
    p_des.add_argument("--out", default="design.csv")
    p_des.set_defaults(func=_cmd_design)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
