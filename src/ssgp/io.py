"""CSV and JSON persistence.

All JSON is written canonically (sorted keys, fixed indentation, no
timestamps) and all CSV floats use repr, so identical inputs and seeds give
byte-identical files at a fixed BLAS thread count (README, "Numerical
policy").  Readers validate shape and numeric content and name the
offending row or column in error messages.
"""

import json

import numpy as np

from .gp import Dataset, GpParams
from .sampler import Chain

SCHEMA_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def save_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in fh if ln.strip() != ""]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    rows = [[c.strip() for c in ln.split(",")] for ln in lines[1:]]
    return header, rows


def _parse_cell(cell, row_idx, col_name, path):
    try:
        value = float(cell)
    except ValueError:
        value = None
    if value is None or not np.isfinite(value):
        kind = "non-numeric" if value is None else "non-finite"
        raise ValueError(f"{path}: {kind} value {cell!r} in row {row_idx}, column {col_name}")
    return value


def _parse_table(path, header, rows):
    if not rows:
        raise ValueError(f"{path}: no data rows")
    out = np.empty((len(rows), len(header)))
    for i, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row {i} has {len(row)} fields, expected {len(header)}"
            )
        for j, cell in enumerate(row):
            out[i - 2, j] = _parse_cell(cell, i, header[j], path)
    return out


def _expect_x_columns(path, names):
    expected = [f"x{k + 1}" for k in range(len(names))]
    if list(names) != expected:
        raise ValueError(
            f"{path}: design columns must be {','.join(expected)}, got {','.join(names)}"
        )


def _design_table(path, header, rows) -> np.ndarray:
    _expect_x_columns(path, header)
    return _parse_table(path, header, rows)


def _data_table(path, header, rows):
    if len(header) < 2 or header[-1] != "y":
        raise ValueError(
            f"{path}: combined data needs columns x1,...,xd followed by y"
        )
    _expect_x_columns(path, header[:-1])
    table = _parse_table(path, header, rows)
    return table[:, :-1], table[:, -1]


def read_design_csv(path) -> np.ndarray:
    """Design matrix from a CSV with header x1,...,xd."""
    return _design_table(path, *_read_rows(path))


def read_response_csv(path) -> np.ndarray:
    """Response vector from a single-column CSV with header y."""
    header, rows = _read_rows(path)
    if header != ["y"]:
        raise ValueError(f"{path}: response file must have the single column y")
    return _parse_table(path, header, rows).ravel()


def read_data_csv(path):
    """Combined CSV (x1,...,xd,y): returns (points, responses)."""
    return _data_table(path, *_read_rows(path))


def read_test_csv(path):
    """Test points, read once: a combined CSV (x1,...,xd,y) gives (points,
    responses), a design CSV (x1,...,xd) gives (points, None)."""
    header, rows = _read_rows(path)
    if header[-1] == "y":
        return _data_table(path, header, rows)
    return _design_table(path, header, rows), None


def write_design_csv(path, points) -> None:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    header = ",".join(f"x{k + 1}" for k in range(pts.shape[1]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in pts:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_predictions_csv(path, means, mses) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("mean,mse\n")
        for m, s in zip(means, mses):
            fh.write(f"{repr(float(m))},{repr(float(s))}\n")


def _dataset_block(data: Dataset) -> dict:
    return {
        "points": [[float(v) for v in row] for row in data.points],
        "responses": [float(v) for v in data.responses],
        "ranges": [[float(a), float(b)] for a, b in data.ranges],
    }


def _field(path, doc, name, ndim=None):
    # The value at the dotted `name` of a loaded JSON document, or with `ndim`
    # its numbers as a float array of that many dimensions (null, true and
    # ragged lists are refused).  A ValueError names the file and the field.
    value, parts = doc, name.split(".")
    for i, key in enumerate(parts):
        if not isinstance(value, dict):
            raise ValueError(f"{path}: {'.'.join(parts[:i]) or 'the document'} is not a JSON object")
        if key not in value:
            raise ValueError(f"{path}: field {'.'.join(parts[:i + 1])} is missing")
        value = value[key]
    if ndim is None:
        return value
    try:
        arr = np.asarray(value)
        ok = arr.dtype.kind in "iuf" and arr.ndim == ndim
    except ValueError:  # a ragged list
        ok = False
    if not ok:
        want = ("a number", "a list of numbers", "a list of lists of numbers")[ndim]
        raise ValueError(f"{path}: field {name} must be {want}")
    return arr.astype(float)


def _named(path, make, *args, **kwargs):
    # make(*args, **kwargs), with the file named in a ValueError it raises
    # on values _field has read (GpParams and Dataset check them).
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _dataset(path, doc) -> Dataset:
    return _named(path, Dataset, *(_field(path, doc, f"dataset.{name}", ndim)
                                   for name, ndim in (("points", 2), ("responses", 1), ("ranges", 2))))


def _expect_width(path, name, arr, data: Dataset):
    # A parameter block must match the dimension of the dataset it ships with.
    if arr.shape[-1] != data.dim:
        raise ValueError(f"{path}: {name} has shape {arr.shape}, expected width {data.dim} to match its dataset")


def _indicators(path, name, g) -> np.ndarray:
    # Float gamma draws as int64; an entry other than exactly 0 or 1 is
    # refused, not truncated.
    bad = (g != 0) & (g != 1)
    if bad.any():
        raise ValueError(f"{path}: {name} entry {float(g[bad][0])!r} is not 0 or 1")
    return g.astype(np.int64)


def _scan_indices(path, name, s) -> np.ndarray:
    # Float 1-based scan indices as int64: each entry a positive integer, in
    # strictly increasing order.  A 3.7 or a -4 is refused, not truncated.
    bad = ~np.isfinite(s) | (s != np.floor(s)) | (s < 1)
    if bad.any():
        raise ValueError(f"{path}: {name} entry {float(s[bad][0])!r} is not a positive integer")
    backward = s[1:] <= s[:-1]
    if backward.any():
        i = int(np.argmax(backward)) + 1
        raise ValueError(f"{path}: {name} is not strictly increasing: entry {i} is {int(s[i])} after {int(s[i - 1])}")
    return s.astype(np.int64)


def save_model(path, params: GpParams, data: Dataset, seed) -> None:
    """Fitted parameters plus the training data they condition on, and the
    seed of the fit."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "gp-model",
        "mu": float(params.mu),
        "sigma2": float(params.sigma2),
        "phi": [float(v) for v in params.phi],
        "theta": [float(v) for v in params.theta],
        "dataset": _dataset_block(data),
        "dataset_fingerprint": data.fingerprint(),
        "meta": {"seed": seed},
    }
    save_json(path, doc)


def load_model(path):
    doc = load_json(path)
    if _field(path, doc, "kind") != "gp-model":
        raise ValueError(f"{path}: not a gp-model document")
    params = _named(
        path, GpParams,
        mu=float(_field(path, doc, "mu", 0)),
        sigma2=float(_field(path, doc, "sigma2", 0)),
        phi=_field(path, doc, "phi", 1),
    )
    data = _dataset(path, doc)
    _expect_width(path, "phi", params.phi, data)
    return params, data


def save_chain(path, chain: Chain, data: Dataset) -> None:
    """chain.json: the chain's draws, acceptance rate and meta, and the data
    it was drawn on; load_chain reads it back."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "chain",
        "meta": chain.meta,
        "accept_rate": float(chain.accept_rate),
        "draws": {
            "scan": [int(v) for v in chain.scans],
            "mu": [float(v) for v in chain.mu],
            "sigma2": [float(v) for v in chain.sigma2],
            "phi": [[float(v) for v in row] for row in chain.phi],
            "gamma": [[int(v) for v in row] for row in chain.gamma],
        },
        "dataset": _dataset_block(data),
    }
    save_json(path, doc)


def load_chain(path):
    doc = load_json(path)
    if _field(path, doc, "kind") != "chain":
        raise ValueError(f"{path}: not a chain document")
    draws = {name: _field(path, doc, f"draws.{name}", ndim)
             for name, ndim in (("scan", 1), ("mu", 1), ("sigma2", 1), ("phi", 2), ("gamma", 2))}
    for name in ("mu", "sigma2", "phi", "gamma"):
        if len(draws[name]) != len(draws["scan"]):
            raise ValueError(f"{path}: draws.{name} has {len(draws[name])} entries, draws.scan {len(draws['scan'])}")
    meta = _field(path, doc, "meta")
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: field meta must be a JSON object")
    chain = Chain(
        mu=draws["mu"], sigma2=draws["sigma2"], phi=draws["phi"],
        gamma=_indicators(path, "draws.gamma", draws["gamma"]),
        scans=_scan_indices(path, "draws.scan", draws["scan"]),
        accept_rate=float(_field(path, doc, "accept_rate", 0)),
        meta=meta,
    )
    data = _dataset(path, doc)
    _expect_width(path, "phi", chain.phi, data)
    _expect_width(path, "gamma", chain.gamma, data)
    return chain, data


def save_selection(path, post, seed) -> None:
    """report.json: a chain's Posterior record and the seed that drew the chain."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "selection-report",
        **post.selection_fields(),
        "rule": post.rule,
        "tie": bool(post.tie),
        "gamma_table": [
            {"gamma": [int(g) for g in vec], "freq": float(freq)} for vec, freq in post.table
        ],
        "meta": {"accept_rate": post.accept_rate, "accept_rate_kept": post.accept_rate_kept, "seed": seed},
    }
    save_json(path, doc)


def export_trace(chain: Chain, path) -> None:
    """Write stored draws as CSV: scan, mu, sigma2, phi_1.., gamma_1..

    Floats are written with repr so a parsed file reproduces the draws
    bit for bit.  The file is an export for inspection; chain.json is what
    load_chain reads back.
    """
    d = chain.dim
    header = ["scan", "mu", "sigma2"] + [f"phi_{k + 1}" for k in range(d)] + [f"gamma_{k + 1}" for k in range(d)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(chain.size):
            cells = [str(int(chain.scans[i])), repr(float(chain.mu[i])), repr(float(chain.sigma2[i]))]
            cells += [repr(float(v)) for v in chain.phi[i]]
            cells += [str(int(g)) for g in chain.gamma[i]]
            fh.write(",".join(cells) + "\n")

