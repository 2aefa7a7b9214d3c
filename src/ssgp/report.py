"""Selection summaries and convergence diagnostics for stored chains.

The selection rule of record is the modal gamma vector: the configuration
visited most often after burn-in.  Marginal inclusion rates back a secondary
median-threshold rule, which stays useful when the mode gets diffuse in
higher dimensions.  select_variables builds the whole SelectionReport,
frequency table included; nothing else constructs one.  Convergence checks
are advisory (autocorrelation here, the trace CSV from io.export_trace),
never automatic reruns.
"""

from dataclasses import dataclass

import numpy as np

from .sampler import Chain


@dataclass(frozen=True)
class SelectionReport:
    """The selection read from a chain; select_variables builds it.

    `table` holds the distinct gamma vectors as (gamma tuple, frequency)
    rows, most frequent first, rows of equal frequency in lexicographic
    order.  `selected` holds 1-based variable indices.
    """

    modal_gamma: tuple
    modal_freq: float
    marginal: np.ndarray
    selected: frozenset
    table: tuple
    rule: str = "modal"
    tie: bool = False


def select_variables(chain: Chain, rule: str = "modal") -> SelectionReport:
    """Tabulate a chain's gamma draws and apply a selection rule.

    "modal" selects the variables flagged in the most frequent gamma vector;
    a frequency tie is broken toward the lexicographically smaller vector
    and flagged.  "median" instead selects marginal inclusion > 1/2, the
    fraction of stored draws with gamma_k = 1.
    """
    if rule not in ("modal", "median"):
        raise ValueError(f"unknown selection rule {rule!r}")
    if chain.size == 0:
        raise ValueError("empty chain")
    vecs, counts = np.unique(chain.gamma, axis=0, return_counts=True)
    # np.unique returns rows lexicographically sorted; the stable sort by
    # descending count therefore keeps ties in lexicographic order.
    order = np.argsort(-counts, kind="stable")
    table = tuple(
        (tuple(int(g) for g in vecs[i]), float(counts[i]) / chain.size) for i in order
    )
    modal_gamma, modal_freq = table[0]
    tie = len(table) > 1 and table[1][1] == modal_freq
    marginal = chain.gamma.mean(axis=0)
    if rule == "modal":
        selected = frozenset(k + 1 for k, g in enumerate(modal_gamma) if g == 1)
    else:
        selected = frozenset(int(k) + 1 for k in np.nonzero(marginal > 0.5)[0])
    return SelectionReport(modal_gamma, modal_freq, marginal, selected, table, rule, tie)


def autocorrelation(series, max_lag: int) -> np.ndarray:
    """Sample autocorrelation at lags 0..max_lag (lag 0 is exactly 1)."""
    x = np.asarray(series, dtype=float).ravel()
    if len(x) <= max_lag:
        raise ValueError(f"series of length {len(x)} too short for max_lag {max_lag}")
    centered = x - x.mean()
    denom = float(centered @ centered)
    if denom == 0:
        raise ValueError("zero-variance series has no autocorrelation")
    acf = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        acf[lag] = float(centered[: len(x) - lag] @ centered[lag:]) / denom
    return acf
