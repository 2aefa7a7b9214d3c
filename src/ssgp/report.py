"""Selection summaries and convergence diagnostics for stored chains.

The selection rule of record is the modal gamma vector: the configuration
visited most often after burn-in.  Marginal inclusion rates back a secondary
median-threshold rule, which stays useful when the mode gets diffuse in
higher dimensions.  Convergence checks are advisory (autocorrelation here,
the trace CSV from io.export_trace), never automatic reruns.
"""

from dataclasses import dataclass

import numpy as np

from .sampler import Chain


@dataclass(frozen=True)
class GammaTable:
    """Distinct gamma vectors with visit frequencies, most frequent first.

    Rows with equal frequency appear in lexicographic order.
    """

    rows: tuple

    def __post_init__(self):
        total = sum(f for _, f in self.rows)
        if self.rows and abs(total - 1.0) > 1e-12:
            raise ValueError(f"frequencies sum to {total}, expected 1")

    def top(self):
        return self.rows[0]


@dataclass(frozen=True)
class SelectionReport:
    modal_gamma: tuple
    modal_freq: float
    marginal: np.ndarray
    selected: frozenset
    rule: str = "modal"
    tie: bool = False


def tabulate_gamma(chain: Chain) -> GammaTable:
    """Exact frequency table of the distinct gamma vectors in a chain."""
    if chain.size == 0:
        raise ValueError("empty chain")
    vecs, counts = np.unique(chain.gamma, axis=0, return_counts=True)
    # np.unique returns rows lexicographically sorted; the stable sort by
    # descending count therefore keeps ties in lexicographic order.
    order = np.argsort(-counts, kind="stable")
    rows = tuple(
        (tuple(int(g) for g in vecs[i]), float(counts[i]) / chain.size) for i in order
    )
    return GammaTable(rows)


def marginal_inclusion(chain: Chain) -> np.ndarray:
    """Fraction of stored draws with gamma_k = 1, per dimension."""
    if chain.size == 0:
        raise ValueError("empty chain")
    return chain.gamma.mean(axis=0)


def decide_selection(table: GammaTable, marginals, rule: str = "modal") -> SelectionReport:
    """Turn tabulated draws into a set of selected variables (1-based).

    "modal" picks the variables flagged in the most frequent gamma vector;
    a frequency tie is broken toward the lexicographically smaller vector
    and flagged.  "median" instead selects marginal inclusion > 1/2.
    """
    marginals = np.asarray(marginals, dtype=float)
    modal_gamma, modal_freq = table.top()
    tie = len(table.rows) > 1 and table.rows[1][1] == modal_freq
    if rule == "modal":
        selected = frozenset(k + 1 for k, g in enumerate(modal_gamma) if g == 1)
    elif rule == "median":
        selected = frozenset(int(k) + 1 for k in np.nonzero(marginals > 0.5)[0])
    else:
        raise ValueError(f"unknown selection rule {rule!r}")
    return SelectionReport(modal_gamma, modal_freq, marginals, selected, rule, tie)


def select_variables(chain: Chain, rule: str = "modal") -> SelectionReport:
    """Convenience: tabulate a chain and apply the decision rule."""
    return decide_selection(tabulate_gamma(chain), marginal_inclusion(chain), rule)


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
