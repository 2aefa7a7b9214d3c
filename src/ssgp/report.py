"""Selection summaries and convergence diagnostics for stored chains.

The selection rule of record is the modal gamma vector: the configuration
visited most often after burn-in.  Marginal inclusion rates back a secondary
median-threshold rule, which stays useful when the mode gets diffuse in
higher dimensions.  select_variables builds the whole SelectionReport,
frequency table included; nothing else constructs one.  Convergence is
checked by hand from the trace CSV that io.export_trace writes, never by
automatic reruns.
"""

from dataclasses import dataclass

import numpy as np

from .sampler import Chain

RULES = ("modal", "median")


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
    if rule not in RULES:
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
