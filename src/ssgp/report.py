"""One chain's posterior: the selection, the plug-in and the acceptance.

The selection rule of record is the modal gamma vector: the configuration
visited most often after burn-in.  Marginal inclusion rates back a secondary
median-threshold rule, which stays useful when the mode gets diffuse in
higher dimensions.  select_variables builds the whole Posterior record,
frequency table, plug-in and acceptance included; nothing else constructs
one, and the benchmark row, report.json and the `ssgp select` printout are
each made from it.  Convergence is checked by hand from the trace CSV that
io.export_trace writes, never by automatic reruns.
"""

from dataclasses import dataclass

import numpy as np

from .gp import GpParams
from .sampler import Chain

RULES = ("modal", "median")


@dataclass(frozen=True)
class Posterior:
    """What a chain reports; select_variables builds it.

    `table` holds the distinct gamma vectors as (gamma tuple, frequency)
    rows, most frequent first, rows of equal frequency in lexicographic
    order.  `selected` holds 1-based variable indices.  `params` is the
    plug-in of posterior means of mu, sigma2 and phi.  `accept_rate` is the
    chain's MH acceptance over every scan and `accept_rate_kept` over the
    scans after burn-in, None only for a chain whose meta has no such key.
    """

    modal_gamma: tuple
    modal_freq: float
    marginal: np.ndarray
    selected: frozenset
    table: tuple
    rule: str
    tie: bool
    params: GpParams
    accept_rate: float
    accept_rate_kept: float | None

    def selection_fields(self) -> dict:
        """The selection as the JSON fields a benchmark row and report.json share."""
        return {
            "modal_gamma": [int(g) for g in self.modal_gamma],
            "modal_freq": float(self.modal_freq),
            "marginal_inclusion": [float(v) for v in self.marginal],
            "selected": sorted(int(k) for k in self.selected),
        }


def select_variables(chain: Chain, rule: str = "modal") -> Posterior:
    """Tabulate a chain's gamma draws, apply a selection rule, and average
    its draws into the plug-in.

    "modal" selects the variables flagged in the most frequent gamma vector;
    a frequency tie is broken toward the lexicographically smaller vector
    and flagged.  "median" instead selects marginal inclusion > 1/2, the
    fraction of stored draws with gamma_k = 1.
    """
    if rule not in RULES:
        raise ValueError(f"unknown selection rule {rule!r}")
    if chain.size == 0:
        raise ValueError("empty chain")
    # The draws sorted lexicographically (lexsort's last key is its first),
    # then counted by runs of equal rows; the stable sort by descending
    # count keeps ties in lexicographic order.
    draws = chain.gamma[np.lexsort(chain.gamma.T[::-1])]
    starts = np.flatnonzero(np.r_[True, (draws[1:] != draws[:-1]).any(axis=1)])
    vecs, counts = draws[starts], np.diff(np.r_[starts, len(draws)])
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
    params = GpParams(float(chain.mu.mean()), float(chain.sigma2.mean()), chain.phi.mean(axis=0))
    return Posterior(modal_gamma, modal_freq, marginal, selected, table, rule, tie, params,
                     chain.accept_rate, chain.meta.get("accept_rate_kept"))
