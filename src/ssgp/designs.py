"""Space-filling designs: random and maximin Latin hypercubes, domain scaling.

A Latin hypercube design puts exactly one point in each of the n equal strata
of [0, 1] per dimension.  The maximin variant improves the minimum pairwise
distance of a random start by within-column swaps, which preserve the
stratification by construction.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

KINDS = ("maximin-lhd", "random-lhd")


@dataclass(frozen=True)
class Design:
    """A set of points in the unit hypercube, one row per point."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {pts.shape}")
        object.__setattr__(self, "points", pts)


def _as_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def random_lhd(n: int, d: int, seed) -> Design:
    """Random Latin hypercube: coordinate k of point i is (perm_k(i) - u)/n.

    perm_k is a uniform random permutation of 1..n and u ~ U(0,1), so each
    column lands exactly once in each stratum [(i-1)/n, i/n).
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    rng = _as_rng(seed)
    pts = np.empty((n, d))
    for k in range(d):
        perm = rng.permutation(n) + 1
        pts[:, k] = (perm - rng.uniform(size=n)) / n
    return Design(pts)


def _min_dist_and_crit(d2):
    # Criterion pair from pdist's squared distances: (min pairwise distance,
    # sum of inverse squared distances).  The second breaks ties among
    # equal-min configurations.
    return float(np.sqrt(d2.min())), float(np.sum(1.0 / d2))


# Candidate swaps screened at a time by maximin_lhd.
_SCREEN_BATCH = 32


def _screen_slack(d: int) -> float:
    # Coordinates lie in [0, 1], so a squared distance is a sum of d terms
    # in [0, 1], and both the sweep's sum and the screen's update of a
    # stored one lie within (d + 3)^2 2^-53 of the true value.  The slack is
    # four times the sum of the two bounds.
    return (d + 3) ** 2 * 2.0**-50


def _screen_floor(best_d2: float, d: int) -> float:
    # A screened minimum below this floor belongs to a swap that the sweep
    # rejects early: its own sum is then below best_d2 (1 - 2^-48), and the
    # rounded square root of such a sum is below that of best_d2.
    return best_d2 * (1.0 - 2.0**-48) - _screen_slack(d)


def maximin_lhd(n: int, d: int, seed, sweeps: int | None = None) -> Design:
    """Maximin Latin hypercube via within-column pair-swap hill climbing.

    Starts from random_lhd and tries `sweeps` (default 100*n, at least 0)
    candidate swaps, each exchanging two entries of one column.  A swap is
    kept when it raises the minimum pairwise distance, or leaves it
    unchanged while lowering the inverse-squared-distance sum.  Swaps always involve one of
    the two currently closest points, the pair that limits the criterion.

    A swap moves only points a and b, so each sweep recomputes only their
    distances to the others, in the same order of summation over the
    coordinates as pdist (Jin, Chen & Sudjianto 2005).  A swap that brings
    a or b closer to some point than the current minimum is rejected
    without the inverse-square sum: the other distances cannot raise the
    minimum back.

    Most sweeps end at that early reject, so the sweeps are screened in
    batches first.  A sweep's draws (which end of the closest pair is a,
    the partner b, the column k) never depend on the design, so all are
    drawn up front in the search's order, and the generator ends where the
    search leaves it.  Up to _SCREEN_BATCH candidate swaps at a time are
    screened against the current design: a's squared distances after the
    swap are d2(a, p) - (x_ak - x_pk)^2 + (x_bk - x_pk)^2, and b's likewise.
    A candidate is passed over only when its lowest screened distance lies
    below the current minimum by more than the rounding bound
    _screen_slack(d), so that the sweep would reject it early.  The first
    candidate not passed over runs the sweep in full, and screening resumes
    after it.  The screen never accepts a swap, so the design is bitwise
    the one the sweep-by-sweep search makes.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if sweeps is not None and sweeps < 0:
        raise ValueError(f"sweeps must be >= 0, got {sweeps}")
    rng = _as_rng(seed)
    design = random_lhd(n, d, rng)
    # One row per coordinate, so the axis-0 sum below adds coordinate by
    # coordinate, as pdist does.
    cols = design.points.T.copy()
    if sweeps is None:
        sweeps = 100 * n
    # Each sweep's draws, in the search's order: whether a is the first end
    # of the closest pair, the partner before it skips a, and the column.
    # Below 2^31, an int32 draw takes the same 32-bit words as the default
    # int64 one, at half the call's cost.
    random, integers, i32 = rng.random, rng.integers, np.int32
    draws = ((random() < 0.5, integers(n - 1, dtype=i32), integers(d, dtype=i32)) for _ in range(sweeps))
    first, partner, coord = np.fromiter(draws, dtype=(np.intp, 3), count=sweeps).T

    # d2 holds the squared distances in pdist order, plus a spare last slot
    # that pos[p, p] points at: pos[p, q] is the slot of pair {p, q}, so a
    # point's whole row of distances is scattered by d2[pos[p]] = row, and
    # gathered into the n x n matrix dist = d2[pos].
    i, j = np.triu_indices(n, k=1)
    npairs = len(i)
    pos = np.full((n, n), npairs)
    pos[i, j] = pos[j, i] = np.arange(npairs)
    d2 = np.append(pdist(design.points, "sqeuclidean"), np.inf)
    best_min, best_crit = _min_dist_and_crit(d2[:npairs])
    closest = int(np.argmin(d2[:npairs]))
    dist, floor = d2[pos], _screen_floor(d2[closest], d)
    sweep = 0
    while sweep < sweeps:
        stop = min(sweep + _SCREEN_BATCH, sweeps)
        t = np.arange(stop - sweep)
        a = np.array([j[closest], i[closest]]).take(first[sweep:stop])
        b = partner[sweep:stop]
        b = b + (b >= a)
        ends, k = np.array([a, b]), coord[sweep:stop]
        # sq[0] holds (x_ak - x_pk)^2 for every p, sq[1] the same for b, and
        # the swap trades them: row 0 of `screened` is a's squared distances
        # after it, row 1 b's.
        sq = cols[k, ends][:, :, None] - cols[k]
        sq *= sq
        screened = dist[ends]
        screened -= sq
        screened += sq[::-1]
        # a's distance to b does not change; a point's to itself is no pair.
        screened[0, t, b] = screened[1, t, a] = np.inf
        low = screened.min(axis=2)
        survivors = np.flatnonzero(np.minimum(low[0], low[1]) >= floor)
        if not survivors.size:
            sweep = stop
            continue
        sweep += int(survivors[0])
        a, b, k = int(a[survivors[0]]), int(b[survivors[0]]), int(coord[sweep])
        sweep += 1
        cols[k, a], cols[k, b] = cols[k, b], cols[k, a]
        diff = cols.take((a, b), axis=1)[:, :, None] - cols[:, None, :]
        diff *= diff
        rows = diff.sum(axis=0)
        # A point's distance to itself is no pair; it lands in the spare slot.
        rows[0, a] = rows[1, b] = np.inf
        if math.sqrt(rows.min()) < best_min:
            cols[k, a], cols[k, b] = cols[k, b], cols[k, a]
            continue
        new_d2 = d2.copy()
        new_d2[pos[a]] = rows[0]
        new_d2[pos[b]] = rows[1]
        new_min, new_crit = _min_dist_and_crit(new_d2[:npairs])
        if new_min > best_min or (new_min == best_min and new_crit < best_crit):
            best_min, best_crit, d2 = new_min, new_crit, new_d2
            closest = int(np.argmin(d2[:npairs]))
            dist, floor = d2[pos], _screen_floor(d2[closest], d)
        else:
            cols[k, a], cols[k, b] = cols[k, b], cols[k, a]
    return Design(cols.T.copy())


def scale_points(points, ranges, direction: str = "from_unit") -> np.ndarray:
    """Affine map between the unit hypercube and the original domain.

    direction "from_unit" maps [0,1]^d onto the ranges; "to_unit" inverts it.
    Ranges are (min, max) pairs with max > min.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rng_arr = np.asarray(ranges, dtype=float)
    if rng_arr.ndim != 2 or rng_arr.shape[1] != 2:
        raise ValueError(f"ranges must be a (d, 2) array, got shape {rng_arr.shape}")
    if pts.shape[1] != rng_arr.shape[0]:
        raise ValueError(
            f"dimension mismatch: points have {pts.shape[1]} columns, ranges {rng_arr.shape[0]}"
        )
    lo, hi = rng_arr[:, 0], rng_arr[:, 1]
    width = hi - lo
    if np.any(width <= 0):
        bad = int(np.argmax(width <= 0)) + 1
        raise ValueError(f"zero-width range in dimension {bad}")
    if direction == "from_unit":
        return lo + pts * width
    if direction == "to_unit":
        return (pts - lo) / width
    raise ValueError(f"direction must be 'from_unit' or 'to_unit', got {direction!r}")
